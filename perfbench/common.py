"""Paths, the source hash, statistics, child processes and memory sampling.

Everything the benchmark writes goes under ``.perfbench/`` at the root
of the checkout (listed in ``.gitignore``): reference digests are cached
there per scenario, seed and program, and each run's scratch capture
directories are removed when the run ends.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
CACHE = WORK / "cache"

RESULT_PREFIX = "PERFBENCH-RESULT "


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def require_source() -> None:
    """Exit non-zero when the program's sources are not beside us."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {SRC}/repro; run from a full "
            "checkout of the repository",
            file=sys.stderr,
        )
        raise SystemExit(2)


def import_path() -> None:
    """Make ``repro`` and the benchmark's own modules importable."""
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def source_digest() -> str:
    """A hash of every file under ``src/``: results cached across runs
    are only reused for the same program."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def scratch_dir(tag: str) -> Path:
    """A fresh empty directory under ``.perfbench/`` for one run."""
    path = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- statistics ----------------------------------------------------------------


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mb(n_bytes: float) -> float:
    return n_bytes / 1e6


# -- child processes -----------------------------------------------------------


def child_command(role: str, spec: dict) -> List[str]:
    return [sys.executable, str(HERE / "child.py"), role, json.dumps(spec)]


def parse_result(stdout: str) -> dict:
    for line in reversed(stdout.splitlines()):
        if line.startswith(RESULT_PREFIX):
            return json.loads(line[len(RESULT_PREFIX):])
    raise RuntimeError("child process printed no result")


def emit_result(payload: dict) -> None:
    """How a child hands its measurements to the parent."""
    sys.stdout.write(RESULT_PREFIX + json.dumps(payload) + "\n")
    sys.stdout.flush()


def run_child(role: str, spec: dict, timeout_s: float, sample_rss: bool = False) -> dict:
    """Run one child to completion; returns its result (and, with
    ``sample_rss``, the peak RSS of its process tree as ``peak_rss_mb``)."""
    started = time.monotonic()
    process = subprocess.Popen(
        child_command(role, dict(spec, spawned_at=started)),
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=str(ROOT),
        text=True,
    )
    sampler = RssSampler(process.pid).start() if sample_rss else None
    try:
        stdout, _ = process.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise
    finally:
        if sampler is not None:
            sampler.stop()
    if process.returncode != 0:
        raise RuntimeError(f"child {role} exited with {process.returncode}")
    result = parse_result(stdout)
    if sampler is not None:
        result["peak_rss_mb"] = sampler.peak_mb
    return result


# -- memory --------------------------------------------------------------------


def _children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(p) for p in handle.read().split())
        except OSError:
            continue
    return found


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb(pid: int) -> float:
    """Σ over ``pid`` and its live descendants of each one's peak RSS."""
    total, todo, seen = 0, [pid], set()
    while todo:
        current = todo.pop()
        if current in seen:
            continue
        seen.add(current)
        total += _peak_rss_kb(current)
        todo.extend(_children(current))
    return total / 1024.0


class RssSampler:
    """Peak resident memory of a process tree.

    Every 20 ms it sums the peak RSS (``VmHWM``) of each process alive
    in the tree; the result is the largest such sum. Per-process peaks
    are exact, so only which processes overlap in time is sampled.
    Forked workers share pages with their parent copy-on-write and are
    counted in full, as ``ps`` would show them.
    """

    def __init__(self, pid: int, interval_s: float = 0.02) -> None:
        self.pid = pid
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "RssSampler":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak_mb = max(self.peak_mb, tree_peak_rss_mb(self.pid))
            self._stop.wait(self.interval_s)

    def stop(self) -> float:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(5.0)
        return self.peak_mb
