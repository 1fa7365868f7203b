"""The measured side of the benchmark: one fresh process per unit of work.

``python3 perfbench/child.py <role> <json spec>`` runs one role against
the program's public entry points and prints its measurements as one
``PERFBENCH-RESULT {...}`` line (see :func:`common.emit_result`):

* ``reference`` -- a lockstep (pipeline depth 0), 1-worker
  ``run_stream_capture``: the reference digest of a scenario and seed and the
  single-threaded baseline wall time.
* ``contrast``  -- per-window against one-shot generation, serially.
* ``stream``    -- one ``run_stream_capture``.
* ``fleet``     -- one traced ``run_fleet_capture``.
* ``live``      -- one ``run_stream_capture`` with a ``SnapshotHub`` and
  a ``ServerThread`` in the same process (what ``repro stream
  --serve-port`` runs); the parent drives HTTP load at it and says when
  to stop over stdin.

A fresh process per capture makes every capture pay process start-up
(part of ``setup_s``) and gives each its own peak RSS. A thin timestamp
wrapper on ``WindowedProducer.generate_window`` is on in every role:
set-up ends where the first window's generation starts, and a window's
commit latency starts where its generation ends. With ``traced`` set,
that wrapper also records each call as a ``traffic.generate_window``
span, the capture runs under the span wrappers of :mod:`spans`, and its
spans come back with the result.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import shutil
import sys
import time
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import common

common.import_path()

import numpy as np  # noqa: E402

import spans  # noqa: E402
from loadgen import REPORTS  # noqa: E402
from repro.analysis import registry  # noqa: E402
from repro.analysis.source import RollupSource  # noqa: E402
from repro.analysis.validation import build_scorecard_rollup  # noqa: E402
from repro.fleet import run_fleet_capture  # noqa: E402
from repro.scenario import get_scenario  # noqa: E402
from repro.serve import ServerThread, SnapshotHub, snapshot_from_capture  # noqa: E402
from repro.stream import (  # noqa: E402
    WindowedProducer,
    load_checkpoint,
    plan_windows,
    rollup_path,
    run_stream_capture,
)
import repro.fleet.coordinator as fleet_coordinator  # noqa: E402


def build_scenario(spec: dict):
    return get_scenario(spec["scenario"]).with_overrides(spec["overrides"])


class WindowClock:
    """Timestamps of ``generate_window`` calls, in any forked process,
    and their spans when a ``tracer`` is given.

    ``first_start`` lives in shared memory created before the fleet
    forks its partition workers, so the first generation start of any
    partition reaches the coordinator's process.
    """

    def __init__(self, tracer: Optional[spans.Tracer] = None) -> None:
        self.gen_end: Dict[int, float] = {}
        self.gen_seconds: List[float] = []
        self.first_start = multiprocessing.Value("d", 0.0)
        original = WindowedProducer.generate_window
        clock = self

        def timed(producer, window, *args, **kwargs):
            start = time.monotonic()
            with clock.first_start.get_lock():
                if clock.first_start.value == 0.0:
                    clock.first_start.value = start
            with _span(tracer, "traffic.generate_window"):
                frame = original(producer, window, *args, **kwargs)
            end = time.monotonic()
            clock.gen_end[window.index] = end
            clock.gen_seconds.append(end - start)
            return frame

        WindowedProducer.generate_window = timed


def _pool_breaks(caught: List[warnings.WarningMessage]) -> int:
    return sum(
        1
        for w in caught
        if issubclass(w.category, RuntimeWarning)
        and ("died" in str(w.message) or "unavailable" in str(w.message))
    )


_STREAM_SPANS = {
    "stream.spill_s": "stream.spill",
    "stream.fold_s": "stream.fold",
    "stream.save_s": "stream.save",
    "stream.digest_s": "stream.digest",
    "stream.checkpoint_s": "stream.checkpoint",
}


def _span(tracer: Optional[spans.Tracer], name: str, root: bool = False):
    return tracer.span(name, root=root) if tracer is not None else contextlib.nullcontext()


def stream_once(
    scenario,
    capture_dir: Path,
    clock: WindowClock,
    tracer: Optional[spans.Tracer] = None,
    hub: Optional[SnapshotHub] = None,
    on_commit=None,
    keep: bool = False,
) -> dict:
    """One ``run_stream_capture`` with the measurements around it; the
    capture directory is removed afterwards unless ``keep``."""
    latencies: List[float] = []

    def on_window(telemetry) -> None:
        latencies.append((time.monotonic() - clock.gen_end[telemetry.window]) * 1e3)
        if on_commit is not None:
            on_commit()

    config = scenario.stream_config()
    installed = spans.install(tracer) if tracer is not None else None
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            started = time.monotonic()
            with _span(tracer, "capture", root=True):
                result = run_stream_capture(
                    config, capture_dir, on_window=on_window, snapshot_hub=hub
                )
            wall = time.monotonic() - started
    finally:
        if installed is not None:
            installed.uninstall()
    telemetry = result.telemetry
    first_gen_at = clock.first_start.value
    out = {
        "wall_s": wall,
        "first_gen_at": first_gen_at,
        "flows": int(sum(t.flows for t in telemetry)),
        "windows": len(telemetry),
        "digest": result.checkpoint.rollup_digest,
        "window_latency_ms": latencies,
        "gen_s": float(sum(clock.gen_seconds)),
        "gen_ms_per_window": 1e3 * float(np.mean(clock.gen_seconds)) if clock.gen_seconds else 0.0,
        "gen_blocked_s": wall - (first_gen_at - started) - float(sum(clock.gen_seconds)),
        "spill_mb": common.mb(sum(t.bytes_spilled for t in telemetry)),
        "state_mb": common.mb(rollup_path(capture_dir).stat().st_size),
        "io_retries": int(sum(t.io_retries for t in telemetry)),
        "pool_breaks": _pool_breaks(caught),
    }
    if tracer is not None:
        out.update({key: tracer.total(name) for key, name in _STREAM_SPANS.items()})
        publishes = tracer.named("serve.publish")
        out["serve.publishes"] = len(publishes)
        out["serve.publish_ms"] = (
            1e3 * common.median(s.seconds for s in publishes) if publishes else 0.0
        )
        out["render_ms"] = tracer.render_ms()
    if not keep:
        shutil.rmtree(capture_dir, ignore_errors=True)
    return out


def fleet_once(scenario, fleet_dir: Path, clock: WindowClock, spec: dict,
               tracer: spans.Tracer) -> dict:
    """One traced ``run_fleet_capture``; the merge is timed at its
    public call."""
    merge_started: List[float] = []
    original_merge = fleet_coordinator.merge_partition_captures

    def timed_merge(*args, **kwargs):
        merge_started.append(time.monotonic())
        return original_merge(*args, **kwargs)

    fleet_coordinator.merge_partition_captures = timed_merge
    installed = spans.install(tracer)
    try:
        started = time.monotonic()
        with _span(tracer, "fleet", root=True):
            result = run_fleet_capture(
                scenario, fleet_dir, partitions=spec["partitions"],
                max_parallel=spec["max_parallel"],
            )
        done = time.monotonic()
    finally:
        installed.uninstall()
        fleet_coordinator.merge_partition_captures = original_merge
    busy = [row["busy_seconds"] for row in result.telemetry_rows]
    out = {
        "first_gen_at": clock.first_start.value,
        "digest": result.digest,
        "merge_latency_ms": (done - merge_started[0]) * 1e3,
        "partition_s_max": max(busy),
        "partition_skew": max(busy) / min(busy) if min(busy) > 0 else 0.0,
        "dispatch_s": merge_started[0] - started,
        "merge_s": tracer.total("fleet.merge"),
        "merge_mb": common.mb(_partition_bytes_spilled(fleet_dir)),
        "heals": int(result.total_heals),
    }
    shutil.rmtree(fleet_dir, ignore_errors=True)
    return out


def _partition_bytes_spilled(fleet_dir: Path) -> int:
    """Window bytes the partitions spilled (their checkpoint telemetry),
    which the merge reads back."""
    total = 0
    for partition in sorted((fleet_dir / "partitions").iterdir()):
        checkpoint = load_checkpoint(partition)
        if checkpoint is not None:
            total += sum(t.bytes_spilled for t in checkpoint.telemetry)
    return total


def window_overhead_ratio(scenario) -> float:
    """Σ per-window generation ÷ one ``generate_shard_days`` over all
    days, shard by shard, serially in this process."""
    generator = scenario.build_generator()
    days = generator.config.days
    windows = plan_windows(days, scenario.stream.window_days)
    per_window = one_shot = 0.0
    for shard in generator.shard_plan():
        rng = np.random.default_rng(shard.index)
        started = time.perf_counter()
        for window in windows:
            generator.generate_shard_days(shard, window.day_lo, window.day_hi, rng)
        per_window += time.perf_counter() - started
        started = time.perf_counter()
        generator.generate_shard_days(shard, 0, days, rng)
        one_shot += time.perf_counter() - started
    return per_window / one_shot


# -- roles -----------------------------------------------------------------------


def role_reference(spec: dict) -> dict:
    """Lockstep, one worker; spill compression only when ``timed``
    (it is execution-only, so the digest is the same either way)."""
    overrides = {"execution.workers": 1, "execution.pipeline_depth": 0}
    if not spec.get("timed"):
        overrides["execution.compress"] = False
    scenario = build_scenario(spec).with_overrides(overrides)
    capture_dir = Path(spec["workdir"]) / "reference"
    started = time.monotonic()
    result = run_stream_capture(scenario.stream_config(), capture_dir)
    wall = time.monotonic() - started
    shutil.rmtree(capture_dir, ignore_errors=True)
    return {
        "digest": result.checkpoint.rollup_digest,
        "wall_s": wall,
        "flows": int(sum(t.flows for t in result.telemetry)),
    }


def role_contrast(spec: dict) -> dict:
    """The generation contrast behind ``traffic.window_overhead_ratio``."""
    return {"traffic.window_overhead_ratio": window_overhead_ratio(build_scenario(spec))}


def _unit(spec: dict, measured: dict, tracer: Optional[spans.Tracer]) -> dict:
    """A unit's result: set-up counted from this process's spawn."""
    measured["setup_s"] = measured.pop("first_gen_at") - spec["spawned_at"]
    return {"unit": measured, "trace": tracer.payload() if tracer else None}


def role_stream(spec: dict) -> dict:
    tracer = spans.Tracer() if spec["traced"] else None
    measured = stream_once(
        build_scenario(spec), Path(spec["workdir"]) / "capture", WindowClock(tracer), tracer
    )
    return _unit(spec, measured, tracer)


def role_fleet(spec: dict) -> dict:
    tracer = spans.Tracer()
    measured = fleet_once(
        build_scenario(spec), Path(spec["workdir"]) / "fleet", WindowClock(tracer), spec, tracer
    )
    return _unit(spec, measured, tracer)


class RecordingHub(SnapshotHub):
    """A :class:`SnapshotHub` that remembers every digest it published,
    and whether that snapshot was the complete capture, before any
    reader can see it."""

    def __init__(self) -> None:
        super().__init__()
        self.history: List[Tuple[str, bool]] = []

    def publish(self, snapshot) -> None:
        self.history.append((snapshot.digest, snapshot.complete))
        super().publish(snapshot)


def expected_bodies(snapshot) -> Dict[str, str]:
    """SHA-256 of the body each report endpoint must serve for
    ``snapshot``: this process's own ``registry.run`` and
    ``build_scorecard_rollup`` renders of it, as ``repro stream-report``
    prints them."""
    renders = {
        f"/reports/{name}": (
            lambda name=name: registry.run(name, RollupSource(snapshot.rollup), prefer="rollup")
        )
        for name in REPORTS
    }
    renders["/scorecard"] = lambda: build_scorecard_rollup(snapshot.rollup).render()
    expected = {}
    for path, render in renders.items():
        try:
            expected[path] = hashlib.sha256((render() + "\n").encode()).hexdigest()
        except Exception:  # noqa: BLE001 - no body is right; the server's 422 fails too
            expected[path] = ""
    return expected


def role_live(spec: dict) -> dict:
    """One capture with a live server in this process. Protocol with
    the parent on stdio: ``PORT <n>`` once bound, ``CAPTURE-DONE`` when
    the capture returns, then the result once the parent writes a line
    to stdin (after its last request). The result carries the digests
    published and the bodies the final snapshot must serve."""
    scenario = build_scenario(spec)
    hub = RecordingHub()
    server = ServerThread(hub, max_inflight=scenario.serve.max_inflight).start()
    committed: List[str] = []
    tracer = spans.Tracer() if spec["traced"] else None
    try:
        print(f"PORT {server.port}", flush=True)
        capture_dir = Path(spec["workdir"]) / "capture"
        measured = stream_once(
            scenario, capture_dir, WindowClock(tracer), tracer, hub=hub,
            on_commit=lambda: committed.append(hub.current().digest),
            keep=True,
        )
        if tracer is not None:
            # What `repro serve --dir` pays to load the finished capture.
            started = time.perf_counter()
            snapshot_from_capture(capture_dir)
            measured["snapshot_load_s"] = time.perf_counter() - started
        shutil.rmtree(capture_dir, ignore_errors=True)
        print("CAPTURE-DONE", flush=True)
        sys.stdin.readline()
    finally:
        server.stop()
    measured["published"] = hub.history
    measured["committed"] = committed
    measured["expected_bodies"] = expected_bodies(hub.current())
    return _unit(spec, measured, tracer)


ROLES = {
    "reference": role_reference,
    "contrast": role_contrast,
    "stream": role_stream,
    "fleet": role_fleet,
    "live": role_live,
}


def main(argv: List[str]) -> int:
    role, spec = argv[0], json.loads(argv[1])
    common.emit_result(ROLES[role](spec))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
