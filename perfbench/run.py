"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload stream-geo --seed 1 --seconds 40 --trace 0

Runs one workload against the program's public entry points, checks
every output against an oracle, and prints as its last stdout line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``
(measured with tracing off); with ``--trace 1`` they are the per-layer
ones, from a separate traced run that also reports its own overhead.
Lines before the last name the workload's metrics in the vocabulary of
``perfbench/README.md``.

The seed is the benchmark's: it becomes the scenario's workload seed and
the seed of the HTTP endpoint mix, so the same seed gives the same
inputs. Every workload's reason for being chosen, the metric
definitions and the prediction map are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import queue
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import common
import loadgen
import spans
from common import median
from loadgen import REPORTS

#: Settings of each workload. ``overrides`` are scenario dotted paths;
#: ``execution.workers = 0`` means one generation worker per core. Six
#: one-day windows let the depth-1 pipeline reach its steady state. The
#: captures have twice the subscribers of a 300-customer capture, in the
#: 2 shards repro plans for 300, at under half the flows each: half the
#: seed-to-seed spread in volume, and short enough for several captures
#: in one run. Generation time hardly depends on the flow rate while
#: spill time grows with it; at 0.4 stream-geo's spill alone outlasts
#: generation. serve-live's video sessions carry more flows per
#: customer, so 0.3 gives it a similar volume.
WORKLOADS: Dict[str, dict] = {
    "stream-geo": {
        "scenario": "baseline-geo",
        "overrides": {
            "population.n_customers": 600,
            "workload.flow_scale": 0.4,
            "workload.n_shards": 2,
            "workload.days": 6,
            "execution.workers": 0,
            "execution.pipeline_depth": 1,
            "execution.compress": True,
        },
    },
    "serve-live": {
        "scenario": "video-streaming",
        "overrides": {
            "population.n_customers": 600,
            "workload.flow_scale": 0.3,
            "workload.n_shards": 2,
            "workload.days": 6,
            "execution.workers": 0,
            "execution.pipeline_depth": 1,
            "execution.compress": True,
        },
        "rate": 30,
    },
}

#: The fleet capture a traced stream-geo run adds, so that the fleet
#: layers (dispatch, partition skew, merge) stay measured: heavy-growth
#: in 4 shards over 3 partitions of 2, 1 and 1 shards.
FLEET = {
    "scenario": "heavy-growth",
    "overrides": {
        "population.n_customers": 600,
        "workload.flow_scale": 0.65,
        "workload.days": 2,
        "execution.compress": False,
    },
    "partitions": 3,
}

#: Requests in flight at most, like a client with one connection per core.
MAX_CONNS = common.nproc()
CHILD_TIMEOUT_S = 170.0

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("traffic.gen_s", "s"),
    ("traffic.gen_ms_per_window", "ms"),
    ("traffic.flows", "count"),
    ("traffic.window_overhead_ratio", "ratio"),
    ("parallel.pool_breaks", "count"),
    ("parallel.speedup", "ratio"),
    ("stream.spill_s", "s"),
    ("stream.spill_mb", "MB"),
    ("stream.fold_s", "s"),
    ("stream.save_s", "s"),
    ("stream.digest_s", "s"),
    ("stream.checkpoint_s", "s"),
    ("stream.gen_blocked_s", "s"),
    ("stream.state_mb", "MB"),
    ("stream.io_retries", "count"),
    ("stream.window_latency_p50_ms", "ms"),
    ("fleet.partition_s_max", "s"),
    ("fleet.partition_skew", "ratio"),
    ("fleet.dispatch_s", "s"),
    ("fleet.merge_s", "s"),
    ("fleet.merge_mb", "MB"),
    ("fleet.heals", "count"),
    *((f"analysis.render_ms.{name}", "ms") for name in REPORTS + ("scorecard",)),
    ("analysis.renders", "count"),
    ("serve.publish_ms", "ms"),
    ("serve.publishes", "count"),
    ("serve.snapshot_load_s", "s"),
    ("serve.server_p99_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.client_p50_ms", "ms"),
    ("serve.client_p99_ms", "ms"),
    ("serve.status_422", "count"),
    ("serve.status_5xx", "count"),
    ("serve.transport_errors", "count"),
    ("serve.digests_seen", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.sent", "count"),
    ("trace.overhead_ratio", "ratio"),
)

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class Outcome:
    """What one run measured and how many of its operations failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.e2e: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.named: Dict[str, Tuple[float, str]] = {}
        """The workload's metrics under their descriptive names."""
        self.notes: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


# -- inputs shared between runs ----------------------------------------------------


def workload_spec(workload: str, seed: int, seconds: float, trace: bool,
                  workdir: Path) -> dict:
    settings = WORKLOADS[workload]
    return {
        "scenario": settings["scenario"],
        "overrides": dict(settings["overrides"], **{"workload.seed": seed}),
        "seconds": seconds,
        "seed": seed,
        "trace": trace,
        "workdir": str(workdir),
        "trace_out": str(common.WORK / "traces" / f"{workload}-seed{seed}.json"),
    }


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _cache_key(spec: dict) -> str:
    keyed = {
        "scenario": spec["scenario"],
        "overrides": spec["overrides"],
        "source": common.source_digest(),
    }
    return hashlib.sha256(json.dumps(keyed, sort_keys=True).encode()).hexdigest()[:16]


def reference(spec: dict, fresh: bool = False) -> dict:
    """The lockstep 1-worker capture of ``spec``'s scenario: its digest
    (cached per scenario, seed and program source, never timed) and,
    when ``fresh``, its wall time measured now."""
    path = common.CACHE / f"reference-{_cache_key(spec)}.json"
    cached: Optional[dict] = None
    if path.is_file():
        try:
            cached = json.loads(path.read_text())
        except ValueError:
            cached = None
    if cached is not None and not fresh:
        return cached
    result = common.run_child("reference", dict(spec, timed=fresh), CHILD_TIMEOUT_S)
    if cached is not None and cached["digest"] != result["digest"]:
        raise RuntimeError("the lockstep reference capture is not deterministic")
    common.CACHE.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result))
    return result


# -- capture workloads -----------------------------------------------------------


#: The window size the bounded window latency is stated at. A window's
#: commit work grows with its flows, and the seed alone moves a
#: capture's flow volume by 0.09-0.15 (interquartile range ÷ median over
#: ten seeds), so each capture's median window latency is scaled by
#: WINDOW_FLOWS ÷ its mean flows per window.
WINDOW_FLOWS = 250_000

#: Units of work per run at least; traced runs alternate plain and traced.
MIN_UNITS = 3


def repeat_units(spec: dict, run_unit: Callable[[int, bool], dict]) -> Tuple[List[dict], List[dict]]:
    """Run ``run_unit(i, traced)`` while another unit of median length
    still fits in the measured time (at least :data:`MIN_UNITS` times).
    In a traced run every second unit is traced. Returns the plain and
    the traced units; the traced units' spans are written out at the end."""
    plain: List[dict] = []
    traced: List[dict] = []
    traces: List[dict] = []
    walls: List[float] = []
    deadline = time.monotonic() + spec["seconds"]
    while len(walls) < MIN_UNITS or time.monotonic() + median(walls) < deadline:
        is_traced = spec["trace"] and len(walls) % 2 == 1
        started = time.monotonic()
        result = run_unit(len(walls), is_traced)
        walls.append(time.monotonic() - started)
        (traced if is_traced else plain).append(result["unit"])
        if result["trace"] is not None:
            traces.append(result["trace"])
    if traces:
        spans.write_traces(traces, spec["trace_out"])
    return plain, traced


def _child_unit(role: str, spec: dict) -> Callable[[int, bool], dict]:
    def run_unit(i: int, traced: bool) -> dict:
        workdir = Path(spec["workdir"]) / f"unit{i}"
        result = common.run_child(
            role, dict(spec, traced=traced, workdir=str(workdir)),
            CHILD_TIMEOUT_S, sample_rss=True,
        )
        result["unit"]["peak_rss_mb"] = result.pop("peak_rss_mb")
        return result

    return run_unit


def _capture_e2e(out: Outcome, ref: dict, plain: List[dict], traced: List[dict]) -> None:
    """The capture oracle, and the metrics every capture workload shares."""
    for unit in plain + traced:
        out.check(unit["digest"] == ref["digest"], f"capture digest {unit['digest'][:12]}")
    out.e2e = {
        "setup_s": median(u["setup_s"] for u in plain),
        "throughput_per_s": median(u["flows"] / u["wall_s"] for u in plain),
        "latency_ms": median(
            median(u["window_latency_ms"]) * WINDOW_FLOWS * u["windows"] / u["flows"]
            for u in plain
        ),
        "peak_rss_mb": median(u["peak_rss_mb"] for u in plain),
    }
    out.named["capture_flows_per_s"] = (out.e2e["throughput_per_s"], "flows/s")
    out.named["window_latency_p50_ms"] = (window_latency_ms(plain), "ms")


def _capture_layers(out: Outcome, plain: List[dict], traced: List[dict],
                    lockstep: Optional[dict] = None) -> None:
    """Per-layer numbers of the traced captures; ``lockstep`` is a
    lockstep 1-worker capture timed in this run, the speedup baseline."""
    def med(key: str) -> float:
        return median(u.get(key, 0.0) for u in traced)

    plain_wall = median(u["wall_s"] for u in plain)
    out.layers.update({
        "traffic.gen_s": med("gen_s"),
        "traffic.gen_ms_per_window": med("gen_ms_per_window"),
        "traffic.flows": med("flows"),
        "parallel.pool_breaks": float(sum(u["pool_breaks"] for u in plain + traced)),
        "stream.spill_s": med("stream.spill_s"),
        "stream.spill_mb": med("spill_mb"),
        "stream.fold_s": med("stream.fold_s"),
        "stream.save_s": med("stream.save_s"),
        "stream.digest_s": med("stream.digest_s"),
        "stream.checkpoint_s": med("stream.checkpoint_s"),
        "stream.gen_blocked_s": med("gen_blocked_s"),
        "stream.state_mb": med("state_mb"),
        "stream.io_retries": float(sum(u["io_retries"] for u in traced)),
        "stream.window_latency_p50_ms": window_latency_ms(traced),
        "serve.publish_ms": med("serve.publish_ms"),
        "serve.publishes": med("serve.publishes"),
        "trace.overhead_ratio": med("wall_s") / plain_wall - 1.0,
    })
    if lockstep is not None:
        out.layers["parallel.speedup"] = lockstep["wall_s"] / plain_wall


def run_stream_geo(spec: dict, out: Outcome) -> None:
    ref = reference(spec, fresh=spec["trace"])
    plain, traced = repeat_units(spec, _child_unit("stream", spec))
    _capture_e2e(out, ref, plain, traced)
    if spec["trace"]:
        _capture_layers(out, plain, traced, lockstep=ref)
        out.layers.update(common.run_child("contrast", spec, CHILD_TIMEOUT_S))
        _fleet_layers(spec, out)


def window_latency_ms(captures: List[dict]) -> float:
    """Median over captures of each capture's median window latency.

    Within a capture the latency grows with the window index while the
    queue in front of the commit thread fills, so pooling every window
    of every capture would mix those modes."""
    return median(median(c["window_latency_ms"]) for c in captures)


def _fleet_layers(spec: dict, out: Outcome) -> None:
    """One traced ``run_fleet_capture`` of :data:`FLEET`, checked against
    its single-process reference digest."""
    fleet = dict(
        spec,
        scenario=FLEET["scenario"],
        overrides=dict(FLEET["overrides"], **{"workload.seed": spec["seed"]}),
        partitions=FLEET["partitions"],
        max_parallel=common.nproc(),
        workdir=str(Path(spec["workdir"]) / "fleet"),
    )
    ref = reference(fleet)
    unit = _child_unit("fleet", fleet)(0, True)["unit"]
    out.check(unit["digest"] == ref["digest"], f"merged digest {unit['digest'][:12]}")
    out.layers.update({
        "fleet.partition_s_max": unit["partition_s_max"],
        "fleet.partition_skew": unit["partition_skew"],
        "fleet.dispatch_s": unit["dispatch_s"],
        "fleet.merge_s": unit["merge_s"],
        "fleet.merge_mb": unit["merge_mb"],
        "fleet.heals": float(unit["heals"]),
    })
    out.named["merge_latency_ms"] = (unit["merge_latency_ms"], "ms")


# -- serve workloads ---------------------------------------------------------------


def check_replies(out: Outcome, replies, published: Dict[str, bool],
                  expected: Dict[str, str], final: str) -> None:
    """The serve oracle, one check per reply.

    ``published`` maps each digest the producer published to whether
    that snapshot was the complete capture; ``expected`` maps a report
    path to the SHA-256 of the body the ``final`` digest must serve. A
    reply fails on a transport error, a status other than 200 or 422, a
    digest never published, a 422 for the complete capture, a second
    body for the same (path, digest), a report body under ``final``
    other than ``expected``, or a ``/progress`` that misstates its
    snapshot. A 422 for an incomplete prefix is not a failure."""
    bodies: Dict[Tuple[str, str], str] = {}
    for r in replies:
        out.check(*_reply_verdict(r, published, expected, final, bodies))


def _reply_verdict(r, published, expected, final, bodies) -> Tuple[bool, str]:
    if r.status == 0:
        return False, f"{r.path}: transport error"
    if r.digest not in published:
        return False, f"{r.path}: digest {r.digest[:12]!r} never published"
    if r.status == 422:
        return not published[r.digest], f"{r.path}: 422 for the complete capture"
    if r.status != 200:
        return False, f"{r.path}: HTTP {r.status}"
    first = bodies.setdefault((r.path, r.digest), r.body_sha)
    if first != r.body_sha:
        return False, f"{r.path}: two bodies under digest {r.digest[:12]}"
    if r.path == "/progress":
        try:
            doc = json.loads(r.body)
            ok = doc["digest"] == r.digest and doc["complete"] == published[r.digest]
        except (ValueError, KeyError, TypeError):
            ok = False
        return ok, f"{r.path}: does not describe snapshot {r.digest[:12]}"
    if r.digest == final and r.path in expected:
        return r.body_sha == expected[r.path], f"{r.path}: wrong body for the final digest"
    return True, ""


def _client_layers(out: Outcome, replies, late_ms: List[float], telemetry: dict) -> None:
    ok = [r.latency_ms for r in replies if r.status in (200, 422)]
    rows = [row for row in telemetry.get("endpoints", []) if row["requests"]]
    weight = sum(row["requests"] for row in rows) or 1
    server_p50 = sum(row["p50_ms"] * row["requests"] for row in rows) / weight
    out.layers.update({
        "serve.client_p50_ms": percentile(ok, 50),
        "serve.client_p99_ms": percentile(ok, 99),
        "serve.server_p99_ms": max((row["p99_ms"] for row in rows), default=0.0),
        "serve.queue_ms": percentile(ok, 50) - server_p50,
        "serve.status_422": float(sum(r.status == 422 for r in replies)),
        "serve.status_5xx": float(sum(r.status >= 500 for r in replies)),
        "serve.transport_errors": float(sum(r.status == 0 for r in replies)),
        "serve.digests_seen": float(len({r.digest for r in replies if r.digest})),
        "loadgen.late_ms_p99": percentile(late_ms, 99),
        "loadgen.sent": float(len(replies)),
    })


def run_serve_live(spec: dict, out: Outcome) -> None:
    ref = reference(spec)
    plain, traced = repeat_units(spec, lambda i, traced: _live_unit(spec, i, traced))
    for unit in plain + traced:
        out.check(unit["digest"] in unit["committed"], "final digest not committed")
        published = {digest: complete for digest, complete in unit["published"]}
        # The reference is the complete capture whatever the hub says.
        published[ref["digest"]] = True
        check_replies(out, unit["replies"] + unit["sweep"], published,
                      unit["expected_bodies"], unit["digest"])
    _capture_e2e(out, ref, plain, traced)
    ok = [r.latency_ms for u in plain for r in u["replies"] if r.status in (200, 422)]
    out.named.update({
        "serve_p50_ms": (percentile(ok, 50), "ms"),
        "serve_p99_ms": (percentile(ok, 99), "ms"),
    })
    if spec["trace"]:
        _capture_layers(out, plain, traced)
        replies = [r for u in traced for r in u["replies"]]
        late = [ms for u in traced for ms in u["late_ms"]]
        _client_layers(out, replies, late, traced[-1]["telemetry"])
        renders: Dict[str, List[float]] = {}
        for unit in traced:
            for name, ms in unit["render_ms"].items():
                renders.setdefault(name, []).extend(ms)
        out.layers.update(
            {f"analysis.render_ms.{name}": median(ms) for name, ms in renders.items()}
        )
        out.layers["analysis.renders"] = float(sum(len(ms) for ms in renders.values()))
        out.layers["serve.snapshot_load_s"] = median(u["snapshot_load_s"] for u in traced)


def _live_unit(spec: dict, i: int, traced: bool) -> dict:
    """One live capture in a fresh process, with the open-loop client
    sending from the server's first answer until the capture returns."""
    rate = WORKLOADS["serve-live"]["rate"]
    spawned = time.monotonic()
    workdir = Path(spec["workdir"]) / f"unit{i}"
    process = subprocess.Popen(
        common.child_command(
            "live", dict(spec, traced=traced, workdir=str(workdir), spawned_at=spawned)
        ),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=common.child_env(),
        cwd=str(common.ROOT),
        text=True,
    )
    lines: "queue.Queue[Optional[str]]" = queue.Queue()
    done = threading.Event()
    stdout: List[str] = []

    def pump() -> None:
        for line in process.stdout:
            stdout.append(line)
            if line.startswith("CAPTURE-DONE"):
                done.set()
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    sampler = common.RssSampler(process.pid).start()
    try:
        port = _wait_port(lines)
        _wait_answer(port)
        paths = loadgen.endpoint_mix(spec["seed"] * 1000 + i, int(rate * CHILD_TIMEOUT_S))
        load = loadgen.run_open_loop(
            "127.0.0.1", port, paths, rate, MAX_CONNS, stop=done.is_set
        )
        # Every endpoint once more under the final digest, for the body oracle.
        sweep = loadgen.sweep("127.0.0.1", port)
        telemetry = json.loads(loadgen.get("127.0.0.1", port, "/telemetry?format=json")[2])
        process.stdin.write("stop\n")
        process.stdin.flush()
        process.wait(CHILD_TIMEOUT_S)
    finally:
        peak_rss = sampler.stop()
        if process.poll() is None:
            process.kill()
            process.wait()
        reader.join(5.0)
    if process.returncode != 0:
        raise RuntimeError(f"live child exited with {process.returncode}")
    result = common.parse_result("".join(stdout))
    result["unit"].update(
        peak_rss_mb=peak_rss, replies=load.replies, sweep=sweep, late_ms=load.late_ms,
        telemetry=telemetry,
    )
    return result


def _wait_answer(port: int, timeout_s: float = 60.0) -> None:
    """Wait until ``port`` first answers 200."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            if loadgen.get("127.0.0.1", port, "/progress")[0] == 200:
                return
        except OSError:
            pass
        time.sleep(0.005)
    raise RuntimeError(f"server on port {port} never answered")


def _wait_port(lines: "queue.Queue[Optional[str]]", timeout_s: float = 60.0) -> int:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            line = lines.get(timeout=max(0.01, deadline - time.monotonic()))
        except queue.Empty:
            break
        if line is None:
            break
        if line.startswith("PORT "):
            return int(line.split()[1])
    raise RuntimeError("live child never reported its port")


RUNNERS: Dict[str, Callable[[dict, Outcome], None]] = {
    "stream-geo": run_stream_geo,
    "serve-live": run_serve_live,
}


def result_line(out: Outcome, trace: bool) -> dict:
    names = PER_LAYER if trace else END_TO_END
    source = out.layers if trace else out.e2e
    return {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": float(source.get(name, 0.0)), "unit": unit}
            for name, unit in names
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_source()
    common.import_path()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workdir = common.scratch_dir(f"run-{args.workload}")
    spec = workload_spec(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    out = Outcome()
    try:
        RUNNERS[args.workload](spec, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(
        f"{args.workload}: environment nproc={common.nproc()} "
        f"python={sys.version.split()[0]} numpy={np.__version__}"
    )
    out.named["failed_ratio"] = (out.failed / max(1, out.attempted), "ratio")
    for name, (value, unit) in out.named.items():
        print(f"{args.workload}: {name} = {value:.6g} {unit}")
    for note in out.notes:
        print(f"{args.workload}: {note}")
    print(json.dumps(result_line(out, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
