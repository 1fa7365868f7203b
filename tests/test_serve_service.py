"""Unit coverage of the serve stack's parts (hub, snapshot, HTTP, CLI).

``test_serve_consistency``/``_load``/``_parity`` prove the end-to-end
contracts; this file pins the pieces those proofs stand on — the
copy-on-publish bit-identity of ``StreamRollup.copy()``, the hub's
swap semantics, ``snapshot_from_capture``'s refusal to serve
uncommitted state, the live-directory diagnosis in ``load_capture``,
the rollup-backed scorecard, the HTTP error surface, the digest-neutral
``serve`` scenario section, and the fleet coordinator's merged-prefix
publication.
"""

import dataclasses
import http.client
import json
import multiprocessing
import socket
import threading
import time

import numpy as np
import pytest

from repro.analysis.source import CaptureError, load_capture
from repro.analysis.validation import build_scorecard_rollup
from repro.scenario import ScenarioError, get_scenario
from repro.serve import (
    EndpointStats,
    ServeStats,
    ServerThread,
    SnapshotHub,
    render_serve_telemetry,
    snapshot_from_capture,
)
from repro.serve.snapshot import RollupSnapshot
from repro.stream import (
    StreamConfig,
    StreamRollup,
    load_checkpoint,
    run_stream_capture,
)
from repro.stream.checkpoint import rollup_path
from repro.traffic.workload import WorkloadConfig

CONFIG = StreamConfig(
    workload=WorkloadConfig(n_customers=48, days=2, seed=7, n_workers=1),
    window_days=1,
    compress=False,
)


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    capture_dir = tmp_path_factory.mktemp("serve_unit") / "cap"
    result = run_stream_capture(CONFIG, capture_dir)
    assert result.complete
    return capture_dir, result


def _get(server, path, method="GET"):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request(method, path)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


# -- copy-on-publish ---------------------------------------------------------


def test_rollup_copy_is_digest_identical_and_independent(finished):
    _, result = finished
    rollup = result.rollup
    clone = rollup.copy()
    assert clone is not rollup
    assert clone.state_digest() == rollup.state_digest()
    # mutating the original must not reach through to the copy
    before = clone.state_digest()
    rollup.bytes_down_c += 1.0
    rollup.flows_total += 1
    try:
        assert clone.state_digest() == before
    finally:  # restore the shared module fixture
        rollup.bytes_down_c -= 1.0
        rollup.flows_total -= 1


def test_empty_rollup_copy_round_trips():
    rollup = StreamRollup(["Spain", "Congo"], ["WEB"], ["dns0"])
    assert rollup.copy().state_digest() == rollup.state_digest()


# -- hub ---------------------------------------------------------------------


def test_hub_swaps_whole_snapshots(finished):
    capture_dir, _ = finished
    hub = SnapshotHub()
    assert hub.current() is None
    assert hub.wait(timeout=0.01) is None
    snapshot = snapshot_from_capture(capture_dir)
    hub.publish(snapshot)
    assert hub.current() is snapshot
    assert hub.wait(timeout=0.01) is snapshot
    assert hub.published == 1
    replacement = snapshot_from_capture(capture_dir)
    hub.publish(replacement)
    assert hub.current() is replacement
    assert hub.published == 2


def test_publish_state_copies_and_tags_committed_digest(finished):
    capture_dir, result = finished
    hub = SnapshotHub()
    hub.publish_state(result.rollup, result.checkpoint)
    snapshot = hub.current()
    assert snapshot.rollup is not result.rollup
    assert snapshot.digest == result.checkpoint.rollup_digest
    assert snapshot.windows_done == result.checkpoint.windows_done
    assert snapshot.complete and snapshot.progress == 1.0
    assert len(snapshot.telemetry) == result.checkpoint.windows_done


# -- snapshot_from_capture ---------------------------------------------------


def test_snapshot_from_capture_matches_checkpoint(finished):
    capture_dir, result = finished
    snapshot = snapshot_from_capture(capture_dir)
    assert snapshot.digest == result.checkpoint.rollup_digest
    assert snapshot.capture_key == result.checkpoint.capture_key
    assert snapshot.rollup.state_digest() == snapshot.digest


def test_snapshot_from_capture_refuses_empty_dir(tmp_path):
    with pytest.raises(CaptureError, match="nothing committed"):
        snapshot_from_capture(tmp_path)
    with pytest.raises(CaptureError, match="no capture"):
        snapshot_from_capture(tmp_path / "missing")


def test_snapshot_from_capture_refuses_rollup_ahead(finished, tmp_path):
    """rollup.npz ahead of checkpoint.json (kill between commit steps)
    must be refused, not served — resume heals it, serve must not."""
    import shutil

    capture_dir, result = finished
    torn = tmp_path / "torn"
    shutil.copytree(capture_dir, torn)
    ahead = result.rollup.copy()
    ahead.flows_total += 1
    ahead.bytes_down_c += 1.0
    ahead.save(rollup_path(torn))
    with pytest.raises(CaptureError, match="ahead of its checkpoint"):
        snapshot_from_capture(torn)


def test_snapshot_from_bare_rollup_file(finished, tmp_path):
    _, result = finished
    saved = tmp_path / "state.npz"
    result.rollup.save(saved)
    snapshot = snapshot_from_capture(saved)
    assert snapshot.digest == result.rollup.state_digest()
    assert snapshot.complete


# -- load_capture live-directory diagnosis -----------------------------------


def test_load_capture_reports_in_progress_when_manifest_missing(
    finished, tmp_path
):
    """A live directory caught before its first manifest rename should
    diagnose 'capture in progress (N%)' off the checkpoint, not claim
    the capture never ran."""
    import shutil

    capture_dir, _ = finished
    live = tmp_path / "live"
    shutil.copytree(capture_dir, live)
    (live / "manifest.json").unlink()
    with pytest.raises(CaptureError, match=r"capture in progress \(100%"):
        load_capture(live)


def test_load_capture_reports_in_progress_on_torn_manifest(finished, tmp_path):
    import shutil

    capture_dir, _ = finished
    live = tmp_path / "torn_manifest"
    shutil.copytree(capture_dir, live)
    (live / "manifest.json").write_text('{"schema":')  # torn write
    with pytest.raises(CaptureError, match="capture in progress"):
        load_capture(live)


def test_load_capture_still_diagnoses_plain_bad_manifest(tmp_path):
    """No checkpoint -> the old diagnosis survives the retry layer."""
    bare = tmp_path / "bare"
    bare.mkdir()
    with pytest.raises(CaptureError, match="without a manifest.json"):
        load_capture(bare)
    (bare / "manifest.json").write_text("{nope")
    with pytest.raises(CaptureError, match="corrupt capture manifest"):
        load_capture(bare)


# -- rollup scorecard --------------------------------------------------------


def test_build_scorecard_rollup_runs_headline_checks(finished):
    _, result = finished
    scorecard = build_scorecard_rollup(result.rollup)
    assert scorecard.total >= 10
    names = {check.name for check in scorecard.checks}
    assert any("Congo" in name for name in names)
    assert scorecard.render().startswith("Calibration scorecard")


# -- HTTP error surface ------------------------------------------------------


@pytest.fixture(scope="module")
def server(finished):
    capture_dir, _ = finished
    hub = SnapshotHub()
    hub.publish(snapshot_from_capture(capture_dir))
    thread = ServerThread(hub)
    thread.start()
    yield thread
    thread.stop()


def test_http_unknown_path_404_lists_endpoints(server):
    status, _, body = _get(server, "/nope")
    assert status == 404
    assert b"/reports" in body and b"/progress" in body


def test_http_unknown_report_404_lists_servable(server):
    status, _, body = _get(server, "/reports/nope")
    assert status == 404
    assert b"fig2" in body


def test_http_post_is_405(server):
    status, _, body = _get(server, "/reports/fig2", method="POST")
    assert status == 405


def test_http_head_has_headers_no_body(server):
    status, headers, body = _get(server, "/reports/fig2", method="HEAD")
    assert status == 200
    assert body == b""
    assert int(headers["Content-Length"]) > 0
    assert headers["X-Capture-Digest"]


def test_http_warmup_is_503_with_retry_after():
    empty = ServerThread(SnapshotHub())
    empty.start()
    try:
        status, headers, body = _get(empty, "/progress")
        assert status == 503
        assert headers.get("Retry-After") == "1"
    finally:
        empty.stop()


def test_http_sparse_snapshot_is_422_not_a_dropped_connection():
    """A snapshot whose statistics defeat a report (zero samples for a
    paper country) answers 422 — the client retries later windows."""
    rollup = StreamRollup(["Spain", "Congo"], ["WEB"], ["dns0"])
    hub = SnapshotHub()
    hub.publish(RollupSnapshot(
        rollup=rollup, digest=rollup.state_digest(),
        capture_key="sparse", windows_done=1, n_windows=3,
    ))
    thread = ServerThread(hub)
    thread.start()
    try:
        status, _, body = _get(thread, "/reports/fig8")
        assert status == 422
        assert b"not computable from this snapshot yet" in body
        # ...while structurally-empty-safe reports still serve
        status, _, _ = _get(thread, "/reports/fig2")
        assert status == 200
    finally:
        thread.stop()


def test_http_progress_and_headers_name_the_prefix(server, finished):
    _, result = finished
    status, headers, body = _get(server, "/progress")
    assert status == 200
    payload = json.loads(body)
    assert payload["digest"] == result.checkpoint.rollup_digest
    assert headers["X-Capture-Digest"] == result.checkpoint.rollup_digest
    assert headers["X-Capture-Windows"] == (
        f"{result.checkpoint.windows_done}/{result.checkpoint.n_windows}"
    )


def test_server_thread_rebind_same_port_raises(server):
    clash = ServerThread(SnapshotHub(), port=server.port)
    with pytest.raises(RuntimeError, match="bind"):
        clash.start()


def test_serve_stats_rows_and_rendering():
    stats = ServeStats()
    stats.observe("reports/fig2", 0.010, error=False)
    stats.observe("reports/fig2", 0.030, error=False)
    stats.observe("_unknown", 0.001, error=True)
    assert stats.requests_total == 3
    assert stats.errors_total == 1
    rows = {row["endpoint"]: row for row in stats.rows()}
    assert rows["reports/fig2"]["requests"] == 2
    assert rows["reports/fig2"]["p50_ms"] == pytest.approx(20.0, rel=0.01)
    table = render_serve_telemetry(stats)
    assert "reports/fig2" in table and "3 requests, 1 errors" in table


def test_serve_stats_percentiles_follow_recent_traffic():
    """A long-lived server keeps the latest samples, not the first ones:
    after a latency shift p99 moves to the new regime."""
    stats = ServeStats()
    cap = EndpointStats.MAX_SAMPLES
    for _ in range(cap):
        stats.observe("reports/fig2", 0.001, error=False)
    assert stats.rows()[0]["p99_ms"] == pytest.approx(1.0)
    for _ in range(cap // 2):
        stats.observe("reports/fig2", 0.050, error=False)
    row = stats.rows()[0]
    assert row["requests"] == cap + cap // 2
    assert row["p99_ms"] == pytest.approx(50.0)
    assert row["p50_ms"] == pytest.approx(25.5)  # half old, half new
    for _ in range(cap):
        stats.observe("reports/fig2", 0.002, error=False)
    assert stats.rows()[0]["p99_ms"] == pytest.approx(2.0)


def test_serve_stats_observe_proceeds_while_rows_computes(monkeypatch):
    """rows() computes its quantiles outside the stats lock: a request
    finishing meanwhile records its latency without waiting."""
    from repro.serve import service

    stats = ServeStats()
    stats.observe("reports/fig2", 0.010, error=False)
    entered, release = threading.Event(), threading.Event()
    quantiles = service._latency_quantiles_ms

    def slow_quantiles(samples):
        entered.set()
        assert release.wait(10)
        return quantiles(samples)

    monkeypatch.setattr(service, "_latency_quantiles_ms", slow_quantiles)
    taken = []
    reader = threading.Thread(target=lambda: taken.append(stats.rows()))
    reader.start()
    try:
        assert entered.wait(10)
        observed = threading.Event()
        writer = threading.Thread(
            target=lambda: (stats.observe("reports/fig2", 0.030, error=False), observed.set())
        )
        writer.start()
        assert observed.wait(5), "observe() waited for rows() to finish"
        writer.join()
    finally:
        release.set()
        reader.join(10)
    # rows() reports the state it copied; the concurrent sample lands
    assert taken[0][0]["requests"] == 1
    assert taken[0][0]["p50_ms"] == pytest.approx(10.0)
    assert stats.rows()[0]["requests"] == 2


def test_serve_stats_quantiles_match_separate_percentiles():
    rng = np.random.default_rng(5)
    stats = ServeStats()
    for latency in rng.lognormal(-5.0, 1.0, 5_000):
        stats.observe("reports/fig4", float(latency), error=False)
    samples = stats.endpoints["reports/fig4"].samples_ms()
    row = stats.rows()[0]
    assert row["p50_ms"] == float(np.percentile(samples, 50))
    assert row["p99_ms"] == float(np.percentile(samples, 99))


# -- scenario section --------------------------------------------------------


def test_serve_section_is_digest_neutral():
    base = get_scenario("baseline-geo")
    served = base.with_overrides({
        "serve.enabled": True, "serve.port": 8080, "serve.linger_s": 5.0,
    })
    assert served.digest() == base.digest()
    assert served.serve.enabled and served.serve.port == 8080


def test_serve_section_validates():
    base = get_scenario("baseline-geo")
    with pytest.raises(ScenarioError):
        base.with_overrides({"serve.port": 70000}).validate()
    with pytest.raises(ScenarioError):
        base.with_overrides({"serve.max_inflight": 0}).validate()
    with pytest.raises(ScenarioError):
        base.with_overrides({"serve.publish_interval_s": 0.0}).validate()


# -- fleet coordinator publication -------------------------------------------


def test_fleet_capture_publishes_merged_final_snapshot(tmp_path):
    from repro.fleet import run_fleet_capture

    scenario = get_scenario("baseline-geo").with_overrides({
        "population.n_customers": 48,
        "workload.days": 2,
        "workload.n_shards": 4,
        "execution.compress": False,
    })
    hub = SnapshotHub()
    result = run_fleet_capture(
        scenario, tmp_path / "fleet", partitions=2, snapshot_hub=hub
    )
    snapshot = hub.current()
    assert snapshot is not None
    assert snapshot.complete
    assert snapshot.digest == result.digest
    assert snapshot.rollup.state_digest() == result.digest
    assert hub.published >= 1


# -- live server beside a forked generation pool ------------------------------


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the generation pool forks only where fork exists",
)
def test_forked_generation_workers_do_not_hold_server_connections(tmp_path):
    """A connection open while ``repro stream --serve-port``'s capture
    forks its 2-worker generation pool reaches EOF as soon as the server
    answers it, not when the workers exit with the capture."""
    config = dataclasses.replace(
        CONFIG,
        workload=WorkloadConfig(
            n_customers=48, days=4, seed=7, n_workers=2, n_shards=2
        ),
    )
    hub = SnapshotHub()
    server = ServerThread(hub).start()
    client = socket.create_connection(("127.0.0.1", server.port), timeout=10)
    # an unfinished request: the server holds the connection open while
    # the capture forks its workers
    client.sendall(b"GET /progress HTTP/1.1\r\n")
    answers = []

    def read_to_eof(_telemetry) -> None:
        if answers:
            return
        started = time.perf_counter()
        client.sendall(b"\r\n")
        reply = b""
        try:
            while chunk := client.recv(65536):
                reply += chunk
        except socket.timeout:
            reply = None  # still open: a forked worker holds the socket
        answers.append((time.perf_counter() - started, reply))

    try:
        started = time.perf_counter()
        result = run_stream_capture(
            config, tmp_path / "cap", on_window=read_to_eof, snapshot_hub=hub
        )
        capture_s = time.perf_counter() - started
    finally:
        client.close()
        server.stop()
    assert result.complete
    [(eof_s, reply)] = answers
    assert reply is not None and reply.startswith(b"HTTP/1.1 200")
    assert eof_s < min(2.0, capture_s / 2)

