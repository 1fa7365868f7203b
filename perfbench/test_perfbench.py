"""Self-tests of the benchmark's own code, at tiny sizes.

    python3 -m pytest perfbench -q

They check that every metric named in ``BENCHMARK.json`` is printed with
its unit, that each output oracle fails a run whose digest or expected
body was tampered with, and that the open-loop client charges a stalled
response to the requests queued behind it.
"""

from __future__ import annotations

import http.server
import json
import socketserver
import threading
import time

import numpy as np
import pytest

import common
import loadgen
import run

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())

TINY = {"population.n_customers": 40, "workload.days": 2, "workload.n_shards": 2}


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    """Tiny workloads, and every file under ``tmp_path``."""
    workloads = {
        name: dict(settings, overrides=dict(settings["overrides"], **TINY))
        for name, settings in run.WORKLOADS.items()
    }
    workloads["serve-live"].update(rate=20)
    monkeypatch.setattr(run, "WORKLOADS", workloads)
    monkeypatch.setattr(
        run, "FLEET", dict(run.FLEET, overrides=dict(run.FLEET["overrides"], **TINY))
    )
    monkeypatch.setattr(common, "WORK", tmp_path / "work")
    monkeypatch.setattr(common, "CACHE", tmp_path / "work" / "cache")


def bench(capsys, workload: str, trace: int, seconds: float = 0.5) -> dict:
    assert run.main([
        "--workload", workload, "--seed", "3", "--seconds", str(seconds),
        "--trace", str(trace),
    ]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    result = bench(capsys, workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_the_json_file_declares_what_run_prints():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def _tamper_reference(spec: dict) -> None:
    reference = run.reference(spec)
    path = common.CACHE / f"reference-{run._cache_key(spec)}.json"
    path.write_text(json.dumps(dict(reference, digest="0" * 24)))


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_capture_oracle_fires_on_a_tampered_reference_digest(capsys, workload):
    _tamper_reference(run.workload_spec(workload, 3, 0.5, False, common.scratch_dir("t")))
    result = bench(capsys, workload, 0)
    assert result["correct"] is False and result["failed"] >= run.MIN_UNITS


def test_merge_oracle_fires_on_a_tampered_reference_digest(capsys):
    spec = run.workload_spec("stream-geo", 3, 0.5, True, common.scratch_dir("t"))
    _tamper_reference(dict(
        spec, scenario=run.FLEET["scenario"],
        overrides=dict(run.FLEET["overrides"], **{"workload.seed": 3}),
    ))
    result = bench(capsys, "stream-geo", 1)
    assert result["correct"] is False and result["failed"] == 1


def test_body_oracle_fires_on_a_tampered_expected_body(capsys, monkeypatch):
    live_unit = run._live_unit

    def tampered(*args):
        result = live_unit(*args)
        result["unit"]["expected_bodies"]["/reports/fig2"] = "0" * 64
        return result

    monkeypatch.setattr(run, "_live_unit", tampered)
    result = bench(capsys, "serve-live", 0)
    # The closing sweep asks every endpoint under the final digest.
    assert result["correct"] is False and result["failed"] >= run.MIN_UNITS


def _reply(status=200, digest="early", path="/reports/fig2", body=b"fig2 body\n"):
    return loadgen.Reply(path=path, due=0.0, sent=0.0, done=0.001,
                         status=status, digest=digest, body=body)


def _progress(digest, complete):
    return json.dumps({"digest": digest, "complete": complete}).encode()


def test_reply_oracle_counts_each_kind_of_failure():
    good = {"/reports/fig2": _reply().body_sha}
    cases = [
        (_reply(), True),
        (_reply(digest="final"), True),
        (_reply(status=422), True),                     # sparse prefix
        (_reply(path="/progress", body=_progress("early", False)), True),
        (_reply(path="/progress", digest="final", body=_progress("final", True)), True),
        (_reply(digest="never-published"), False),
        (_reply(status=422, digest="tampered"), False),
        (_reply(status=422, digest="final"), False),     # complete capture
        (_reply(status=500), False),
        (_reply(status=0, digest=""), False),            # transport error
        (_reply(body=b"another fig2 body\n"), False),    # second body, same digest
        (_reply(path="/progress", body=_progress("final", True)), False),
        (_reply(path="/progress", digest="final", body=_progress("final", False)), False),
    ]
    for reply, ok in cases:
        out = run.Outcome()
        run.check_replies(out, [_reply(), _reply(digest="final"), reply],
                          {"early": False, "final": True}, good, "final")
        assert (out.attempted, out.failed) == (3, 0 if ok else 1), reply
    out = run.Outcome()
    run.check_replies(out, [_reply(digest="final")], {"final": True},
                      {"/reports/fig2": "0" * 64}, "final")
    assert out.failed == 1


class _StallingHandler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):  # noqa: N802 - http.server API
        if self.path == "/stall":
            time.sleep(0.3)
        body = b"ok\n"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_a_stalled_response_is_charged_to_the_requests_behind_it():
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _StallingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        paths = ["/fast"] * 5 + ["/stall"] + ["/fast"] * 10
        result = loadgen.run_open_loop(
            "127.0.0.1", server.server_address[1], paths, rate=50.0, max_conns=1
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5.0)
    assert not thread.is_alive()
    replies = sorted(result.replies, key=lambda r: r.due)
    assert [r.status for r in replies] == [200] * len(paths)
    stall_end = replies[5].done
    behind = [r for r in replies[6:] if r.due < stall_end]
    assert len(behind) >= 10  # 0.3 s stall at 50 req/s
    for r in behind:
        # Timed from when it was due: it waited out the rest of the stall.
        assert r.latency_ms >= (stall_end - r.due) * 1000.0
        assert r.queued_ms > 0.0
    assert replies[6].latency_ms > 250.0
    # The generator itself kept its schedule; the wait is the server's.
    assert np.percentile(result.late_ms, 99) < 50.0
