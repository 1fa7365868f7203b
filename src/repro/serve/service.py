"""The live analytics HTTP service (stdlib asyncio, no frameworks).

A minimal HTTP/1.1 GET server on :func:`asyncio.start_server` — the
operator's monitoring deck for a running capture. Every response is
rendered from the :class:`~repro.serve.snapshot.SnapshotHub`'s current
:class:`~repro.serve.snapshot.RollupSnapshot` and tagged with that
snapshot's committed digest and progress (``X-Capture-Digest`` /
``X-Capture-Progress`` headers, and the same fields in JSON
envelopes), so a client can always tell *which* committed window
prefix it is looking at.

Endpoints (GET/HEAD only):

* ``/reports``                — JSON list of servable report names
* ``/reports/<name>``        — one registry report; markdown by
  default, ``?format=json`` for an envelope with the digest fields
* ``/progress``              — windows committed / total, digest
* ``/telemetry``             — per-window producer counters plus the
  server's own per-endpoint latency/QPS counters
* ``/scorecard``             — paper-vs-measured calibration scorecard
* ``/capabilities``          — the report × source capability matrix

Rendering a report is CPU-bound numpy under the GIL, so the handler
applies backpressure with a semaphore: at most ``max_inflight``
requests render concurrently, the rest queue in the event loop (and
ultimately in the listen backlog) instead of stampeding the process.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
import weakref
from asyncio.trsock import TransportSocket
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

import numpy as np

from repro.analysis import registry
from repro.analysis.aggregate import format_table
from repro.analysis.source import CaptureError, RollupSource
from repro.analysis.validation import build_scorecard_rollup
from repro.serve.snapshot import RollupSnapshot, SnapshotHub

_MAX_REQUEST_LINE = 8192
_MAX_HEADER_LINES = 64


@dataclass
class EndpointStats:
    """Latency/QPS counters for one endpoint (``/telemetry`` fodder)."""

    endpoint: str
    requests: int = 0
    errors: int = 0
    _latencies_ms: Deque[float] = field(
        default_factory=lambda: deque(maxlen=EndpointStats.MAX_SAMPLES), repr=False
    )

    #: Retain the most recent this many samples per endpoint: enough
    #: for stable p99 under the 500-client load test, bounded on a
    #: long-lived server, and recent enough that the percentiles keep
    #: following the traffic.
    MAX_SAMPLES = 100_000

    def observe(self, latency_s: float, error: bool) -> None:
        self.requests += 1
        if error:
            self.errors += 1
        self._latencies_ms.append(latency_s * 1000.0)

    def samples_ms(self) -> List[float]:
        """A copy of the retained latencies (one C-level list copy)."""
        return list(self._latencies_ms)


def _latency_quantiles_ms(samples: List[float]) -> Tuple[float, float]:
    """(p50, p99) of ``samples`` in one ``np.percentile`` call."""
    if not samples:
        return float("nan"), float("nan")
    p50, p99 = np.percentile(samples, (50, 99))
    return float(p50), float(p99)


class ServeStats:
    """Thread-safe per-endpoint counter table for one server."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self.endpoints: Dict[str, EndpointStats] = {}

    def observe(self, endpoint: str, latency_s: float, error: bool) -> None:
        with self._lock:
            stats = self.endpoints.setdefault(endpoint, EndpointStats(endpoint))
            stats.observe(latency_s, error)

    @property
    def requests_total(self) -> int:
        with self._lock:
            return sum(s.requests for s in self.endpoints.values())

    @property
    def errors_total(self) -> int:
        with self._lock:
            return sum(s.errors for s in self.endpoints.values())

    def qps(self) -> float:
        elapsed = time.monotonic() - self._started
        return self.requests_total / elapsed if elapsed > 0 else 0.0

    def rows(self) -> List[dict]:
        # Copy counters and samples under the lock; the quantiles are
        # computed outside it, so observe() never waits on them.
        with self._lock:
            elapsed = time.monotonic() - self._started
            taken = [
                (s.endpoint, s.requests, s.errors, s.samples_ms())
                for s in sorted(self.endpoints.values(), key=lambda s: s.endpoint)
            ]
        rows = []
        for endpoint, requests, errors, samples in taken:
            p50, p99 = _latency_quantiles_ms(samples)
            rows.append(
                {
                    "endpoint": endpoint,
                    "requests": requests,
                    "errors": errors,
                    "p50_ms": p50,
                    "p99_ms": p99,
                    "qps": requests / elapsed if elapsed > 0 else 0.0,
                }
            )
        return rows


def render_serve_telemetry(stats: ServeStats) -> str:
    """The per-endpoint latency/QPS table, in the house table style."""
    rows = [
        (
            row["endpoint"],
            f"{row['requests']:,}",
            f"{row['errors']:,}",
            f"{row['p50_ms']:.2f}",
            f"{row['p99_ms']:.2f}",
            f"{row['qps']:.1f}",
        )
        for row in stats.rows()
    ]
    table = format_table(
        ["Endpoint", "Requests", "Errors", "p50 ms", "p99 ms", "QPS"],
        rows,
        title="Serve telemetry (per endpoint)",
    )
    return table + (
        f"\n{stats.requests_total:,} requests, "
        f"{stats.errors_total:,} errors, {stats.qps():.1f} QPS overall"
    )


def _servable_reports() -> List[registry.ReportSpec]:
    return [spec for spec in registry.specs() if spec.compute_rollup is not None]


class ReportServer:
    """The asyncio HTTP endpoint over a :class:`SnapshotHub`."""

    def __init__(
        self,
        hub: SnapshotHub,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        stats: Optional[ServeStats] = None,
    ) -> None:
        self.hub = hub
        self.host = host
        self.port = port
        self.stats = stats if stats is not None else ServeStats()
        self._max_inflight = max(1, int(max_inflight))
        self._gate: Optional[asyncio.Semaphore] = None
        self._server: Optional[asyncio.base_events.Server] = None
        # Listening and accepted sockets, for release_in_forked_child.
        self._sockets: Set[TransportSocket] = set()

    async def start(self) -> None:
        # The semaphore must be created on the serving loop.
        self._gate = asyncio.Semaphore(self._max_inflight)
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._sockets.update(self._server.sockets)

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def release_in_forked_child(self) -> None:
        """Drop a forked child's copies of this server's sockets.

        A child forked while the server runs (a generation worker of
        ``repro stream --serve-port``) inherits the listening socket and
        every open connection; its copies would keep a ``Connection:
        close`` response from reaching EOF until the child exits. Each
        descriptor still open at the fork is pointed at ``/dev/null``
        rather than closed, so the child's copies of the socket objects
        can never close a reused number later; a socket already closed
        reports ``fileno() == -1`` and is skipped.
        """
        fds = [fd for fd in (sock.fileno() for sock in self._sockets) if fd >= 0]
        if not fds:
            return
        null = os.open(os.devnull, os.O_RDWR)
        try:
            for fd in fds:
                os.dup2(null, fd)
        finally:
            os.close(null)

    # -- request plumbing ---------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        sock = writer.get_extra_info("socket")
        self._sockets.add(sock)
        try:
            request = await asyncio.wait_for(reader.readline(), timeout=30.0)
            if not request:
                return
            if len(request) > _MAX_REQUEST_LINE:
                await self._respond(writer, "HEAD", 431, "text/plain", b"", {})
                return
            for _ in range(_MAX_HEADER_LINES):
                line = await asyncio.wait_for(reader.readline(), timeout=30.0)
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request.decode("latin-1").split()
            if len(parts) != 3:
                await self._respond(writer, "GET", 400, "text/plain",
                                    b"bad request line\n", {})
                return
            method, target, _version = parts
            started = time.perf_counter()
            try:
                async with self._gate:
                    status, ctype, body, extra, endpoint = self._dispatch(
                        method, target
                    )
            except Exception as exc:  # never drop the connection silently
                status, ctype, endpoint = 500, "text/plain", "_error"
                body, extra = f"internal error: {exc}\n".encode(), {}
            self.stats.observe(
                endpoint, time.perf_counter() - started, error=status >= 400
            )
            await self._respond(writer, method, status, ctype, body, extra)
        except (asyncio.TimeoutError, ConnectionError):
            pass
        finally:
            self._sockets.discard(sock)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        method: str,
        status: int,
        ctype: str,
        body: bytes,
        extra: Dict[str, str],
    ) -> None:
        reason = {
            200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 422: "Unprocessable Entity",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error", 503: "Service Unavailable",
        }.get(status, "OK")
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {ctype}; charset=utf-8",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        head += [f"{k}: {v}" for k, v in extra.items()]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        if method != "HEAD":
            writer.write(body)
        await writer.drain()

    # -- routing -------------------------------------------------------

    def _dispatch(
        self, method: str, target: str
    ) -> Tuple[int, str, bytes, Dict[str, str], str]:
        """Route one request; returns (status, ctype, body, headers,
        endpoint-key). Pure and synchronous — runs under the inflight
        gate on the event loop, which serializes numpy renders."""
        split = urlsplit(target)
        path = unquote(split.path).rstrip("/") or "/"
        params = parse_qs(split.query)
        fmt = params.get("format", ["markdown"])[0]

        if method not in ("GET", "HEAD"):
            return 405, "text/plain", b"GET and HEAD only\n", {}, "_method"

        snapshot = self.hub.current()
        if snapshot is None:
            return (
                503, "text/plain",
                b"no snapshot published yet (capture warming up)\n",
                {"Retry-After": "1"}, "_warmup",
            )
        extra = {
            "X-Capture-Digest": snapshot.digest,
            "X-Capture-Progress": f"{snapshot.progress:.6f}",
            "X-Capture-Windows": f"{snapshot.windows_done}/{snapshot.n_windows}",
        }

        try:
            if path == "/progress":
                return (*self._progress(snapshot), extra, "progress")
            if path == "/telemetry":
                return (*self._telemetry(snapshot, fmt), extra, "telemetry")
            if path == "/scorecard":
                return (*self._scorecard(snapshot, fmt), extra, "scorecard")
            if path == "/capabilities":
                return (*self._capabilities(fmt), extra, "capabilities")
            if path == "/reports":
                body = _json_bytes(
                    {"reports": [s.name for s in _servable_reports()]}
                )
                return 200, "application/json", body, extra, "reports"
            if path.startswith("/reports/"):
                name = path[len("/reports/"):]
                return (*self._report(snapshot, name, fmt), extra,
                        f"reports/{name}")
        except registry.ReportSourceError as exc:
            return 422, "text/plain", f"{exc}\n".encode(), extra, path.lstrip("/")
        except CaptureError as exc:
            return 400, "text/plain", f"{exc}\n".encode(), extra, path.lstrip("/")
        except (ValueError, KeyError, IndexError) as exc:
            # A sparse early snapshot can defeat a report's statistics
            # (e.g. a country with zero RTT samples so far). That is a
            # property of *this* prefix, not a server fault: 422, and
            # the client retries after more windows commit.
            body = (
                f"report not computable from this snapshot yet "
                f"({snapshot.windows_done}/{snapshot.n_windows} windows): "
                f"{exc}\n"
            ).encode()
            return 422, "text/plain", body, extra, path.lstrip("/")

        known = ("/reports", "/reports/<name>", "/progress", "/telemetry",
                 "/scorecard", "/capabilities")
        body = f"unknown path {path}; endpoints: {', '.join(known)}\n".encode()
        return 404, "text/plain", body, extra, "_unknown"

    # -- endpoint bodies ----------------------------------------------

    @staticmethod
    def _progress(snapshot: RollupSnapshot) -> Tuple[int, str, bytes]:
        payload = {
            "capture_key": snapshot.capture_key,
            "digest": snapshot.digest,
            "windows_done": snapshot.windows_done,
            "n_windows": snapshot.n_windows,
            "progress": snapshot.progress,
            "complete": snapshot.complete,
            "flows_total": snapshot.rollup.flows_total,
        }
        return 200, "application/json", _json_bytes(payload)

    def _telemetry(
        self, snapshot: RollupSnapshot, fmt: str
    ) -> Tuple[int, str, bytes]:
        if fmt == "markdown":
            from repro.stream.telemetry import render_telemetry

            parts = []
            if snapshot.telemetry:
                parts.append(render_telemetry(list(snapshot.telemetry)))
            parts.append(render_serve_telemetry(self.stats))
            return 200, "text/markdown", ("\n\n".join(parts) + "\n").encode()
        payload = {
            "windows": [asdict(row) for row in snapshot.telemetry],
            "endpoints": self.stats.rows(),
            "requests_total": self.stats.requests_total,
            "errors_total": self.stats.errors_total,
            "qps": self.stats.qps(),
        }
        return 200, "application/json", _json_bytes(payload)

    @staticmethod
    def _scorecard(snapshot: RollupSnapshot, fmt: str) -> Tuple[int, str, bytes]:
        scorecard = build_scorecard_rollup(snapshot.rollup)
        if fmt == "json":
            payload = {
                "digest": snapshot.digest,
                "progress": snapshot.progress,
                "passed": scorecard.passed,
                "total": scorecard.total,
                "markdown": scorecard.render(),
            }
            return 200, "application/json", _json_bytes(payload)
        return 200, "text/markdown", (scorecard.render() + "\n").encode()

    @staticmethod
    def _capabilities(fmt: str) -> Tuple[int, str, bytes]:
        if fmt == "json":
            payload = {
                "reports": [
                    {
                        "name": spec.name,
                        "title": spec.title,
                        "sources": list(spec.sources),
                        "servable": spec.compute_rollup is not None,
                    }
                    for spec in registry.specs()
                ]
            }
            return 200, "application/json", _json_bytes(payload)
        return 200, "text/markdown", (
            registry.capability_matrix_markdown() + "\n"
        ).encode()

    @staticmethod
    def _report(
        snapshot: RollupSnapshot, name: str, fmt: str
    ) -> Tuple[int, str, bytes]:
        try:
            registry.get(name)
        except KeyError:
            servable = ", ".join(s.name for s in _servable_reports())
            body = f"unknown report {name!r}; servable: {servable}\n".encode()
            return 404, "text/plain", body
        # The exact offline path: registry dispatch from a RollupSource
        # with prefer="rollup" — what `repro stream-report` runs.
        rendered = registry.run(
            name, RollupSource(snapshot.rollup), prefer="rollup"
        )
        if fmt == "json":
            payload = {
                "report": name,
                "title": registry.get(name).title,
                "capture_key": snapshot.capture_key,
                "digest": snapshot.digest,
                "progress": snapshot.progress,
                "windows_done": snapshot.windows_done,
                "n_windows": snapshot.n_windows,
                "markdown": rendered,
            }
            return 200, "application/json", _json_bytes(payload)
        return 200, "text/markdown", (rendered + "\n").encode()


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode()


def _release_in_child(server: "weakref.ref[ReportServer]") -> None:
    live = server()
    if live is not None:
        live.release_in_forked_child()


class ServerThread:
    """A :class:`ReportServer` on its own event loop in a daemon thread.

    The producer owns the main thread (and its commit thread); the
    server rides alongside, reading published snapshots. ``start()``
    blocks until the socket is bound (so ``.port`` is real even for
    ephemeral port 0) and re-raises any bind error in the caller.
    """

    def __init__(
        self,
        hub: SnapshotHub,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
    ) -> None:
        self.server = ReportServer(hub, host=host, port=port,
                                   max_inflight=max_inflight)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def stats(self) -> ServeStats:
        return self.server.stats

    def start(self, timeout: float = 10.0) -> "ServerThread":
        if hasattr(os, "register_at_fork"):
            # Processes forked beside the server (the capture's
            # generation pool) must not hold its sockets open.
            server = weakref.ref(self.server)
            os.register_at_fork(
                after_in_child=lambda: _release_in_child(server)
            )
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("serve thread failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"serve thread failed to bind: {self._startup_error}"
            ) from self._startup_error
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
            self._ready.set()
            self._loop.close()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.server.close())
            self._loop.close()

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._thread is not None:
            if self._thread.is_alive():
                self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout)
