"""Open-loop HTTP load generator for the serve workloads.

Independent users do not wait for each other, so requests are sent on a
fixed schedule (request ``i`` is due at ``start + i / rate``) whatever
the server does. At most ``max_conns`` requests are in flight; a due
request that finds every connection busy waits in the client, and its
latency is still timed from the moment it was due. A server stall is
thereby charged to every request queued behind it, not hidden by a
client that slows down.

One asyncio loop in one process; the endpoint mix is drawn from a
seeded ``random.Random`` so the same seed sends the same requests.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

# Endpoints of the mix: the rollup-capable report pages plus the
# scorecard and the progress page. Kept as a literal so the client
# sends the same mix even if the server's registry changes.
REPORTS = (
    "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
    "fig8", "fig8b", "fig9", "fig10", "table2", "fig11", "fig12",
)
ENDPOINTS = tuple(f"/reports/{name}" for name in REPORTS) + (
    "/scorecard",
    "/progress",
)


@dataclass
class Reply:
    """One request as the client saw it."""

    path: str
    due: float
    sent: float
    done: float
    status: int = 0
    """HTTP status; 0 means a transport error (no response)."""
    digest: str = ""
    body: bytes = b""

    @property
    def body_sha(self) -> str:
        return hashlib.sha256(self.body).hexdigest()

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def queued_ms(self) -> float:
        """Wait for a free connection after the request was due."""
        return (self.sent - self.due) * 1000.0


@dataclass
class LoadResult:
    replies: List[Reply] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    """How late the generator woke for each due time (its own health,
    not the server's)."""


def endpoint_mix(seed: int, n: int, endpoints: Sequence[str] = ENDPOINTS) -> List[str]:
    """``n`` endpoints drawn uniformly from ``endpoints`` with ``seed``."""
    rng = random.Random(seed)
    return [rng.choice(endpoints) for _ in range(n)]


#: What a request that got no well-formed response raises.
FETCH_ERRORS = (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError, ValueError, IndexError, KeyError)


async def _fetch(host: str, port: int, path: str) -> tuple:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n"
            .encode("latin-1")
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").rstrip("\r\n").split("\r\n")
        status = int(lines[0].split()[1])
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        # Read by Content-Length, not to EOF: a process that forks while
        # a connection is open keeps the socket open in its children.
        body = await reader.readexactly(int(headers["content-length"]))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return status, headers, body


async def _run(
    host: str,
    port: int,
    paths: Sequence[str],
    rate: float,
    max_conns: int,
    timeout_s: float,
    stop: Optional[Callable[[], bool]],
) -> LoadResult:
    result = LoadResult()
    gate = asyncio.Semaphore(max_conns)
    loop = asyncio.get_running_loop()
    tasks: List[asyncio.Task] = []

    async def one(path: str, due: float) -> None:
        async with gate:
            reply = Reply(path=path, due=due, sent=time.perf_counter(), done=0.0)
            try:
                status, headers, body = await asyncio.wait_for(
                    _fetch(host, port, path), timeout_s
                )
            except FETCH_ERRORS:
                reply.done = time.perf_counter()
                result.replies.append(reply)
                return
            reply.done = time.perf_counter()
        reply.status = status
        reply.digest = headers.get("x-capture-digest", "")
        reply.body = body
        result.replies.append(reply)

    start = time.perf_counter() + 0.005
    for i, path in enumerate(paths):
        if stop is not None and stop():
            break
        due = start + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        result.late_ms.append(max(0.0, time.perf_counter() - due) * 1000.0)
        tasks.append(loop.create_task(one(path, due)))
    for task in tasks:
        await task
    return result


def run_open_loop(
    host: str,
    port: int,
    paths: Sequence[str],
    rate: float,
    max_conns: int,
    timeout_s: float = 30.0,
    stop: Optional[Callable[[], bool]] = None,
) -> LoadResult:
    """Send ``paths`` in order at ``rate`` requests/s, open loop.

    ``stop`` (optional) is asked before each due time; once it returns
    true no further request is sent and the run ends when the ones in
    flight complete."""
    if rate <= 0 or max_conns < 1:
        raise ValueError("rate must be > 0 and max_conns >= 1")
    return asyncio.run(
        _run(host, port, paths, rate, max_conns, timeout_s, stop)
    )


def get(host: str, port: int, path: str, timeout_s: float = 30.0) -> tuple:
    """One blocking GET: ``(status, headers, body)``."""

    async def _once():
        return await asyncio.wait_for(_fetch(host, port, path), timeout_s)

    return asyncio.run(_once())


def sweep(host: str, port: int, paths: Sequence[str] = ENDPOINTS) -> List[Reply]:
    """One blocking GET of each path in turn, as :class:`Reply` objects
    (for checking bodies, not for timing)."""
    replies = []
    for path in paths:
        now = time.perf_counter()
        reply = Reply(path=path, due=now, sent=now, done=now)
        try:
            status, headers, body = get(host, port, path)
        except FETCH_ERRORS:
            replies.append(reply)
            continue
        reply.done = time.perf_counter()
        reply.status = status
        reply.digest = headers.get("x-capture-digest", "")
        reply.body = body
        replies.append(reply)
    return replies
