"""In-memory spans around the program's public per-layer calls.

The benchmark does not edit the program to trace it: :func:`install`
replaces each public call named in :data:`LAYER_CALLS` with a wrapper
that records a span (name, start, end, parent) into a :class:`Tracer`
and then calls the original. :func:`uninstall` puts the originals back.
Spans stay in memory and are written out once, when the run ends.

Parents are tracked per thread: a span opened while another span of the
same thread is open is its child; a span opened on a fresh thread (the
stream commit thread, the server thread) is a child of the tracer's
current root span. Self time is a span's duration minus the part of it
that its children cover.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self.root: Optional[int] = None

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, root: bool = False) -> Iterator[int]:
        """Record a span around the ``with`` body; ``root=True`` makes it
        the parent of spans opened on other threads meanwhile."""
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        previous_root = self.root
        if root:
            self.root = span_id
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self.root = previous_root
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent))

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))

    def render_ms(self) -> Dict[str, List[float]]:
        """Durations (ms) per report of the ``analysis.render.*`` spans."""
        renders: Dict[str, List[float]] = {}
        for span in self.spans:
            if span.name.startswith("analysis.render."):
                name = span.name[len("analysis.render."):]
                renders.setdefault(name, []).append(span.seconds * 1e3)
        return renders

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        totals: Dict[str, float] = {}
        for s in self.spans:
            covered = _union_length(
                [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, [])]
            )
            totals[s.name] = totals.get(s.name, 0.0) + s.seconds - covered
        return totals

    def payload(self) -> dict:
        return {
            "spans": [asdict(s) for s in sorted(self.spans, key=lambda s: s.start)],
            "self_seconds": self.self_seconds(),
        }


def write_traces(payloads: List[dict], path) -> None:
    """One JSON file holding several tracers' :meth:`Tracer.payload`."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payloads, handle)


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for a, b in sorted(i for i in intervals if i[1] > i[0]):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


#: (module, attribute path, span name) of every public call the traced
#: run wraps. Functions that a module imported by name are patched in
#: the importing module, where the program looks them up.
LAYER_CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.stream.store", "FlowStore.write_window", "stream.spill"),
    ("repro.stream.rollup", "StreamRollup.update", "stream.fold"),
    ("repro.stream.rollup", "StreamRollup.save", "stream.save"),
    ("repro.stream.rollup", "StreamRollup.state_digest", "stream.digest"),
    ("repro.stream.producer", "write_checkpoint", "stream.checkpoint"),
    ("repro.serve.snapshot", "SnapshotHub.publish_state", "serve.publish"),
    ("repro.fleet.coordinator", "merge_partition_captures", "fleet.merge"),
    ("repro.analysis.registry", "run", "analysis.render"),
    ("repro.serve.service", "build_scorecard_rollup", "analysis.render.scorecard"),
)


def _resolve(module_name: str, path: str) -> Tuple[object, str]:
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _wrapper(tracer: Tracer, name: str, original: Callable) -> Callable:
    if name == "analysis.render":
        # One span name per report, so each report's render cost shows.
        def render(report, *args, **kwargs):
            with tracer.span(f"analysis.render.{report}"):
                return original(report, *args, **kwargs)

        return render

    def wrapped(*args, **kwargs):
        with tracer.span(name):
            return original(*args, **kwargs)

    return wrapped


class Installed:
    """The wrappers put in place by :func:`install`."""

    def __init__(self, originals: List[Tuple[object, str, object]]) -> None:
        self._originals = originals

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []


def install(tracer: Tracer) -> Installed:
    """Wrap every call in :data:`LAYER_CALLS` with ``tracer`` spans."""
    originals = []
    for module_name, path, name in LAYER_CALLS:
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr)
        setattr(owner, attr, _wrapper(tracer, name, original))
        originals.append((owner, attr, original))
    return Installed(originals)
