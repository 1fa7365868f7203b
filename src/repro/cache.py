"""Content-keyed capture cache.

Every benchmark session, CLI run, and example used to regenerate the
identical 600-customer capture from scratch. The cache maps the
*content identity* of a :class:`~repro.traffic.workload.WorkloadConfig`
— every field that changes the generated flows, plus a code-version
salt — to an ``.npz`` file, so a capture is generated once per config
and then reloads in well under a second.

Keying rules:

* ``n_workers`` is **excluded**: worker count never changes the output
  (see :mod:`repro.parallel`), so a capture generated with 8 workers
  hits for a serial run of the same config.
* ``n_shards`` is **included**: the shard plan decides which RNG
  stream samples which customer, so it is part of the content.
* :data:`CACHE_SALT` is **included**: bump it whenever the generator's
  sampling logic changes, and every stale entry misses from then on.
  Stale files are eventually overwritten in place (same filename ⇒
  same key), never silently served.

Writes are atomic and durable (temp file + fsync + ``os.replace``,
via :func:`repro.faults.atomic_write_bytes`) so a crashed or
concurrent writer can never leave a torn capture behind; concurrent
writers of the same key simply race to publish identical bytes. A
corrupt entry found at load time (torn by an old non-atomic writer,
bit rot) is *quarantined* — renamed aside with a ``.quarantined``
suffix for post-mortem — and treated as a miss, so the capture is
regenerated instead of crashing the run. Transient IO errors retry
with backoff through the cache's
:class:`~repro.faults.FaultInjector` hook (disabled by default).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro.analysis.dataset import FlowFrame
from repro.faults import FaultInjector, atomic_write_bytes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scenario import Scenario
    from repro.traffic.workload import WorkloadConfig

    ConfigLike = Union[WorkloadConfig, Scenario]

#: Bump whenever a generator change alters the sampled flows for an
#: unchanged config (new RNG consumption order, new column, new model).
CACHE_SALT = "repro-capture-v1"

#: Config fields that do NOT change the generated flows and therefore
#: must not contribute to the cache key.
_EXECUTION_ONLY_FIELDS = frozenset({"n_workers"})


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "repro"
    return Path.home() / ".cache" / "repro"


def capture_key(config: "ConfigLike") -> str:
    """The cache identity of whatever ``config`` generates.

    Accepts either a legacy :class:`WorkloadConfig` (hashed field by
    field via :func:`config_cache_key`) or anything carrying a
    ``digest()`` method — i.e. a :class:`repro.scenario.Scenario`,
    whose digest deliberately collapses to the legacy key when its
    model sections sit at the baseline defaults.
    """
    digest = getattr(config, "digest", None)
    if callable(digest):
        return digest()
    return config_cache_key(config)


def stream_capture_key(config: "ConfigLike", window_days: int) -> str:
    """Hex digest identifying a *streaming* capture directory.

    Streaming captures sample per (shard, window) RNG streams, so the
    window plan is content the way ``n_shards`` is: the same workload
    config cut into different windows yields different flows. The key
    therefore extends :func:`capture_key` with the window length
    (and a stream schema salt), and is what checkpoint/resume verifies
    before continuing a half-written capture directory.
    """
    blob = json.dumps(
        {
            "capture": capture_key(config),
            "window_days": int(window_days),
            "stream_salt": "repro-stream-v1",
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def config_cache_key(config: "WorkloadConfig") -> str:
    """Hex digest identifying the capture ``config`` generates."""
    payload = {"salt": CACHE_SALT}
    for f in dataclasses.fields(config):
        if f.name in _EXECUTION_ONLY_FIELDS:
            continue
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = list(value)
        payload[f.name] = value
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


class CaptureCache:
    """Filesystem cache of generated :class:`FlowFrame` captures."""

    def __init__(
        self,
        directory: Union[str, Path, None] = None,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        # Not the shared NO_FAULTS singleton: each cache owns its stats,
        # so ``cache.injector.stats.quarantined`` means *this* cache.
        self.injector = injector if injector is not None else FaultInjector(None)

    def path_for(self, config: "ConfigLike") -> Path:
        """Where the capture for ``config`` lives (existing or not).

        ``config`` may be a :class:`WorkloadConfig` or a scenario — the
        filename is keyed by :func:`capture_key` either way.
        """
        return self.directory / f"capture-{capture_key(config)}.npz"

    def quarantine_path(self, path: Path) -> Path:
        """Where a corrupt entry at ``path`` gets renamed for post-mortem."""
        return path.with_name(path.name + ".quarantined")

    def load(self, config: "ConfigLike") -> Optional[FlowFrame]:
        """The cached capture for ``config``, or ``None`` on a miss.

        A corrupt entry (torn by an old non-atomic writer, truncated
        disk, flipped bits) is quarantined — renamed aside, counted in
        ``injector.stats.quarantined`` — and treated as a miss, so the
        caller regenerates instead of crashing.
        """
        path = self.path_for(config)
        if not path.exists():
            return None

        def _read(ticket):
            ticket.check("read")
            return FlowFrame.load_npz(path)

        try:
            return self.injector.run_io("cache.load", _read)
        except FileNotFoundError:
            return None  # lost a race with clear(); a plain miss
        except Exception:
            self._quarantine(path)
            return None

    def _quarantine(self, path: Path) -> None:
        try:
            os.replace(path, self.quarantine_path(path))
        except OSError:
            path.unlink(missing_ok=True)
        self.injector.stats.quarantined += 1

    def store(self, config: "ConfigLike", frame: FlowFrame) -> Path:
        """Atomically publish ``frame`` as the capture for ``config``."""
        path = self.path_for(config)
        self.directory.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(
            path,
            # uncompressed: a cache optimizes store and reload
            # latency, not disk
            lambda h: frame.save_npz(h, compress=False),
            injector=self.injector,
            op="cache.store",
        )
        return path

    def clear(self) -> int:
        """Delete every cached capture (and quarantined remains);
        returns how many were removed."""
        removed = 0
        if self.directory.exists():
            for pattern in ("capture-*.npz", "capture-*.npz.quarantined"):
                for path in self.directory.glob(pattern):
                    path.unlink(missing_ok=True)
                    removed += 1
        return removed


def resolve_cache(
    cache: Union[None, bool, str, Path, CaptureCache]
) -> Optional[CaptureCache]:
    """Normalize the ``cache=`` argument accepted by the pipeline.

    ``None``/``False`` disable caching, ``True`` uses the default
    directory, a path uses that directory, and a :class:`CaptureCache`
    is passed through.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return CaptureCache()
    if isinstance(cache, CaptureCache):
        return cache
    return CaptureCache(cache)
