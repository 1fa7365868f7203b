"""Spill-to-disk flow store for streaming captures.

A capture directory is the streaming analogue of the one-shot
``capture.npz``: one npz *shard file per window* under
``windows/``, plus a small JSON ``manifest.json`` holding everything
needed to interpret them (schema version, categorical pools, the
window plan, the capture's content key). Windows are appended as the
producer emits them and never rewritten after the checkpoint covering
them commits; reads are lazy — iterate window by window, optionally
projecting a subset of columns, without ever materializing the full
capture.

Layout::

    capture-dir/
      manifest.json          # schema, pools, windows, capture key
      windows/
        window-00000.npz     # columns of window 0 (pools live in the
        window-00001.npz     #   manifest, not per shard file)
        ...
      rollup.npz             # mergeable rollup state (checkpoint.py)
      checkpoint.json        # resume cursor + telemetry (checkpoint.py)

All writes go through :func:`repro.faults.atomic_write_bytes` (temp
file + fsync + ``os.replace``), so a killed capture never leaves a
torn window or manifest behind; transient IO errors are retried with
backoff by the store's :class:`~repro.faults.FaultInjector` (the
disabled :data:`~repro.faults.NO_FAULTS` unless a fault plan is
armed). Corrupt artifacts surface as
:class:`~repro.analysis.source.CaptureError` with a diagnosis, never
a raw decoder traceback.
"""

from __future__ import annotations

import json
import threading
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.dataset import _ARRAY_FIELDS, _POOL_FIELDS, FlowFrame, write_npz
from repro.analysis.source import CaptureError
from repro.faults import NO_FAULTS, FaultInjector, atomic_write_bytes

#: Bump on layout changes; old directories then refuse to resume
#: instead of silently mixing schemas.
STORE_SCHEMA = 1

_MANIFEST = "manifest.json"
_WINDOWS_DIR = "windows"

#: What a corrupt npz raises, depending on where the damage landed
#: (zip directory, member CRC, npy header, compressed payload).
_NPZ_CORRUPTION = (
    OSError,
    EOFError,
    ValueError,
    KeyError,
    zipfile.BadZipFile,
    zlib.error,
)


@dataclass(frozen=True)
class WindowEntry:
    """One window's row in the manifest."""

    index: int
    day_lo: int
    day_hi: int


class FlowStore:
    """Append-only windowed capture directory.

    Thread contract: the pipelined producer writes windows from a
    background commit thread while the main thread may still be reading
    store metadata, so the lazy manifest load is guarded by a lock.
    Window files themselves need no locking — each window is written
    exactly once, atomically, by a single thread.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self.directory = Path(directory)
        self.injector = injector if injector is not None else NO_FAULTS
        self._manifest: Optional[dict] = None
        self._manifest_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: Union[str, Path],
        pools: Dict[str, List[str]],
        windows: Sequence[WindowEntry],
        capture_key: str,
        config: dict,
        compress: bool = True,
        injector: Optional[FaultInjector] = None,
    ) -> "FlowStore":
        """Initialize a capture directory and publish its manifest."""
        store = cls(directory, injector=injector)
        manifest = {
            "schema": STORE_SCHEMA,
            "capture_key": capture_key,
            "config": config,
            "compress": bool(compress),
            "pools": {name: list(pools[name]) for name in _POOL_FIELDS},
            "windows": [
                {"index": w.index, "day_lo": w.day_lo, "day_hi": w.day_hi}
                for w in windows
            ],
        }
        store.directory.mkdir(parents=True, exist_ok=True)
        (store.directory / _WINDOWS_DIR).mkdir(exist_ok=True)
        atomic_write_bytes(
            store.directory / _MANIFEST,
            lambda h: h.write(json.dumps(manifest, indent=2).encode()),
            injector=store.injector,
            op="store.manifest",
        )
        store._manifest = manifest
        return store

    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        injector: Optional[FaultInjector] = None,
    ) -> "FlowStore":
        """Open an existing capture directory (validates the schema)."""
        store = cls(directory, injector=injector)
        store.manifest  # force load + validation
        return store

    @property
    def manifest(self) -> dict:
        with self._manifest_lock:
            if self._manifest is None:
                path = self.directory / _MANIFEST
                if not path.exists():
                    raise FileNotFoundError(f"no manifest at {path}")
                try:
                    manifest = json.loads(path.read_text())
                except ValueError as exc:
                    raise CaptureError(
                        f"corrupt capture manifest {path}: {exc}"
                    ) from exc
                if not isinstance(manifest, dict):
                    raise CaptureError(
                        f"corrupt capture manifest {path}: not a JSON object"
                    )
                if manifest.get("schema") != STORE_SCHEMA:
                    raise CaptureError(
                        f"corrupt capture manifest {path}: schema "
                        f"{manifest.get('schema')} != {STORE_SCHEMA}"
                    )
                self._manifest = manifest
            return self._manifest

    @property
    def capture_key(self) -> str:
        return self.manifest["capture_key"]

    @property
    def pools(self) -> Dict[str, List[str]]:
        return self.manifest["pools"]

    @property
    def windows(self) -> List[WindowEntry]:
        return [
            WindowEntry(w["index"], w["day_lo"], w["day_hi"])
            for w in self.manifest["windows"]
        ]

    def window_path(self, index: int) -> Path:
        return self.directory / _WINDOWS_DIR / f"window-{index:05d}.npz"

    # -- writes --------------------------------------------------------

    def write_window(self, index: int, frame: FlowFrame) -> int:
        """Atomically spill one window's columns; returns bytes written.

        Pools are *not* stored per window — the manifest owns them, and
        a mismatched frame is rejected here rather than read back wrong
        later.
        """
        pools = self.pools
        for name in _POOL_FIELDS:
            if list(getattr(frame, name)) != pools[name]:
                raise ValueError(f"window frame pool {name!r} differs from manifest")
        compress = self.manifest["compress"]
        columns = {name: getattr(frame, name) for name in _ARRAY_FIELDS}
        return atomic_write_bytes(
            self.window_path(index),
            lambda h: write_npz(h, columns, compress=compress),
            injector=self.injector,
            op="store.write_window",
        )

    # -- reads ---------------------------------------------------------

    def read_window(
        self, index: int, columns: Optional[Sequence[str]] = None
    ) -> Union[FlowFrame, Dict[str, np.ndarray]]:
        """Load one window — a full :class:`FlowFrame`, or just the
        projected ``columns`` as a dict (npz members load lazily, so a
        projection only decompresses what it asks for).

        A damaged file (truncated spill, flipped bits) raises
        :class:`CaptureError` naming the window, never a bare decoder
        error.

        Columns added to the schema after a capture was written (the
        session/QoE quartet) are backfilled with their sentinel fill
        value, so old capture directories keep reading cleanly.
        """
        path = self.window_path(index)
        if columns is not None:
            unknown = set(columns) - set(_ARRAY_FIELDS)
            if unknown:
                raise KeyError(f"unknown columns {sorted(unknown)}")

        def _read(ticket):
            ticket.check("read")
            with np.load(path, allow_pickle=False) as data:
                present = set(data.files)
                wanted = columns if columns is not None else _ARRAY_FIELDS
                loaded: Dict[str, np.ndarray] = {}
                n_rows = -1
                for name in wanted:
                    if name in present:
                        loaded[name] = data[name]
                    else:
                        if n_rows < 0:
                            n_rows = len(data["ts_start"])
                        loaded[name] = np.full(
                            n_rows,
                            FlowFrame.COLUMN_FILL[name],
                            dtype=FlowFrame.COLUMN_DTYPES[name],
                        )
                return loaded

        try:
            loaded = self.injector.run_io("store.read_window", _read)
        except FileNotFoundError:
            raise
        except _NPZ_CORRUPTION as exc:
            raise CaptureError(
                f"corrupt window file {path}: {exc} (truncated spill or "
                "flipped bits — delete the capture directory and resume "
                "from a fresh run)"
            ) from exc
        if columns is not None:
            return loaded
        return FlowFrame(**self.pools, **loaded)

    def iter_windows(
        self, columns: Optional[Sequence[str]] = None
    ) -> Iterator[Tuple[int, Union[FlowFrame, Dict[str, np.ndarray]]]]:
        """Lazily yield ``(index, window)`` for every *stored* window.

        Windows not yet written (an interrupted capture) are skipped —
        the checkpoint, not the directory listing, says what is final —
        which is why the index rides along.
        """
        for entry in self.windows:
            if self.window_path(entry.index).exists():
                yield entry.index, self.read_window(entry.index, columns=columns)

    def stored_window_count(self) -> int:
        return sum(
            1 for entry in self.windows if self.window_path(entry.index).exists()
        )

    def bytes_spilled(self) -> int:
        """Total on-disk size of all stored window files."""
        return sum(
            self.window_path(entry.index).stat().st_size
            for entry in self.windows
            if self.window_path(entry.index).exists()
        )
