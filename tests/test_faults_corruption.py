"""Corruption fuzz: every artifact class, three ways of tearing it.

Each on-disk artifact of a capture (window ``.npz``, ``manifest.json``,
``checkpoint.json``, ``rollup.npz``, cache entries) is truncated,
bit-flipped, and zeroed; the reader must answer with a diagnostic
:class:`CaptureError` (or, for the cache, quarantine-and-miss) — never
a raw decoder traceback, and never silently wrong data.
"""

import struct
import zipfile

import numpy as np
import pytest

from repro.analysis.source import CaptureError, load_capture
from repro.cache import CaptureCache
from repro.faults import FaultInjector, FaultPlan
from repro.stream import FlowStore, StreamConfig, load_checkpoint, run_stream_capture
from repro.stream.checkpoint import checkpoint_path, rollup_path
from repro.stream.rollup import StreamRollup
from repro.traffic.workload import WorkloadConfig, WorkloadGenerator

TINY = WorkloadConfig(n_customers=60, days=2, seed=13)


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _bit_flip(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def _zero(path):
    path.write_bytes(b"")


MUTATIONS = {"truncate": _truncate, "bit-flip": _bit_flip, "zero-length": _zero}


def _run_capture(directory, compress):
    config = StreamConfig(workload=TINY, window_days=1, compress=compress)
    run_stream_capture(config, directory)
    return directory, config


@pytest.fixture()
def capture(tmp_path):
    """A finished capture with stored (``--no-compress``) windows."""
    return _run_capture(tmp_path / "cap", compress=False)


def _assert_window_diagnosed(capture_dir, mutate):
    store = FlowStore.open(capture_dir)
    mutate(store.window_path(0))
    with pytest.raises(CaptureError, match="corrupt window file"):
        store.read_window(0)


@pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS.keys())
def test_corrupt_window_is_diagnosed(capture, mutate):
    _assert_window_diagnosed(capture[0], mutate)


@pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS.keys())
def test_corrupt_compressed_window_is_diagnosed(tmp_path, mutate):
    capture_dir, _config = _run_capture(tmp_path / "cap", compress=True)
    _assert_window_diagnosed(capture_dir, mutate)


@pytest.mark.parametrize("compress", [True, False], ids=["compress", "stored"])
def test_flipped_bit_in_stored_column_is_diagnosed(tmp_path, compress):
    """``ts_start`` is stored, not deflated, in both spill modes, so no
    decoder sees its bytes: the zip CRC alone must catch a flip in its
    payload, through a projection that reads it, before a wrong value
    is returned."""
    capture_dir, _config = _run_capture(tmp_path / "cap", compress)
    store = FlowStore.open(capture_dir)
    path = store.window_path(0)
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo("ts_start.npy")
    assert info.compress_type == zipfile.ZIP_STORED
    data = bytearray(path.read_bytes())
    # local file header: 30 fixed bytes, then the name and extra field
    name_len, extra_len = struct.unpack_from("<HH", data, info.header_offset + 26)
    payload_start = info.header_offset + 30 + name_len + extra_len
    data[payload_start + info.compress_size // 2] ^= 0x01
    path.write_bytes(bytes(data))
    assert store.read_window(0, columns=["country_idx"])  # untouched member
    with pytest.raises(CaptureError, match="corrupt window file.*CRC"):
        store.read_window(0, columns=["country_idx", "ts_start"])


@pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS.keys())
def test_corrupt_manifest_is_diagnosed(capture, mutate):
    capture_dir, _config = capture
    mutate(capture_dir / "manifest.json")
    with pytest.raises(CaptureError, match="corrupt capture manifest"):
        FlowStore.open(capture_dir)
    with pytest.raises(CaptureError, match="corrupt capture manifest"):
        load_capture(capture_dir)


@pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS.keys())
def test_corrupt_checkpoint_is_diagnosed(capture, mutate):
    capture_dir, config = capture
    mutate(checkpoint_path(capture_dir))
    with pytest.raises(CaptureError, match="corrupt checkpoint"):
        load_checkpoint(capture_dir)
    with pytest.raises(CaptureError, match="corrupt checkpoint"):
        run_stream_capture(config, capture_dir, resume=True)


@pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS.keys())
def test_corrupt_rollup_is_diagnosed(capture, mutate):
    capture_dir, _config = capture
    mutate(rollup_path(capture_dir))
    with pytest.raises(CaptureError, match="corrupt rollup state"):
        StreamRollup.load(rollup_path(capture_dir))


def _assert_rollup_heals(capture, mutate):
    """The rollup is derived state: resume re-folds it from the committed
    windows instead of failing the capture."""
    capture_dir, config = capture
    clean_digest = load_checkpoint(capture_dir).rollup_digest
    mutate(rollup_path(capture_dir))
    injector = FaultInjector(FaultPlan())
    result = run_stream_capture(config, capture_dir, resume=True, faults=injector)
    assert result.complete
    assert result.rollup.state_digest() == clean_digest
    assert injector.stats.rollup_rebuilds == 1


@pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS.keys())
def test_corrupt_rollup_heals_on_resume(capture, mutate):
    _assert_rollup_heals(capture, mutate)


@pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS.keys())
def test_corrupt_rollup_heals_from_compressed_windows(tmp_path, mutate):
    _assert_rollup_heals(_run_capture(tmp_path / "cap", compress=True), mutate)


def test_corrupt_rollup_with_wrong_schema(capture):
    capture_dir, _config = capture
    np.savez(rollup_path(capture_dir), meta=np.array("{}"))
    with pytest.raises(CaptureError, match="corrupt rollup state"):
        StreamRollup.load(rollup_path(capture_dir))


@pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS.keys())
def test_corrupt_cache_entry_quarantines(tmp_path, mutate):
    cache = CaptureCache(directory=tmp_path)
    frame = WorkloadGenerator(TINY).generate()
    cache.store(TINY, frame)
    path = cache.path_for(TINY)
    mutate(path)
    assert cache.load(TINY) is None  # a miss, not a crash
    assert not path.exists()
    quarantined = cache.quarantine_path(path)
    assert quarantined.exists()
    assert cache.injector.stats.quarantined == 1
    # the miss regenerates and re-publishes over the quarantined name
    cache.store(TINY, frame)
    reloaded = cache.load(TINY)
    assert reloaded is not None
    from repro.analysis.dataset import _ARRAY_FIELDS

    for name in _ARRAY_FIELDS:
        x, y = getattr(frame, name), getattr(reloaded, name)
        nan_ok = np.issubdtype(x.dtype, np.floating)
        assert np.array_equal(x, y, equal_nan=nan_ok), name


def test_quarantined_entries_cleared_with_cache(tmp_path):
    cache = CaptureCache(directory=tmp_path)
    frame = WorkloadGenerator(TINY).generate()
    cache.store(TINY, frame)
    _zero(cache.path_for(TINY))
    assert cache.load(TINY) is None
    assert cache.quarantine_path(cache.path_for(TINY)).exists()
    cache.clear()
    assert list(tmp_path.iterdir()) == []
