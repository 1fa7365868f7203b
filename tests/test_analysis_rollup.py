"""Tests for the hourly aggregation views (Section 3.1 step two).

The paper's second processing step aggregates the flow table into
views by protocol, service, hour and country; :class:`StreamRollup` is
that aggregation layer for every capture, so the claims are checked on
it: one fold of a one-shot frame answers the same totals as the frame.
"""

import numpy as np
import pytest

from repro.flowmeter.records import L7Protocol, L7_ORDER
from repro.stream import StreamRollup, WindowedProducer
from repro.traffic.workload import WorkloadConfig, WorkloadGenerator


@pytest.fixture(scope="module")
def rollup(small_frame):
    return StreamRollup.for_frame(small_frame).update(small_frame)


def test_rollup_much_smaller_than_flows(small_frame, rollup):
    """The paper: aggregation reduces data by orders of magnitude."""
    state = sum(array.nbytes for array in rollup._state_arrays().values())
    assert small_frame.nbytes > 10.0 * state


def test_totals_preserved(small_frame, rollup):
    assert rollup.volume_c().sum() == pytest.approx(
        small_frame.bytes_total().sum(), rel=1e-9
    )
    assert rollup.flows_total == rollup.flows_c.sum() == len(small_frame)
    assert rollup.bytes_up_c.sum() == pytest.approx(
        small_frame.bytes_up.sum(), rel=1e-9
    )


def test_country_volume_matches_frame(small_frame, rollup):
    for country in ("Congo", "Spain"):
        direct = small_frame.bytes_total()[small_frame.country_mask(country)].sum()
        volume = rollup.volume_c()[rollup.country_row(country)]
        assert volume == pytest.approx(direct, rel=1e-9)


def test_protocol_filter(small_frame, rollup):
    https = L7_ORDER.index(L7Protocol.HTTPS)
    direct = small_frame.bytes_total()[small_frame.l7_idx == https].sum()
    assert rollup.volume_by_l7()[https] == pytest.approx(direct, rel=1e-9)


def test_service_filter(small_frame, rollup):
    idx = small_frame.services.index("Netflix")
    direct = small_frame.bytes_total()[small_frame.service_true_idx == idx].sum()
    # vol_csh reserves service slot 0 for unattributed flows.
    assert rollup.vol_csh[:, idx + 1].sum() == pytest.approx(direct, rel=1e-9)


def test_hourly_series_matches_frame(small_frame, rollup):
    series = rollup.vol_clh[rollup.country_row("Congo")].sum(axis=0)
    mask = small_frame.country_mask("Congo")
    hours = small_frame.hour_utc[mask].astype(int) % 24
    direct = np.zeros(24)
    np.add.at(direct, hours, small_frame.bytes_total()[mask])
    assert np.allclose(series, direct)


def test_distinct_customers_bounded(small_frame, rollup):
    """Per-country distinct customers never exceed per-country flows,
    and equal the frame's distinct customers of that country."""
    assert np.all(rollup.customers_c() <= rollup.flows_c)
    congo_customers = len(
        np.unique(small_frame.customer_id[small_frame.country_mask("Congo")])
    )
    assert rollup.customers_c()[rollup.country_row("Congo")] == congo_customers


def test_hour_and_day_ranges(rollup, small_frame):
    assert all(matrix.shape[1] == 24 for matrix in rollup.vol_day.values())
    assert max(rollup.vol_day) == small_frame.day.max()
    assert rollup.n_days() == len(np.unique(small_frame.day))


# -- StreamRollup.merge: the mergeability property --------------------------
#
# The streaming pipeline leans on merge being a fold: resuming a
# capture, sharding it, or combining per-window rollups in any grouping
# must answer the same queries. Exact bit-identity holds for the two
# orders production actually uses (left-to-right, and resume's
# fold-then-continue); arbitrary regroupings commute the float
# additions, so those are integer-exact and float-allclose.

MERGE_SEEDS = (3, 17, 2022)


@pytest.fixture(scope="module", params=MERGE_SEEDS)
def window_rollups(request):
    """Six single-window rollups (plus their pools) for one seed."""
    config = WorkloadConfig(n_customers=60, days=6, seed=request.param)
    generator = WorkloadGenerator(config)
    producer = WindowedProducer(generator, window_days=1)
    pools = (
        generator.countries_pool,
        generator.services_pool,
        generator.resolvers_pool,
    )

    def single(frame):
        return StreamRollup(*pools).update(frame)

    frames = [producer.generate_window(w) for w in producer.windows]
    return pools, frames, single


def _merge_all(parts):
    acc = parts[0]
    for part in parts[1:]:
        acc.merge(part)
    return acc


def test_merge_equals_fold(window_rollups):
    """Left-to-right merge of per-window rollups IS the streaming fold,
    bit for bit — the identity checkpoint/resume relies on."""
    pools, frames, single = window_rollups
    fold = StreamRollup(*pools)
    for frame in frames:
        fold.update(frame)
    merged = _merge_all([single(f) for f in frames])
    assert merged.state_digest() == fold.state_digest()


def test_merge_resume_pattern_exact(window_rollups):
    """Splitting the fold at every prefix point (what a crash at any
    window boundary produces) is bit-identical to the unbroken fold."""
    pools, frames, single = window_rollups
    whole = _merge_all([single(f) for f in frames])
    for cut in range(1, len(frames)):
        head = _merge_all([single(f) for f in frames[:cut]])
        for frame in frames[cut:]:
            head.update(frame)
        assert head.state_digest() == whole.state_digest()


def test_merge_associative_groupings_exact_where_exact(window_rollups):
    """Random partitions merged in random order: integer state (flow
    counts, customer sets, histogram bins) is exact; float-summed state
    commutes additions, so it is allclose at 1e-9."""
    pools, frames, single = window_rollups
    reference = _merge_all([single(f) for f in frames])
    ref_arrays = reference._state_arrays()
    rng = np.random.default_rng(99)
    for _trial in range(4):
        order = rng.permutation(len(frames))
        cuts = sorted(rng.choice(range(1, len(frames)), size=2, replace=False))
        groups = np.split(order, cuts)
        group_rollups = [
            _merge_all([single(frames[i]) for i in group]) for group in groups
        ]
        regrouped = _merge_all(group_rollups)
        arrays = regrouped._state_arrays()
        assert sorted(arrays) == sorted(ref_arrays)
        for name, ref in ref_arrays.items():
            got = arrays[name]
            if np.issubdtype(ref.dtype, np.floating):
                assert np.allclose(got, ref, rtol=1e-9, atol=0, equal_nan=True), name
            else:
                assert np.array_equal(got, ref), name


def test_merge_queries_survive_regrouping(window_rollups):
    """The report-facing queries agree across groupings (rel 1e-9)."""
    pools, frames, single = window_rollups
    a = _merge_all([single(f) for f in frames])
    b = _merge_all([single(f) for f in reversed(frames)])
    assert a.flows_total == b.flows_total
    assert np.array_equal(a.customers_c(), b.customers_c())
    assert np.allclose(a.volume_c(), b.volume_c(), rtol=1e-9)
    assert np.allclose(a.volume_by_l7(), b.volume_by_l7(), rtol=1e-9)


def test_merge_rejects_mismatched_pools(window_rollups):
    pools, frames, single = window_rollups
    other = StreamRollup(["Atlantis"], pools[1], pools[2])
    with pytest.raises(ValueError, match="different pools"):
        single(frames[0]).merge(other)
