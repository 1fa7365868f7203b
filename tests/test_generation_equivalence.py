"""Hoisted and split samplers against the calls they replace.

Windowed generation draws per chunk and computes per country
(DESIGN §7). Each test here keeps the replaced call as the reference
and requires equal output *and* equal post-call
``bit_generator.state``, so the next draw of a capture sees the same
stream either way.
"""

import numpy as np
import pytest

from repro.flowmeter.records import L7_ORDER, L7Protocol
from repro.satcom.delay_model import HandshakeDraws, SatelliteRttModel
from repro.scenario import get_scenario
from repro.stream.rollup import HistFamily
from repro.traffic.distributions import choice_cdf
from repro.traffic.profiles import country_profile
from repro.traffic.services import SERVICES
from repro.traffic.workload import WorkloadConfig, WorkloadGenerator

SEEDS = (0, 7, 2022)


def _states_equal(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_choice_cdf_matches_generator_choice(seed):
    """``cdf.searchsorted(rng.random(n), side="right")`` is
    ``rng.choice(k, n, p=p)`` for 50 random weight vectors, one- and
    many-label alike (a single label still consumes n uniforms)."""
    weights_rng = np.random.default_rng(seed + 100)
    for trial in range(50):
        k = 1 if trial % 10 == 0 else int(weights_rng.integers(2, 30))
        p = weights_rng.random(k) ** 3 + 1e-9
        p /= p.sum()
        n = int(weights_rng.integers(0, 500))
        legacy, hoisted = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = legacy.choice(k, size=n, p=p)
        got = choice_cdf(p).searchsorted(hoisted.random(n), side="right")
        np.testing.assert_array_equal(got, expected)
        assert got.dtype == expected.dtype
        assert _states_equal(legacy, hoisted)


@pytest.mark.parametrize("seed", SEEDS)
def test_hour_cdf_matches_legacy_hour_draw(seed):
    generator = WorkloadGenerator(WorkloadConfig(n_customers=30, days=1, seed=3))
    for country in generator.countries_pool:
        profile = country_profile(country)
        legacy, hoisted = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = legacy.choice(
            24, size=777, p=profile.hourly_weights_local
        ) + legacy.uniform(0.0, 1.0, 777)
        got = generator._local_hours(generator._hour_cdf[country], 777, hoisted)
        np.testing.assert_array_equal(got, expected)
        assert _states_equal(legacy, hoisted)


@pytest.mark.parametrize("seed", SEEDS)
def test_protocol_table_matches_legacy_protocol_draw(seed):
    single = [svc for svc in SERVICES.values() if len(svc.protocol_mix) == 1]
    assert any(svc.protocol_mix[0][0] == L7Protocol.HTTPS for svc in single)
    for svc in SERVICES.values():
        labels = np.array([L7_ORDER.index(proto) for proto, _ in svc.protocol_mix])
        weights = np.array([w for _, w in svc.protocol_mix], dtype=float)
        weights /= weights.sum()
        legacy, hoisted = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = labels[legacy.choice(len(labels), size=333, p=weights)]
        got = svc.sample_protocol(hoisted, 333)
        np.testing.assert_array_equal(got, expected.astype(np.int8))
        assert _states_equal(legacy, hoisted), svc.name


def _legacy_handshake(model, country_name, utilization, pep_load, rng):
    """The one-call bulk handshake sampler the draw/combine split
    replaced, verbatim."""
    from repro.internet.geo import COUNTRIES

    location = COUNTRIES[country_name]
    elevation = model.geometry.elevation_angle_deg(location)
    n = len(utilization)
    floor = model.floor_rtt_s(country_name)
    terminal = model.terminal_median_s * rng.lognormal(0.0, model.terminal_sigma, n)
    jitter = model.stack_jitter_median_s * rng.lognormal(0.0, model.stack_jitter_sigma, n)
    frame = model.tdma.frame_s
    rho_term = np.minimum(utilization / (1.0 - utilization), model.tdma.max_queue_frames)
    scheduling = (
        rng.uniform(0.0, frame, n)
        + 0.5 * frame
        + rng.exponential(1.0, n) * frame * rho_term
    )
    idle_start = rng.random(n) < model.contention_fraction
    load = 0.35 * utilization
    p_success = np.maximum(1e-3, np.exp(-2.0 * load))
    retries = rng.geometric(p_success) - 1
    backoff = rng.integers(1, model.aloha.max_backoff_slots + 1, n)
    contention = np.where(
        idle_start,
        rng.uniform(0.0, model.aloha.slot_s, n)
        + retries * (model.aloha.reservation_rtt_s + backoff * model.aloha.slot_s),
        0.0,
    )
    p_err = model.channel.frame_error_probability(elevation)
    errors = rng.binomial(6, p_err, n)
    arq = errors * model.channel.arq_rtt_s + np.where(
        errors > 0, rng.uniform(0.0, 2.0 * frame, n) * errors, 0.0
    )
    pep_ratio = np.minimum(pep_load / (1.0 - pep_load), model.pep.max_load_ratio)
    pep_setup = model.pep.setup_scale_s * pep_ratio * rng.lognormal(
        0.0, model.pep.setup_sigma, n
    )
    downlink_queue = rng.exponential(1.0, n) * (
        0.010 * np.minimum(utilization / (1.0 - utilization), 20.0) + 1e-6
    )
    return floor + terminal + jitter + scheduling + contention + arq + pep_setup + downlink_queue


MODELS = {
    "geo": SatelliteRttModel(),
    "leo": get_scenario("leo").build_rtt_model(),
}


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("seed", SEEDS)
def test_split_handshake_matches_legacy_bulk_sampler(model_name, seed):
    """Draw per batch, then one combine over the concatenated batches,
    equals the legacy one-call sampler run batch by batch."""
    model = MODELS[model_name]
    loads = np.random.default_rng(seed + 1)
    for country in ("Congo", "Ireland", "Spain", "Nigeria"):
        sizes = [int(n) for n in loads.integers(1, 400, 6)]
        util = [np.minimum(0.99, loads.random(n)) for n in sizes]
        pep = [np.minimum(0.99, loads.random(n)) for n in sizes]
        legacy, split = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = np.concatenate(
            [
                _legacy_handshake(model, country, u, p, legacy)
                for u, p in zip(util, pep)
            ]
        )
        floor, p_err = model.handshake_constants(country)
        draws = [model.draw_handshake(p_err, u, split) for u in util]
        assert _states_equal(legacy, split)
        got = model.combine_handshake(
            floor,
            HandshakeDraws(*map(np.concatenate, zip(*draws))),
            np.concatenate(util),
            np.concatenate(pep),
        )
        np.testing.assert_array_equal(got, expected)
        one_call = np.random.default_rng(seed)
        np.testing.assert_array_equal(
            model.sample_handshake_rtt_bulk(country, util[0], pep[0], one_call),
            expected[: sizes[0]],
        )


def _legacy_hist_update(hist: HistFamily, rows, values, weights=None) -> None:
    """HistFamily.update as three masked bincounts with ``np.ones``
    count weights — the reference for the one-bincount form."""
    values = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(values)
    if not finite.all():
        rows, values = rows[finite], values[finite]
        if weights is not None:
            weights = weights[finite]
    if len(values) == 0:
        return
    w = np.ones(len(values)) if weights is None else np.asarray(weights, np.float64)
    bin_idx = np.searchsorted(hist.edges, values, side="right") - 1
    low = bin_idx < 0
    high = bin_idx >= hist.counts.shape[1]
    mid = ~(low | high)
    nb = hist.counts.shape[1]
    if mid.any():
        flat = rows[mid].astype(np.int64) * nb + bin_idx[mid]
        hist.counts += np.bincount(
            flat, weights=w[mid], minlength=hist.n_rows * nb
        ).reshape(hist.n_rows, nb)
    if low.any():
        hist.under += np.bincount(rows[low], weights=w[low], minlength=hist.n_rows)
    if high.any():
        hist.over += np.bincount(rows[high], weights=w[high], minlength=hist.n_rows)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_hist_update_matches_masked_bincounts(seed, weighted):
    rng = np.random.default_rng(seed)
    edges = 10.0 ** (np.arange(0, 37) / 12)
    legacy, fused = HistFamily(edges, 7), HistFamily(edges, 7)
    for _ in range(5):
        n = int(rng.integers(0, 3000))
        rows = rng.integers(0, 7, n).astype(np.int16)
        values = 10.0 ** rng.uniform(-1.0, 4.0, n)  # under, in and over range
        values[rng.random(n) < 0.02] = np.nan
        weights = rng.lognormal(10.0, 2.0, n) if weighted else None
        _legacy_hist_update(legacy, rows, values, weights)
        fused.update(rows, values, weights)
    for name in ("counts", "under", "over"):
        np.testing.assert_array_equal(getattr(fused, name), getattr(legacy, name))
        assert getattr(fused, name).tobytes() == getattr(legacy, name).tobytes()
