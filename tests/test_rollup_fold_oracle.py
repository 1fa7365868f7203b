"""Fold oracle: the one-pass ``StreamRollup.update`` against the fold
it replaced.

``LegacyRollup`` below keeps a verbatim copy of the earlier fold
(``update`` and its ``_update_*`` helpers, the ``searchsorted``-based
``HistFamily.update``, the memoized Table 2 domain lookup and the
``% 24.0`` local hour). The fold tests fold the same frames into a
legacy and a current rollup and require the same ``state_digest`` and
the same bytes in every state array. The frames are adversarial on
purpose: empty, one customer, customer ids and days far from 0, sparse
ids and many days (the sort-based fallbacks), no HTTPS / DNS / bulk /
domain flows, NaN, inf, 0, negative and on-the-edge values, local
hours on the night/peak bounds, and customer-day sums that land on a
histogram edge only when summed in the old order. The slot tests check
``HistFamily.slots`` against ``np.searchsorted`` on every rollup edge
set and on generated linear, log-uniform and irregular edges.
"""

from typing import Dict, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dataset import FlowFrame, _ARRAY_FIELDS
from repro.constants import BULK_FLOW_MIN_BYTES
from repro.flowmeter.records import L7Protocol, L7_ORDER
from repro.internet.geo import COUNTRIES, lon_hour_shift
from repro.satcom.plans import PLAN_ORDER, plan_index_bulk
from repro.scenario import get_scenario
from repro.stream.rollup import (
    FIG7_CATEGORIES,
    IDLE_FLOW_THRESHOLD,
    NIGHT_HOURS,
    PEAK_HOURS,
    HistFamily,
    StreamRollup,
    _decade_edges,
    _slot_guess,
)

_TCP_L7 = (L7Protocol.HTTPS, L7Protocol.HTTP, L7Protocol.OTHER_TCP)


# -- the earlier fold, verbatim ------------------------------------------


def local_hour_of(frame: FlowFrame) -> np.ndarray:
    """Approximate local hour per flow (longitude/15 offset)."""
    offsets = np.array(
        [lon_hour_shift(COUNTRIES[name]) for name in frame.countries],
        dtype=np.float64,
    )
    return (frame.hour_utc + offsets[frame.country_idx]) % 24.0


class LegacyHistFamily(HistFamily):
    def update(
        self,
        rows: np.ndarray,
        values: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        """Fold ``values`` (category per ``rows``) into the bank."""
        values = np.asarray(values, dtype=np.float64)
        finite = np.isfinite(values)
        if not finite.all():
            rows, values = rows[finite], values[finite]
            if weights is not None:
                weights = weights[finite]
        if len(values) == 0:
            return
        # One bincount over (row, slot): slot 0 is the underflow, 1..nb
        # the bins, nb + 1 the overflow. Each slot sums the same values
        # in the same order as a per-region bincount would, and count
        # families count unweighted (exact integers, even in float64).
        nb = self.counts.shape[1]
        slot = np.searchsorted(self.edges, values, side="right")
        flat = rows.astype(np.int64) * (nb + 2) + slot
        if weights is not None:
            weights = np.asarray(weights, np.float64)
        banks = np.bincount(
            flat, weights=weights, minlength=self.n_rows * (nb + 2)
        ).reshape(self.n_rows, nb + 2)
        self.counts += banks[:, 1:-1]
        self.under += banks[:, 0]
        self.over += banks[:, -1]


class LegacyRollup(StreamRollup):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        for spec in self._hist_specs():
            getattr(self, spec.name).__class__ = LegacyHistFamily
        self._t2_domain_group: Dict[str, int] = {}

    def _t2_group_of(self, domain: str) -> int:
        """Table 2 domain group of ``domain`` (-1 for none), memoized:
        every window of a capture carries the same domain pool."""
        group = self._t2_domain_group.get(domain)
        if group is None:
            group = next(
                (
                    g_idx
                    for g_idx, pattern in enumerate(self._t2_compiled)
                    if pattern.search(domain)
                ),
                -1,
            )
            self._t2_domain_group[domain] = group
        return group

    def update(self, frame: Optional[FlowFrame]) -> "StreamRollup":
        """Fold one capture window (or any day-aligned chunk) in.

        The chunk must contain *all* flows of every (customer, day)
        pair it touches — true for whole windows and for single-shard
        windows, since a customer lives in exactly one shard.
        """
        self.windows_folded += 1
        if frame is None or len(frame) == 0:
            return self
        if (
            frame.countries != self.countries
            or frame.services != self.services
            or frame.resolvers != self.resolvers
        ):
            raise ValueError("frame pools do not match this rollup")
        nc = len(self.countries)
        c = frame.country_idx.astype(np.int64)
        hour = frame.hour_utc.astype(np.int64) % 24
        vol = frame.bytes_total()
        self.flows_total += len(frame)
        self.bytes_up_c += np.bincount(c, weights=frame.bytes_up, minlength=nc)
        self.bytes_down_c += np.bincount(c, weights=frame.bytes_down, minlength=nc)
        self.flows_c += np.bincount(c, minlength=nc).astype(np.int64)

        nl = len(L7_ORDER)
        flat_l7 = (c * nl + frame.l7_idx.astype(np.int64)) * 24 + hour
        self.vol_clh += np.bincount(
            flat_l7, weights=vol, minlength=nc * nl * 24
        ).reshape(nc, nl, 24)

        ns1 = len(self.services) + 1
        svc = frame.service_true_idx.astype(np.int64) + 1
        flat_svc = (c * ns1 + svc) * 24 + hour
        self.vol_csh += np.bincount(
            flat_svc, weights=vol, minlength=nc * ns1 * 24
        ).reshape(nc, ns1, 24)

        for day in np.unique(frame.day):
            mask = frame.day == day
            matrix = self.vol_day.setdefault(
                int(day), np.zeros((nc, 24), dtype=np.float64)
            )
            matrix += np.bincount(
                c[mask] * 24 + hour[mask], weights=vol[mask], minlength=nc * 24
            ).reshape(nc, 24)

        for idx in np.unique(c):
            self._customers[int(idx)].update(
                int(x) for x in np.unique(frame.customer_id[c == idx])
            )

        self._update_customer_days(frame, c)
        self._update_rtt(frame, c, vol)
        self._update_services(frame, c, vol)
        self._update_dns(frame, c)
        self._update_qoe(frame, c)
        return self

    def _update_customer_days(self, frame: FlowFrame, c: np.ndarray) -> None:
        # One sort pass: group by (customer, day), each group belongs
        # to one country (a customer has one country).
        combined = frame.customer_id.astype(np.int64) * 100_000 + frame.day.astype(
            np.int64
        )
        order = np.argsort(combined, kind="stable")
        combined = combined[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(combined)) + 1))
        flows = np.diff(np.concatenate((starts, [len(combined)]))).astype(np.float64)
        down = np.add.reduceat(frame.bytes_down[order], starts)
        up = np.add.reduceat(frame.bytes_up[order], starts)
        group_country = c[order][starts]

        nc = len(self.countries)
        self.cd_total_c += np.bincount(group_country, minlength=nc).astype(np.int64)
        idle = flows < IDLE_FLOW_THRESHOLD
        self.cd_idle_c += np.bincount(
            group_country[idle], minlength=nc
        ).astype(np.int64)
        self.h5_flows.update(group_country, flows)
        active = ~idle
        self.h5_down.update(group_country[active], down[active])
        self.h5_up.update(group_country[active], up[active])

    def _update_rtt(self, frame: FlowFrame, c: np.ndarray, vol: np.ndarray) -> None:
        local_hour = local_hour_of(frame)
        has_sat = np.isfinite(frame.sat_rtt_ms)
        night = (local_hour >= NIGHT_HOURS[0]) & (local_hour < NIGHT_HOURS[1]) & has_sat
        peak = (local_hour >= PEAK_HOURS[0]) & (local_hour < PEAK_HOURS[1]) & has_sat
        self.h8_night.update(c[night], frame.sat_rtt_ms[night])
        self.h8_peak.update(c[peak], frame.sat_rtt_ms[peak])
        hour_rows = c[has_sat] * 24 + local_hour[has_sat].astype(np.int64) % 24
        self.h8_hour.update(hour_rows, frame.sat_rtt_ms[has_sat])
        nc = len(self.countries)
        either = night | peak
        if either.any():
            sat = frame.sat_rtt_ms[either].astype(np.float64)
            np.minimum.at(self.sat_min_c, c[either], sat)

        tcp = np.isin(frame.l7_idx, [L7_ORDER.index(p) for p in _TCP_L7])
        ground_ok = tcp & np.isfinite(frame.ground_rtt_ms)
        rtt = frame.ground_rtt_ms[ground_ok].astype(np.float64)
        rows = c[ground_ok]
        self.h9_cnt.update(rows, rtt)
        self.h9_vol.update(rows, rtt, weights=vol[ground_ok])

        # Figure 11: bulk-download throughput (Mb/s), overall plus the
        # same night/peak local-hour periods as Figure 8a.
        with np.errstate(divide="ignore", invalid="ignore"):
            mbps = frame.bytes_down * 8.0 / frame.duration_s / 1e6
        bulk = (frame.bytes_down >= BULK_FLOW_MIN_BYTES) & np.isfinite(mbps)
        night_b = bulk & (local_hour >= NIGHT_HOURS[0]) & (local_hour < NIGHT_HOURS[1])
        peak_b = bulk & (local_hour >= PEAK_HOURS[0]) & (local_hour < PEAK_HOURS[1])
        self.h11_all.update(c[bulk], mbps[bulk])
        self.h11_night.update(c[night_b], mbps[night_b])
        self.h11_peak.update(c[peak_b], mbps[peak_b])

    def _update_services(self, frame: FlowFrame, c: np.ndarray, vol: np.ndarray) -> None:
        """Figures 6/7: classifier-labelled customer-day aggregates.

        Labels come from the Table 3 regexes over the window's domain
        pool (memoized — the pool is identical across windows), *not*
        from the generator's ground truth, mirroring the frame paths.
        """
        pool_labels, names = self._classifier.classify_pool(frame.domains)
        if names != self.classifier_services:
            raise ValueError("classifier rules changed under a live rollup")
        labels = np.full(len(frame), -1, dtype=np.int16)
        has_domain = frame.domain_idx >= 0
        labels[has_domain] = pool_labels[frame.domain_idx[has_domain]]
        matched = labels >= 0
        if not matched.any():
            return
        nc = len(self.countries)
        lab = labels[matched].astype(np.int64)
        cust = frame.customer_id[matched].astype(np.int64)
        day = frame.day[matched].astype(np.int64)
        cc = c[matched]

        # Figure 6: distinct customers per (country, service, day),
        # summed over days — group by (service, customer, day).
        combined = (lab * 1_000_000 + cust) * 100_000 + day
        order = np.argsort(combined, kind="stable")
        starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(combined[order])) + 1)
        )
        g_country = cc[order][starts]
        g_svc = lab[order][starts]
        n_svc = len(self.classifier_services)
        self.svc_cust_days += np.bincount(
            g_country.astype(np.int64) * n_svc + g_svc, minlength=nc * n_svc
        ).reshape(nc, n_svc).astype(np.int64)

        # Figure 7: customer-day volume per category.
        cat_of_label = np.full(n_svc, -1, dtype=np.int64)
        for i, rule in enumerate(self._classifier.rules):
            if rule.category in FIG7_CATEGORIES:
                cat_of_label[i] = FIG7_CATEGORIES.index(rule.category)
        cat = cat_of_label[lab]
        has_cat = cat >= 0
        if not has_cat.any():
            return
        combined = ((cat[has_cat] * 1_000_000 + cust[has_cat])) * 100_000 + day[has_cat]
        values = vol[matched][has_cat]
        order = np.argsort(combined, kind="stable")
        combined = combined[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(combined)) + 1))
        sums = np.add.reduceat(values[order], starts)
        g_country = cc[has_cat][order][starts].astype(np.int64)
        g_cat = cat[has_cat][order][starts]
        self.h7_volume.update(g_cat * nc + g_country, sums)

    def _update_qoe(self, frame: FlowFrame, c: np.ndarray) -> None:
        """Figure 12: per-(country, plan) video-session QoE.

        Every chunk flow of a session repeats the session's QoE triple,
        so the window's sessions are recovered by deduping on
        ``session_id`` (globally unique — the id encodes customer and
        day) and each session contributes exactly once.
        """
        has = frame.session_id >= 0
        if not has.any():
            return
        ids = frame.session_id[has]
        _, first = np.unique(ids, return_index=True)
        plan = plan_index_bulk(frame.plan_down_mbps[has][first]).astype(np.int64)
        rebuf = frame.qoe_rebuffer[has][first].astype(np.float64)
        level = frame.qoe_level[has][first].astype(np.float64)
        switches = frame.qoe_switches[has][first].astype(np.float64)
        ok = (plan >= 0) & np.isfinite(rebuf) & np.isfinite(level)
        if not ok.any():
            return
        nc = len(self.countries)
        rows = plan[ok] * nc + c[has][first][ok]
        size = len(PLAN_ORDER) * nc
        self.qoe_sessions += np.bincount(rows, minlength=size).astype(np.int64)
        self.qoe_rebuffer_sum += np.bincount(rows, weights=rebuf[ok], minlength=size)
        self.qoe_level_sum += np.bincount(rows, weights=level[ok], minlength=size)
        self.qoe_switch_sum += np.bincount(rows, weights=switches[ok], minlength=size)
        self.h12_rebuf.update(rows, rebuf[ok])
        self.h12_level.update(rows, level[ok])

    def _update_dns(self, frame: FlowFrame, c: np.ndarray) -> None:
        """Figure 10 counters/histograms and the Table 2 customer bank."""
        nr = len(self.resolvers)
        if nr == 0:
            return
        nc = len(self.countries)
        dns = frame.resolver_idx >= 0
        res = frame.resolver_idx.astype(np.int64)
        self.dns_cr += np.bincount(
            c[dns] * nr + res[dns], minlength=nc * nr
        ).reshape(nc, nr).astype(np.int64)
        resp_ok = dns & np.isfinite(frame.dns_response_ms)
        self.h10_resp.update(res[resp_ok], frame.dns_response_ms[resp_ok])

        # Table 2 bank: group flows by customer, then accumulate that
        # customer's resolver counts and per-domain-group RTT sums.
        ng = len(self._t2_groups)
        pool_group = np.array(
            [self._t2_group_of(domain) for domain in frame.domains], dtype=np.int16
        )
        flow_group = np.full(len(frame), -1, dtype=np.int16)
        has_domain = frame.domain_idx >= 0
        flow_group[has_domain] = pool_group[frame.domain_idx[has_domain]]
        rtt_ok = np.isfinite(frame.ground_rtt_ms) & (flow_group >= 0)

        relevant = dns | rtt_ok
        if not relevant.any():
            return
        cust = frame.customer_id[relevant].astype(np.int64)
        r_rel = res[relevant]
        g_rel = flow_group[relevant].astype(np.int64)
        rtt_rel = frame.ground_rtt_ms[relevant].astype(np.float64)
        dns_rel = dns[relevant]
        rtt_rel_ok = rtt_ok[relevant]
        order = np.argsort(cust, kind="stable")
        cust = cust[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(cust)) + 1))
        ends = np.concatenate((starts[1:], [len(cust)]))
        for lo, hi in zip(starts, ends):
            seg = order[lo:hi]
            vec = self._t2.setdefault(
                int(cust[lo]), np.zeros(self._t2_vec_len, dtype=np.float64)
            )
            seg_dns = seg[dns_rel[order[lo:hi]]]
            if len(seg_dns):
                vec[:nr] += np.bincount(r_rel[seg_dns], minlength=nr)
            seg_rtt = seg[rtt_rel_ok[order[lo:hi]]]
            if len(seg_rtt):
                groups = g_rel[seg_rtt]
                vec[nr : nr + ng] += np.bincount(
                    groups, weights=rtt_rel[seg_rtt], minlength=ng
                )
                vec[nr + ng :] += np.bincount(groups, minlength=ng)


# -- frames --------------------------------------------------------------

_SIZE = {"population.n_customers": 40, "workload.days": 2, "workload.seed": 31}


@pytest.fixture(scope="module")
def geo_frame() -> FlowFrame:
    return get_scenario("baseline-geo").with_overrides(_SIZE).build_generator().generate()


@pytest.fixture(scope="module")
def video_frame() -> FlowFrame:
    return (
        get_scenario("video-streaming").with_overrides(_SIZE).build_generator().generate()
    )


def _with(frame: FlowFrame, **columns) -> FlowFrame:
    """A copy of ``frame`` with some columns replaced."""
    arrays = {name: getattr(frame, name).copy() for name in _ARRAY_FIELDS}
    arrays.update(columns)
    return FlowFrame(
        countries=list(frame.countries),
        beams=list(frame.beams),
        services=list(frame.services),
        domains=list(frame.domains),
        sites=list(frame.sites),
        resolvers=list(frame.resolvers),
        **arrays,
    )


def _scatter(column: np.ndarray, seed: int, values) -> np.ndarray:
    """``column`` as float64 with ``values`` written over random rows."""
    rng = np.random.default_rng(seed)
    out = column.astype(np.float64)
    for value in values:
        out[rng.random(len(out)) < 0.03] = value
    return out


def _odd_values(frame: FlowFrame) -> FlowFrame:
    odd = [np.nan, np.inf, -np.inf, 0.0, -0.0, -3.5, 1e300, 5e-324]
    return _with(
        frame,
        sat_rtt_ms=_scatter(frame.sat_rtt_ms, 1, odd),
        ground_rtt_ms=_scatter(frame.ground_rtt_ms, 2, odd),
        dns_response_ms=_scatter(frame.dns_response_ms, 3, odd),
        duration_s=_scatter(frame.duration_s, 4, odd),
        bytes_down=_scatter(frame.bytes_down, 5, [0.0, -1e6, 1e15, np.inf]),
        bytes_up=_scatter(frame.bytes_up, 6, [0.0, -5.0, np.nan]),
    )


def _edge_values(frame: FlowFrame) -> FlowFrame:
    rng = np.random.default_rng(7)
    n = len(frame)

    def on_edges(edges: np.ndarray) -> np.ndarray:
        pick = edges[rng.integers(0, len(edges), n)]
        nudge = rng.integers(-1, 2, n)
        pick = np.where(nudge < 0, np.nextafter(pick, -np.inf), pick)
        return np.where(nudge > 0, np.nextafter(pick, np.inf), pick)

    return _with(
        frame,
        sat_rtt_ms=on_edges(StreamRollup.SAT_EDGES),
        ground_rtt_ms=on_edges(StreamRollup.GROUND_EDGES),
        dns_response_ms=on_edges(StreamRollup.DNS_EDGES),
        bytes_down=on_edges(StreamRollup.BYTE_EDGES * 1e4),
        duration_s=np.full(n, 8.0),
    )


def _pairwise_on_edge(n: int, edge: float, rng: np.random.Generator) -> np.ndarray:
    """``n`` fractional values whose pairwise sum (``np.add.reduceat``
    over one segment) is exactly ``edge`` while their left-to-right sum
    (``np.bincount``) falls below it: a fold that sums a segment the
    other way bins it one slot lower."""
    for _ in range(1000):
        values = rng.uniform(0.5, 1.5, n) * (edge / n)
        for _ in range(8):
            values[-1] += edge - np.add.reduceat(values, [0])[0]
        if np.add.reduceat(values, [0])[0] == edge and np.cumsum(values)[-1] < edge:
            return values
    raise AssertionError("no pairwise/sequential split found")


def _sums_on_edges(frame: FlowFrame) -> FlowFrame:
    """Six active customer-days whose download bytes, and one Figure 7
    (category, customer-day) group whose volume, sum pairwise exactly
    onto a decade edge of their histogram. Several groups, so that a
    fold reordering flows inside a group very likely moves one below
    its edge too."""
    rng = np.random.default_rng(11)
    bytes_down = frame.bytes_down.copy()
    bytes_up = frame.bytes_up.copy()
    key = frame.customer_id.astype(np.int64) * 100_000 + frame.day
    groups, counts = np.unique(key, return_counts=True)
    busiest = np.argsort(counts)[::-1]
    for group in groups[busiest[:6]]:
        active = np.flatnonzero(key == group)
        assert len(active) >= IDLE_FLOW_THRESHOLD
        bytes_down[active] = _pairwise_on_edge(len(active), 1e9, rng)

    _, categories, _ = StreamRollup.for_frame(frame)._domain_lookups(frame.domains)
    category = categories[frame.domain_idx]
    second = np.flatnonzero((key == groups[busiest[6]]) & (category >= 0))
    cat_flows = second[category[second] == np.bincount(category[second]).argmax()]
    assert len(cat_flows) > 8  # pairwise summation only splits past 8
    bytes_up[cat_flows] = 0.0
    bytes_down[cat_flows] = _pairwise_on_edge(len(cat_flows), 1e8, rng)
    return _with(frame, bytes_down=bytes_down, bytes_up=bytes_up)


def _hours_on_period_edges(frame: FlowFrame) -> FlowFrame:
    """UTC hours (float64) putting local hours exactly on, and one ulp
    beside, the night/peak bounds and midnight."""
    rng = np.random.default_rng(12)
    offsets = np.array(
        [lon_hour_shift(COUNTRIES[name]) for name in frame.countries]
    )[frame.country_idx]
    bounds = np.array([0.0, NIGHT_HOURS[0], NIGHT_HOURS[1], PEAK_HOURS[0], PEAK_HOURS[1], 24.0])
    local = bounds[rng.integers(0, len(bounds), len(frame))]
    hours = local - offsets
    hours = np.where(hours < 0, hours + 24.0, hours)
    step = rng.integers(-1, 2, len(frame))
    hours = np.where(step < 0, np.nextafter(hours, -np.inf), hours)
    return _with(frame, hour_utc=np.where(step > 0, np.nextafter(hours, np.inf), hours))


def _cases(geo: FlowFrame, video: FlowFrame) -> Dict[str, list]:
    """case -> frames folded one after another."""
    n = len(geo)
    https = L7_ORDER.index(L7Protocol.HTTPS)
    one = int(np.median(geo.customer_id))
    hours = geo.hour_utc.astype(np.float64)
    hours[::97] = 0.0
    hours[1::97] = 23.999999
    hours[2::97] = 30.25
    hours[3::997] = 50.5
    return {
        "whole": [geo],
        "day-by-day": [geo.filter(geo.day == d) for d in np.unique(geo.day)],
        "empty": [geo.filter(np.zeros(n, dtype=bool)), geo],
        "one-customer": [geo.filter(geo.customer_id == one)],
        "ids-far-from-1": [_with(geo, customer_id=geo.customer_id + 500_000)],
        "sparse-ids": [_with(geo, customer_id=geo.customer_id * 20_000)],
        "days-far-from-0": [_with(geo, day=geo.day + 19_000)],
        "many-days": [_with(geo, day=(np.arange(n) % 2_000 * 3 + 5).astype(np.int32))],
        "no-https": [geo.filter(geo.l7_idx != https)],
        "no-dns": [
            _with(
                geo,
                resolver_idx=np.full(n, -1, dtype=np.int16),
                dns_response_ms=np.full(n, np.nan, dtype=np.float32),
            )
        ],
        "no-bulk": [
            _with(geo, bytes_down=np.minimum(geo.bytes_down, BULK_FLOW_MIN_BYTES - 1))
        ],
        "no-domains": [_with(geo, domain_idx=np.full(n, -1, dtype=np.int32))],
        "odd-values": [_odd_values(geo)],
        "edge-values": [_edge_values(geo)],
        "hours-out-of-range": [_with(geo, hour_utc=hours)],
        "hours-on-period-edges": [_hours_on_period_edges(geo)],
        "sums-on-edges": [_sums_on_edges(geo)],
        "video": [video.filter(video.day == d) for d in np.unique(video.day)],
        "video-odd-qoe": [
            _with(
                video,
                qoe_rebuffer=_scatter(video.qoe_rebuffer, 8, [np.nan, -0.5, 2.0]),
                qoe_level=_scatter(video.qoe_level, 9, [np.inf, 0.0]),
                plan_down_mbps=_scatter(video.plan_down_mbps, 10, [3.0, np.nan]),
            )
        ],
    }


_CASE_NAMES = [
    "whole", "day-by-day", "empty", "one-customer", "ids-far-from-1",
    "sparse-ids", "days-far-from-0", "many-days", "no-https", "no-dns",
    "no-bulk", "no-domains", "odd-values", "edge-values",
    "hours-out-of-range", "hours-on-period-edges", "sums-on-edges", "video",
    "video-odd-qoe",
]


def _assert_same_state(new: StreamRollup, old: StreamRollup) -> None:
    mine, theirs = new._state_arrays(), old._state_arrays()
    assert mine.keys() == theirs.keys()
    for name in sorted(mine):
        assert mine[name].dtype == theirs[name].dtype, name
        assert mine[name].shape == theirs[name].shape, name
        assert mine[name].tobytes() == theirs[name].tobytes(), name
    assert new.state_digest() == old.state_digest()


# -- fold oracle ---------------------------------------------------------


@pytest.mark.parametrize("case", _CASE_NAMES)
def test_fold_matches_legacy_fold(case, geo_frame, video_frame):
    frames = _cases(geo_frame, video_frame)[case]
    new = StreamRollup.for_frame(frames[0])
    old = LegacyRollup.for_frame(frames[0])
    with np.errstate(all="ignore"):
        for frame in frames:
            new.update(frame)
            old.update(frame)
            _assert_same_state(new, old)


def test_oracle_cases_reach_every_path(geo_frame, video_frame):
    """The adversarial frames exercise the fallbacks they are named for."""
    cases = _cases(geo_frame, video_frame)
    sparse = cases["sparse-ids"][0]
    span = int(sparse.customer_id.max()) - int(sparse.customer_id.min()) + 1
    assert span > 4 * len(sparse) + (1 << 16)  # sort-based customer ranks
    many = cases["many-days"][0]
    n_days = len(np.unique(many.day))
    assert n_days * len(many.countries) * 24 > 4 * len(many) + (1 << 16)
    assert (cases["hours-out-of-range"][0].hour_utc >= 48).any()
    assert all(f.session_id.max() >= 0 for f in cases["video"])
    edges = cases["hours-on-period-edges"][0]
    local = local_hour_of(edges)
    for bound in (NIGHT_HOURS + PEAK_HOURS):
        assert (local == bound).any()


def test_fold_keeps_no_per_frame_array(geo_frame):
    rollup = StreamRollup.for_frame(geo_frame).update(geo_frame)
    seen = list(vars(rollup).values())
    for spec in rollup._hist_specs():
        seen.extend(vars(getattr(rollup, spec.name)).values())
    seen.extend(rollup._domain_tables or ())
    arrays = [value for value in seen if isinstance(value, np.ndarray)]
    assert arrays
    assert all(len(geo_frame) not in value.shape for value in arrays)


# -- slots ---------------------------------------------------------------

_ALL_EDGES = {
    name: getattr(StreamRollup, name)
    for name in dir(StreamRollup)
    if name.endswith("_EDGES")
}


def _probes(edges: np.ndarray) -> np.ndarray:
    mids = (edges[:-1] + edges[1:]) / 2
    return np.concatenate(
        (
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            mids,
            [0.0, -0.0, -1.0, -1e300, 1e300, 5e-324, -5e-324],
            [edges[0] / 2, edges[-1] * 2, edges[0] - 1.0, edges[-1] + 1.0],
        )
    )


def test_every_rollup_edge_set_takes_the_arithmetic_path():
    assert len(_ALL_EDGES) == 9
    for name, edges in _ALL_EDGES.items():
        assert _slot_guess(np.asarray(edges, np.float64)) is not None, name


@pytest.mark.parametrize("name", sorted(_ALL_EDGES))
def test_slots_match_searchsorted_on_and_beside_every_edge(name):
    edges = _ALL_EDGES[name]
    probes = _probes(edges)
    hist = HistFamily(edges, 1)
    expected = np.searchsorted(edges, probes, side="right")
    np.testing.assert_array_equal(hist.slots(probes), expected)
    # float32 columns (the RTT columns) are binned as their float64 value
    narrow = probes[np.abs(probes) < 1e30].astype(np.float32)
    np.testing.assert_array_equal(
        hist.slots(narrow),
        np.searchsorted(edges, narrow.astype(np.float64), side="right"),
    )


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(sorted(_ALL_EDGES)),
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64
    ),
)
def test_slots_match_searchsorted_on_any_finite_value(name, values):
    edges = _ALL_EDGES[name]
    values = np.array(values)
    np.testing.assert_array_equal(
        HistFamily(edges, 1).slots(values),
        np.searchsorted(edges, values, side="right"),
    )


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["linear", "log", "irregular"]),
    lo=st.integers(-6, 6),
    n_bins=st.integers(1, 300),
    per=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_slots_match_searchsorted_on_any_edges(kind, lo, n_bins, per, seed):
    rng = np.random.default_rng(seed)
    if kind == "linear":
        edges = np.linspace(lo * 7.5, lo * 7.5 + n_bins / per, n_bins + 1)
    elif kind == "log":
        edges = _decade_edges(lo, lo + max(1, n_bins // per), per_decade=per)
    else:
        edges = np.unique(rng.normal(lo, 10.0, n_bins + 2))
    hist = HistFamily(edges, 1)
    if kind != "irregular":
        assert hist._guess is not None
    scattered = edges[rng.integers(0, len(edges), 200)] * rng.uniform(0.5, 2.0, 200)
    probes = np.concatenate((_probes(edges), scattered))
    np.testing.assert_array_equal(
        hist.slots(probes), np.searchsorted(edges, probes, side="right")
    )


def test_irregular_edges_fall_back_to_searchsorted():
    assert _slot_guess(np.array([0.0, 1.0, 3.0, 10.0])) is None
    hist = HistFamily(np.array([0.0, 1.0, 3.0, 10.0]), 1)
    probes = np.array([-1.0, 0.0, 0.5, 1.0, 2.9, 3.0, 9.99, 10.0, 11.0])
    np.testing.assert_array_equal(hist.slots(probes), [0, 1, 1, 2, 2, 3, 3, 4, 4])


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(sorted(_ALL_EDGES)),
    seed=st.integers(0, 2**32 - 1),
    weighted=st.booleans(),
)
def test_hist_update_matches_legacy_update(name, seed, weighted):
    rng = np.random.default_rng(seed)
    edges = _ALL_EDGES[name]
    n = int(rng.integers(0, 400))
    rows = rng.integers(0, 3, n)
    values = rng.uniform(edges[0] - 1.0, edges[-1] * 1.1, n)
    values[rng.random(n) < 0.1] = np.nan
    values[rng.random(n) < 0.05] = np.inf
    weights = rng.normal(0.0, 1e6, n) if weighted else None
    new, old = HistFamily(edges, 3), LegacyHistFamily(edges, 3)
    new.update(rows, values, weights)
    old.update(rows, values, weights)
    for attr in ("counts", "under", "over"):
        assert getattr(new, attr).tobytes() == getattr(old, attr).tobytes()
