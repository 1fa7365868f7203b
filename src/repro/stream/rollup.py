"""Mergeable rollup sketches for streaming captures.

The paper's Spark jobs reduce 34.4 G flows to hourly aggregate views
(Section 3.1); this module is the streaming equivalent: every sketch
supports ``update(frame)`` with one capture window and ``merge(other)``
with another sketch, and both operations are associative — fold the
windows in any grouping and the bits come out the same. That is the
property checkpoint/resume relies on: a resumed capture replays *no*
flows, it just keeps folding new windows into the saved state.

What the sketches retain is exactly what the rollup-served figures
need:

* per-country volume/flow/customer counters         → Figure 2 / Table 1
* a (country, l7, hour) volume matrix               → Figure 3
* per-(country, day) hourly volume matrices         → Figure 4
* per-country customer-day histograms + counters    → Figure 5
* classifier service-popularity counters            → Figure 6
* per-(category, country) customer-day volume hists → Figure 7
* night/peak satellite-RTT histograms per country   → Figure 8a
* per-(country, local-hour) satellite-RTT histograms → Figure 8b
  (the RTT-vs-time-of-day axis the constellation engine needs)
* ground-RTT histograms (count & volume weighted)   → Figure 9
* (country, resolver) DNS counters + response hists → Figure 10
* per-country bulk-flow throughput histograms       → Figure 11
* per-(country, plan) video-session QoE bank        → Figure 12
* per-customer resolver/domain-group RTT banks      → Table 2

``update`` must see *whole* windows whose boundaries fall on day
edges (the producer guarantees this): the customer-day sketches
(Figures 5/6/7) are only exact when no customer-day straddles two
updates.

:class:`HourlyRollup` — the paper's Section 3.1 hourly aggregate view
— lives here too as the third member of the rollup family (frame →
hourly cells, mergeable across day-aligned chunks).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import zipfile
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.aggregate import local_hour_of
from repro.analysis.source import CaptureError
from repro.faults import FaultInjector, atomic_write_bytes
from repro.analysis.classify import ServiceClassifier
from repro.analysis.dataset import FlowFrame
from repro.analysis.domains import TABLE2_DOMAIN_GROUPS
from repro.constants import BULK_FLOW_MIN_BYTES
from repro.flowmeter.records import L7Protocol, L7_ORDER
from repro.satcom.plans import PLAN_ORDER, plan_index_bulk
from repro.traffic.services import ServiceCategory

#: Bump when the sketch layout changes; saved states refuse to load
#: across schema versions instead of mis-merging.
#: v3 added the per-(country, local-hour) satellite-RTT bank (h8_hour).
#: v4 added the per-(country, plan) video-session QoE bank (Figure 12).
ROLLUP_SCHEMA = 4

#: Figure 7 category axis (must match fig7_service_volume.CATEGORIES).
FIG7_CATEGORIES = (
    ServiceCategory.AUDIO,
    ServiceCategory.CHAT,
    ServiceCategory.SEARCH,
    ServiceCategory.SOCIAL,
    ServiceCategory.VIDEO,
    ServiceCategory.WORK,
)

#: Figure 8a local-hour periods (match fig8_satellite_rtt).
NIGHT_HOURS = (2.0, 5.0)
PEAK_HOURS = (13.0, 20.0)

#: Figure 5 activity knee (flows/day below which a CPE counts as idle).
IDLE_FLOW_THRESHOLD = 250.0

_TCP_L7 = (L7Protocol.HTTPS, L7Protocol.HTTP, L7Protocol.OTHER_TCP)


def _decade_edges(lo_exp: int, hi_exp: int, per_decade: int = 12) -> np.ndarray:
    """Log-spaced bin edges with exact values at every decade."""
    return 10.0 ** (
        np.arange(0, (hi_exp - lo_exp) * per_decade + 1) / per_decade + lo_exp
    )


class HistFamily:
    """A bank of fixed-bin histograms, one row per category (country).

    Counts are float64 so the same class serves count-weighted and
    volume-weighted histograms; out-of-range mass is kept in explicit
    under/overflow columns so totals are exact. ``quantile``/``cdf_at``
    interpolate linearly inside a bin, which bounds their error by the
    bin width.
    """

    def __init__(self, edges: np.ndarray, n_rows: int) -> None:
        self.edges = np.asarray(edges, dtype=np.float64)
        if len(self.edges) < 2 or np.any(np.diff(self.edges) <= 0):
            raise ValueError("edges must be strictly increasing, len >= 2")
        self.counts = np.zeros((n_rows, len(self.edges) - 1), dtype=np.float64)
        self.under = np.zeros(n_rows, dtype=np.float64)
        self.over = np.zeros(n_rows, dtype=np.float64)

    @property
    def n_rows(self) -> int:
        return self.counts.shape[0]

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

    def merge(self, other: "HistFamily") -> None:
        if self.counts.shape != other.counts.shape or not np.array_equal(
            self.edges, other.edges
        ):
            raise ValueError("cannot merge histograms with different binning")
        self.counts += other.counts
        self.under += other.under
        self.over += other.over

    # -- queries -------------------------------------------------------

    def total(self, row: int) -> float:
        return float(self.counts[row].sum() + self.under[row] + self.over[row])

    def cdf_at(self, row: int, x: float) -> float:
        """P(X <= x), linear inside the containing bin."""
        total = self.total(row)
        if total == 0:
            return float("nan")
        below = self.under[row]
        idx = int(np.searchsorted(self.edges, x, side="right")) - 1
        if idx < 0:
            return float(below / total)
        if idx >= self.counts.shape[1]:
            return float((total - self.over[row]) / total + self.over[row] / total)
        below += self.counts[row, :idx].sum()
        lo, hi = self.edges[idx], self.edges[idx + 1]
        below += self.counts[row, idx] * (x - lo) / (hi - lo)
        return float(below / total)

    def ccdf_at(self, row: int, x: float) -> float:
        return 1.0 - self.cdf_at(row, x)

    def quantile(self, row: int, q: float) -> float:
        total = self.total(row)
        if total == 0:
            return float("nan")
        target = q * total
        cum = self.under[row]
        if target <= cum:
            return float(self.edges[0])
        for idx in range(self.counts.shape[1]):
            nxt = cum + self.counts[row, idx]
            if target <= nxt and self.counts[row, idx] > 0:
                frac = (target - cum) / self.counts[row, idx]
                return float(
                    self.edges[idx] + frac * (self.edges[idx + 1] - self.edges[idx])
                )
            cum = nxt
        return float(self.edges[-1])

    def quantiles(self, row: int, qs: Sequence[float] = (0.25, 0.5, 0.75)) -> np.ndarray:
        return np.array([self.quantile(row, q) for q in qs])


@dataclass
class _HistSpec:
    """(attribute name, bin edges) of one serialized histogram bank."""

    name: str
    edges: np.ndarray


class StreamRollup:
    """The composite mergeable aggregate of a streaming capture."""

    #: Customer-day flows per day: 1 .. 1e6, 12 bins/decade.
    FLOW_EDGES = _decade_edges(0, 6)
    #: Customer-day bytes: 1 kB .. 1 TB with exact decade edges, so the
    #: 1 GB / 10 GB heavy-hitter thresholds are bin boundaries.
    BYTE_EDGES = _decade_edges(3, 12)
    #: Satellite RTT, ms: linear 0..5000 in 25 ms bins.
    SAT_EDGES = np.linspace(0.0, 5000.0, 201)
    #: Ground RTT, ms: 1..1000, 24 bins/decade.
    GROUND_EDGES = _decade_edges(0, 3, per_decade=24)
    #: Figure 7 customer-day category bytes: 1 B .. 1 TB, 24 bins/decade.
    CAT_BYTE_EDGES = _decade_edges(0, 12, per_decade=24)
    #: Figure 10 DNS response time, ms: 0.1 ms .. 10 s, 24 bins/decade.
    DNS_EDGES = _decade_edges(-1, 4, per_decade=24)
    #: Figure 11 bulk-flow throughput, Mb/s: 0.01 .. 1000, 48 bins/decade.
    TPUT_EDGES = _decade_edges(-2, 3, per_decade=48)
    #: Figure 12 rebuffer ratio: linear 0..1 in 2 % bins.
    QOE_REBUF_EDGES = np.linspace(0.0, 1.0, 51)
    #: Figure 12 mean resolution level: linear 0..8 in 0.1-level bins
    #: (room for ladders longer than the default five rungs).
    QOE_LEVEL_EDGES = np.linspace(0.0, 8.0, 81)

    def __init__(
        self,
        countries: Sequence[str],
        services: Sequence[str],
        resolvers: Sequence[str] = (),
    ) -> None:
        self.countries = list(countries)
        self.services = list(services)
        self.resolvers = list(resolvers)
        nc, ns, nl = len(self.countries), len(self.services), len(L7_ORDER)
        nr = len(self.resolvers)

        self.flows_total = 0
        self.windows_folded = 0
        # Figure 2 counters
        self.bytes_up_c = np.zeros(nc, dtype=np.float64)
        self.bytes_down_c = np.zeros(nc, dtype=np.float64)
        self.flows_c = np.zeros(nc, dtype=np.int64)
        self._customers: List[set] = [set() for _ in range(nc)]
        # Figure 3: (country, l7, hour) volume
        self.vol_clh = np.zeros((nc, nl, 24), dtype=np.float64)
        # Figures 6/7-style: (country, service+1, hour) volume;
        # service index 0 is "unattributed" (service_true_idx == -1)
        self.vol_csh = np.zeros((nc, ns + 1, 24), dtype=np.float64)
        # Figure 4: day -> (country, hour) volume
        self.vol_day: Dict[int, np.ndarray] = {}
        # Figure 5
        self.cd_total_c = np.zeros(nc, dtype=np.int64)
        self.cd_idle_c = np.zeros(nc, dtype=np.int64)
        self.h5_flows = HistFamily(self.FLOW_EDGES, nc)
        self.h5_down = HistFamily(self.BYTE_EDGES, nc)
        self.h5_up = HistFamily(self.BYTE_EDGES, nc)
        # Figure 8a
        self.h8_night = HistFamily(self.SAT_EDGES, nc)
        self.h8_peak = HistFamily(self.SAT_EDGES, nc)
        self.sat_min_c = np.full(nc, np.inf, dtype=np.float64)
        # Figure 8b: satellite RTT vs local time of day,
        # row = country * 24 + local_hour. Flat for GEO; the
        # constellation engine makes the per-hour medians move.
        self.h8_hour = HistFamily(self.SAT_EDGES, nc * 24)
        # Figure 9
        self.h9_cnt = HistFamily(self.GROUND_EDGES, nc)
        self.h9_vol = HistFamily(self.GROUND_EDGES, nc)
        # Figure 6: Σ over days of distinct customers per
        # (country, classifier service); exact under day-aligned windows.
        self._classifier = ServiceClassifier()
        self.classifier_services = [r.service for r in self._classifier.rules]
        n_svc = len(self.classifier_services)
        self.svc_cust_days = np.zeros((nc, n_svc), dtype=np.int64)
        # Figure 7: customer-day category volume histograms,
        # row = category * nc + country.
        self.h7_volume = HistFamily(self.CAT_BYTE_EDGES, len(FIG7_CATEGORIES) * nc)
        # Figure 10: DNS flow counts per (country, resolver) — exact
        # shares — plus per-resolver response-time histograms.
        self.dns_cr = np.zeros((nc, nr), dtype=np.int64)
        self.h10_resp = HistFamily(self.DNS_EDGES, max(nr, 1))
        # Figure 11: per-country bulk-flow throughput (all / night / peak).
        self.h11_all = HistFamily(self.TPUT_EDGES, nc)
        self.h11_night = HistFamily(self.TPUT_EDGES, nc)
        self.h11_peak = HistFamily(self.TPUT_EDGES, nc)
        # Figure 12: video-session QoE per (plan, country),
        # row = plan * nc + country. Sessions are deduped per window
        # (every chunk of a session carries the same QoE triple), and
        # a session never straddles windows — it lives inside one
        # (customer, day) — so folding windows in any order is exact.
        n_plans = len(PLAN_ORDER)
        self.qoe_sessions = np.zeros(n_plans * nc, dtype=np.int64)
        self.qoe_rebuffer_sum = np.zeros(n_plans * nc, dtype=np.float64)
        self.qoe_level_sum = np.zeros(n_plans * nc, dtype=np.float64)
        self.qoe_switch_sum = np.zeros(n_plans * nc, dtype=np.float64)
        self.h12_rebuf = HistFamily(self.QOE_REBUF_EDGES, n_plans * nc)
        self.h12_level = HistFamily(self.QOE_LEVEL_EDGES, n_plans * nc)
        # Table 2: per-customer bank — DNS flows per resolver plus
        # ground-RTT (sum, count) per Table 2 domain group.
        self._t2_groups = list(TABLE2_DOMAIN_GROUPS)
        self._t2_compiled = [
            re.compile(TABLE2_DOMAIN_GROUPS[name]) for name in self._t2_groups
        ]
        self._t2: Dict[int, np.ndarray] = {}
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

    @property
    def _t2_vec_len(self) -> int:
        return len(self.resolvers) + 2 * len(self._t2_groups)

    @classmethod
    def for_frame(cls, frame: FlowFrame) -> "StreamRollup":
        """An empty rollup matching ``frame``'s categorical pools."""
        return cls(frame.countries, frame.services, frame.resolvers)

    def _hist_specs(self) -> List[_HistSpec]:
        return [
            _HistSpec("h5_flows", self.FLOW_EDGES),
            _HistSpec("h5_down", self.BYTE_EDGES),
            _HistSpec("h5_up", self.BYTE_EDGES),
            _HistSpec("h7_volume", self.CAT_BYTE_EDGES),
            _HistSpec("h8_night", self.SAT_EDGES),
            _HistSpec("h8_peak", self.SAT_EDGES),
            _HistSpec("h8_hour", self.SAT_EDGES),
            _HistSpec("h9_cnt", self.GROUND_EDGES),
            _HistSpec("h9_vol", self.GROUND_EDGES),
            _HistSpec("h10_resp", self.DNS_EDGES),
            _HistSpec("h11_all", self.TPUT_EDGES),
            _HistSpec("h11_night", self.TPUT_EDGES),
            _HistSpec("h11_peak", self.TPUT_EDGES),
            _HistSpec("h12_rebuf", self.QOE_REBUF_EDGES),
            _HistSpec("h12_level", self.QOE_LEVEL_EDGES),
        ]

    # -- update --------------------------------------------------------

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

    # -- merge ---------------------------------------------------------

    def merge(self, other: "StreamRollup") -> "StreamRollup":
        """Fold another rollup in (associative, pools must match)."""
        if (
            other.countries != self.countries
            or other.services != self.services
            or other.resolvers != self.resolvers
        ):
            raise ValueError("cannot merge rollups with different pools")
        self.flows_total += other.flows_total
        self.windows_folded += other.windows_folded
        self.bytes_up_c += other.bytes_up_c
        self.bytes_down_c += other.bytes_down_c
        self.flows_c += other.flows_c
        self.vol_clh += other.vol_clh
        self.vol_csh += other.vol_csh
        for day, matrix in other.vol_day.items():
            if day in self.vol_day:
                self.vol_day[day] += matrix
            else:
                self.vol_day[day] = matrix.copy()
        for mine, theirs in zip(self._customers, other._customers):
            mine |= theirs
        self.cd_total_c += other.cd_total_c
        self.cd_idle_c += other.cd_idle_c
        for spec in self._hist_specs():
            getattr(self, spec.name).merge(getattr(other, spec.name))
        self.sat_min_c = np.minimum(self.sat_min_c, other.sat_min_c)
        self.svc_cust_days += other.svc_cust_days
        self.dns_cr += other.dns_cr
        self.qoe_sessions += other.qoe_sessions
        self.qoe_rebuffer_sum += other.qoe_rebuffer_sum
        self.qoe_level_sum += other.qoe_level_sum
        self.qoe_switch_sum += other.qoe_switch_sum
        for cid, vec in other._t2.items():
            mine = self._t2.setdefault(
                cid, np.zeros(self._t2_vec_len, dtype=np.float64)
            )
            mine += vec
        return self

    def copy(self) -> "StreamRollup":
        """A deep, digest-identical copy — the serve snapshot primitive.

        Every array is copied explicitly (no merge-into-empty, whose
        float adds could flip signed-zero bits, and no save/load round
        trip, which would pay npz compression per window), so
        ``copy().state_digest() == state_digest()`` holds bit for bit
        and the copy never aliases live mutable state.
        """
        other = StreamRollup(self.countries, self.services, self.resolvers)
        other.flows_total = self.flows_total
        other.windows_folded = self.windows_folded
        other.bytes_up_c = self.bytes_up_c.copy()
        other.bytes_down_c = self.bytes_down_c.copy()
        other.flows_c = self.flows_c.copy()
        other.vol_clh = self.vol_clh.copy()
        other.vol_csh = self.vol_csh.copy()
        other.vol_day = {day: matrix.copy() for day, matrix in self.vol_day.items()}
        other._customers = [set(s) for s in self._customers]
        other.cd_total_c = self.cd_total_c.copy()
        other.cd_idle_c = self.cd_idle_c.copy()
        other.sat_min_c = self.sat_min_c.copy()
        other.svc_cust_days = self.svc_cust_days.copy()
        other.dns_cr = self.dns_cr.copy()
        other.qoe_sessions = self.qoe_sessions.copy()
        other.qoe_rebuffer_sum = self.qoe_rebuffer_sum.copy()
        other.qoe_level_sum = self.qoe_level_sum.copy()
        other.qoe_switch_sum = self.qoe_switch_sum.copy()
        other._t2 = {cid: vec.copy() for cid, vec in self._t2.items()}
        for spec in self._hist_specs():
            mine: HistFamily = getattr(self, spec.name)
            theirs: HistFamily = getattr(other, spec.name)
            theirs.counts = mine.counts.copy()
            theirs.under = mine.under.copy()
            theirs.over = mine.over.copy()
        return other

    # -- queries used by the from_rollup report paths ------------------

    def country_row(self, country: str) -> int:
        return self.countries.index(country)

    def volume_c(self) -> np.ndarray:
        """Total bytes per country."""
        return self.bytes_up_c + self.bytes_down_c

    def customers_c(self) -> np.ndarray:
        return np.array([len(s) for s in self._customers], dtype=np.int64)

    def days_seen(self, country: str) -> int:
        row = self.country_row(country)
        return sum(1 for matrix in self.vol_day.values() if matrix[row].sum() > 0)

    def hourly_day_median(self, country: str) -> np.ndarray:
        """24-vector: per-hour volume, median across days, normalized.

        The streaming stand-in for the frame path's winsorized robust
        curve (Figure 4): the day-median damps single binge days the
        same way, without needing per-flow quantiles.
        """
        row = self.country_row(country)
        per_day = np.array(
            [matrix[row] for matrix in self.vol_day.values()], dtype=np.float64
        )
        if len(per_day) == 0:
            return np.zeros(24)
        totals = np.median(per_day, axis=0)
        peak = totals.max()
        return totals / peak if peak > 0 else totals

    def n_days(self) -> int:
        """Distinct capture days folded so far (days with any flow)."""
        return len(self.vol_day)

    def volume_by_l7(self) -> np.ndarray:
        """Total bytes per l7 protocol (Table 1) — exact."""
        return self.vol_clh.sum(axis=(0, 2))

    def service_row(self, service: str) -> int:
        return self.classifier_services.index(service)

    def fig7_row(self, category: ServiceCategory, country: str) -> int:
        """Row of :attr:`h7_volume` for one (category, country) cell."""
        return FIG7_CATEGORIES.index(category) * len(self.countries) + self.country_row(
            country
        )

    def qoe_row(self, country: str, plan: str) -> int:
        """Row of the Figure 12 QoE bank for one (country, plan) cell."""
        return PLAN_ORDER.index(plan) * len(self.countries) + self.country_row(
            country
        )

    def resolver_row(self, resolver: str) -> int:
        return self.resolvers.index(resolver)

    def customers_of(self, country: str) -> List[int]:
        """Distinct customer ids seen in ``country`` (sorted)."""
        return sorted(self._customers[self.country_row(country)])

    def t2_bank(self, customer: int) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """One customer's Table 2 bank: (DNS flows per resolver,
        ground-RTT sum per domain group, sample count per group)."""
        vec = self._t2.get(int(customer))
        if vec is None:
            return None
        nr, ng = len(self.resolvers), len(self._t2_groups)
        return vec[:nr], vec[nr : nr + ng], vec[nr + ng :]

    @property
    def t2_groups(self) -> List[str]:
        """Table 2 domain-group names, in bank order."""
        return list(self._t2_groups)

    # -- persistence ---------------------------------------------------

    def _state_arrays(self) -> Dict[str, np.ndarray]:
        arrays: Dict[str, np.ndarray] = {
            "bytes_up_c": self.bytes_up_c,
            "bytes_down_c": self.bytes_down_c,
            "flows_c": self.flows_c,
            "vol_clh": self.vol_clh,
            "vol_csh": self.vol_csh,
            "cd_total_c": self.cd_total_c,
            "cd_idle_c": self.cd_idle_c,
            "sat_min_c": self.sat_min_c,
            "svc_cust_days": self.svc_cust_days,
            "dns_cr": self.dns_cr,
            "qoe_sessions": self.qoe_sessions,
            "qoe_rebuffer_sum": self.qoe_rebuffer_sum,
            "qoe_level_sum": self.qoe_level_sum,
            "qoe_switch_sum": self.qoe_switch_sum,
            "counters": np.array(
                [self.flows_total, self.windows_folded], dtype=np.int64
            ),
        }
        t2_ids = np.array(sorted(self._t2), dtype=np.int64)
        arrays["t2_ids"] = t2_ids
        arrays["t2_stats"] = (
            np.stack([self._t2[int(cid)] for cid in t2_ids])
            if len(t2_ids)
            else np.zeros((0, self._t2_vec_len), dtype=np.float64)
        )
        days = sorted(self.vol_day)
        arrays["day_keys"] = np.array(days, dtype=np.int64)
        arrays["day_vol"] = (
            np.stack([self.vol_day[d] for d in days])
            if days
            else np.zeros((0, len(self.countries), 24), dtype=np.float64)
        )
        ids = [np.array(sorted(s), dtype=np.int64) for s in self._customers]
        arrays["cust_ids"] = (
            np.concatenate(ids) if ids else np.zeros(0, dtype=np.int64)
        )
        arrays["cust_offsets"] = np.cumsum([0] + [len(x) for x in ids]).astype(
            np.int64
        )
        for spec in self._hist_specs():
            hist: HistFamily = getattr(self, spec.name)
            arrays[f"{spec.name}_counts"] = hist.counts
            arrays[f"{spec.name}_under"] = hist.under
            arrays[f"{spec.name}_over"] = hist.over
        return arrays

    def state_digest(self) -> str:
        """SHA-256 over the canonical state — the bit-identity oracle.

        Two rollups with equal digests folded the same flows (up to
        hash collision); the checkpoint stores it, and the stream tests
        compare one-shot vs killed-and-resumed captures with it.
        """
        digest = hashlib.sha256()
        digest.update(
            json.dumps(
                {
                    "schema": ROLLUP_SCHEMA,
                    "countries": self.countries,
                    "services": self.services,
                    "resolvers": self.resolvers,
                },
                sort_keys=True,
            ).encode()
        )
        for name, array in sorted(self._state_arrays().items()):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(array).tobytes())
        return digest.hexdigest()

    def save(self, path, injector: Optional[FaultInjector] = None) -> None:
        """Atomically persist the rollup state to an ``.npz``."""
        meta = json.dumps(
            {
                "schema": ROLLUP_SCHEMA,
                "countries": self.countries,
                "services": self.services,
                "resolvers": self.resolvers,
            }
        )
        arrays = self._state_arrays()
        atomic_write_bytes(
            os.fspath(path),
            lambda h: np.savez(h, meta=np.array(meta), **arrays),
            injector=injector,
            op="rollup.save",
        )

    @classmethod
    def load(cls, path) -> "StreamRollup":
        """Load a state written by :meth:`save`.

        Damage (truncation, flipped bits, another schema) raises
        :class:`CaptureError`, never a raw npz/zip error.
        """
        try:
            return cls._load(path)
        except CaptureError:
            raise
        except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile, zlib.error) as exc:
            if isinstance(exc, FileNotFoundError):
                raise
            raise CaptureError(f"corrupt rollup state {path}: {exc}") from exc

    @classmethod
    def _load(cls, path) -> "StreamRollup":
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            if meta.get("schema") != ROLLUP_SCHEMA:
                raise CaptureError(
                    f"corrupt rollup state {path}: schema "
                    f"{meta.get('schema')} != {ROLLUP_SCHEMA}"
                )
            rollup = cls(meta["countries"], meta["services"], meta["resolvers"])
            rollup.bytes_up_c = data["bytes_up_c"].copy()
            rollup.bytes_down_c = data["bytes_down_c"].copy()
            rollup.flows_c = data["flows_c"].copy()
            rollup.vol_clh = data["vol_clh"].copy()
            rollup.vol_csh = data["vol_csh"].copy()
            rollup.cd_total_c = data["cd_total_c"].copy()
            rollup.cd_idle_c = data["cd_idle_c"].copy()
            rollup.sat_min_c = data["sat_min_c"].copy()
            rollup.svc_cust_days = data["svc_cust_days"].copy()
            rollup.dns_cr = data["dns_cr"].copy()
            rollup.qoe_sessions = data["qoe_sessions"].copy()
            rollup.qoe_rebuffer_sum = data["qoe_rebuffer_sum"].copy()
            rollup.qoe_level_sum = data["qoe_level_sum"].copy()
            rollup.qoe_switch_sum = data["qoe_switch_sum"].copy()
            rollup._t2 = {
                int(cid): data["t2_stats"][i].copy()
                for i, cid in enumerate(data["t2_ids"])
            }
            counters = data["counters"]
            rollup.flows_total = int(counters[0])
            rollup.windows_folded = int(counters[1])
            day_keys = data["day_keys"]
            day_vol = data["day_vol"]
            rollup.vol_day = {
                int(day): day_vol[i].copy() for i, day in enumerate(day_keys)
            }
            ids = data["cust_ids"]
            offsets = data["cust_offsets"]
            rollup._customers = [
                set(int(x) for x in ids[offsets[i] : offsets[i + 1]])
                for i in range(len(rollup.countries))
            ]
            for spec in rollup._hist_specs():
                hist: HistFamily = getattr(rollup, spec.name)
                hist.counts = data[f"{spec.name}_counts"].copy()
                hist.under = data[f"{spec.name}_under"].copy()
                hist.over = data[f"{spec.name}_over"].copy()
        return rollup


@dataclass
class HourlyRollup:
    """The paper's Section 3.1 hourly aggregate view.

    "The second step is to create aggregated views of the data to
    obtain traffic breakdowns by protocols, server domains, time (with
    1 hour granularity), country of the customer, and contacted
    service" — one row per (day, hour, country, l7, service) with
    flow/byte/customer counters, built in one vectorized pass and
    queryable without touching the flow table again.

    Part of the mergeable rollup family: :meth:`merge` folds two views
    keyed on the same pools. Counters are exact; the distinct-customer
    column is exact only when the merged views cover *disjoint day
    ranges* (the streaming window discipline — a customer seen in the
    same cell from both sides would be double counted).
    """

    day: np.ndarray
    hour: np.ndarray
    country_idx: np.ndarray
    l7_idx: np.ndarray
    service_idx: np.ndarray  # -1 = unattributed
    flows: np.ndarray
    bytes_total: np.ndarray
    bytes_up: np.ndarray
    bytes_down: np.ndarray
    customers: np.ndarray  # distinct customers in the cell

    countries: list
    services: list

    def __len__(self) -> int:
        return len(self.day)

    @staticmethod
    def _decode_keys(unique: np.ndarray) -> Tuple[np.ndarray, ...]:
        service = (unique % 100) - 1
        rest = unique // 100
        l7 = rest % 10
        rest //= 10
        country = rest % 100
        rest //= 100
        hour = rest % 100
        day = rest // 100
        return day, hour, country, l7, service

    def _keys(self) -> np.ndarray:
        return (
            self.day.astype(np.int64) * 10_000_000
            + self.hour.astype(np.int64) * 100_000
            + self.country_idx.astype(np.int64) * 1_000
            + self.l7_idx.astype(np.int64) * 100
            + (self.service_idx.astype(np.int64) + 1)
        )

    @classmethod
    def from_frame(cls, frame: FlowFrame) -> "HourlyRollup":
        """Aggregate a flow table into hourly cells."""
        if frame.customer_id.max(initial=0) >= 1_000_000:
            raise ValueError("rollup keys assume customer ids below 1e6")
        hours = frame.hour_utc.astype(np.int64) % 24
        # Composite key: day | hour | country | l7 | service(+1)
        key = (
            frame.day.astype(np.int64) * 10_000_000
            + hours * 100_000
            + frame.country_idx.astype(np.int64) * 1_000
            + frame.l7_idx.astype(np.int64) * 100
            + (frame.service_true_idx.astype(np.int64) + 1)
        )
        # Sort by (cell, customer) so distinct-customer counting is a
        # simple adjacent-difference within each cell.
        combined = key * 1_000_000 + frame.customer_id.astype(np.int64)
        order = np.argsort(combined, kind="stable")
        sorted_combined = combined[order]
        sorted_key = sorted_combined // 1_000_000
        boundaries = np.concatenate(([0], np.flatnonzero(np.diff(sorted_key)) + 1))

        def segsum(values: np.ndarray) -> np.ndarray:
            return np.add.reduceat(values[order].astype(np.float64), boundaries)

        unique = sorted_key[boundaries]
        day, hour, country, l7, service = cls._decode_keys(unique)

        distinct_mask = np.ones(len(sorted_combined), dtype=bool)
        distinct_mask[1:] = np.diff(sorted_combined) != 0
        customers = np.add.reduceat(distinct_mask.astype(np.float64), boundaries)

        return cls(
            day=day.astype(np.int32),
            hour=hour.astype(np.int8),
            country_idx=country.astype(np.int16),
            l7_idx=l7.astype(np.int8),
            service_idx=service.astype(np.int16),
            flows=segsum(np.ones(len(frame))),
            bytes_total=segsum(frame.bytes_total()),
            bytes_up=segsum(frame.bytes_up),
            bytes_down=segsum(frame.bytes_down),
            customers=customers,
            countries=list(frame.countries),
            services=list(frame.services),
        )

    # -- merge -------------------------------------------------------------

    def merge(self, other: "HourlyRollup") -> "HourlyRollup":
        """Fold another view in (associative; pools must match)."""
        if other.countries != self.countries or other.services != self.services:
            raise ValueError("cannot merge rollups with different pools")
        key = np.concatenate((self._keys(), other._keys()))
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        boundaries = np.concatenate(
            ([0], np.flatnonzero(np.diff(sorted_key)) + 1)
        )

        def segsum(mine: np.ndarray, theirs: np.ndarray) -> np.ndarray:
            both = np.concatenate(
                (mine.astype(np.float64), theirs.astype(np.float64))
            )
            return np.add.reduceat(both[order], boundaries)

        unique = sorted_key[boundaries]
        day, hour, country, l7, service = self._decode_keys(unique)
        self.flows = segsum(self.flows, other.flows)
        self.bytes_total = segsum(self.bytes_total, other.bytes_total)
        self.bytes_up = segsum(self.bytes_up, other.bytes_up)
        self.bytes_down = segsum(self.bytes_down, other.bytes_down)
        self.customers = segsum(self.customers, other.customers)
        self.day = day.astype(np.int32)
        self.hour = hour.astype(np.int8)
        self.country_idx = country.astype(np.int16)
        self.l7_idx = l7.astype(np.int8)
        self.service_idx = service.astype(np.int16)
        return self

    # -- queries -----------------------------------------------------------

    def _mask(
        self,
        country: Optional[str] = None,
        l7_idx: Optional[int] = None,
        service: Optional[str] = None,
        hour: Optional[int] = None,
        day: Optional[int] = None,
    ) -> np.ndarray:
        mask = np.ones(len(self), dtype=bool)
        if country is not None:
            mask &= self.country_idx == self.countries.index(country)
        if l7_idx is not None:
            mask &= self.l7_idx == l7_idx
        if service is not None:
            mask &= self.service_idx == self.services.index(service)
        if hour is not None:
            mask &= self.hour == hour
        if day is not None:
            mask &= self.day == day
        return mask

    def volume(self, **filters) -> float:
        """Total bytes matching the filters."""
        return float(self.bytes_total[self._mask(**filters)].sum())

    def flow_count(self, **filters) -> float:
        """Total flows matching the filters."""
        return float(self.flows[self._mask(**filters)].sum())

    def hourly_series(self, country: str) -> np.ndarray:
        """24-vector of volume per UTC hour (sums across days)."""
        out = np.zeros(24)
        mask = self._mask(country=country)
        np.add.at(out, self.hour[mask].astype(int), self.bytes_total[mask])
        return out

    def reduction_factor(self, frame: FlowFrame) -> float:
        """How many times smaller the rollup is than the flow table."""
        if len(self) == 0:
            return float("inf")
        return len(frame) / len(self)
