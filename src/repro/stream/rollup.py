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

from repro.analysis.aggregate import country_hour_offsets, local_hour_of
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
_TCP_L7_IDX = tuple(L7_ORDER.index(p) for p in _TCP_L7)


def _dense_ok(size: int, n: int) -> bool:
    """Whether a table of ``size`` bins is cheap beside ``n`` flows."""
    return size <= 4 * n + (1 << 16)


def _dense_rank(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(rank, distinct)`` with ``distinct[rank] == values`` and
    ``distinct`` ascending, so ``rank`` orders the values as they order
    themselves. A presence table when the span is small, else a sort."""
    lo, hi = values.min(), values.max()
    if lo == hi:
        return np.zeros(len(values), dtype=np.int64), np.array([lo])
    span = int(hi) - int(lo) + 1
    if not _dense_ok(span, len(values)):
        distinct, rank = np.unique(values, return_inverse=True)
        return rank, distinct
    offset = np.subtract(values, lo, dtype=np.int64)
    present = np.bincount(offset, minlength=span) > 0
    distinct = np.flatnonzero(present) + int(lo)
    if len(distinct) == span:
        return offset, distinct
    return (np.cumsum(present) - 1)[offset], distinct


def _distinct(keys: np.ndarray, size: int) -> np.ndarray:
    """The distinct values of ``keys`` (ints in ``[0, size)``), ascending."""
    if _dense_ok(size, len(keys)):
        return np.flatnonzero(np.bincount(keys, minlength=size))
    return np.unique(keys)


def _hour_of_day(hours: np.ndarray) -> np.ndarray:
    """``hours.astype(np.int64) % 24``, skipping the modulo when every
    hour is already in 0..23."""
    hour = hours.astype(np.int64)
    if len(hour) and (hour.min() < 0 or hour.max() > 23):
        hour %= 24
    return hour


def _night_peak(local_hour: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Masks of the Figure 8a/11 night and peak local-hour periods."""
    return (
        (local_hour >= NIGHT_HOURS[0]) & (local_hour < NIGHT_HOURS[1]),
        (local_hour >= PEAK_HOURS[0]) & (local_hour < PEAK_HOURS[1]),
    )


def _compact(keys: np.ndarray, size: int) -> np.ndarray:
    """``keys`` (ints in ``[0, size)``) in the narrowest sort dtype: a
    stable sort of uint16 is a radix sort, and any dtype holding the
    keys gives the same stable permutation."""
    return keys.astype(np.uint16) if size <= 1 << 16 else keys


def _decade_edges(lo_exp: int, hi_exp: int, per_decade: int = 12) -> np.ndarray:
    """Log-spaced bin edges with exact values at every decade."""
    return 10.0 ** (
        np.arange(0, (hi_exp - lo_exp) * per_decade + 1) / per_decade + lo_exp
    )


def _slot_guess(edges: np.ndarray) -> Optional[Tuple[bool, float, float]]:
    """``(log, origin, scale)`` of linear or log-uniform ``edges``.

    ``floor((f(x) - origin) * scale) + 1``, with ``f`` the identity or
    ``log10``, puts every edge within 1e-6 of its own slot, so for any
    ``x`` it lands at most one slot away from
    ``searchsorted(edges, x, side="right")`` (rounding moves the
    position by far less than a bin). ``None`` for any other spacing.
    """
    nb = len(edges) - 1
    candidates = [(False, edges)]
    if edges[0] > 0:
        candidates.append((True, np.log10(edges)))
    for log, position in candidates:
        origin = float(position[0])
        scale = nb / float(position[-1] - position[0])
        if np.all(np.abs((position - origin) * scale - np.arange(nb + 1)) < 1e-6):
            return log, origin, scale
    return None


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
        self._guess = _slot_guess(self.edges)
        # Slot s holds ext[s] <= x < ext[s + 1].
        self._ext = np.concatenate(([-np.inf], self.edges, [np.inf]))

    @property
    def n_rows(self) -> int:
        return self.counts.shape[0]

    def slots(self, values: np.ndarray) -> np.ndarray:
        """Slot of each finite value: ``searchsorted(edges, values,
        side="right")``, so 0 is the underflow, 1..nb the bins and
        nb + 1 the overflow.

        Linear and log-uniform edges take an arithmetic guess, then
        compare ``x`` with the real edges on either side of it, which is
        exact because the guess is never more than one slot off.
        Families binning the same values share one slot array.
        """
        values = np.asarray(values, dtype=np.float64)
        if self._guess is None:
            return np.searchsorted(self.edges, values, side="right")
        log, origin, scale = self._guess
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            position = np.log10(values) if log else values - origin
            if log:
                position -= origin
            position *= scale
        np.floor(position, out=position)
        position += 1.0
        # fmax/fmin also send log10 of x <= 0 (-inf, nan) to slot 0.
        np.fmax(position, 0.0, out=position)
        np.fmin(position, float(len(self.edges)), out=position)
        slot = position.astype(np.intp)
        # The true slot is guess - 1 plus the number of the two edges
        # around the guess that x reaches (int8 steps: no bool casts).
        step = np.less_equal(self._ext.take(slot), values).view(np.int8)
        step += np.less_equal(self._ext[1:].take(slot), values).view(np.int8)
        step -= 1
        slot += step
        return slot

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
        self.add_slots(rows, self.slots(values), weights)

    def add_slots(
        self,
        rows: np.ndarray,
        slots: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        """Fold values already binned by :meth:`slots` into the bank."""
        if len(slots) == 0:
            return
        # One bincount over (row, slot): slot 0 is the underflow, 1..nb
        # the bins, nb + 1 the overflow. Each slot sums the same values
        # in the same order as a per-region bincount would, and count
        # families count unweighted (exact integers, even in float64).
        nb = self.counts.shape[1]
        flat = rows.astype(np.int64, copy=False) * (nb + 2) + slots
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
        # Pool constants, built by the first fold that needs them. Not
        # state: never saved, merged, copied or digested.
        self._hour_offsets: Optional[np.ndarray] = None
        self._domain_tables: Optional[tuple] = None

    def _domain_lookups(
        self, domains: Sequence[str]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-domain classifier label, Figure 7 category and Table 2
        domain group of a domain pool (-1 for none).

        Each table ends in an extra -1 entry, which ``domain_idx == -1``
        (a flow without a domain) indexes. Built once per pool: every
        window of a capture carries the same domain pool.
        """
        if self._domain_tables is None or self._domain_tables[0] != domains:
            pool_labels, names = self._classifier.classify_pool(domains)
            if names != self.classifier_services:
                raise ValueError("classifier rules changed under a live rollup")
            labels = np.append(pool_labels, -1).astype(np.int16)
            cat_of_label = np.array(
                [
                    FIG7_CATEGORIES.index(rule.category)
                    if rule.category in FIG7_CATEGORIES
                    else -1
                    for rule in self._classifier.rules
                ]
                + [-1],
                dtype=np.int16,
            )
            groups = [
                next(
                    (
                        g_idx
                        for g_idx, pattern in enumerate(self._t2_compiled)
                        if pattern.search(domain)
                    ),
                    -1,
                )
                for domain in domains
            ]
            self._domain_tables = (
                list(domains),
                labels,
                cat_of_label[labels],
                np.array(groups + [-1], dtype=np.int16),
            )
        return self._domain_tables[1:]

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

        One pass: every per-flow quantity is computed once, and only
        for the flows that need it; the state comes out bit-identical
        to binning each family with ``searchsorted`` and grouping on
        int64 sort keys (the exactness rules are in DESIGN §8).
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
        hour = _hour_of_day(frame.hour_utc)
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
        del flat_l7

        ns1 = len(self.services) + 1
        svc = frame.service_true_idx.astype(np.int64) + 1
        flat_svc = (c * ns1 + svc) * 24 + hour
        del svc
        self.vol_csh += np.bincount(
            flat_svc, weights=vol, minlength=nc * ns1 * 24
        ).reshape(nc, ns1, 24)
        del flat_svc

        # Dense ranks order the flows exactly as customer ids and days
        # do, so one (customer, day) group id serves every grouping.
        cust_rank, cust_ids = _dense_rank(frame.customer_id)
        day_rank, days = _dense_rank(frame.day)
        self._update_days(c * 24 + hour, day_rank, days, vol)
        del hour
        n_days = len(days)
        if n_days == 1:
            gid, cells = cust_rank, np.arange(len(cust_ids))
        else:
            gid, cells = _dense_rank(cust_rank * n_days + day_rank)
        del day_rank
        group_country = self._update_customer_days(frame, c, gid, len(cells))
        group_cust = cust_ids[cells // n_days]
        for idx in np.unique(group_country).tolist():
            self._customers[idx].update(group_cust[group_country == idx].tolist())

        self._update_rtt(frame, c, vol)
        self._update_services(frame, vol, gid, group_country)
        del gid
        self._update_dns(frame, c, cust_rank, cust_ids)
        self._update_qoe(frame, c)
        return self

    def _update_days(
        self,
        cell: np.ndarray,
        day_rank: np.ndarray,
        days: np.ndarray,
        vol: np.ndarray,
    ) -> None:
        """Figure 4: per-day (country, hour) volume; ``cell`` is
        country * 24 + hour. Each bin sums its flows in frame order,
        whether all days share one bincount or each day has its own."""
        nc = len(self.countries)
        n_days = len(days)
        if n_days == 1:
            banks = [np.bincount(cell, weights=vol, minlength=nc * 24).reshape(nc, 24)]
        elif _dense_ok(n_days * nc * 24, len(cell)):
            banks = np.bincount(
                day_rank * (nc * 24) + cell, weights=vol, minlength=n_days * nc * 24
            ).reshape(n_days, nc, 24)
        else:
            banks = (
                np.bincount(
                    cell[day_rank == i], weights=vol[day_rank == i], minlength=nc * 24
                ).reshape(nc, 24)
                for i in range(n_days)
            )
        for day, bank in zip(days.tolist(), banks):
            matrix = self.vol_day.setdefault(day, np.zeros((nc, 24), dtype=np.float64))
            matrix += bank

    def _update_customer_days(
        self, frame: FlowFrame, c: np.ndarray, gid: np.ndarray, n_groups: int
    ) -> np.ndarray:
        """Figure 5 customer-day sketches; returns each group's country.

        ``gid`` numbers the (customer, day) groups in (customer, day)
        order, so its stable sort is the permutation that sorting on
        ``customer * 100_000 + day`` gives, and each group sums its
        bytes in frame order. A customer has one country, so a group's
        country is that of any of its flows.
        """
        order = np.argsort(_compact(gid, n_groups), kind="stable")
        flows = np.bincount(gid, minlength=n_groups)
        starts = np.concatenate(([0], np.cumsum(flows[:-1])))
        down = np.add.reduceat(frame.bytes_down[order], starts)
        up = np.add.reduceat(frame.bytes_up[order], starts)
        group_country = c[order[starts]]
        del order
        flows = flows.astype(np.float64)

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
        return group_country

    def _update_rtt(self, frame: FlowFrame, c: np.ndarray, vol: np.ndarray) -> None:
        if self._hour_offsets is None:
            self._hour_offsets = country_hour_offsets(self.countries)
        local_hour = local_hour_of(frame, self._hour_offsets)

        # Figure 8: one slot array serves the night, peak and
        # local-hour banks.
        has_sat = np.flatnonzero(np.isfinite(frame.sat_rtt_ms))
        sat = frame.sat_rtt_ms[has_sat]
        rows = c[has_sat]
        hours = local_hour[has_sat]
        del has_sat
        slot = self.h8_hour.slots(sat)
        night, peak = _night_peak(hours)
        self.h8_night.add_slots(rows[night], slot[night])
        self.h8_peak.add_slots(rows[peak], slot[peak])
        self.h8_hour.add_slots(rows * 24 + _hour_of_day(hours), slot)
        del hours, slot
        either = night | peak
        if either.any():
            np.minimum.at(self.sat_min_c, rows[either], sat[either].astype(np.float64))
        del sat, rows, night, peak, either

        # Figure 9: count- and volume-weighted banks share one slot array.
        tcp = np.zeros(len(frame), dtype=bool)
        for l7 in _TCP_L7_IDX:
            tcp |= frame.l7_idx == l7
        ground_ok = np.flatnonzero(tcp & np.isfinite(frame.ground_rtt_ms))
        del tcp
        rows = c[ground_ok]
        slot = self.h9_cnt.slots(frame.ground_rtt_ms[ground_ok])
        self.h9_cnt.add_slots(rows, slot)
        self.h9_vol.add_slots(rows, slot, weights=vol[ground_ok])
        del ground_ok, rows, slot

        # Figure 11: bulk-download throughput (Mb/s), overall plus the
        # same night/peak local-hour periods as Figure 8a, computed for
        # the bulk flows only.
        bulk = np.flatnonzero(frame.bytes_down >= BULK_FLOW_MIN_BYTES)
        with np.errstate(divide="ignore", invalid="ignore"):
            mbps = frame.bytes_down[bulk] * 8.0 / frame.duration_s[bulk] / 1e6
        finite = np.isfinite(mbps)
        bulk, mbps = bulk[finite], mbps[finite]
        rows = c[bulk]
        hours = local_hour[bulk]
        slot = self.h11_all.slots(mbps)
        night, peak = _night_peak(hours)
        self.h11_all.add_slots(rows, slot)
        self.h11_night.add_slots(rows[night], slot[night])
        self.h11_peak.add_slots(rows[peak], slot[peak])

    def _update_services(
        self,
        frame: FlowFrame,
        vol: np.ndarray,
        gid: np.ndarray,
        group_country: np.ndarray,
    ) -> None:
        """Figures 6/7: classifier-labelled customer-day aggregates.

        Labels come from the Table 3 regexes over the window's domain
        pool (looked up once per pool), *not* from the generator's
        ground truth, mirroring the frame paths.
        """
        labels, categories, _ = self._domain_lookups(frame.domains)
        label = labels[frame.domain_idx]
        matched = np.flatnonzero(label >= 0)
        if len(matched) == 0:
            return
        nc = len(self.countries)
        n_groups = len(group_country)
        n_svc = len(self.classifier_services)

        # Figure 6: distinct customers per (country, service, day),
        # summed over days — distinct (service, customer-day) pairs.
        pairs = _distinct(
            label[matched].astype(np.int64) * n_groups + gid[matched],
            n_svc * n_groups,
        )
        del label
        self.svc_cust_days += np.bincount(
            group_country[pairs % n_groups] * n_svc + pairs // n_groups,
            minlength=nc * n_svc,
        ).reshape(nc, n_svc)

        # Figure 7: customer-day volume per category. The stable sort
        # on (category, customer-day) keeps each group's flows in frame
        # order, so each group's pairwise sum is unchanged.
        category = categories[frame.domain_idx[matched]]
        has_cat = category >= 0
        if not has_cat.any():
            return
        flows = matched[has_cat]
        key = category[has_cat].astype(np.int64) * n_groups + gid[flows]
        order = np.argsort(_compact(key, len(FIG7_CATEGORIES) * n_groups), kind="stable")
        key = key[order]
        starts = np.concatenate(([0], np.flatnonzero(key[1:] != key[:-1]) + 1))
        sums = np.add.reduceat(vol[flows][order], starts)
        cells = key[starts]
        self.h7_volume.update(
            (cells // n_groups) * nc + group_country[cells % n_groups], sums
        )

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

    def _update_dns(
        self,
        frame: FlowFrame,
        c: np.ndarray,
        cust_rank: np.ndarray,
        cust_ids: np.ndarray,
    ) -> None:
        """Figure 10 counters/histograms and the Table 2 customer bank."""
        nr = len(self.resolvers)
        if nr == 0:
            return
        nc = len(self.countries)
        dns = np.flatnonzero(frame.resolver_idx >= 0)
        res = frame.resolver_idx[dns].astype(np.int64)
        self.dns_cr += np.bincount(
            c[dns] * nr + res, minlength=nc * nr
        ).reshape(nc, nr).astype(np.int64)
        self.h10_resp.update(res, frame.dns_response_ms[dns])

        # Table 2 bank: each customer's resolver counts plus ground-RTT
        # sum and count per domain group, one bincount each over
        # (customer, column); every bin sums its flows in frame order,
        # as a per-customer bincount does.
        _, _, groups = self._domain_lookups(frame.domains)
        group = groups[frame.domain_idx]
        rtt = np.flatnonzero(np.isfinite(frame.ground_rtt_ms) & (group >= 0))
        if len(dns) == 0 and len(rtt) == 0:
            return
        ng = len(self._t2_groups)
        n_cust = len(cust_ids)
        dns_rank = cust_rank[dns]
        rtt_rank = cust_rank[rtt]
        rtt_key = rtt_rank * ng + group[rtt]
        bank = np.concatenate(
            (
                np.bincount(dns_rank * nr + res, minlength=n_cust * nr).reshape(
                    n_cust, nr
                ),
                np.bincount(
                    rtt_key,
                    weights=frame.ground_rtt_ms[rtt].astype(np.float64),
                    minlength=n_cust * ng,
                ).reshape(n_cust, ng),
                np.bincount(rtt_key, minlength=n_cust * ng).reshape(n_cust, ng),
            ),
            axis=1,
        )
        touched = np.zeros(n_cust, dtype=bool)
        touched[dns_rank] = True
        touched[rtt_rank] = True
        for cid, row in zip(cust_ids[touched].tolist(), bank[touched]):
            vec = self._t2.get(cid)
            if vec is None:
                vec = self._t2[cid] = np.zeros(self._t2_vec_len, dtype=np.float64)
            vec += row

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
