"""Flow-level workload generation.

Produces a :class:`~repro.analysis.dataset.FlowFrame` of hundreds of
thousands of flows by composing the population (who), the service
catalog (what), the diurnal profiles (when), the internet model (where
the server is and what the DNS costs), and the SatCom delay/throughput
models (what performance the probe records). Per country, every
(country, service) chunk first issues its RNG draws in catalog order,
then one vectorized pass over the country's concatenated draws computes
the columns (DESIGN.md §7).

The RTT/throughput columns are stamped with the *same* models the
packet-level simulator uses — DESIGN.md §2 explains why this preserves
the paper's observable shapes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.dataset import FlowFrame
from repro.constants import SECONDS_PER_DAY
from repro.internet.geo import COUNTRIES, SERVER_SITES, utc_hour
from repro.internet.resolvers import RESOLVERS, ResolverCatalog
from repro.internet.servers import SelectionPolicy, deployment
from repro.internet.topology import InternetModel
from repro.parallel import (
    ShardSpec,
    ShardWorkerPool,
    default_shard_count,
    plan_shards,
    resolve_workers,
)
from repro.satcom.beams import BeamMap, build_default_beam_map
from repro.satcom.delay_model import HandshakeDraws, SatelliteRttModel
from repro.satcom.delaysource import DelaySource, StaticDelaySource
from repro.traffic.distributions import (
    DAY_FACTOR_BINGE,
    Distribution,
    Mixture,
    choice_cdf,
    unit_lognormal,
)
from repro.traffic.profiles import country_profile
from repro.traffic.services import SERVICES, L7_ORDER, ServiceCategory
from repro.traffic.sessions import VideoQoeConfig, VideoSessionModel
from repro.traffic.subscribers import (
    Population,
    SubscriberType,
    synthesize_population,
)
from repro.flowmeter.records import L7Protocol

_HTTPS_IDX = L7_ORDER.index(L7Protocol.HTTPS)
_DNS_IDX = L7_ORDER.index(L7Protocol.DNS)
_DOMAINS_PER_SERVICE = 24
_VIDEO_BITRATES_MBPS = np.array([2.5, 4.0, 8.0, 16.0])
# largest float32 below 24.0: hours sampled in [0, 24) as float64 can
# round up to exactly 24.0 when narrowed to float32
_HOUR_MAX_F4 = np.nextafter(np.float32(24.0), np.float32(0.0))


@dataclass
class TrafficModel:
    """Resolved traffic-model overrides threaded into the generator.

    The default instance reproduces the legacy hard-coded draws
    bit-for-bit: no per-service overrides, the binge day factor as a
    two-component :class:`Mixture`, and no video sessions. Scenarios
    build non-default instances from their digest-bearing ``traffic``
    section (:meth:`repro.scenario.Scenario.build_traffic_model`).
    """

    category_weights: Dict[ServiceCategory, float] = field(default_factory=dict)
    """Per-category flow-count multipliers (absent = 1.0, untouched)."""
    size_dists: Dict[str, Distribution] = field(default_factory=dict)
    """Per-service downlink flow-size overrides (bytes)."""
    flows_dists: Dict[str, Distribution] = field(default_factory=dict)
    """Per-service flows-per-active-day overrides (absolute counts)."""
    day_factor: Mixture = DAY_FACTOR_BINGE
    """Customer-day size multiplier; first component is the binge mode
    whose weight the per-subscriber-type binge probability overrides."""
    qoe: Optional[VideoQoeConfig] = None
    """Video session model (None = no sessions, zero extra draws)."""


@dataclass
class WorkloadConfig:
    """Knobs of the generator."""

    n_customers: int = 600
    days: int = 5
    seed: int = 7
    countries: Optional[Sequence[str]] = None
    flow_scale: float = 1.0
    """Uniformly scales per-customer flow counts (for quick runs)."""
    include_dns: bool = True
    dns_flows_per_day: float = 25.0
    """Mean DNS flows per household-day (scaled by flow multiplier)."""
    n_workers: Optional[int] = 1
    """Worker processes for generation: ``1`` serial, ``None``/``0``
    one per core. Never affects the generated flows, only wall-clock."""
    n_shards: Optional[int] = None
    """Customer shards (RNG streams). ``None`` derives the count from
    ``n_customers`` alone. Changing it changes the sampled flows, so it
    is part of the capture's cache identity — unlike ``n_workers``."""


class WorkloadGenerator:
    """Generates the synthetic capture the analysis pipeline consumes."""

    def __init__(
        self,
        config: Optional[WorkloadConfig] = None,
        internet: Optional[InternetModel] = None,
        rtt_model: Optional[SatelliteRttModel] = None,
        population: Optional[Population] = None,
        plan_mix: Optional[Dict[str, Dict[str, float]]] = None,
        delay_source: Optional[DelaySource] = None,
        traffic: Optional[TrafficModel] = None,
    ) -> None:
        self.config = config or WorkloadConfig()
        self.traffic = traffic or TrafficModel()
        self.rng = np.random.default_rng(self.config.seed)
        if delay_source is not None and rtt_model is not None:
            raise ValueError("pass delay_source or rtt_model, not both")
        if delay_source is None:
            if rtt_model is not None:
                # legacy entry point: a bare model is the static source
                delay_source = StaticDelaySource(rtt_model=rtt_model)
            else:
                # the baseline scenario owns the default model tree
                from repro.scenario import get_scenario

                delay_source = get_scenario("baseline-geo").build_delay_source()
        self.delay_source = delay_source
        self.rtt_model = delay_source.rtt_model
        self.beam_map: BeamMap = self.rtt_model.beam_map
        self.internet = internet or InternetModel()
        for svc in SERVICES.values():
            if svc.name not in self.internet.deployments:
                self.internet.register_deployment(
                    deployment(svc.name, svc.footprint, svc.policy)
                )
        self.population = population or synthesize_population(
            self.config.n_customers,
            self.rng,
            countries=self.config.countries,
            beam_map=self.beam_map,
            plan_mix=plan_mix,
        )
        self.delay_source.bind_customers(
            [s.country for s in self.population.subscribers]
        )
        self._build_pools()
        self._build_customer_arrays()
        self._precompute_sites()
        self._build_draw_tables()

    # -- pools and lookups -------------------------------------------------

    def _build_pools(self) -> None:
        self.countries_pool = list(COUNTRIES)
        self.beams_pool = [beam.beam_id for beam in self.beam_map.beams]
        self.services_pool = list(SERVICES)
        self.sites_pool = list(SERVER_SITES)
        self.resolvers_pool = list(RESOLVERS)
        self.domains_pool: List[str] = []
        self._service_domains: Dict[str, np.ndarray] = {}
        seen: Dict[str, int] = {}
        for name, svc in SERVICES.items():
            indices = []
            for _ in range(_DOMAINS_PER_SERVICE):
                domain = svc.sample_domain(self.rng)
                if domain not in seen:
                    seen[domain] = len(self.domains_pool)
                    self.domains_pool.append(domain)
                indices.append(seen[domain])
            self._service_domains[name] = np.array(sorted(set(indices)), dtype=np.int32)
        self._site_base_rtt = np.array(
            [self.internet.base_ground_rtt_ms(SERVER_SITES[s]) for s in self.sites_pool],
            dtype=np.float64,
        )
        self._jitter_noise = unit_lognormal(self.internet.latency.jitter_sigma)
        self._video_service_idx = np.array(
            [
                i
                for i, name in enumerate(self.services_pool)
                if SERVICES[name].category == ServiceCategory.VIDEO
            ],
            dtype=np.int64,
        )

    def _build_customer_arrays(self) -> None:
        subs = self.population.subscribers
        n = len(subs)
        beam_index = {beam_id: i for i, beam_id in enumerate(self.beams_pool)}
        resolver_index = {name: i for i, name in enumerate(self.resolvers_pool)}
        self.cust_country_idx = np.array(
            [self.countries_pool.index(s.country) for s in subs], dtype=np.int16
        )
        self.cust_type = np.array([int(s.subscriber_type) for s in subs], dtype=np.int8)
        self.cust_plan_down = np.array([s.plan_down_mbps for s in subs], dtype=np.float32)
        self.cust_beam_idx = np.array([beam_index[s.beam_id] for s in subs], dtype=np.int16)
        self.cust_beam_peak = np.array([s.beam_peak_utilization for s in subs], dtype=np.float64)
        self.cust_beam_pep = np.array([s.beam_pep_load for s in subs], dtype=np.float64)
        self.cust_resolver_idx = np.array(
            [resolver_index[s.resolver_name] for s in subs], dtype=np.int16
        )
        self.cust_volume_mult = np.array([s.volume_multiplier for s in subs], dtype=np.float64)
        self.cust_flow_mult = np.array([s.flow_multiplier for s in subs], dtype=np.float64)
        self.cust_size_scale = self.cust_volume_mult / np.maximum(self.cust_flow_mult, 1e-9)
        # binge-day probability: community APs binge more often
        self.cust_binge_prob = np.where(
            self.cust_type == int(SubscriberType.COMMUNITY), 0.10, 0.035
        )
        # (service, customer) daily-use probabilities as one dense
        # matrix: the generator reads a row slice per chunk instead of
        # chasing per-subscriber dicts in the per-shard hot loop
        self.cust_use_prob = np.zeros((len(SERVICES), n), dtype=np.float64)
        for s_idx, name in enumerate(SERVICES):
            self.cust_use_prob[s_idx] = [
                s.daily_use_prob.get(name, 0.0) for s in subs
            ]
        self._country_customers: Dict[str, np.ndarray] = {}
        for country in set(s.country for s in subs):
            self._country_customers[country] = np.array(
                [i for i, s in enumerate(subs) if s.country == country], dtype=np.int64
            )

    def _precompute_sites(self) -> None:
        """Server-selection outcomes as (service, resolver) and
        (service, country) tables of indices into the site pool."""
        site_index = {name: i for i, name in enumerate(self.sites_pool)}
        gs = self.internet.ground_station
        latency = self.internet.latency
        self._egress_site = np.empty(
            (len(SERVICES), len(self.resolvers_pool)), dtype=np.int16
        )
        self._country_site = np.empty(
            (len(SERVICES), len(self.countries_pool)), dtype=np.int16
        )
        for s_idx, name in enumerate(SERVICES):
            dep = self.internet.deployment_for(name)
            for r_idx, r_name in enumerate(self.resolvers_pool):
                site = dep.select_site(RESOLVERS[r_name].egress, gs, latency)
                self._egress_site[s_idx, r_idx] = site_index[site.name]
            for c_idx, country in enumerate(self.countries_pool):
                site = dep.select_site(COUNTRIES[country], gs, latency)
                self._country_site[s_idx, c_idx] = site_index[site.name]
        self._resolver_is_ecs = np.array(
            [RESOLVERS[r].supports_ecs for r in self.resolvers_pool], dtype=bool
        )
        self._resolver_ecs_accuracy = np.array(
            [RESOLVERS[r].ecs_accuracy for r in self.resolvers_pool], dtype=np.float64
        )

    def _build_draw_tables(self) -> None:
        """RNG-free constants of generation, built once per generator
        (forked window workers inherit them): choice CDFs, per-service
        flags and domain tables, and per-country intensity powers and
        handshake constants."""
        services = list(SERVICES.values())
        self._svc_draw = [
            _ServiceDraw(
                *svc.protocol_table(),
                flows=self.traffic.flows_dists.get(svc.name, svc.flows_noise),
                flows_median=(
                    None if svc.name in self.traffic.flows_dists else svc.flows_median
                ),
                weight=self.traffic.category_weights.get(svc.category, 1.0),
                size=self.traffic.size_dists.get(svc.name, svc.size.down),
                up_ratio=svc.size.up_ratio,
                n_domains=len(self._service_domains[svc.name]),
            )
            for svc in services
        ]
        self._svc_ecs = np.array(
            [
                svc.policy not in (SelectionPolicy.ANYCAST, SelectionPolicy.ORIGIN)
                for svc in services
            ]
        )
        self._svc_video = np.array(
            [svc.category == ServiceCategory.VIDEO for svc in services]
        )
        self._domain_table = np.full(
            (len(services), max(d.n_domains for d in self._svc_draw)),
            -1,
            dtype=np.int32,
        )
        for s_idx, name in enumerate(SERVICES):
            domains = self._service_domains[name]
            self._domain_table[s_idx, : len(domains)] = domains
        self._hour_cdf = {
            country: choice_cdf(country_profile(country).hourly_weights_local)
            for country in self.countries_pool
        }
        # (flow-count, size) intensity powers per (country, service),
        # computed on Python floats exactly as the per-flow expressions
        # did, never as np.power over arrays
        self._intensity_pow: Dict[str, Tuple[List[float], np.ndarray]] = {}
        self._handshake_consts: Dict[str, Tuple[float, float]] = {}
        for country in self._country_customers:
            profile = country_profile(country)
            intensity = [profile.category_intensity[svc.category] for svc in services]
            self._intensity_pow[country] = (
                [i**0.4 for i in intensity],
                np.array([i**0.6 for i in intensity]),
            )
            self._handshake_consts[country] = self.rtt_model.handshake_constants(country)

    # -- generation ---------------------------------------------------------

    def shard_plan(self) -> List[ShardSpec]:
        """The shards :meth:`generate` will execute (config-derived)."""
        n_shards = self.config.n_shards or default_shard_count(len(self.population))
        return plan_shards(len(self.population), n_shards)

    def generate(self) -> FlowFrame:
        """Produce the full synthetic capture.

        The population is split into contiguous customer-id shards,
        each generated from its own ``SeedSequence``-spawned RNG
        stream, then merged in shard order — so the result is
        bit-identical for any ``n_workers`` (see DESIGN.md §7).
        """
        with ShardWorkerPool(self, resolve_workers(self.config.n_workers)) as pool:
            frames = [frame for frame in pool.generate() if frame is not None]
        if not frames:
            raise RuntimeError("workload produced no flows")
        if len(frames) == 1:
            return frames[0]
        return FlowFrame.concat(frames)

    def generate_shard(self, shard: ShardSpec) -> Optional[FlowFrame]:
        """Generate the flows of one customer shard.

        Draws from the shard's own spawned RNG stream; ``None`` when
        the shard's customers produce no flows at all (tiny configs).
        """
        seed = np.random.SeedSequence(self.config.seed).spawn(shard.n_shards)[
            shard.index
        ]
        rng = np.random.default_rng(seed)
        return self.generate_shard_days(shard, 0, self.config.days, rng)

    def generate_shard_days(
        self,
        shard: ShardSpec,
        day_lo: int,
        day_hi: int,
        rng: np.random.Generator,
    ) -> Optional[FlowFrame]:
        """Generate one shard's flows for days ``[day_lo, day_hi)``.

        The streaming producer (:mod:`repro.stream`) calls this once
        per (shard, window) with a window-specific RNG stream; the
        one-shot :meth:`generate_shard` is the ``[0, days)`` special
        case, so its draws are byte-identical to the pre-streaming
        generator.

        Per country, service flows are made in two phases (DESIGN §7):
        :meth:`_draw_services` issues every RNG call of every
        (country, service) chunk in catalog order, then
        :meth:`_service_columns` runs the RNG-free arithmetic once over
        the country's concatenated draws.
        """
        if not 0 <= day_lo < day_hi <= self.config.days:
            raise ValueError(
                f"day window [{day_lo}, {day_hi}) outside capture "
                f"[0, {self.config.days})"
            )
        parts: List[Dict[str, np.ndarray]] = []
        for country, cust_ids in sorted(self._country_customers.items()):
            shard_ids = cust_ids[(cust_ids >= shard.lo) & (cust_ids < shard.hi)]
            if len(shard_ids) == 0:
                continue
            profile = country_profile(country)
            drawn = self._draw_services(
                country, profile, shard_ids, rng, day_lo, day_hi
            )
            if drawn is not None:
                parts.append(self._service_columns(country, profile, *drawn))
            if self.config.include_dns:
                dns_part = self._generate_dns_chunk(
                    country, shard_ids, profile, rng=rng,
                    day_lo=day_lo, day_hi=day_hi,
                )
                if dns_part is not None:
                    parts.append(dns_part)
            if self.traffic.qoe is not None:
                # Video sessions draw from the same per-(shard, window)
                # stream, after the country's flow/DNS chunks; a
                # session is contained in one (customer, day), so
                # day-aligned windows never split it. When qoe is off
                # this branch consumes zero draws — baseline captures
                # stay bit-identical.
                session_part = self._generate_session_chunk(
                    country, shard_ids, profile, rng=rng,
                    day_lo=day_lo, day_hi=day_hi,
                )
                if session_part is not None:
                    parts.append(session_part)
        if not parts:
            return None
        return self._frame(parts)

    # -- per-batch internals --------------------------------------------------
    #
    # Every sampling helper takes an explicit ``rng`` (defaulting to the
    # construction-time stream) so shards can draw from their own
    # spawned streams without touching shared state.

    def _activity_pairs(
        self,
        cust_ids: np.ndarray,
        probs: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        day_lo: int = 0,
        day_hi: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(customer, day) pairs on which the service is used.

        ``day_lo``/``day_hi`` bound the half-open day range sampled
        (default: the whole capture). Day indices are absolute.
        """
        rng = rng if rng is not None else self.rng
        day_hi = self.config.days if day_hi is None else day_hi
        active = rng.random((len(cust_ids), day_hi - day_lo)) < probs[:, None]
        rows, day_idx = np.nonzero(active)
        return cust_ids[rows], day_idx + day_lo

    @staticmethod
    def _local_hours(
        hour_cdf: np.ndarray, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Local start hours: the hour by ``hour_cdf``, then a uniform
        offset inside it (``rng.choice(24, p=...)`` then ``uniform``)."""
        return hour_cdf.searchsorted(rng.random(n), side="right") + rng.uniform(
            0.0, 1.0, n
        )

    def _sample_hours(
        self, profile, n: int, rng: Optional[np.random.Generator] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(local hour, UTC hour) arrays of length n."""
        rng = rng if rng is not None else self.rng
        hour_local = self._local_hours(self._hour_cdf[profile.name], n, rng)
        return hour_local, utc_hour(profile.location, hour_local)

    def _draw_services(
        self,
        country: str,
        profile,
        cust_ids: np.ndarray,
        rng: np.random.Generator,
        day_lo: int,
        day_hi: int,
    ) -> Optional[
        Tuple[List[Tuple[int, int]], Dict[str, List[np.ndarray]], List[HandshakeDraws]]
    ]:
        """The draw phase of one country's service flows.

        Walks the (country, service) chunks in catalog order and issues
        each chunk's RNG calls in a fixed order, sizes and parameters.
        It computes only what a later draw depends on: the active
        customer-days, their rounded flow counts, the protocol labels
        (whose HTTPS count sizes the handshake draw) and the HTTPS
        flows' utilization (the Aloha success probability). Returns
        the chunks' ``(service index, flows)``, the per-key lists of
        draws, and the handshake draws of the chunks with HTTPS flows;
        ``None`` when no service is used.
        """
        flow_pow, _ = self._intensity_pow[country]
        _, p_err = self._handshake_consts[country]
        hour_cdf = self._hour_cdf[country]
        chunks: List[Tuple[int, int]] = []
        draws: Dict[str, List[np.ndarray]] = defaultdict(list)
        handshakes: List[HandshakeDraws] = []
        for svc_idx, table in enumerate(self._svc_draw):
            probs = self.cust_use_prob[svc_idx, cust_ids]
            if not probs.any():
                continue
            pair_cust, pair_day = self._activity_pairs(
                cust_ids, probs, rng=rng, day_lo=day_lo, day_hi=day_hi
            )
            n_pairs = len(pair_cust)
            if n_pairs == 0:
                continue
            flow_int = (
                self.cust_flow_mult[pair_cust] * flow_pow[svc_idx] * self.config.flow_scale
            )
            # Flows per active customer-day. The default path multiplies
            # by unit-median noise — bitwise-equal to the legacy bare
            # ``rng.lognormal(0, flows_sigma)`` draw — while a scenario
            # override replaces the median*noise product wholesale.
            if table.flows_median is None:
                raw_flows = flow_int * table.flows.sample(rng, n_pairs)
            else:
                raw_flows = table.flows_median * flow_int * table.flows.sample(rng, n_pairs)
            if table.weight != 1.0:
                raw_flows = raw_flows * table.weight
            n_flows = np.maximum(1, raw_flows.round().astype(np.int64))
            flow_cust = np.repeat(pair_cust, n_flows)
            total = len(flow_cust)
            chunks.append((svc_idx, total))
            draws["pair_day"].append(pair_day)
            draws["n_flows"].append(n_flows)
            draws["flow_cust"].append(flow_cust)

            hour_local = self._local_hours(hour_cdf, total, rng)
            l7 = table.labels[
                table.protocol_cdf.searchsorted(rng.random(total), side="right")
            ]
            draws["hour_local"].append(hour_local)
            draws["l7"].append(l7)
            # Day-to-day burstiness: a small fraction of customer-days
            # are binges (community APs more often) — these drive the
            # heavy-hitter tails of Figures 5b/5c. The day factor is a
            # two-mode lognormal Mixture whose first (binge) component's
            # weight is overridden per subscriber type.
            if len(self.traffic.day_factor.components) == 2:
                day_draw = self.traffic.day_factor.sample(
                    rng, n_pairs, first_weight=self.cust_binge_prob[pair_cust]
                )
            else:
                day_draw = self.traffic.day_factor.sample(rng, n_pairs)
            draws["day_factor"].append(day_draw)
            draws["size"].append(table.size.sample(rng, total))
            draws["up_ratio"].append(table.up_ratio.sample(rng, total))
            draws["domain"].append(rng.integers(0, table.n_domains, total))
            if self._svc_ecs[svc_idx]:
                draws["ecs"].append(rng.random(total))
            draws["jitter"].append(self._jitter_noise.sample(rng, total))
            https = l7 == _HTTPS_IDX
            n_https = np.count_nonzero(https)
            if n_https:
                if n_https < total:
                    flow_cust, hour_local = flow_cust[https], hour_local[https]
                # flow_cust/hour_local now cover the HTTPS flows only
                utilization = self.beam_map.utilization_bulk(
                    self.cust_beam_peak[flow_cust], hour_local, profile.continent
                )
                handshakes.append(
                    self.rtt_model.draw_handshake(p_err, utilization, rng)
                )
            for key, value in self._draw_duration(
                bool(self._svc_video[svc_idx]), total, rng
            ).items():
                draws[key].append(value)
        if not chunks:
            return None
        return chunks, draws, handshakes

    def _service_columns(
        self,
        country: str,
        profile,
        chunks: List[Tuple[int, int]],
        draws: Dict[str, List[np.ndarray]],
        handshakes: List[HandshakeDraws],
    ) -> Dict[str, np.ndarray]:
        """The arithmetic phase: one country's service-flow columns from
        its concatenated draws (see :meth:`_draw_services`). Every step
        is elementwise, so the result equals chunk-by-chunk evaluation."""
        flat = {key: np.concatenate(values) for key, values in draws.items()}
        chunk_svc, chunk_flows = np.array(chunks).T
        flow_svc = np.repeat(chunk_svc, chunk_flows)
        flow_cust = flat["flow_cust"]
        total = len(flow_cust)

        hour_local = flat["hour_local"]
        hour_utc = utc_hour(profile.location, hour_local)
        flow_day = np.repeat(flat["pair_day"], flat["n_flows"])
        ts = flow_day * SECONDS_PER_DAY + hour_utc * 3600.0

        day_factor = np.repeat(flat["day_factor"], flat["n_flows"])
        _, size_pow = self._intensity_pow[country]
        size_scale = self.cust_size_scale[flow_cust] * size_pow[flow_svc] * day_factor
        bytes_down = flat["size"] * size_scale
        bytes_up = bytes_down * flat["up_ratio"]

        ecs_draw = _scatter(total, self._svc_ecs[flow_svc], flat.get("ecs"), np.nan)
        site_idx = self._select_sites(
            self.countries_pool.index(country), flow_svc, flow_cust, ecs_draw
        )
        ground_rtt = self._site_base_rtt[site_idx] * flat["jitter"]

        utilization, pep_load = self.beam_map.loads_bulk(
            self.cust_beam_peak[flow_cust],
            self.cust_beam_pep[flow_cust],
            hour_local,
            profile.continent,
        )
        sat_rtt = np.full(total, np.nan, dtype=np.float32)
        if handshakes:
            https = flat["l7"] == _HTTPS_IDX
            floor, _ = self._handshake_consts[country]
            base = self.rtt_model.combine_handshake(
                floor,
                HandshakeDraws(*map(np.concatenate, zip(*handshakes))),
                utilization[https],
                pep_load[https],
            )
            # The flow start-times thread into the delay source: the
            # static source ignores them (bit-identical to the bare
            # model) while the constellation source derives its
            # per-epoch floor from them — draw-free either way.
            sat_rtt[https] = (
                self.delay_source.handshake_at(country, base, ts[https]) * 1000.0
            ).astype(np.float32)

        video = self._svc_video[flow_svc]
        flat["bitrate"] = _scatter(total, video, flat.get("bitrate"), 0)
        flat["limited"] = _scatter(total, video, flat.get("limited"), np.nan)
        duration = self._duration(
            flow_cust, bytes_down, utilization, sat_rtt, profile.continent, flat
        )
        return {
            "ts_start": ts,
            "day": flow_day,
            "hour_utc": hour_utc,
            "flow_cust": flow_cust,
            "l7_idx": flat["l7"],
            "service_true_idx": flow_svc,
            "domain_idx": self._domain_table[flow_svc, flat["domain"]],
            "bytes_up": bytes_up,
            "bytes_down": bytes_down,
            "duration_s": duration,
            "sat_rtt_ms": sat_rtt,
            "ground_rtt_ms": ground_rtt,
            "site_idx": site_idx,
        }

    def _select_sites(
        self,
        country_idx: int,
        flow_svc: np.ndarray,
        flow_cust: np.ndarray,
        ecs_draw: np.ndarray,
    ) -> np.ndarray:
        """Serving site per flow: the resolver egress's site, or the
        customer country's where an ECS resolver passes the client
        subnet (``ecs_draw`` below its accuracy; NaN for services whose
        policy ignores ECS)."""
        resolver_idx = self.cust_resolver_idx[flow_cust]
        egress_sites = self._egress_site[flow_svc, resolver_idx]
        ecs_mask = self._resolver_is_ecs[resolver_idx] & (
            ecs_draw < self._resolver_ecs_accuracy[resolver_idx]
        )
        return np.where(ecs_mask, self._country_site[flow_svc, country_idx], egress_sites)

    @staticmethod
    def _draw_duration(
        video: bool, total: int, rng: np.random.Generator
    ) -> Dict[str, np.ndarray]:
        """The draws of :meth:`_duration` for one chunk of flows."""
        draws = {
            "frac": rng.beta(6.0, 1.4, total),
            "slow": rng.uniform(0.5, 1.0, total),
            "community": rng.uniform(0.25, 0.7, total),
        }
        if video:
            draws["bitrate"] = rng.integers(0, 4, total)
            draws["limited"] = rng.random(total)
        draws["reuse"] = rng.random(total)
        draws["tail"] = rng.exponential(0.15, total)
        return draws

    def _duration(
        self,
        flow_cust: np.ndarray,
        bytes_down: np.ndarray,
        utilization: np.ndarray,
        sat_rtt_ms: np.ndarray,
        continent: str,
        draws: Dict[str, np.ndarray],
    ) -> np.ndarray:
        """Probe-side flow durations from :meth:`_draw_duration`'s draws
        (``limited`` is NaN on flows of non-video services)."""
        plan_bps = self.cust_plan_down[flow_cust].astype(np.float64) * 1e6
        congestion = np.clip((utilization - 0.55) / 0.45, 0.0, 1.0)
        rate = plan_bps * draws["frac"] * (1.0 - 0.55 * congestion * draws["slow"])
        community = self.cust_type[flow_cust] == int(SubscriberType.COMMUNITY)
        rate = np.where(community, rate * draws["community"], rate)
        if continent == "Africa":
            rate *= 0.9  # less capable end-user terminals (Section 6.5)
        # rate-limited streaming for about half the video flows
        bitrate = _VIDEO_BITRATES_MBPS[draws["bitrate"]] * 1e6
        rate = np.where(draws["limited"] < 0.5, np.minimum(rate, bitrate), rate)
        rate = np.maximum(rate, 20_000.0)
        # Bulk transfers mostly ride reused (kept-alive) connections, so
        # their probe-side duration is transfer-dominated — that is what
        # puts the Figure 11a knees at the commercial plan rates.
        handshake = np.where(np.isnan(sat_rtt_ms), 600.0, sat_rtt_ms) / 1000.0
        reused = (bytes_down > 5e6) & (draws["reuse"] < 0.7)
        handshake = np.where(reused, 0.0, handshake)
        return (bytes_down * 8.0 / rate + handshake + draws["tail"]).astype(np.float32)

    def _generate_dns_chunk(
        self,
        country: str,
        cust_ids: np.ndarray,
        profile,
        rng: Optional[np.random.Generator] = None,
        day_lo: int = 0,
        day_hi: Optional[int] = None,
    ) -> Optional[Dict[str, np.ndarray]]:
        rng = rng if rng is not None else self.rng
        day_hi = self.config.days if day_hi is None else day_hi
        days = day_hi - day_lo
        mean = (
            self.config.dns_flows_per_day
            * self.cust_flow_mult[cust_ids]
            * self.config.flow_scale
        )
        counts = rng.poisson(np.tile(mean, days))
        if counts.sum() == 0:
            return None
        pair_cust = np.tile(cust_ids, days)
        pair_day = np.repeat(np.arange(day_lo, day_hi), len(cust_ids))
        flow_cust = np.repeat(pair_cust, counts)
        flow_day = np.repeat(pair_day, counts)
        total = len(flow_cust)

        hour_local, hour_utc = self._sample_hours(profile, total, rng=rng)
        ts = flow_day * SECONDS_PER_DAY + hour_utc * 3600.0

        resolver_idx = self.cust_resolver_idx[flow_cust].copy()
        # a small fraction of queries go to secondary resolvers
        stray = rng.random(total) < 0.08
        if stray.any():
            resolver_idx[stray] = rng.integers(
                0, len(self.resolvers_pool), stray.sum()
            )

        response = np.empty(total, dtype=np.float32)
        for r_idx in np.unique(resolver_idx):
            mask = resolver_idx == r_idx
            resolver = RESOLVERS[self.resolvers_pool[r_idx]]
            response[mask] = resolver.sample_response_ms(
                self.internet.latency, rng, int(mask.sum())
            ).astype(np.float32)

        bytes_up = rng.integers(60, 90, total).astype(np.float64)
        bytes_down = rng.integers(120, 400, total).astype(np.float64)

        return {
            "ts_start": ts,
            "day": flow_day,
            "hour_utc": hour_utc,
            "flow_cust": flow_cust,
            "l7_idx": np.full(total, _DNS_IDX, dtype=np.int8),
            "bytes_up": bytes_up,
            "bytes_down": bytes_down,
            "duration_s": response / 1000.0,
            "ground_rtt_ms": response,
            "resolver_idx": resolver_idx,
            "dns_response_ms": response,
        }

    def _generate_session_chunk(
        self,
        country: str,
        cust_ids: np.ndarray,
        profile,
        rng: Optional[np.random.Generator] = None,
        day_lo: int = 0,
        day_hi: Optional[int] = None,
    ) -> Optional[Dict[str, np.ndarray]]:
        """ABR video sessions for one country's shard customers.

        Each session's stochastic inputs (count, arrival hour, service,
        duration, effective capacity, domain) are drawn here; the
        chunk schedule and QoE come from the deterministic
        :class:`VideoSessionModel`. Every chunk row carries the
        session id and the session's QoE metrics, so any sharding or
        windowing of the frame can reconstruct per-session QoE by
        deduplicating on ``session_id``.
        """
        rng = rng if rng is not None else self.rng
        qoe = self.traffic.qoe
        if qoe is None or len(self._video_service_idx) == 0:
            return None
        day_hi = self.config.days if day_hi is None else day_hi
        days = day_hi - day_lo
        pair_cust = np.tile(cust_ids, days)
        pair_day = np.repeat(np.arange(day_lo, day_hi), len(cust_ids))
        counts = rng.poisson(qoe.sessions_per_day, len(pair_cust))
        n_sessions = int(counts.sum())
        if n_sessions == 0:
            return None
        sess_cust = np.repeat(pair_cust, counts)
        sess_day = np.repeat(pair_day, counts)
        # ordinal of each session within its (customer, day) pair →
        # a deterministic, partition-independent session id
        ordinal = np.arange(n_sessions) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        session_ids = (
            (sess_cust.astype(np.int64) + 1) * 1_000_000
            + sess_day.astype(np.int64) * 1_000
            + ordinal
        )

        hour_local, hour_utc = self._sample_hours(profile, n_sessions, rng=rng)
        svc_pick = self._video_service_idx[
            rng.integers(0, len(self._video_service_idx), n_sessions)
        ]
        duration = np.clip(
            qoe.duration.sample(rng, n_sessions), qoe.chunk_s, 4.0 * 3600.0
        )
        utilization = self.beam_map.utilization_bulk(
            self.cust_beam_peak[sess_cust], hour_local, profile.continent
        )
        congestion = np.clip((utilization - 0.55) / 0.45, 0.0, 1.0)
        capacity = (
            self.cust_plan_down[sess_cust].astype(np.float64)
            * 1e6
            * rng.uniform(0.55, 0.95, n_sessions)
            * (1.0 - 0.55 * congestion)
        )
        capacity = np.maximum(capacity, 200_000.0)

        model = VideoSessionModel(qoe)
        results = []
        domain = np.empty(n_sessions, dtype=np.int32)
        for i in range(n_sessions):
            results.append(model.simulate(capacity[i], duration[i]))
            domains = self._service_domains[self.services_pool[svc_pick[i]]]
            domain[i] = domains[int(rng.integers(0, len(domains)))]
        n_chunks = [len(result.chunk_bytes) for result in results]
        chunk_bytes = np.concatenate([result.chunk_bytes for result in results])
        base_ts = sess_day * SECONDS_PER_DAY + hour_utc * 3600.0
        ts = np.repeat(base_ts, n_chunks) + np.concatenate(
            [result.start_offset_s for result in results]
        )
        return {
            "ts_start": ts,
            "day": np.repeat(sess_day, n_chunks),
            "hour_utc": (ts % SECONDS_PER_DAY) / 3600.0,
            "flow_cust": np.repeat(sess_cust, n_chunks),
            "l7_idx": np.full(len(ts), _HTTPS_IDX, dtype=np.int8),
            "service_true_idx": np.repeat(svc_pick, n_chunks),
            "domain_idx": np.repeat(domain, n_chunks),
            "bytes_up": chunk_bytes * 0.01,
            "bytes_down": chunk_bytes,
            "duration_s": np.concatenate([result.chunk_time_s for result in results]),
            "session_id": np.repeat(session_ids, n_chunks),
            "qoe_rebuffer": np.repeat(
                [result.rebuffer_ratio for result in results], n_chunks
            ),
            "qoe_level": np.repeat([result.mean_level for result in results], n_chunks),
            "qoe_switches": np.repeat([result.switches for result in results], n_chunks),
        }

    def _frame(self, parts: List[Dict[str, np.ndarray]]) -> FlowFrame:
        """Concatenate the parts' columns once into a frame: columns a
        part lacks take their fill value, customer attributes are looked
        up from ``flow_cust``."""
        columns: Dict[str, np.ndarray] = {}
        for name, (dtype, fill) in _PART_COLUMNS.items():
            columns[name] = np.concatenate(
                [
                    part[name]
                    if name in part
                    else np.full(len(part["flow_cust"]), fill, dtype=dtype)
                    for part in parts
                ]
            ).astype(dtype, copy=False)
        columns["hour_utc"] = np.minimum(columns["hour_utc"], _HOUR_MAX_F4)
        flow_cust = columns.pop("flow_cust")
        return FlowFrame(
            countries=self.countries_pool,
            beams=self.beams_pool,
            services=self.services_pool,
            domains=self.domains_pool,
            sites=self.sites_pool,
            resolvers=self.resolvers_pool,
            customer_id=(flow_cust + 1).astype(np.int32),
            country_idx=self.cust_country_idx[flow_cust],
            subscriber_type=self.cust_type[flow_cust],
            beam_idx=self.cust_beam_idx[flow_cust],
            plan_down_mbps=self.cust_plan_down[flow_cust],
            **columns,
        )


class _ServiceDraw(NamedTuple):
    """Per-service constants of the draw phase (scenario overrides
    resolved)."""

    labels: np.ndarray
    """int8 :data:`L7_ORDER` indices of the protocol mix."""
    protocol_cdf: np.ndarray
    flows: Distribution
    """Flow-count override, or the unit-median noise of ``flows_median``."""
    flows_median: Optional[float]
    """``None`` when ``flows`` is an override (absolute counts)."""
    weight: float
    size: Distribution
    up_ratio: Distribution
    n_domains: int


def _scatter(
    n: int, mask: np.ndarray, values: Optional[np.ndarray], fill
) -> np.ndarray:
    """Length-``n`` array holding ``values`` where ``mask`` is set and
    ``fill`` elsewhere (everywhere when no chunk drew ``values``)."""
    out = np.full(n, fill)
    if values is not None:
        out[mask] = values
    return out


#: (dtype, fill) of each column a generation part may carry; a part
#: lacking a column gets the fill. ``flow_cust`` (population index) is
#: required and becomes the per-customer columns in
#: :meth:`WorkloadGenerator._frame`.
_PART_COLUMNS: Dict[str, Tuple[type, object]] = {
    "ts_start": (np.float64, None),
    "day": (np.int32, None),
    "hour_utc": (np.float32, None),
    "flow_cust": (np.int64, None),
    "l7_idx": (np.int8, None),
    "service_true_idx": (np.int16, -1),
    "domain_idx": (np.int32, -1),
    "bytes_up": (np.float64, None),
    "bytes_down": (np.float64, None),
    "duration_s": (np.float32, None),
    "sat_rtt_ms": (np.float32, np.nan),
    "ground_rtt_ms": (np.float32, np.nan),
    "resolver_idx": (np.int16, -1),
    "dns_response_ms": (np.float32, np.nan),
    "site_idx": (np.int16, -1),
    "session_id": (np.int64, -1),
    "qoe_rebuffer": (np.float32, np.nan),
    "qoe_level": (np.float32, np.nan),
    "qoe_switches": (np.int16, -1),
}
