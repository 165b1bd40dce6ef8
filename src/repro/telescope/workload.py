"""Scenario composition: a full synthetic measurement campaign.

A :class:`Scenario` wires the Internet model and every traffic source
into one time-sorted packet stream, together with the *ground truth*
(planned floods, research sources, bot sessions) that tests and benches
compare detector output against.  The default configuration is a
laptop-scale version of the paper's April 2021 month: per-event
statistics (durations, rates, session sizes) are at paper scale, event
*counts* are scaled by window length, and research sweeps are sampled
(see :mod:`repro.telescope.scanners`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.net.packet import CapturedPacket
from repro.telescope.genlane import lane_records
from repro.util.batching import batched
from repro.util.rng import SeededRng
from repro.util.timeutil import APRIL_1_2021, DAY
from repro.internet.topology import InternetModel, TopologyConfig
from repro.telescope.adversarial import AdversarialSpec, build_adversarial_model
from repro.telescope.attacks import (
    ICMP,
    QUIC,
    TCP,
    AttackPlan,
    AttackPlanConfig,
    AttackPlanner,
    AttackTrafficModel,
)
from repro.telescope.noise import MisconfigurationModel, StrayUdpModel
from repro.telescope.scanners import BotScannerModel, ResearchScannerModel, TcpScannerModel
from repro.telescope.telescope import Telescope, merge_streams, merge_units


#: Estimated CPU seconds per unit of generation work — generate,
#: merge, capture and analyze — fitted to per-unit timings of 24 h
#: default-scenario runs (seeds 20210401 and 7) on a 2-vCPU Xeon VM and
#: checked against per-kind totals.  Only their ratios matter: they
#: steer the longest-processing-time-first assignment of generation
#: units to shard workers.  QUIC work is dear
#: because every response train seals fresh Initials, and each
#: misconfiguration session builds a new responder connection; the
#: cheap kinds are dominated by the per-record merge and analysis.
_COST_RESEARCH_PROBE = 4.8e-6
_COST_BOT_SESSION = 90e-6
_COST_TCP_SCAN_SESSION = 40e-6
_COST_MISCONFIG_SESSION = 1.5e-3
_COST_STRAY_PACKET = 25e-6
#: per-flood ``(fixed, per expected telescope request)`` seconds, by vector
_COST_FLOOD = {
    QUIC: (0.03, 45e-6),
    TCP: (0.0014, 1.0e-6),
    ICMP: (0.0015, 0.8e-6),
}
#: per-source ``(fixed, per expected event)`` seconds, by adversarial
#: kind (events as each model's ``expected_events`` counts them:
#: datagrams, requests, sources or response trains).  Fitted on
#: the same scale: each registered adversarial preset's spec, and the
#: same spec at 4x rate (slowloris: 4x sources), added to a 2 h
#: default scenario (seeds 20210401 and 7), its unit timed in forks
#: with cold caches and divided by the measured/estimated ratio of the
#: default units timed alongside (0.64-0.79).  Victim response trains
#: are dear because each seals fresh Initials; carpet bombing pays for
#: a responder and spoofed pool per victim.  (A registered preset alone
#: is one unit; these matter once adversarial sources join other
#: traffic.)
_COST_ADVERSARIAL = {
    "optimistic-ack": (0.01, 3.6e-6),
    "h3-flood": (0.01, 6.9e-6),
    "h3-slowloris": (0.006, 0.9e-3),
    "pulse-wave": (0.05, 58e-6),
    "carpet-bomb": (0.045, 240e-6),
    "vn-retry": (0.0045, 5.3e-6),
}


@dataclass
class ScenarioConfig:
    """Everything needed to regenerate a measurement campaign."""

    seed: int = 20210401
    start: float = APRIL_1_2021
    duration: float = 2 * DAY
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    attacks: AttackPlanConfig = field(default_factory=AttackPlanConfig)
    #: research sweep sampling (1/64 of telescope addresses per sweep).
    research_sample: float = 1.0 / 64.0
    research_sweep_interval: float = 43200.0
    research_sweep_duration: float = 21600.0
    bot_sessions_per_day: float = 1000.0
    tcp_scan_sessions_per_day: float = 800.0
    misconfig_sessions_per_day: float = 770.0
    stray_packets_per_day: float = 400.0
    include_research: bool = True
    include_bots: bool = True
    include_tcp_scans: bool = True
    include_attacks: bool = True
    include_misconfig: bool = True
    include_stray: bool = True
    #: adversarial traffic sources beyond the paper's IBR classes
    #: (:mod:`repro.telescope.adversarial`); a tuple of
    #: :class:`AdversarialSpec` so the config stays picklable for
    #: worker-process scenario rebuilds.
    adversarial: tuple = ()

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class ScenarioTruth:
    """Ground truth for detector validation."""

    plan: AttackPlan
    research_sources: frozenset
    research_weight: float
    bot_sources: frozenset

    @property
    def quic_victims(self) -> frozenset:
        return frozenset(f.victim_ip for f in self.plan.quic_floods)


class Scenario:
    """A composed, reproducible telescope measurement campaign."""

    def __init__(self, config: Optional[ScenarioConfig] = None) -> None:
        self.config = config or ScenarioConfig()
        self.rng = SeededRng(self.config.seed, "scenario")
        self.internet = InternetModel(self.rng.child("internet"), self.config.topology)
        self.telescope = Telescope(self.internet.telescope_net)

        self._research = [
            ResearchScannerModel(
                scanner=scanner,
                internet=self.internet,
                rng=self.rng.child(f"research:{i}"),
                sweep_interval=self.config.research_sweep_interval,
                sweep_duration=self.config.research_sweep_duration,
                sample=self.config.research_sample,
                phase=i * self.config.research_sweep_interval / 2,
            )
            for i, scanner in enumerate(self.internet.research_scanners)
        ]
        self._bots = BotScannerModel(
            internet=self.internet,
            rng=self.rng.child("bots"),
            sessions_per_day=self.config.bot_sessions_per_day,
        )
        self._tcp_scans = TcpScannerModel(
            internet=self.internet,
            rng=self.rng.child("tcp-scans"),
            sessions_per_day=self.config.tcp_scan_sessions_per_day,
        )
        self._misconfig = MisconfigurationModel(
            internet=self.internet,
            rng=self.rng.child("misconfig"),
            sessions_per_day=self.config.misconfig_sessions_per_day,
        )
        self._stray = StrayUdpModel(
            internet=self.internet,
            rng=self.rng.child("stray"),
            packets_per_day=self.config.stray_packets_per_day,
        )
        planner = AttackPlanner(
            self.internet, self.rng.child("planner"), self.config.attacks
        )
        self.plan: AttackPlan = (
            planner.plan(self.config.start, self.config.end)
            if self.config.include_attacks
            else AttackPlan()
        )
        self._attack_traffic = AttackTrafficModel(
            self.internet, self.rng.child("attack-traffic"), self.config.attacks
        )
        self.adversarial = [
            build_adversarial_model(
                spec, self.internet, self.rng.child(f"adversarial:{i}:{spec.kind}")
            )
            for i, spec in enumerate(self.config.adversarial)
        ]

    @property
    def truth(self) -> ScenarioTruth:
        return ScenarioTruth(
            plan=self.plan,
            research_sources=frozenset(
                s.address for s in self.internet.research_scanners
            ),
            research_weight=(
                self._research[0].weight if self._research else 1.0
            ),
            bot_sources=frozenset(b.address for b in self.internet.bot_hosts),
        )

    def retarget(self, prefix) -> None:
        """Narrow the capture tap to a sub-prefix of the telescope net.

        Telescope federation (:mod:`repro.federate`) runs K vantages
        over the *same* scenario seed, each capturing one tile of the
        /9: the generated Internet traffic is identical, only the tap
        filter differs, so the vantage captures partition the
        single-telescope capture exactly.  ``prefix`` is an
        :class:`~repro.net.addresses.IPv4Network` or CIDR string and
        must lie inside the scenario's telescope prefix.
        """
        from repro.net.addresses import IPv4Network

        if isinstance(prefix, str):
            prefix = IPv4Network.from_cidr(prefix)
        net = self.internet.telescope_net
        if prefix.network & net.netmask != net.network or prefix.prefix_len < net.prefix_len:
            raise ValueError(f"{prefix} is not inside telescope prefix {net}")
        self.telescope = Telescope(prefix)

    def packets(self) -> Iterator[CapturedPacket]:
        """The telescope's merged capture for the whole window."""
        start, end = self.config.start, self.config.end
        streams = []
        if self.config.include_research:
            streams.extend(model.packets(start, end) for model in self._research)
        if self.config.include_bots:
            streams.append(self._bots.packets(start, end))
        if self.config.include_tcp_scans:
            streams.append(self._tcp_scans.packets(start, end))
        if self.config.include_attacks:
            streams.append(self._attack_traffic.packets(self.plan))
        if self.config.include_misconfig:
            streams.append(self._misconfig.packets(start, end))
        if self.config.include_stray:
            streams.append(self._stray.packets(start, end))
        streams.extend(model.packets(start, end) for model in self.adversarial)
        return self.telescope.capture(merge_streams(*streams))

    def record_units(self) -> list:
        """Per-actor gen-record iterators, one per *generation unit*.

        The unit order is load-bearing: the serial rich path is a merge
        of per-source streams (with the attack stream itself a merge of
        per-flood streams), and ``heapq.merge`` breaks timestamp ties
        toward the earlier iterator.  Flattening that nested merge into
        one merge over these units — research sweeps, bots, TCP scans,
        each flood in plan order, misconfig, stray, then each
        adversarial source in spec order — preserves the
        lexicographic tie-break exactly, so ``records()`` (and the
        unit-sharded paths of ``telescope/parallel.py`` and
        ``core/parallel.py``, which merge by ``(timestamp, unit
        index)``) reproduces ``packets()`` order bit for bit.
        """
        return [records for _cost, records in self._units()]

    def unit_costs(self) -> list:
        """Estimated CPU seconds per generation unit, in unit order.

        Computed from the configuration and the attack plan alone —
        nothing is generated — so every process derives the same
        figures; :func:`repro.telescope.parallel.assign_units` balances
        unit-sharded workers on them.
        """
        return [cost for cost, _records in self._units()]

    def _units(self) -> list:
        """``(estimated cost, lazy record iterator)`` per generation unit.

        The single source of the unit order for :meth:`record_units`
        and :meth:`unit_costs`; every iterator is a generator that does
        no work until first pulled.
        """
        cfg = self.config
        start, end = cfg.start, cfg.end
        days = cfg.duration / DAY
        units = []
        if cfg.include_research:
            for model in self._research:
                cost = model.probe_count(start, end) * _COST_RESEARCH_PROBE
                units.append((cost, model.records(start, end)))
        if cfg.include_bots:
            cost = cfg.bot_sessions_per_day * days * _COST_BOT_SESSION
            units.append((cost, self._bots.records(start, end)))
        if cfg.include_tcp_scans:
            cost = cfg.tcp_scan_sessions_per_day * days * _COST_TCP_SCAN_SESSION
            units.append((cost, self._tcp_scans.records(start, end)))
        if cfg.include_attacks:
            for flood in self.plan.all_floods:
                fixed, per_request = _COST_FLOOD[flood.vector]
                cost = fixed + per_request * flood.expected_requests
                units.append((cost, self._attack_traffic.flood_records(flood)))
        if cfg.include_misconfig:
            cost = cfg.misconfig_sessions_per_day * days * _COST_MISCONFIG_SESSION
            units.append((cost, self._misconfig.records(start, end)))
        if cfg.include_stray:
            cost = cfg.stray_packets_per_day * days * _COST_STRAY_PACKET
            units.append((cost, self._stray.records(start, end)))
        for model in self.adversarial:
            fixed, per_event = _COST_ADVERSARIAL[model.spec.kind]
            cost = fixed + per_event * model.expected_events(start, end)
            units.append((cost, model.records(start, end)))
        return units

    def records(self, workers: int = 1, units=None) -> Iterator[tuple]:
        """The capture as flat gen records — the generation fast lane.

        Same packets as :meth:`packets` (same seeds, same draws, same
        order), emitted as ``genlane`` record tuples instead of
        :class:`CapturedPacket` objects.  ``workers > 1`` shards the
        units across processes and k-way-merges the results back into
        the identical serial order (see :mod:`repro.telescope.parallel`);
        the telescope filter always runs here in the parent, so
        counters and metrics match the serial path.  ``units`` (ascending
        indices into :meth:`record_units`) restricts the capture to
        those generation units, merged exactly as in the full serial
        merge — one unit shard of ``report --workers N``.
        """
        if workers > 1:
            if units is not None:
                raise ValueError("a unit subset is generated in-process")
            from repro.telescope.parallel import generate_records

            return self.telescope.capture_records(generate_records(self, workers))
        record_units = self.record_units()
        if units is None:
            units = range(len(record_units))
        return self.telescope.capture_records(merge_units(record_units, units))

    def lane_batches(self, batch_size: int = 512, units=None) -> Iterator[list]:
        """Batched 11-field lane records for the analysis batch lane.

        The fused generate→analyze feed:
        ``QuicsandPipeline.process_record_batches`` consumes these
        directly, skipping wire serialization *and* dissection-side
        parsing entirely.  ``units`` as in :meth:`records`.
        """
        return batched(lane_records(self.records(units=units)), batch_size)

    def packet_batches(self, batch_size: int = 512) -> Iterator[list]:
        """The capture as time-ordered batches.

        Shard-aware feed for the parallel pipeline: the parent process
        iterates batches and routes each packet to its source shard, so
        each source's substream stays time-ordered (see
        :mod:`repro.core.parallel`).
        """
        return batched(self.packets(), batch_size)

    def live_batches(
        self,
        batch_size: int = 512,
        speed: Optional[float] = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> Iterator[list]:
        """Drive the scenario as a *live* feed for the online monitor.

        With ``speed`` set (event-seconds per wall-second), each batch
        is released only once its newest packet's event time has
        "happened" under the speed-up — the telescope tap replayed in
        accelerated real time.  ``None``/``0`` releases batches as fast
        as they generate (the common test/bench mode).
        """
        if not speed:
            yield from self.packet_batches(batch_size)
            return
        if speed < 0:
            raise ValueError("replay speed must be positive")
        wall_start = clock()
        event_start = self.config.start
        for batch in self.packet_batches(batch_size):
            due = (batch[-1].timestamp - event_start) / speed
            delay = due - (clock() - wall_start)
            if delay > 0:
                sleep(delay)
            yield batch
