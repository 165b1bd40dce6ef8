"""The end-to-end QUICsand pipeline.

One streaming pass over a telescope capture produces everything the
paper's evaluation reports:

1. classify each packet (port + dissector, Section 4.1);
2. keep hourly counters — research-vs-other for Figure 2, sanitized
   requests/responses for Figure 3;
3. feed per-class sessionizers (5-minute timeout) and the timeout
   sweep of Figure 4;
4. at finalization: identify research scanners (education-AS sources
   above a packet threshold) and remove their bias; detect floods with
   the Moore thresholds; correlate multi-vector attacks; attribute
   victims via census and PeeringDB metadata; fingerprint SCID usage;
   correlate request sources with GreyNoise; audit RETRY.

The pipeline never stores raw packets — memory is bounded by the
number of distinct sources and sessions.

The per-packet phase (steps 1–3) accumulates into a picklable
:class:`PartialState` with a deterministic ``merge()``: every counter
it keeps is either keyed per source (sessionizers, timeout sweep,
research candidates) or a plain sum (hourly series, class counters),
so hash-partitioning the stream by source IP across N worker processes
and merging the partials reproduces the serial state exactly.  See
:mod:`repro.core.parallel` for the sharded runner; ``workers`` on
:class:`AnalysisConfig` selects it.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro import obs
from repro.internet.activescan import ActiveScanCensus
from repro.internet.asn import AsRegistry, NetworkType
from repro.internet.greynoise import GreyNoisePlatform
from repro.net.icmp import IcmpType
from repro.net.tcp import TcpFlags
from repro.util.batching import batched
from repro.util.rng import SeededRng
from repro.util.timeutil import HOUR
from repro.core.batchlane import BatchLane
from repro.core.classify import PacketClass, TrafficClassifier
from repro.core.dos import DosDetector, DosThresholds
from repro.core.multivector import MultiVectorAnalysis, correlate_attacks
from repro.core.retry_audit import RetryAudit, audit_retry
from repro.core.scid import fingerprint_attacks, provider_profiles
from repro.core.sessions import DEFAULT_TIMEOUT, Sessionizer, TimeoutSweep
from repro.core.victims import VictimAnalysis, analyze_victims, session_network_types

# -- observability ----------------------------------------------------------
#
# Publication happens at *boundaries* (per batch, per classifier fold,
# per finalization step), never per packet: the hot loop keeps plain
# ints and the metrics layer sees them in bulk, so a metrics-on run
# stays within noise of a metrics-off run (asserted by the throughput
# bench).  The full catalog lives in docs/METRICS.md.

_M_PACKETS = obs.counter(
    "repro_pipeline_packets_total",
    "packets consumed by the per-packet phase (all classes)",
)
_M_BATCHES = obs.counter(
    "repro_pipeline_batches_total",
    "dispatch batches consumed by the per-packet phase",
)
_M_CLASS = obs.counter(
    "repro_pipeline_classified_total",
    "packets per traffic class (classifier counters, folded at stream end)",
    labels=("klass",),
)
_M_SESSIONS = obs.counter(
    "repro_pipeline_sessions_total",
    "closed sessions entering finalization, per traffic class "
    "(request sessions counted before research-scanner sanitization)",
    labels=("klass",),
)
_M_ATTACKS = obs.counter(
    "repro_pipeline_attacks_total",
    "flood events detected at finalization, per vector",
    labels=("vector",),
)
_M_RESEARCH = obs.counter(
    "repro_pipeline_research_sources_total",
    "sources identified as research scanners at finalization",
)
_M_STAGE = obs.histogram(
    "repro_pipeline_stage_seconds",
    "wall seconds per pipeline stage",
    labels=("stage",),
)
_M_DISSECT_HITS = obs.counter(
    "repro_dissect_cache_hits_total",
    "dissector memo hits (payload seen before)",
)
_M_DISSECT_MISSES = obs.counter(
    "repro_dissect_cache_misses_total",
    "dissector memo misses (payload dissected from bytes)",
)
_M_MALFORMED = obs.counter(
    "repro_malformed_packets_total",
    "UDP/443 packets rejected by the dissector, per typed reason "
    "(see MalformedReason in repro.core.dissect)",
    labels=("reason",),
)

# int views of the transport predicates the lane loops branch on —
# identical semantics to TcpHeader.is_syn_ack / .is_rst and
# IcmpHeader.is_backscatter, without enum dispatch per packet.
_TCP_SYN = int(TcpFlags.SYN)
_TCP_RST = int(TcpFlags.RST)
_TCP_SYN_ACK = int(TcpFlags.SYN | TcpFlags.ACK)
_ICMP_BACKSCATTER_TYPES = frozenset(
    (
        int(IcmpType.ECHO_REPLY),
        int(IcmpType.DEST_UNREACHABLE),
        int(IcmpType.TIME_EXCEEDED),
    )
)


@dataclass
class AnalysisConfig:
    """Pipeline knobs (paper defaults)."""

    session_timeout: float = DEFAULT_TIMEOUT
    thresholds: DosThresholds = field(default_factory=DosThresholds)
    #: a source is a research scanner when it sits in an education AS
    #: and exceeds this many QUIC packets.
    research_min_packets: int = 1000
    dissect_payloads: bool = True
    #: run the per-packet phase on the columnar batch fast lane (see
    #: :mod:`repro.core.batchlane`); results are bit-identical to the
    #: rich path, pinned by tests/test_lane_equivalence.py.  False
    #: forces the rich classifier/dissector (``--no-fast-lane``).
    fast_lane: bool = True
    #: probe this many top victims in the active RETRY audit.
    retry_probe_count: int = 10
    audit_seed: int = 424242
    #: worker processes for the per-packet phase; 1 runs in-process.
    workers: int = 1
    #: packets per dispatch batch (in-process classify batches and the
    #: per-shard IPC messages of the parallel runner).
    batch_size: int = 512


@dataclass
class PipelineResult:
    """Everything the benches and examples render."""

    window_start: float
    window_end: float
    config: AnalysisConfig

    # packet-level
    total_packets: int = 0
    class_counts: dict = field(default_factory=dict)
    research_sources: set = field(default_factory=set)
    research_packets: int = 0
    hourly_research: dict = field(default_factory=dict)
    hourly_other_quic: dict = field(default_factory=dict)
    hourly_requests: dict = field(default_factory=dict)
    hourly_responses: dict = field(default_factory=dict)
    dissection_failures: int = 0
    response_long_header_packets: int = 0
    response_empty_dcid_packets: int = 0
    passive_retry_packets: int = 0

    # session-level (sanitized: research removed)
    request_sessions: list = field(default_factory=list)
    response_sessions: list = field(default_factory=list)
    tcp_sessions: list = field(default_factory=list)
    icmp_sessions: list = field(default_factory=list)
    timeout_sweep: Optional[TimeoutSweep] = None

    # attack-level
    quic_detector: Optional[DosDetector] = None
    common_detector: Optional[DosDetector] = None
    multivector: Optional[MultiVectorAnalysis] = None
    victim_analysis: Optional[VictimAnalysis] = None
    fingerprints: list = field(default_factory=list)
    profiles: dict = field(default_factory=dict)
    retry_audit: Optional[RetryAudit] = None

    # correlation
    greynoise_summary: dict = field(default_factory=dict)
    request_country_counts: dict = field(default_factory=dict)
    request_network_types: dict = field(default_factory=dict)
    response_network_types: dict = field(default_factory=dict)

    # -- convenience -----------------------------------------------------

    @property
    def quic_attacks(self) -> list:
        return self.quic_detector.attacks if self.quic_detector else []

    @property
    def common_attacks(self) -> list:
        return self.common_detector.attacks if self.common_detector else []

    @property
    def malformed_counts(self) -> dict:
        """Typed malformed-input tallies, keyed by reason slug."""
        prefix = "malformed:"
        return {
            key[len(prefix):]: count
            for key, count in self.class_counts.items()
            if key.startswith(prefix)
        }

    @property
    def sanitized_quic_packets(self) -> int:
        return sum(self.hourly_other_quic.values())

    @property
    def request_share(self) -> float:
        """Requests among sanitized QUIC packets (paper: 15%)."""
        requests = sum(self.hourly_requests.values())
        total = requests + sum(self.hourly_responses.values())
        return requests / total if total else 0.0

    @property
    def research_share(self) -> float:
        """Research scanners among all QUIC packets (paper: 98.5%,
        subject to sweep sampling — see the scenario's research weight)."""
        total = self.research_packets + self.sanitized_quic_packets
        return self.research_packets / total if total else 0.0

    def message_type_shares(self) -> dict:
        """Initial/Handshake/... shares over response-session packets."""
        totals: dict[str, int] = {}
        for session in self.response_sessions:
            for name, count in session.message_types.items():
                totals[name] = totals.get(name, 0) + count
        grand = sum(totals.values())
        if not grand:
            return {}
        return {name: count / grand for name, count in sorted(totals.items())}

    @property
    def empty_dcid_share(self) -> float:
        """Backscatter validity: long-header responses with DCID len 0."""
        if not self.response_long_header_packets:
            return 0.0
        return self.response_empty_dcid_packets / self.response_long_header_packets


@dataclass
class PartialState:
    """Mergeable accumulator for the per-packet streaming phase.

    One instance holds everything steps 1–3 produce for one shard of
    the stream.  All state is keyed per source or additive, so merging
    shard partials (sources hash-partitioned, time order preserved
    within each source's substream) reconstructs the serial state
    exactly.  Instances are picklable: worker processes ship them back
    to the parent for merging.
    """

    window_start: Optional[float] = None
    window_end: Optional[float] = None
    total_packets: int = 0
    class_counts: dict = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    response_long_header_packets: int = 0
    response_empty_dcid_packets: int = 0
    passive_retry_packets: int = 0
    #: NON_QUIC_UDP443 rejects keyed by MalformedReason slug — additive,
    #: so sharded merges reproduce the serial tally exactly.
    malformed_counts: dict = field(default_factory=dict)
    quic_source_packets: dict = field(default_factory=dict)
    per_source_hourly: dict = field(default_factory=dict)
    hourly_requests: dict = field(default_factory=dict)
    hourly_responses: dict = field(default_factory=dict)
    sessionizers: dict = field(default_factory=dict)
    sweep: TimeoutSweep = field(default_factory=TimeoutSweep)

    @classmethod
    def initial(cls, config: AnalysisConfig) -> "PartialState":
        timeout = config.session_timeout
        return cls(
            class_counts={packet_class: 0 for packet_class in PacketClass},
            sessionizers={
                PacketClass.QUIC_REQUEST: Sessionizer("quic-request", timeout),
                PacketClass.QUIC_RESPONSE: Sessionizer("quic-response", timeout),
                PacketClass.TCP_BACKSCATTER: Sessionizer("tcp-backscatter", timeout),
                PacketClass.ICMP_BACKSCATTER: Sessionizer("icmp-backscatter", timeout),
            },
        )

    @classmethod
    def from_lane_batches(
        cls, config: AnalysisConfig, batches: Iterable[list], sweep=None
    ) -> "PartialState":
        """The closed state of lane-record ``batches`` fed through the
        batch lane — the fused path's whole per-packet phase.

        ``sweep`` replaces the default :class:`TimeoutSweep` (a unit
        shard passes a :class:`~repro.core.sessions.RecordingSweep` so
        states that share sources merge exactly).
        """
        state = cls.initial(config)
        if sweep is not None:
            state.sweep = sweep
        lane = BatchLane(dissect_payloads=config.dissect_payloads)
        for batch in batches:
            state.consume_lane_records(batch, lane)
        state.record_classifier(lane)
        state.close()
        return state

    def consume(self, packets: list, classifier: TrafficClassifier) -> None:
        """Feed one time-ordered batch through classify → dissect →
        sessionize → hourly counters → sweep observation."""
        if not packets:
            return
        if self.window_start is None:
            self.window_start = packets[0].timestamp
        self.window_end = packets[-1].timestamp
        self.total_packets += len(packets)
        classified_batch = classifier.classify_batch(packets)
        # local bindings: this loop runs once per packet
        request_cls = PacketClass.QUIC_REQUEST
        response_cls = PacketClass.QUIC_RESPONSE
        tcp_cls = PacketClass.TCP_BACKSCATTER
        icmp_cls = PacketClass.ICMP_BACKSCATTER
        nonquic_cls = PacketClass.NON_QUIC_UDP443
        malformed_counts = self.malformed_counts
        sessionizers = self.sessionizers
        request_add = sessionizers[request_cls].add
        response_add = sessionizers[response_cls].add
        sweep_observe = self.sweep.observe
        quic_source_packets = self.quic_source_packets
        per_source_hourly = self.per_source_hourly
        hourly_requests = self.hourly_requests
        hourly_responses = self.hourly_responses
        response_long = 0
        response_empty_dcid = 0
        retry_packets = 0
        for classified in classified_batch:
            cls = classified.packet_class
            if cls is request_cls or cls is response_cls:
                packet = classified.packet
                timestamp = packet.timestamp
                hour = int(timestamp // HOUR)
                source = packet.src
                quic_source_packets[source] = quic_source_packets.get(source, 0) + 1
                if cls is request_cls:
                    hours = per_source_hourly.setdefault(source, {})
                    hours[hour] = hours.get(hour, 0) + 1
                    hourly_requests[hour] = hourly_requests.get(hour, 0) + 1
                    sweep_observe(source, timestamp)
                    request_add(classified)
                else:
                    hourly_responses[hour] = hourly_responses.get(hour, 0) + 1
                    dissection = classified.dissection
                    if dissection is not None and dissection.valid:
                        if dissection.has_retry:
                            retry_packets += 1
                        if dissection.has_long_header:
                            response_long += 1
                            if dissection.all_dcids_empty:
                                response_empty_dcid += 1
                    sweep_observe(source, timestamp)
                    response_add(classified)
            elif cls is tcp_cls or cls is icmp_cls:
                sessionizers[cls].add(classified)
            elif cls is nonquic_cls:
                dissection = classified.dissection
                if dissection is None:
                    # both ports 443: rejected before dissection
                    reason = "port-conflict"
                elif dissection.reason is not None:
                    reason = dissection.reason.value
                else:
                    reason = "malformed"
                malformed_counts[reason] = malformed_counts.get(reason, 0) + 1
        self.response_long_header_packets += response_long
        self.response_empty_dcid_packets += response_empty_dcid
        self.passive_retry_packets += retry_packets
        _M_PACKETS.inc(len(packets))
        _M_BATCHES.inc()

    def consume_lane(self, packets: list, lane: BatchLane) -> None:
        """Columnar fast-lane twin of :meth:`consume`.

        Classification is inlined as int comparisons, dissection facts
        come as memoized :data:`~repro.core.batchlane.LaneEntry` tuples,
        and sessions absorb precomputed deltas
        (:meth:`~repro.core.sessions.Sessionizer.add_entry`) — no
        ``ClassifiedPacket``/``Dissection`` construction per packet.
        Every counter update mirrors :meth:`consume` exactly; the lane
        equivalence suite pins the two paths bit for bit.
        """
        if not packets:
            return
        if self.window_start is None:
            self.window_start = packets[0].timestamp
        self.window_end = packets[-1].timestamp
        self.total_packets += len(packets)
        entry_for = lane.entry_for
        dissect = lane.dissect_payloads
        malformed_counts = self.malformed_counts
        sessionizers = self.sessionizers
        request_add = sessionizers[PacketClass.QUIC_REQUEST].add_entry
        response_add = sessionizers[PacketClass.QUIC_RESPONSE].add_entry
        tcp_add = sessionizers[PacketClass.TCP_BACKSCATTER].add_entry
        icmp_add = sessionizers[PacketClass.ICMP_BACKSCATTER].add_entry
        sweep_observe = self.sweep.observe
        quic_source_packets = self.quic_source_packets
        per_source_hourly = self.per_source_hourly
        hourly_requests = self.hourly_requests
        hourly_responses = self.hourly_responses
        response_long = 0
        response_empty_dcid = 0
        retry_packets = 0
        n_request = n_response = n_nonquic = n_other_udp = 0
        n_tcp_request = n_tcp_back = n_tcp_other = 0
        n_icmp_back = n_icmp_other = n_other = 0
        for packet in packets:
            if packet.is_udp:
                src443 = packet.src_port == 443
                dst443 = packet.dst_port == 443
                if src443:
                    if dst443:
                        # never observed in the paper's data; rejected
                        # before dissection, like the rich classifier
                        n_nonquic += 1
                        malformed_counts["port-conflict"] = (
                            malformed_counts.get("port-conflict", 0) + 1
                        )
                        continue
                elif not dst443:
                    n_other_udp += 1
                    continue
                entry = None
                delta = None
                if dissect:
                    entry = entry_for(packet.payload)
                    if not entry[0]:
                        n_nonquic += 1
                        reason = entry[1]
                        malformed_counts[reason] = (
                            malformed_counts.get(reason, 0) + 1
                        )
                        continue
                    delta = entry[2]
                timestamp = packet.timestamp
                source = packet.src
                hour = int(timestamp // HOUR)
                quic_source_packets[source] = (
                    quic_source_packets.get(source, 0) + 1
                )
                if dst443:
                    n_request += 1
                    hours = per_source_hourly.setdefault(source, {})
                    hours[hour] = hours.get(hour, 0) + 1
                    hourly_requests[hour] = hourly_requests.get(hour, 0) + 1
                    sweep_observe(source, timestamp)
                    request_add(
                        source,
                        timestamp,
                        packet.dst,
                        packet.dst_port,
                        packet.wire_length,
                        delta,
                    )
                else:
                    n_response += 1
                    hourly_responses[hour] = hourly_responses.get(hour, 0) + 1
                    if entry is not None:
                        if entry[3]:
                            retry_packets += 1
                        if entry[4]:
                            response_long += 1
                            if entry[5]:
                                response_empty_dcid += 1
                    sweep_observe(source, timestamp)
                    response_add(
                        source,
                        timestamp,
                        packet.dst,
                        packet.dst_port,
                        packet.wire_length,
                        delta,
                    )
            elif packet.is_tcp:
                transport = packet.transport
                if transport is None:
                    n_tcp_other += 1
                    continue
                flags = int(transport.flags)
                if (flags & _TCP_SYN_ACK) == _TCP_SYN_ACK or flags & _TCP_RST:
                    n_tcp_back += 1
                    tcp_add(
                        packet.src,
                        packet.timestamp,
                        packet.dst,
                        packet.dst_port,
                        packet.wire_length,
                        None,
                    )
                elif flags & _TCP_SYN:
                    n_tcp_request += 1
                else:
                    n_tcp_other += 1
            elif packet.is_icmp:
                transport = packet.transport
                if (
                    transport is not None
                    and transport.icmp_type in _ICMP_BACKSCATTER_TYPES
                ):
                    n_icmp_back += 1
                    icmp_add(
                        packet.src,
                        packet.timestamp,
                        packet.dst,
                        None,
                        packet.wire_length,
                        None,
                    )
                else:
                    n_icmp_other += 1
            else:
                n_other += 1
        counters = lane.counters
        counters[PacketClass.QUIC_REQUEST] += n_request
        counters[PacketClass.QUIC_RESPONSE] += n_response
        counters[PacketClass.NON_QUIC_UDP443] += n_nonquic
        counters[PacketClass.OTHER_UDP] += n_other_udp
        counters[PacketClass.TCP_REQUEST] += n_tcp_request
        counters[PacketClass.TCP_BACKSCATTER] += n_tcp_back
        counters[PacketClass.TCP_OTHER] += n_tcp_other
        counters[PacketClass.ICMP_BACKSCATTER] += n_icmp_back
        counters[PacketClass.ICMP_OTHER] += n_icmp_other
        counters[PacketClass.OTHER] += n_other
        self.response_long_header_packets += response_long
        self.response_empty_dcid_packets += response_empty_dcid
        self.passive_retry_packets += retry_packets
        _M_PACKETS.inc(len(packets))
        _M_BATCHES.inc()

    def consume_lane_records(self, records: list, lane: BatchLane) -> None:
        """:meth:`consume_lane` over scalar wire records.

        The shared-memory shard transport ships packets as flat field
        tuples (see :mod:`repro.core.parallel`) — one record is
        ``(timestamp, src, dst, total_length, proto, kind, f1, f2, f3,
        payload_length, payload)`` with ``kind`` naming the parsed
        transport (0 none, 1 UDP, 2 TCP, 3 ICMP), ``f1/f2`` the ports
        (TCP/UDP) or ICMP type/code, and ``f3`` the TCP flags.
        ``payload`` is only materialized for dissectable UDP/443
        packets; ``payload_length`` is always the true length so wire
        lengths match :attr:`CapturedPacket.wire_length` exactly.
        """
        if not records:
            return
        if self.window_start is None:
            self.window_start = records[0][0]
        self.window_end = records[-1][0]
        self.total_packets += len(records)
        entry_for = lane.entry_for
        dissect = lane.dissect_payloads
        malformed_counts = self.malformed_counts
        sessionizers = self.sessionizers
        request_add = sessionizers[PacketClass.QUIC_REQUEST].add_entry
        response_add = sessionizers[PacketClass.QUIC_RESPONSE].add_entry
        tcp_add = sessionizers[PacketClass.TCP_BACKSCATTER].add_entry
        icmp_add = sessionizers[PacketClass.ICMP_BACKSCATTER].add_entry
        sweep_observe = self.sweep.observe
        quic_source_packets = self.quic_source_packets
        per_source_hourly = self.per_source_hourly
        hourly_requests = self.hourly_requests
        hourly_responses = self.hourly_responses
        response_long = 0
        response_empty_dcid = 0
        retry_packets = 0
        n_request = n_response = n_nonquic = n_other_udp = 0
        n_tcp_request = n_tcp_back = n_tcp_other = 0
        n_icmp_back = n_icmp_other = n_other = 0
        for record in records:
            (
                timestamp,
                source,
                dst,
                total_length,
                proto,
                kind,
                f1,
                f2,
                f3,
                payload_length,
                payload,
            ) = record
            if proto == 17:
                # ports mirror CapturedPacket's derivation: present for
                # parsed UDP/TCP transports, None otherwise
                if kind == 1 or kind == 2:
                    src443 = f1 == 443
                    dst443 = f2 == 443
                    dst_port = f2
                else:
                    n_other_udp += 1
                    continue
                if src443:
                    if dst443:
                        n_nonquic += 1
                        malformed_counts["port-conflict"] = (
                            malformed_counts.get("port-conflict", 0) + 1
                        )
                        continue
                elif not dst443:
                    n_other_udp += 1
                    continue
                entry = None
                delta = None
                if dissect:
                    entry = entry_for(payload)
                    if not entry[0]:
                        n_nonquic += 1
                        reason = entry[1]
                        malformed_counts[reason] = (
                            malformed_counts.get(reason, 0) + 1
                        )
                        continue
                    delta = entry[2]
                wire_length = total_length or (
                    28 + payload_length  # IPv4 20 + UDP 8
                    if kind == 1
                    else 40 + payload_length  # IPv4 20 + TCP 20
                )
                hour = int(timestamp // HOUR)
                quic_source_packets[source] = (
                    quic_source_packets.get(source, 0) + 1
                )
                if dst443:
                    n_request += 1
                    hours = per_source_hourly.setdefault(source, {})
                    hours[hour] = hours.get(hour, 0) + 1
                    hourly_requests[hour] = hourly_requests.get(hour, 0) + 1
                    sweep_observe(source, timestamp)
                    request_add(
                        source, timestamp, dst, dst_port, wire_length, delta
                    )
                else:
                    n_response += 1
                    hourly_responses[hour] = hourly_responses.get(hour, 0) + 1
                    if entry is not None:
                        if entry[3]:
                            retry_packets += 1
                        if entry[4]:
                            response_long += 1
                            if entry[5]:
                                response_empty_dcid += 1
                    sweep_observe(source, timestamp)
                    response_add(
                        source, timestamp, dst, dst_port, wire_length, delta
                    )
            elif proto == 6:
                if kind != 2:
                    n_tcp_other += 1
                    continue
                if (f3 & _TCP_SYN_ACK) == _TCP_SYN_ACK or f3 & _TCP_RST:
                    n_tcp_back += 1
                    wire_length = total_length or 40 + payload_length
                    tcp_add(source, timestamp, dst, f2, wire_length, None)
                elif f3 & _TCP_SYN:
                    n_tcp_request += 1
                else:
                    n_tcp_other += 1
            elif proto == 1:
                if kind == 3 and f1 in _ICMP_BACKSCATTER_TYPES:
                    n_icmp_back += 1
                    wire_length = total_length or 28 + payload_length
                    icmp_add(source, timestamp, dst, None, wire_length, None)
                else:
                    n_icmp_other += 1
            else:
                n_other += 1
        counters = lane.counters
        counters[PacketClass.QUIC_REQUEST] += n_request
        counters[PacketClass.QUIC_RESPONSE] += n_response
        counters[PacketClass.NON_QUIC_UDP443] += n_nonquic
        counters[PacketClass.OTHER_UDP] += n_other_udp
        counters[PacketClass.TCP_REQUEST] += n_tcp_request
        counters[PacketClass.TCP_BACKSCATTER] += n_tcp_back
        counters[PacketClass.TCP_OTHER] += n_tcp_other
        counters[PacketClass.ICMP_BACKSCATTER] += n_icmp_back
        counters[PacketClass.ICMP_OTHER] += n_icmp_other
        counters[PacketClass.OTHER] += n_other
        self.response_long_header_packets += response_long
        self.response_empty_dcid_packets += response_empty_dcid
        self.passive_retry_packets += retry_packets
        _M_PACKETS.inc(len(records))
        _M_BATCHES.inc()

    def record_classifier(self, classifier: TrafficClassifier) -> None:
        """Fold the classifier's counters into the partial state.

        Called exactly once per classifier lifetime (serial stream end,
        worker shard end, monitor ``finish()``), which also makes it the
        exactly-once publication point for the classifier-owned metrics:
        per-class packet counts and the dissector-memo hit/miss split.
        """
        for packet_class, count in classifier.counters.items():
            self.class_counts[packet_class] = (
                self.class_counts.get(packet_class, 0) + count
            )
            if count:
                _M_CLASS.inc(count, klass=packet_class.value)
        self.cache_hits += classifier.cache_hits
        self.cache_misses += classifier.cache_misses
        if classifier.cache_hits:
            _M_DISSECT_HITS.inc(classifier.cache_hits)
        if classifier.cache_misses:
            _M_DISSECT_MISSES.inc(classifier.cache_misses)
        publish = getattr(classifier, "publish_lane_metrics", None)
        if publish is not None:
            publish()

    def close(self) -> None:
        """End of shard stream: close every open session.

        Also the exactly-once publication point for the malformed-reason
        counters — called once per shard in the serial, worker, and
        streaming paths, so the metric rides the existing
        snapshot/merge machinery without double counting.
        """
        for sessionizer in self.sessionizers.values():
            sessionizer.flush()
        if obs.enabled():
            for reason, count in self.malformed_counts.items():
                if count:
                    _M_MALFORMED.inc(count, reason=reason)

    def merge_counts(self, other: "PartialState") -> None:
        """Fold the purely additive fields of ``other`` into this one.

        Everything except the sessionizers and the timeout sweep:
        window bounds (min/max), packet/class/cache tallies, malformed
        reasons, per-source and hourly counters.  These fields are
        partition-agnostic — they merge correctly whether the stream
        was split by source IP (``--workers``) or by destination
        prefix (telescope federation, :mod:`repro.federate`), which is
        why :meth:`merge` and the federation's overlap-aware merge
        share this step.
        """
        if other.window_start is not None:
            self.window_start = (
                other.window_start
                if self.window_start is None
                else min(self.window_start, other.window_start)
            )
        if other.window_end is not None:
            self.window_end = (
                other.window_end
                if self.window_end is None
                else max(self.window_end, other.window_end)
            )
        self.total_packets += other.total_packets
        for packet_class, count in other.class_counts.items():
            self.class_counts[packet_class] = (
                self.class_counts.get(packet_class, 0) + count
            )
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.response_long_header_packets += other.response_long_header_packets
        self.response_empty_dcid_packets += other.response_empty_dcid_packets
        self.passive_retry_packets += other.passive_retry_packets
        for reason, count in other.malformed_counts.items():
            self.malformed_counts[reason] = (
                self.malformed_counts.get(reason, 0) + count
            )
        for source, count in other.quic_source_packets.items():
            self.quic_source_packets[source] = (
                self.quic_source_packets.get(source, 0) + count
            )
        for source, hours in other.per_source_hourly.items():
            target = self.per_source_hourly.setdefault(source, {})
            for hour, count in hours.items():
                target[hour] = target.get(hour, 0) + count
        for hour, count in other.hourly_requests.items():
            self.hourly_requests[hour] = self.hourly_requests.get(hour, 0) + count
        for hour, count in other.hourly_responses.items():
            self.hourly_responses[hour] = self.hourly_responses.get(hour, 0) + count

    def merge(self, other: "PartialState") -> None:
        """Fold another source-disjoint shard's state into this one.

        The additive fields ride :meth:`merge_counts`; sessionizers and
        the sweep use their disjoint-source merges (which raise if the
        shards overlap — destination-partitioned vantage states go
        through :func:`repro.federate.merge.merge_federated_states`
        instead).
        """
        self.merge_counts(other)
        for packet_class, sessionizer in other.sessionizers.items():
            mine = self.sessionizers.get(packet_class)
            if mine is None:
                self.sessionizers[packet_class] = sessionizer
            else:
                mine.merge(sessionizer)
        self.sweep.merge(other.sweep)

    # -- snapshot/export hooks (telescope federation) --------------------

    def snapshot_bytes(self) -> bytes:
        """The state as a self-contained pickle for wire shipment.

        Open sessions, the sweep, and every counter travel; callbacks
        are ``None`` by construction on pipeline-owned sessionizers, so
        the pickle is always loadable on the aggregator side.  The
        federation protocol wraps these bytes in checksummed frames
        (:mod:`repro.federate.protocol`).
        """
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_snapshot_bytes(cls, payload: bytes) -> "PartialState":
        """Rehydrate a state shipped by :meth:`snapshot_bytes`."""
        state = pickle.loads(payload)
        if not isinstance(state, cls):
            raise TypeError(
                f"snapshot payload is {type(state).__name__}, not {cls.__name__}"
            )
        return state

    def canonicalize(self) -> None:
        """Put all ordering-sensitive state into canonical order.

        Closed sessions sort by (first_ts, source) and every keyed dict
        is rebuilt key-sorted, so finalization — and everything it
        renders — is identical no matter how the stream was sharded.
        """
        for sessionizer in self.sessionizers.values():
            sessionizer.sort_closed()
        self.malformed_counts = dict(sorted(self.malformed_counts.items()))
        self.quic_source_packets = dict(sorted(self.quic_source_packets.items()))
        self.per_source_hourly = {
            source: dict(sorted(hours.items()))
            for source, hours in sorted(self.per_source_hourly.items())
        }
        self.hourly_requests = dict(sorted(self.hourly_requests.items()))
        self.hourly_responses = dict(sorted(self.hourly_responses.items()))


class QuicsandPipeline:
    """Single-pass streaming analysis of a telescope capture."""

    def __init__(
        self,
        registry: Optional[AsRegistry] = None,
        census: Optional[ActiveScanCensus] = None,
        greynoise: Optional[GreyNoisePlatform] = None,
        config: Optional[AnalysisConfig] = None,
    ) -> None:
        self.registry = registry
        self.census = census
        self.greynoise = greynoise
        self.config = config or AnalysisConfig()

    def process(self, stream) -> PipelineResult:
        """Consume a time-ordered packet stream and analyze it.

        ``stream`` may also be a
        :class:`~repro.telescope.workload.Scenario`, generated here:
        through the fused record path (:meth:`process_record_batches`)
        on the fast lane, or as its ``packets()`` on the rich lane.
        With ``config.workers > 1`` the per-packet phase runs across
        worker processes (see :mod:`repro.core.parallel`) — a
        fast-lane scenario as unit shards that each generate and
        analyze their own units, anything else hash-routed by source;
        results are identical to a serial run by construction.
        """
        cfg = self.config
        scenario = hasattr(stream, "record_units")
        if scenario and not cfg.fast_lane:
            stream, scenario = stream.packets(), False
        workers = max(1, int(cfg.workers or 1))
        if workers > 1:
            from repro.core.parallel import run_sharded

            with obs.span(_M_STAGE, stage="per-packet-parallel"):
                state = run_sharded(
                    stream, cfg, workers=workers, batch_size=cfg.batch_size
                )
            return self._finalize(state)
        if scenario:
            return self.process_record_batches(stream.lane_batches(cfg.batch_size))
        with obs.span(_M_STAGE, stage="per-packet-serial"):
            state = PartialState.initial(cfg)
            if cfg.fast_lane:
                lane = BatchLane(dissect_payloads=cfg.dissect_payloads)
                for batch in batched(stream, cfg.batch_size):
                    state.consume_lane(batch, lane)
                state.record_classifier(lane)
            else:
                classifier = TrafficClassifier(
                    dissect_payloads=cfg.dissect_payloads
                )
                for batch in batched(stream, cfg.batch_size):
                    state.consume(batch, classifier)
                state.record_classifier(classifier)
            state.close()
        return self._finalize(state)

    def process_record_batches(self, batches: Iterable[list]) -> PipelineResult:
        """Analyze pre-batched 11-field lane records (the fused path).

        The generate→analyze fast lane: a scenario's
        ``lane_batches()`` feed (or any other source of
        :meth:`PartialState.consume_lane_records` batches) goes
        straight into the per-packet phase with no wire serialization
        and no dissection-side parsing.  Identical to
        :meth:`process` over the equivalent packet stream
        (``tests/test_genlane_equivalence.py``).
        """
        with obs.span(_M_STAGE, stage="per-packet-serial"):
            state = PartialState.from_lane_batches(self.config, batches)
        return self._finalize(state)

    def finalize_state(self, state: PartialState) -> PipelineResult:
        """Run the once-per-capture steps on an externally accumulated
        state (the streaming monitor's exact mode uses this — see
        :mod:`repro.stream`)."""
        return self._finalize(state)

    def _finalize(self, state: PartialState) -> PipelineResult:
        """Run the once-per-capture steps on the (merged) state."""
        with obs.span(_M_STAGE, stage="finalize"):
            return self._finalize_timed(state)

    def _finalize_timed(self, state: PartialState) -> PipelineResult:
        state.canonicalize()
        class_counts = {
            cls.value: n for cls, n in state.class_counts.items() if n
        }
        for reason, count in state.malformed_counts.items():
            if count:
                class_counts[f"malformed:{reason}"] = count
        result = PipelineResult(
            window_start=state.window_start or 0.0,
            window_end=state.window_end or 0.0,
            config=self.config,
            total_packets=state.total_packets,
            class_counts=class_counts,
            dissection_failures=state.class_counts.get(
                PacketClass.NON_QUIC_UDP443, 0
            ),
            response_long_header_packets=state.response_long_header_packets,
            response_empty_dcid_packets=state.response_empty_dcid_packets,
            passive_retry_packets=state.passive_retry_packets,
            hourly_requests=state.hourly_requests,
            hourly_responses=state.hourly_responses,
        )
        with obs.span(_M_STAGE, stage="identify-research"):
            self._identify_research(
                result, state.quic_source_packets, state.per_source_hourly
            )
        state.sweep.exclude_sources(result.research_sources)
        result.timeout_sweep = state.sweep
        with obs.span(_M_STAGE, stage="collect-sessions"):
            self._collect_sessions(result, state.sessionizers)
        with obs.span(_M_STAGE, stage="detect-attacks"):
            self._detect_attacks(result)
        with obs.span(_M_STAGE, stage="correlate"):
            self._correlate(result)
        if obs.enabled():
            _M_RESEARCH.inc(len(result.research_sources))
        return result

    # -- finalization steps ----------------------------------------------

    def _identify_research(
        self,
        result: PipelineResult,
        quic_source_packets: dict,
        per_source_hourly: dict,
    ) -> None:
        """Education-AS heavy hitters are research scanners (Figure 2)."""
        cfg = self.config
        for source, count in quic_source_packets.items():
            if count < cfg.research_min_packets:
                continue
            if self.registry is not None:
                if self.registry.network_type_of(source) is not NetworkType.EDUCATION:
                    continue
            result.research_sources.add(source)
            result.research_packets += count
        # hourly research vs other QUIC series
        for source, hours in per_source_hourly.items():
            target = (
                result.hourly_research
                if source in result.research_sources
                else result.hourly_other_quic
            )
            for hour, count in hours.items():
                target[hour] = target.get(hour, 0) + count
        for hour, count in result.hourly_responses.items():
            result.hourly_other_quic[hour] = (
                result.hourly_other_quic.get(hour, 0) + count
            )
        # sanitize the request series
        for source in result.research_sources:
            for hour, count in per_source_hourly.get(source, {}).items():
                result.hourly_requests[hour] -= count
                if result.hourly_requests[hour] <= 0:
                    del result.hourly_requests[hour]

    def _collect_sessions(self, result: PipelineResult, sessionizers: dict) -> None:
        if obs.enabled():
            for packet_class, sessionizer in sessionizers.items():
                if sessionizer.closed:
                    _M_SESSIONS.inc(
                        len(sessionizer.closed), klass=packet_class.value
                    )
        research = result.research_sources
        result.request_sessions = [
            s
            for s in sessionizers[PacketClass.QUIC_REQUEST].closed
            if s.source not in research
        ]
        result.response_sessions = sessionizers[PacketClass.QUIC_RESPONSE].closed
        result.tcp_sessions = sessionizers[PacketClass.TCP_BACKSCATTER].closed
        result.icmp_sessions = sessionizers[PacketClass.ICMP_BACKSCATTER].closed
        if self.registry is not None:
            result.request_network_types = session_network_types(
                result.request_sessions, self.registry
            )
            result.response_network_types = session_network_types(
                result.response_sessions, self.registry
            )
            for session in result.request_sessions:
                system = self.registry.lookup(session.source)
                country = system.country if system else "??"
                result.request_country_counts[country] = (
                    result.request_country_counts.get(country, 0) + 1
                )
        if self.greynoise is not None:
            result.greynoise_summary = self.greynoise.classify_sources(
                {s.source for s in result.request_sessions}
            )

    def _detect_attacks(self, result: PipelineResult) -> None:
        result.quic_detector = DosDetector(self.config.thresholds)
        result.quic_detector.detect_all(result.response_sessions)
        result.common_detector = DosDetector(self.config.thresholds)
        result.common_detector.detect_all(result.tcp_sessions)
        result.common_detector.detect_all(result.icmp_sessions)
        if obs.enabled():
            vectors: dict = {}
            for attack in result.quic_attacks + result.common_attacks:
                vectors[attack.vector] = vectors.get(attack.vector, 0) + 1
            for vector, count in vectors.items():
                _M_ATTACKS.inc(count, vector=vector)

    def _correlate(self, result: PipelineResult) -> None:
        result.multivector = correlate_attacks(
            result.quic_attacks, result.common_attacks
        )
        result.victim_analysis = analyze_victims(
            result.quic_attacks, self.census, self.registry
        )
        result.fingerprints = fingerprint_attacks(result.quic_attacks, self.census)
        result.profiles = provider_profiles(result.fingerprints)
        if self.census is not None:
            result.retry_audit = audit_retry(
                census=self.census,
                rng=SeededRng(self.config.audit_seed),
                passive_retry_packets=result.passive_retry_packets,
                passive_quic_packets=result.sanitized_quic_packets,
                top_victims=result.victim_analysis.top_victims(
                    self.config.retry_probe_count
                ),
            )
