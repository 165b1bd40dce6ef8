"""Adversarial QUIC workloads beyond the paper's four IBR classes.

The paper's telescope only ever saw 2021-vintage traffic: research
sweeps, bot recon, spoofed-flood backscatter, and noise.  This module
generates *attack shapes the pipeline was never tuned for*, drawn from
related work, so detector behaviour under them is pinned by tests
rather than assumed:

- :class:`OptimisticAckFloodModel` — optimistic-ACK amplification: the
  attacker ACKs data it never received, tricking the victim into
  ramping its send rate; the telescope sees the victim spraying large
  1-RTT datagrams at spoofed addresses (high bytes/packet backscatter).
- :class:`H3RequestFloodModel` — an HTTP/3 request flood *at* the
  telescope: coalesced Initial + 0-RTT datagrams carrying H3 HEADERS
  frames.  Request-class traffic, so the honest classification is
  "uncategorized" — no flood alert.
- :class:`H3SlowlorisModel` — the slow variant: each source drips one
  request byte-chunk at a time, holding sessions open for the whole
  window at negligible rate.
- :class:`PulseWaveFloodModel` — one victim hit by short bursts
  separated by silences *longer* than the session timeout, so a single
  campaign fragments into several detected floods.
- :class:`CarpetBombFloodModel` — every host in a /24 around one census
  server flooded at once: many victims, ~one attack each, mostly
  unknown to the census (stresses victim aggregation).
- :class:`VnRetryFloodModel` — backscatter made of Version Negotiation
  and RETRY packets: a victim deflecting a spoofed flood with stateless
  responses, which exercises the passive-RETRY counters.

Every model draws from :class:`~repro.util.rng.SeededRng` children
derived from *labels*, never from shared mutable state, so
``records()`` is idempotent: the same model yields the same stream on
every call, which is what lets the rich path, the generation fast lane,
and re-built worker-process scenarios agree bit for bit.  All
adversarial traffic is UDP, so ``packets()`` is a thin wrapper that
boxes each gen record into a :class:`~repro.net.packet.CapturedPacket`
— one generator, one draw path, zero twin-divergence risk.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from repro.net.ipv4 import IPProto, IPv4Header
from repro.net.packet import CapturedPacket
from repro.net.udp import UdpHeader
from repro.quic.crypto import derive_handshake_secret
from repro.quic.frames import StreamFrame
from repro.quic.h3 import H3Request
from repro.quic.header import LongHeader, PacketType, VersionNegotiationPacket
from repro.quic.packet import PlainPacket, protect_packet
from repro.quic.retry import RetryTokenMinter, build_retry_packet
from repro.quic.versions import KNOWN_VERSIONS, QUIC_V1
from repro.telescope.backscatter import (
    QuicVictimResponder,
    ResponderPolicy,
    version_named,
)
from repro.telescope.scanners import ProbePool
from repro.util.rng import SeededRng

#: every generator this module knows how to build, in registration order.
ADVERSARIAL_KINDS = (
    "optimistic-ack",
    "h3-flood",
    "h3-slowloris",
    "pulse-wave",
    "carpet-bomb",
    "vn-retry",
)


@dataclass(frozen=True)
class AdversarialSpec:
    """One adversarial traffic source, picklable for worker rebuilds.

    Knobs are generic across kinds; each model reads the subset it
    needs (``pulses``/``pulse_gap`` only matter to pulse waves,
    ``victims`` only to carpet bombing, and so on).
    """

    kind: str
    #: event window, relative to the scenario start.
    start_offset: float = 300.0
    duration: float = 600.0
    #: attack events per second (triggers, requests, or per-victim rate).
    rate: float = 1.0
    #: datagrams the victim sends per optimistic-ACK trigger.
    burst: int = 8
    #: distinct attacker source addresses (request floods).
    sources: int = 24
    #: victims per carpet-bombed prefix.
    victims: int = 12
    pulses: int = 3
    pulse_duration: float = 90.0
    #: silence between pulses; above the 300 s session timeout it
    #: fragments one campaign into several detected floods.
    pulse_gap: float = 420.0
    #: bounded wire-shape pools (keeps dissector memo + templates warm).
    payload_pool: int = 12
    #: spoofed telescope addresses per flood.
    spoofed_pool: int = 16


def _udp_record(t, src, dst, sport, dport, payload) -> tuple:
    """One 11-field UDP gen record (see :mod:`repro.telescope.genlane`)."""
    plen = len(payload)
    return (t, src, dst, 28 + plen, 17, 1, sport, dport, 0, plen, payload)


def _census_policy(internet, victim_ip: int) -> ResponderPolicy:
    """The victim's response policy, provider-aware when census-known."""
    record = internet.census.get(victim_ip)
    if record is None:
        return ResponderPolicy(retransmit_probability=0.2)
    provider = None
    for candidate in internet.content_providers:
        if candidate.name == record.provider:
            provider = candidate
            break
    return ResponderPolicy(
        version=version_named(record.versions[0]),
        keepalive_pings=provider.keepalive_pings if provider else 0,
        scid_policy="request" if record.provider == "Google" else "source",
        retransmit_probability=0.2,
    )


class _AdversarialModel:
    """Shared plumbing: seeded children, windows, the packet wrapper."""

    def __init__(self, spec: AdversarialSpec, internet, rng: SeededRng) -> None:
        self.spec = spec
        self.internet = internet
        self.rng = rng.child(f"adversarial:{spec.kind}")

    def _window(self, start: float, end: float) -> tuple:
        t0 = start + self.spec.start_offset
        return t0, min(end, t0 + self.spec.duration)

    def _spoofed_pool(self, rng: SeededRng) -> list:
        return [
            self.internet.random_telescope_address(rng)
            for _ in range(self.spec.spoofed_pool)
        ]

    def records(self, start: float, end: float) -> Iterator[tuple]:
        raise NotImplementedError

    def expected_events(self, start: float, end: float) -> float:
        """Expected generation events in the window, from the spec alone.

        An event is what the generator pays for: by default one
        ``rate`` draw (a request or stateless answer); subclasses count
        datagrams, response trains or sources instead.  Sizes unit
        costs for shard balancing (:meth:`Scenario.unit_costs`).
        """
        t0, t1 = self._window(start, end)
        return self.spec.rate * max(0.0, t1 - t0)

    def packets(self, start: float, end: float) -> Iterator[CapturedPacket]:
        """The record stream boxed as captured packets (same draws).

        All adversarial traffic is UDP, so unlike the scanner/flood
        models there is no separate rich generator to keep in lockstep:
        this *is* the record stream.
        """
        for r in self.records(start, end):
            yield CapturedPacket(
                timestamp=r[0],
                ip=IPv4Header(src=r[1], dst=r[2], proto=IPProto.UDP),
                transport=UdpHeader(src_port=r[6], dst_port=r[7]),
                payload=r[10],
            )


class OptimisticAckFloodModel(_AdversarialModel):
    """Optimistic-ACK amplification seen from the telescope.

    The victim — a known QUIC server — is tricked into streaming at
    full rate to spoofed addresses: every trigger produces a burst of
    near-MTU 1-RTT (short header) datagrams from port 443.  The
    detector should see a textbook QUIC response flood, just with an
    anomalous bytes-per-packet profile.
    """

    def __init__(self, spec, internet, rng) -> None:
        super().__init__(spec, internet, rng)
        pick = self.rng.child("victim")
        self.victim_ip = pick.choice(internet.census.all_records()).address

    def expected_events(self, start: float, end: float) -> float:
        # every trigger sends a burst of datagrams
        return super().expected_events(start, end) * self.spec.burst

    def records(self, start: float, end: float) -> Iterator[tuple]:
        spec = self.spec
        t0, t1 = self._window(start, end)
        if t1 <= t0:
            return
        rng = self.rng.child("traffic")
        pool = self._spoofed_pool(rng)
        prng = self.rng.child("payloads")
        # 1-RTT datagrams: long bit clear, fixed bit set, random body —
        # exactly the shape the dissector's short-header heuristic
        # accepts (>= 26 bytes, 0x40 set).
        payloads = [
            bytes([0x40 | (i & 0x3F)]) + prng.randbytes(1199)
            for i in range(spec.payload_pool)
        ]
        victim = self.victim_ip
        buffer: list = []
        sequence = 0
        # bursts span under half a millisecond per packet; the reorder
        # buffer absorbs triggers that arrive faster than a burst drains.
        span = 0.0004 * spec.burst + 0.001
        t = t0
        while True:
            t += rng.expovariate(spec.rate)
            if t >= t1:
                break
            dst = rng.choice(pool)
            port = rng.randint(1024, 65535)
            for j in range(spec.burst):
                payload = rng.choice(payloads)
                heapq.heappush(
                    buffer,
                    (
                        t + 0.0004 * j,
                        sequence,
                        _udp_record(t + 0.0004 * j, victim, dst, 443, port, payload),
                    ),
                )
                sequence += 1
            while buffer and buffer[0][0] <= t - span:
                yield heapq.heappop(buffer)[2]
        while buffer:
            yield heapq.heappop(buffer)[2]


def _h3_request_datagrams(probe_rng, request_rng, count: int) -> list:
    """Coalesced ``Initial + 0-RTT(H3 HEADERS)`` attack datagrams.

    The 0-RTT packet carries a STREAM frame with a serialized HTTP/3
    request — the wire shape an early-data request flood replays.
    """
    pool = ProbePool(probe_rng, size=max(1, count))
    datagrams = []
    for i in range(count):
        dcid = request_rng.randbytes(8)
        scid = request_rng.randbytes(8)
        keys = derive_handshake_secret(QUIC_V1, dcid, "client hs")
        body = H3Request(authority="cdn.invalid", path=f"/flood/{i}").serialize()
        packet = PlainPacket(
            header=LongHeader(
                packet_type=PacketType.ZERO_RTT,
                version=QUIC_V1.value,
                dcid=dcid,
                scid=scid,
            ),
            packet_number=1,
            frames=[StreamFrame(0, 0, body, True)],
        )
        datagrams.append(pool.next_probe() + protect_packet(packet, keys))
    return datagrams


def _attacker_sources(internet, rng: SeededRng, count: int) -> list:
    """Random non-telescope source addresses from the model's own rng."""
    sources = []
    while len(sources) < count:
        address = rng.getrandbits(32)
        if address in internet.telescope_net:
            continue
        sources.append(address)
    return sources


class H3RequestFloodModel(_AdversarialModel):
    """HTTP/3 request flood sprayed across the telescope prefix.

    Request-class traffic never reaches the flood detector, so the
    *correct* pipeline answer is request sessions and zero flood
    alerts — the detector-behaviour test pins exactly that.
    """

    def __init__(self, spec, internet, rng) -> None:
        super().__init__(spec, internet, rng)
        self.sources = _attacker_sources(
            internet, self.rng.child("sources"), spec.sources
        )

    def records(self, start: float, end: float) -> Iterator[tuple]:
        spec = self.spec
        t0, t1 = self._window(start, end)
        if t1 <= t0:
            return
        rng = self.rng.child("traffic")
        datagrams = _h3_request_datagrams(
            self.rng.child("probes"),
            self.rng.child("requests"),
            spec.payload_pool,
        )
        internet = self.internet
        t = t0
        while True:
            t += rng.expovariate(spec.rate)
            if t >= t1:
                break
            src = rng.choice(self.sources)
            dst = internet.random_telescope_address(rng)
            sport = rng.randint(1024, 65535)
            yield _udp_record(t, src, dst, sport, 443, rng.choice(datagrams))


class H3SlowlorisModel(_AdversarialModel):
    """Slowloris-style HTTP/3: open a handshake, then drip the request.

    Each source sends one Initial and then one tiny STREAM chunk every
    few dozen seconds — always inside the session timeout, so each
    source holds one long, slow request session for the whole window.
    """

    def __init__(self, spec, internet, rng) -> None:
        super().__init__(spec, internet, rng)
        self.sources = _attacker_sources(
            internet, self.rng.child("sources"), spec.sources
        )

    def expected_events(self, start: float, end: float) -> float:
        # each source protects its own dripped request, whatever the rate
        t0, t1 = self._window(start, end)
        return float(len(self.sources)) if t1 > t0 else 0.0

    def records(self, start: float, end: float) -> Iterator[tuple]:
        t0, t1 = self._window(start, end)
        if t1 <= t0:
            return
        streams = [
            self._source_records(i, t0, t1) for i in range(len(self.sources))
        ]
        yield from heapq.merge(*streams, key=itemgetter(0))

    def _source_records(self, index: int, t0: float, t1: float) -> list:
        spec = self.spec
        rng = self.rng.child(f"source:{index}")
        src = self.sources[index]
        dst = self.internet.random_telescope_address(rng)
        sport = rng.randint(1024, 65535)
        probe = ProbePool(rng.child("probe"), size=1).next_probe()
        dcid = rng.randbytes(8)
        scid = rng.randbytes(8)
        keys = derive_handshake_secret(QUIC_V1, dcid, "client hs")
        body = H3Request(
            authority="cdn.invalid",
            path=f"/slow/{index}",
            extra_headers=[("x-filler", "y" * 64)],
        ).serialize()
        chunks = 16
        step = max(1, (len(body) + chunks - 1) // chunks)
        pieces = [body[i : i + step] for i in range(0, len(body), step)]
        # well under the 300 s session timeout: the drip never lets the
        # session close, which is the whole point of the attack.
        gap = (t1 - t0) / (len(pieces) + 2)
        t = t0 + rng.uniform(0.0, gap)
        out = [_udp_record(t, src, dst, sport, 443, probe)]
        offset = 0
        for n, piece in enumerate(pieces):
            t += gap * rng.uniform(0.6, 1.4)
            if t >= t1:
                break
            packet = PlainPacket(
                header=LongHeader(
                    packet_type=PacketType.ZERO_RTT,
                    version=QUIC_V1.value,
                    dcid=dcid,
                    scid=scid,
                ),
                packet_number=1 + n,
                frames=[
                    StreamFrame(0, offset, piece, n == len(pieces) - 1)
                ],
            )
            out.append(
                _udp_record(t, src, dst, sport, 443, protect_packet(packet, keys))
            )
            offset += len(piece)
        return out


class PulseWaveFloodModel(_AdversarialModel):
    """Pulse-wave flood: bursts separated by super-timeout silences.

    One campaign against one victim, but every inter-pulse gap exceeds
    the session timeout — so the sessionizer closes and the detector
    reports one flood *per pulse*, all against the same victim.
    """

    def __init__(self, spec, internet, rng) -> None:
        super().__init__(spec, internet, rng)
        pick = self.rng.child("victim")
        self.victim_ip = pick.choice(internet.census.all_records()).address
        self.policy = _census_policy(internet, self.victim_ip)

    def expected_events(self, start: float, end: float) -> float:
        # response trains, during the pulses only
        spec = self.spec
        t0 = start + spec.start_offset
        active = 0.0
        for pulse in range(spec.pulses):
            p_start = t0 + pulse * (spec.pulse_duration + spec.pulse_gap)
            active += max(0.0, min(p_start + spec.pulse_duration, end) - p_start)
        return spec.rate * active

    def records(self, start: float, end: float) -> Iterator[tuple]:
        spec = self.spec
        t0 = start + spec.start_offset
        if t0 >= end:
            return
        rng = self.rng.child("traffic")
        responder = QuicVictimResponder(self.victim_ip, rng, self.policy)
        pool = self._spoofed_pool(rng)
        buffer: list = []
        sequence = 0
        span = 1.5  # response trains never extend further than this
        for pulse in range(spec.pulses):
            p_start = t0 + pulse * (spec.pulse_duration + spec.pulse_gap)
            p_end = min(p_start + spec.pulse_duration, end)
            if p_start >= end:
                break
            t = p_start
            while True:
                t += rng.expovariate(spec.rate)
                if t >= p_end:
                    break
                spoofed = rng.choice(pool)
                port = rng.randint(1024, 65535)
                for record in responder.respond_records(t, spoofed, port):
                    heapq.heappush(buffer, (record[0], sequence, record))
                    sequence += 1
                while buffer and buffer[0][0] <= t - span:
                    yield heapq.heappop(buffer)[2]
        while buffer:
            yield heapq.heappop(buffer)[2]


class CarpetBombFloodModel(_AdversarialModel):
    """Carpet bombing: every host of a /24 flooded simultaneously.

    Anchored on one census server so the prefix is plausible QUIC
    hosting space, but the neighbours are census-unknown — victim
    aggregation should report many victims, roughly one attack each,
    and a known-server share far below the paper's 98 %.
    """

    def __init__(self, spec, internet, rng) -> None:
        super().__init__(spec, internet, rng)
        pick = self.rng.child("victim")
        anchor = pick.choice(internet.census.all_records()).address
        base = anchor & 0xFFFFFF00
        hosts = {anchor} | {base | (1 + i) for i in range(spec.victims - 1)}
        self.victim_ips = sorted(hosts)
        self.policies = {
            ip: _census_policy(internet, ip) for ip in self.victim_ips
        }

    def expected_events(self, start: float, end: float) -> float:
        # ``rate`` is per victim: response trains from every host
        return super().expected_events(start, end) * len(self.victim_ips)

    def records(self, start: float, end: float) -> Iterator[tuple]:
        t0, t1 = self._window(start, end)
        if t1 <= t0:
            return
        streams = [
            self._victim_records(i, ip, t0, t1)
            for i, ip in enumerate(self.victim_ips)
        ]
        yield from heapq.merge(*streams, key=itemgetter(0))

    def _victim_records(self, index: int, victim_ip: int, t0: float, t1: float):
        spec = self.spec
        rng = self.rng.child(f"victim:{index}:{victim_ip}")
        responder = QuicVictimResponder(victim_ip, rng, self.policies[victim_ip])
        pool = self._spoofed_pool(rng)
        buffer: list = []
        sequence = 0
        span = 1.5
        t = t0 + rng.uniform(0.0, 5.0)
        while True:
            t += rng.expovariate(spec.rate)
            if t >= t1:
                break
            spoofed = rng.choice(pool)
            port = rng.randint(1024, 65535)
            for record in responder.respond_records(t, spoofed, port):
                heapq.heappush(buffer, (record[0], sequence, record))
                sequence += 1
            while buffer and buffer[0][0] <= t - span:
                yield heapq.heappop(buffer)[2]
        while buffer:
            yield heapq.heappop(buffer)[2]


class VnRetryFloodModel(_AdversarialModel):
    """Backscatter of Version Negotiation and RETRY packets.

    A victim deflecting a spoofed flood statelessly: half the answers
    are VN packets (attacker sent a hostile version), half are RETRYs
    with valid integrity tags (address validation engaged).  Both are
    response-class QUIC, so the flood detector fires — and the
    passive-RETRY counter, normally near zero, lights up.
    """

    def __init__(self, spec, internet, rng) -> None:
        super().__init__(spec, internet, rng)
        pick = self.rng.child("victim")
        self.victim_ip = pick.choice(internet.census.all_records()).address

    def records(self, start: float, end: float) -> Iterator[tuple]:
        spec = self.spec
        t0, t1 = self._window(start, end)
        if t1 <= t0:
            return
        rng = self.rng.child("traffic")
        prng = self.rng.child("payloads")
        versions = tuple(v.value for v in KNOWN_VERSIONS[:2]) or (QUIC_V1.value,)
        vn_payloads = [
            VersionNegotiationPacket(
                dcid=prng.randbytes(8),
                scid=prng.randbytes(8),
                supported_versions=versions,
            ).serialize()
            for _ in range(spec.payload_pool)
        ]
        minter = RetryTokenMinter(secret=prng.randbytes(16))
        retry_payloads = []
        for _ in range(spec.payload_pool):
            odcid = prng.randbytes(8)
            token = minter.mint(
                client_ip=prng.getrandbits(32),
                client_port=1024 + prng.getrandbits(10),
                odcid=odcid,
                now=t0,
            )
            retry_payloads.append(
                build_retry_packet(
                    QUIC_V1.value,
                    dcid=prng.randbytes(8),
                    scid=prng.randbytes(8),
                    odcid=odcid,
                    token=token,
                )
            )
        payloads = vn_payloads + retry_payloads
        pool = self._spoofed_pool(rng)
        victim = self.victim_ip
        t = t0
        while True:
            t += rng.expovariate(spec.rate)
            if t >= t1:
                break
            spoofed = rng.choice(pool)
            port = rng.randint(1024, 65535)
            yield _udp_record(t, victim, spoofed, 443, port, rng.choice(payloads))


_MODELS = {
    "optimistic-ack": OptimisticAckFloodModel,
    "h3-flood": H3RequestFloodModel,
    "h3-slowloris": H3SlowlorisModel,
    "pulse-wave": PulseWaveFloodModel,
    "carpet-bomb": CarpetBombFloodModel,
    "vn-retry": VnRetryFloodModel,
}

assert tuple(_MODELS) == ADVERSARIAL_KINDS


def build_adversarial_model(
    spec: AdversarialSpec, internet, rng: SeededRng
) -> _AdversarialModel:
    """Instantiate the generator for one :class:`AdversarialSpec`."""
    try:
        cls = _MODELS[spec.kind]
    except KeyError:
        known = ", ".join(ADVERSARIAL_KINDS)
        raise ValueError(
            f"unknown adversarial kind {spec.kind!r} (known: {known})"
        ) from None
    return cls(spec, internet, rng)
