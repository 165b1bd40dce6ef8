"""Scanner traffic: research sweeps and malicious bot scans.

Two very different scanner populations reach a telescope on UDP/443:

- **Research scanners** (the paper's TUM and RWTH): periodic single-
  packet sweeps of the *entire* IPv4 space.  A /9 telescope receives
  2^23 packets per sweep; they are 98.5% of all QUIC IBR (Figure 2).
  Full-scale sweeps are too large to materialize packet-by-packet on a
  laptop, so sweeps are *sampled*: a deterministic ``sample`` fraction
  of the telescope's addresses is probed and ``weight`` (1/sample)
  records the inflation factor for count-level reporting.  Nothing in
  the downstream analysis other than raw research packet counts depends
  on this (research traffic is removed before session analysis, as in
  the paper) — see DESIGN.md.

- **Malicious scanners**: bots in eyeball networks probing UDP/443 in
  short sessions (~11 packets), diurnally modulated with the 06:00 /
  18:00 UTC peaks of Figure 3.

Both send syntactically valid QUIC Initials (real ClientHellos under
real Initial protection) so the pipeline's dissector accepts them the
way Wireshark accepted the paper's captures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.net.ipv4 import IPProto, IPv4Header
from repro.net.packet import CapturedPacket
from repro.net.udp import UdpHeader
from repro.util.rng import SeededRng
from repro.quic import tls
from repro.quic.crypto import derive_initial_keys
from repro.quic.frames import CryptoFrame
from repro.quic.header import LongHeader, PacketType
from repro.quic.packet import MIN_INITIAL_DATAGRAM, PlainPacket, build_datagram
from repro.quic.versions import QUIC_V1, QuicVersion
from repro.telescope.backscatter import DatagramTemplateCache
from repro.telescope.diurnal import DiurnalModel
from repro.internet.topology import BotHost, InternetModel, ResearchScanner

#: Protected client Initials keyed by every byte-determining input.
#: Probe pools are rebuilt whenever a scenario is re-instantiated (the
#: equivalence suite, the golden test, repeated bench rounds); the same
#: seed yields the same (dcid, scid, hello) triples, so rebuilds replay
#: cached bytes instead of re-running packet protection.
_INITIAL_TEMPLATES = DatagramTemplateCache(max_entries=1024)

# Same pull-style publication as the responder cache (backscatter.py):
# one shared metric family, one label per cache.
from repro import obs as _obs  # noqa: E402  (after the cache it observes)

_M_CACHE_HITS = _obs.counter(
    "repro_template_cache_hits_total",
    "wire-template / keystream cache hits, per cache",
    labels=("cache",),
)
_M_CACHE_MISSES = _obs.counter(
    "repro_template_cache_misses_total",
    "wire-template / keystream cache misses (fresh builds), per cache",
    labels=("cache",),
)
_M_CACHE_SIZE = _obs.gauge(
    "repro_template_cache_size",
    "entries currently held, per cache",
    labels=("cache",),
)


def _collect_initial_template_metrics() -> None:
    _M_CACHE_HITS.set_total(_INITIAL_TEMPLATES.hits, cache="initial")
    _M_CACHE_MISSES.set_total(_INITIAL_TEMPLATES.misses, cache="initial")
    _M_CACHE_SIZE.set(len(_INITIAL_TEMPLATES), cache="initial")


_obs.REGISTRY.add_collector(_collect_initial_template_metrics)


def gquic_probe(rng: SeededRng, version_tag: bytes = b"Q043") -> bytes:
    """A legacy Google-QUIC probe (public header + plaintext CHLO).

    A slice of the scanning ecosystem still looks for pre-IETF servers;
    the dissector must classify these as QUIC despite the different
    wire format.
    """
    flags = bytes([0x09])  # version present + 8-byte connection ID
    cid = rng.randbytes(8)
    packet_number = bytes([1])
    chlo = b"CHLO" + rng.randbytes(2) + b"SNI\x00PAD\x00" + rng.randbytes(300)
    return flags + cid + version_tag + packet_number + chlo


class ProbePool:
    """A reusable pool of pre-protected client Initial datagrams.

    Building packet protection for millions of single-packet probes is
    wasteful; scanners cycle through a pool of distinct, fully valid
    probes instead.  Pool size bounds the number of distinct DCIDs a
    scanner uses, which is realistic — scan tools typically reuse a
    small set of handshake templates.
    """

    def __init__(
        self,
        rng: SeededRng,
        size: int = 32,
        version: QuicVersion = QUIC_V1,
        server_name: str = "scan.invalid",
    ) -> None:
        if size < 1:
            raise ValueError("probe pool needs at least one probe")
        self._probes = []
        for i in range(size):
            dcid = rng.randbytes(8)
            scid = rng.randbytes(8)
            hello = tls.ClientHello(
                random=rng.randbytes(32),
                server_name=server_name,
                transport_parameters=rng.randbytes(48),
            )
            hello_bytes = hello.serialize()

            def build(dcid=dcid, scid=scid, hello_bytes=hello_bytes):
                client_keys, _ = derive_initial_keys(version, dcid)
                packet = PlainPacket(
                    header=LongHeader(
                        packet_type=PacketType.INITIAL,
                        version=version.value,
                        dcid=dcid,
                        scid=scid,
                    ),
                    packet_number=0,
                    frames=[CryptoFrame(0, hello_bytes)],
                )
                return build_datagram(
                    [(packet, client_keys)], pad_to=MIN_INITIAL_DATAGRAM
                )

            self._probes.append(
                _INITIAL_TEMPLATES.get(
                    ("initial", version.value, dcid, scid, hello_bytes), build
                )
            )
        self._index = 0

    def __len__(self) -> int:
        return len(self._probes)

    def next_probe(self) -> bytes:
        probe = self._probes[self._index]
        self._index = (self._index + 1) % len(self._probes)
        return probe


@dataclass
class ResearchScannerModel:
    """Periodic full-IPv4 sweeps from one research source."""

    scanner: ResearchScanner
    internet: InternetModel
    rng: SeededRng
    sweep_interval: float = 43200.0  # two sweeps per day
    sweep_duration: float = 21600.0
    sample: float = 1.0 / 64.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        self.rng = self.rng.child(f"research:{self.scanner.name}")
        self._pool = ProbePool(self.rng.child("pool"))

    @property
    def weight(self) -> float:
        """Multiply sampled packet counts by this for full-scale numbers."""
        return 1.0 / self.sample

    def probe_count(self, start: float, end: float) -> float:
        """About how many probes :meth:`records` emits in [start, end),
        computed from the sweep schedule alone (no RNG draws)."""
        probes_per_sweep = max(1, int(self.internet.telescope_net.size * self.sample))
        count = 0.0
        sweep_start = start + self.phase
        while sweep_start < end:
            covered = min(1.0, (end - sweep_start) / self.sweep_duration)
            count += probes_per_sweep * covered
            sweep_start += self.sweep_interval
        return count

    def packets(self, start: float, end: float) -> Iterator[CapturedPacket]:
        """Probe packets within [start, end), in time order."""
        telescope = self.internet.telescope_net
        probes_per_sweep = max(1, int(telescope.size * self.sample))
        stride = max(1, telescope.size // probes_per_sweep)
        sweep_start = start + self.phase
        while sweep_start < end:
            spacing = self.sweep_duration / probes_per_sweep
            offset = self.rng.randint(0, stride - 1)
            for i in range(probes_per_sweep):
                timestamp = sweep_start + i * spacing
                if timestamp >= end:
                    break
                if timestamp < start:
                    continue
                dst = telescope.address_at((offset + i * stride) % telescope.size)
                yield CapturedPacket(
                    timestamp=timestamp,
                    ip=IPv4Header(
                        src=self.scanner.address, dst=dst, proto=IPProto.UDP
                    ),
                    transport=UdpHeader(
                        src_port=40000 + (i % 20000), dst_port=443
                    ),
                    payload=self._pool.next_probe(),
                )
            sweep_start += self.sweep_interval

    def records(self, start: float, end: float) -> Iterator[tuple]:
        """``packets()`` as flat gen records (same draws, same order).

        The generation fast lane's twin of :meth:`packets`: identical
        RNG consumption, identical timestamps/addresses/payloads, but
        flat tuples (see ``telescope/genlane.py``) instead of header
        dataclasses.  ``tests/test_genlane_equivalence.py`` pins the
        equivalence for the whole scenario.
        """
        telescope = self.internet.telescope_net
        probes_per_sweep = max(1, int(telescope.size * self.sample))
        stride = max(1, telescope.size // probes_per_sweep)
        sweep_start = start + self.phase
        src = self.scanner.address
        base = telescope.network
        size = telescope.size
        next_probe = self._pool.next_probe
        randint = self.rng.randint
        while sweep_start < end:
            spacing = self.sweep_duration / probes_per_sweep
            offset = randint(0, stride - 1)
            for i in range(probes_per_sweep):
                timestamp = sweep_start + i * spacing
                if timestamp >= end:
                    break
                if timestamp < start:
                    continue
                payload = next_probe()
                plen = len(payload)
                yield (
                    timestamp,
                    src,
                    base + (offset + i * stride) % size,
                    28 + plen,
                    17,
                    1,
                    40000 + (i % 20000),
                    443,
                    0,
                    plen,
                    payload,
                )
            sweep_start += self.sweep_interval


@dataclass
class BotScannerModel:
    """Diurnally modulated short scan sessions from eyeball bots."""

    internet: InternetModel
    rng: SeededRng
    sessions_per_day: float = 1300.0
    mean_packets_per_session: float = 11.0
    mean_inter_packet_gap: float = 2.0
    #: probability of a sub-timeout pause between probes (slow scans).
    pause_probability: float = 0.06
    pause_max: float = 270.0
    #: fraction of sessions probing for legacy gQUIC servers.
    gquic_fraction: float = 0.05
    diurnal: DiurnalModel = None

    def __post_init__(self) -> None:
        self.rng = self.rng.child("bot-scanners")
        if self.diurnal is None:
            self.diurnal = DiurnalModel()
        self._pool = ProbePool(self.rng.child("pool"), size=16)

    def session_starts(self, start: float, end: float) -> list:
        """(timestamp, bot) pairs via thinned Poisson with diurnal shape."""
        peak = self.diurnal.peak_rate_factor()
        rate = self.sessions_per_day / 86400.0 * peak
        bots = self.internet.bot_hosts
        if not bots:
            return []
        starts = []
        t = start
        while True:
            t += self.rng.expovariate(rate)
            if t >= end:
                break
            if self.rng.random() < self.diurnal.factor(t) / peak:
                starts.append((t, self.rng.choice(bots)))
        return starts

    def session_packets(self, session_start: float, bot: BotHost) -> list:
        """One scan session: a burst of Initials to random darknet addresses."""
        count = max(1, int(self.rng.expovariate(1.0 / self.mean_packets_per_session)) + 1)
        src_port = self.rng.randint(1024, 65535)
        legacy = self.rng.random() < self.gquic_fraction
        legacy_payload = gquic_probe(self.rng) if legacy else None
        packets = []
        t = session_start
        for _ in range(count):
            dst = self.internet.random_telescope_address(self.rng)
            packets.append(
                CapturedPacket(
                    timestamp=t,
                    ip=IPv4Header(src=bot.address, dst=dst, proto=IPProto.UDP),
                    transport=UdpHeader(src_port=src_port, dst_port=443),
                    payload=legacy_payload if legacy else self._pool.next_probe(),
                )
            )
            t += self.rng.expovariate(1.0 / self.mean_inter_packet_gap)
            if self.rng.random() < self.pause_probability:
                t += self.rng.uniform(45.0, self.pause_max)
        return packets

    def session_records(self, session_start: float, bot: BotHost) -> list:
        """:meth:`session_packets` as flat gen records (same draws)."""
        rng = self.rng
        count = max(1, int(rng.expovariate(1.0 / self.mean_packets_per_session)) + 1)
        src_port = rng.randint(1024, 65535)
        legacy = rng.random() < self.gquic_fraction
        legacy_payload = gquic_probe(rng) if legacy else None
        records = []
        src = bot.address
        t = session_start
        for _ in range(count):
            dst = self.internet.random_telescope_address(rng)
            payload = legacy_payload if legacy else self._pool.next_probe()
            plen = len(payload)
            records.append(
                (t, src, dst, 28 + plen, 17, 1, src_port, 443, 0, plen, payload)
            )
            t += rng.expovariate(1.0 / self.mean_inter_packet_gap)
            if rng.random() < self.pause_probability:
                t += rng.uniform(45.0, self.pause_max)
        return records

    def packets(self, start: float, end: float) -> Iterator[CapturedPacket]:
        """All bot scan packets in [start, end), time-sorted."""
        sessions = []
        for session_start, bot in self.session_starts(start, end):
            sessions.append(self.session_packets(session_start, bot))
        merged = sorted(
            (p for session in sessions for p in session), key=lambda p: p.timestamp
        )
        for packet in merged:
            if start <= packet.timestamp < end:
                yield packet

    def records(self, start: float, end: float) -> Iterator[tuple]:
        """``packets()`` as flat gen records (same draws, same order)."""
        sessions = []
        for session_start, bot in self.session_starts(start, end):
            sessions.append(self.session_records(session_start, bot))
        merged = sorted(
            (r for session in sessions for r in session), key=lambda r: r[0]
        )
        for record in merged:
            if start <= record[0] < end:
                yield record


@dataclass
class TcpScannerModel:
    """Mirai-style TCP scanning from the same eyeball bot population.

    The telescope's *common* (TCP) request traffic: bots probing
    TCP/23, TCP/2323 (Mirai's telnet signature) and TCP/443 with bare
    SYNs.  These exercise the classifier's TCP_REQUEST path and give
    the GreyNoise correlation a realistic multi-protocol context.
    """

    internet: InternetModel
    rng: SeededRng
    sessions_per_day: float = 800.0
    mean_packets_per_session: float = 8.0
    target_ports: tuple = (23, 2323, 443, 80)
    diurnal: DiurnalModel = None

    def __post_init__(self) -> None:
        self.rng = self.rng.child("tcp-scanners")
        if self.diurnal is None:
            self.diurnal = DiurnalModel()

    def packets(self, start: float, end: float) -> Iterator[CapturedPacket]:
        from repro.net.tcp import TcpFlags, TcpHeader

        peak = self.diurnal.peak_rate_factor()
        rate = self.sessions_per_day / 86400.0 * peak
        bots = self.internet.bot_hosts
        if not bots:
            return
        sessions = []
        t = start
        while True:
            t += self.rng.expovariate(rate)
            if t >= end:
                break
            if self.rng.random() >= self.diurnal.factor(t) / peak:
                continue
            bot = self.rng.choice(bots)
            port = self.rng.choice(self.target_ports)
            count = max(1, int(self.rng.expovariate(1.0 / self.mean_packets_per_session)) + 1)
            src_port = self.rng.randint(1024, 65535)
            session = []
            ts = t
            for _ in range(count):
                dst = self.internet.random_telescope_address(self.rng)
                session.append(
                    CapturedPacket(
                        timestamp=ts,
                        ip=IPv4Header(src=bot.address, dst=dst, proto=IPProto.TCP),
                        transport=TcpHeader(
                            src_port=src_port,
                            dst_port=port,
                            seq=self.rng.randint(0, 2**32 - 1),
                            flags=TcpFlags.SYN,
                        ),
                    )
                )
                ts += self.rng.expovariate(0.8)
            sessions.append(session)
        merged = sorted((p for s in sessions for p in s), key=lambda p: p.timestamp)
        for packet in merged:
            if start <= packet.timestamp < end:
                yield packet

    def records(self, start: float, end: float) -> Iterator[tuple]:
        """``packets()`` as flat gen records (same draws, same order).

        TCP gen records are 13-tuples: the lane's 11 fields (f3 carries
        the flags) plus the wire-only seq/ack numbers.
        """
        from repro.net.tcp import TcpFlags

        syn = int(TcpFlags.SYN)
        peak = self.diurnal.peak_rate_factor()
        rate = self.sessions_per_day / 86400.0 * peak
        bots = self.internet.bot_hosts
        if not bots:
            return
        sessions = []
        t = start
        while True:
            t += self.rng.expovariate(rate)
            if t >= end:
                break
            if self.rng.random() >= self.diurnal.factor(t) / peak:
                continue
            bot = self.rng.choice(bots)
            port = self.rng.choice(self.target_ports)
            count = max(1, int(self.rng.expovariate(1.0 / self.mean_packets_per_session)) + 1)
            src_port = self.rng.randint(1024, 65535)
            session = []
            ts = t
            src = bot.address
            for _ in range(count):
                dst = self.internet.random_telescope_address(self.rng)
                seq = self.rng.randint(0, 2**32 - 1)
                session.append(
                    (ts, src, dst, 40, 6, 2, src_port, port, syn, 0, b"", seq, 0)
                )
                ts += self.rng.expovariate(0.8)
            sessions.append(session)
        merged = sorted((r for s in sessions for r in s), key=lambda r: r[0])
        for record in merged:
            if start <= record[0] < end:
                yield record
