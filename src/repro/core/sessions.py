"""Session aggregation: from packets to events (Section 5.1).

Packets from one source belong to the same session while the gap
between consecutive packets stays below an inactivity *timeout*.
Figure 4 sweeps the timeout from 1 to 60 minutes and picks the 5-minute
knee; :class:`TimeoutSweep` reproduces that analysis from recorded
inter-packet gaps without re-running the sessionizer per timeout.

Sessions accumulate exactly the summary statistics the downstream
stages need (Moore-threshold fields, SCID/port/address sets for
Figure 9, message-type tallies for Section 6) so the pipeline never
stores raw packets.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.quic.header import PacketType
from repro.util.timeutil import MINUTE
from repro.core.classify import ClassifiedPacket

#: The paper's chosen inactivity timeout (the Figure 4 knee).
DEFAULT_TIMEOUT = 5 * MINUTE


@dataclass
class Session:
    """One per-source traffic session."""

    source: int
    traffic_class: str
    first_ts: float
    last_ts: float = 0.0
    packet_count: int = 0
    byte_count: int = 0
    dst_ips: set = field(default_factory=set)
    dst_ports: set = field(default_factory=set)
    scids: set = field(default_factory=set)
    message_types: dict = field(default_factory=dict)
    minute_slots: dict = field(default_factory=dict)
    retry_packets: int = 0
    version_names: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.last_ts - self.first_ts

    @property
    def max_pps(self) -> float:
        """Maximum packet rate over the session's 1-minute slots."""
        if not self.minute_slots:
            return 0.0
        return max(self.minute_slots.values()) / MINUTE

    def add(self, classified: ClassifiedPacket) -> None:
        packet = classified.packet
        self.last_ts = packet.timestamp
        self.packet_count += 1
        self.byte_count += packet.wire_length
        self.dst_ips.add(packet.dst)
        if packet.dst_port is not None:
            self.dst_ports.add(packet.dst_port)
        slot = int(packet.timestamp // MINUTE)
        self.minute_slots[slot] = self.minute_slots.get(slot, 0) + 1
        dissection = classified.dissection
        if dissection is not None and dissection.valid:
            for summary in dissection.packets:
                name = _type_name(summary.packet_type)
                self.message_types[name] = self.message_types.get(name, 0) + 1
                if summary.packet_type is PacketType.RETRY:
                    self.retry_packets += 1
                if summary.scid:
                    self.scids.add(summary.scid)
                if summary.version_name:
                    self.version_names[summary.version_name] = (
                        self.version_names.get(summary.version_name, 0) + 1
                    )

    def apply_entry(
        self,
        timestamp: float,
        dst: int,
        dst_port: Optional[int],
        wire_length: int,
        delta: Optional[tuple],
    ) -> None:
        """Scalar-field twin of :meth:`add` for the batch fast lane.

        ``delta`` is a precomputed per-datagram dissection summary —
        ``(message_type_counts, scids, version_name_counts,
        retry_packets)`` with counts as ``((name, n), ...)`` in
        first-occurrence order — so the resulting dicts and sets are
        identical (insertion order included) to feeding the packets
        through :meth:`add` one by one.
        """
        self.last_ts = timestamp
        self.packet_count += 1
        self.byte_count += wire_length
        self.dst_ips.add(dst)
        if dst_port is not None:
            self.dst_ports.add(dst_port)
        slot = int(timestamp // MINUTE)
        self.minute_slots[slot] = self.minute_slots.get(slot, 0) + 1
        if delta is not None:
            type_counts, scids, version_counts, retries = delta
            message_types = self.message_types
            for name, count in type_counts:
                message_types[name] = message_types.get(name, 0) + count
            self.retry_packets += retries
            if scids:
                self.scids.update(scids)
            version_names = self.version_names
            for name, count in version_counts:
                version_names[name] = version_names.get(name, 0) + count


def _type_name(packet_type: PacketType) -> str:
    return packet_type.name.lower().replace("_", "-")


def _sorted_difference(values: list, removals: list) -> list:
    """Multiset difference of two sorted lists in one linear pass.

    Every element of ``removals`` must be present in ``values``.
    """
    out: list = []
    start = 0
    for item in removals:
        stop = bisect.bisect_left(values, item, start)
        out.extend(values[start:stop])
        start = stop + 1
    out.extend(values[start:])
    return out


class Sessionizer:
    """Streaming per-source sessionizer for one traffic class.

    Feed time-ordered packets with :meth:`add`; closed sessions are
    handed to ``on_close`` (or collected in :attr:`closed`).  Call
    :meth:`flush` at end of stream.
    """

    def __init__(
        self,
        traffic_class: str,
        timeout: float = DEFAULT_TIMEOUT,
        on_close: Optional[Callable[[Session], None]] = None,
        record_gaps: bool = False,
        on_update: Optional[Callable[[Session], None]] = None,
    ) -> None:
        if timeout <= 0:
            raise ValueError("session timeout must be positive")
        self.traffic_class = traffic_class
        self.timeout = timeout
        self.on_close = on_close
        #: invoked after every packet lands in a (still-open) session;
        #: the streaming monitor hooks its incremental flood detector
        #: here.  Must not mutate the session.
        self.on_update = on_update
        self.closed: list = []
        self._open: dict[int, Session] = {}
        self.record_gaps = record_gaps
        self.gaps: list = []
        self.source_count = 0
        self._seen_sources: set = set()

    def add(self, classified: ClassifiedPacket) -> None:
        packet = classified.packet
        source = packet.src
        session = self._open.get(source)
        if session is not None:
            gap = packet.timestamp - session.last_ts
            if self.record_gaps:
                self.gaps.append(gap)
            if gap > self.timeout:
                self._close(session)
                session = None
        if session is None:
            if source not in self._seen_sources:
                self._seen_sources.add(source)
                self.source_count += 1
            session = Session(
                source=source,
                traffic_class=self.traffic_class,
                first_ts=packet.timestamp,
                last_ts=packet.timestamp,
            )
            self._open[source] = session
        session.add(classified)
        if self.on_update is not None:
            self.on_update(session)

    def add_entry(
        self,
        source: int,
        timestamp: float,
        dst: int,
        dst_port: Optional[int],
        wire_length: int,
        delta: Optional[tuple],
    ) -> None:
        """Scalar-field twin of :meth:`add` (batch fast lane).

        Same gap/timeout/new-session logic; the packet lands via
        :meth:`Session.apply_entry` instead of a ``ClassifiedPacket``.
        """
        session = self._open.get(source)
        if session is not None:
            gap = timestamp - session.last_ts
            if self.record_gaps:
                self.gaps.append(gap)
            if gap > self.timeout:
                self._close(session)
                session = None
        if session is None:
            if source not in self._seen_sources:
                self._seen_sources.add(source)
                self.source_count += 1
            session = Session(
                source=source,
                traffic_class=self.traffic_class,
                first_ts=timestamp,
                last_ts=timestamp,
            )
            self._open[source] = session
        session.apply_entry(timestamp, dst, dst_port, wire_length, delta)
        if self.on_update is not None:
            self.on_update(session)

    def _close(self, session: Session) -> None:
        del self._open[session.source]
        if self.on_close is not None:
            self.on_close(session)
        else:
            self.closed.append(session)

    def flush(self) -> None:
        """Close every open session (end of measurement window)."""
        for session in list(self._open.values()):
            self._close(session)

    def expire(self, watermark: float) -> list:
        """Close sessions idle past the timeout at an event-time watermark.

        Streaming entry point.  On a time-ordered stream this closes
        exactly the sessions :meth:`add` would later close by its gap
        rule (or :meth:`flush` at EOF) with identical contents: a
        session only expires once ``watermark - last_ts > timeout``,
        and any later packet from the same source necessarily has
        ``timestamp >= watermark``, hence a gap above the timeout too.
        Returns the sessions closed by this call.
        """
        expired = [
            session
            for session in self._open.values()
            if watermark - session.last_ts > self.timeout
        ]
        for session in expired:
            self._close(session)
        return expired

    def open_sessions(self) -> list:
        """Snapshot of the currently open sessions."""
        return list(self._open.values())

    @property
    def open_count(self) -> int:
        return len(self._open)

    def evict_closed(self) -> int:
        """Bounded-memory entry point: drop closed-session records.

        Counters survive; the seen-source dedup set shrinks to the
        currently open sources, so a source returning after going fully
        idle is counted again — the documented approximation of the
        streaming monitor's bounded mode.  Returns the number of
        dropped sessions.
        """
        dropped = len(self.closed)
        self.closed.clear()
        self._seen_sources.intersection_update(self._open)
        return dropped

    def merge(self, other: "Sessionizer") -> None:
        """Fold a shard's sessionizer into this one.

        Shards partition packets by source, so the two sessionizers
        never saw the same source: open sessions and per-source state
        are disjoint and the merge is a plain union.  Callers that need
        a canonical session order sort ``closed`` afterwards (see
        :meth:`sort_closed`).
        """
        if other.traffic_class != self.traffic_class:
            raise ValueError(
                f"cannot merge {other.traffic_class!r} into {self.traffic_class!r}"
            )
        if other.timeout != self.timeout:
            raise ValueError("cannot merge sessionizers with different timeouts")
        overlap = self._seen_sources & other._seen_sources
        if overlap:
            raise ValueError(f"shards overlap on {len(overlap)} sources")
        self.closed.extend(other.closed)
        self._open.update(other._open)
        self.gaps.extend(other.gaps)
        self._seen_sources |= other._seen_sources
        self.source_count = len(self._seen_sources)

    def sort_closed(self) -> None:
        """Put closed sessions into canonical (first_ts, source) order.

        Within one source session starts strictly increase, so the key
        is total and the order is independent of how the stream was
        sharded — serial and merged parallel runs agree bit for bit.
        """
        self.closed.sort(key=lambda s: (s.first_ts, s.source))

    @property
    def session_count(self) -> int:
        return len(self.closed) + len(self._open)


def _clone_session(session: Session) -> Session:
    """A deep-enough copy for federated joining (fresh sets/dicts)."""
    return Session(
        source=session.source,
        traffic_class=session.traffic_class,
        first_ts=session.first_ts,
        last_ts=session.last_ts,
        packet_count=session.packet_count,
        byte_count=session.byte_count,
        dst_ips=set(session.dst_ips),
        dst_ports=set(session.dst_ports),
        scids=set(session.scids),
        message_types=dict(session.message_types),
        minute_slots=dict(session.minute_slots),
        retry_packets=session.retry_packets,
        version_names=dict(session.version_names),
    )


def _absorb_session(target: Session, other: Session) -> None:
    """Fold a later (or overlapping) fragment into ``target`` in place."""
    target.first_ts = min(target.first_ts, other.first_ts)
    target.last_ts = max(target.last_ts, other.last_ts)
    target.packet_count += other.packet_count
    target.byte_count += other.byte_count
    target.retry_packets += other.retry_packets
    target.dst_ips |= other.dst_ips
    target.dst_ports |= other.dst_ports
    target.scids |= other.scids
    for name, count in other.message_types.items():
        target.message_types[name] = target.message_types.get(name, 0) + count
    for slot, count in other.minute_slots.items():
        target.minute_slots[slot] = target.minute_slots.get(slot, 0) + count
    for name, count in other.version_names.items():
        target.version_names[name] = target.version_names.get(name, 0) + count


def chain_merge_sessions(sessions: Iterable[Session], timeout: float) -> list:
    """Re-join session fragments from any partition of a source's packets.

    Telescope *federation* partitions the stream by destination prefix
    and unit-sharded scenario runs (``report --workers N``) by
    generation unit, so — unlike source-IP sharding — the same source
    appears in several partitions and each sees only a sub-sequence of
    its time-ordered packets.  Every fragment still has internal gaps
    <= ``timeout``, which means no union-stream session boundary can
    fall strictly inside a fragment's ``[first_ts, last_ts]`` span: a
    boundary is a gap > ``timeout`` in the union, and any such gap is
    at least as large in every sub-sequence that brackets it.  Sorting
    a source's fragments by ``first_ts`` and joining whenever
    ``next.first_ts - current.last_ts <= timeout`` therefore rebuilds
    exactly the sessions a serial run over the union stream produces;
    the per-session statistics are sums/unions, so the rebuilt
    :class:`Session` objects compare equal to the serial ones
    (``tests/test_federation_equivalence.py`` and
    ``tests/test_unit_shards.py`` pin this bit for bit).

    Returns the sessions in canonical ``(first_ts, source)`` order.
    The inputs are not mutated: joined sessions are new objects, and a
    fragment that joins nothing is returned as it is, not copied.
    """
    groups: dict = {}
    for session in sessions:
        groups.setdefault((session.source, session.traffic_class), []).append(
            session
        )
    merged: list = []
    for fragments in groups.values():
        fragments.sort(key=lambda s: (s.first_ts, s.last_ts))
        current = fragments[0]
        joined = False
        for fragment in fragments[1:]:
            if fragment.first_ts - current.last_ts <= timeout:
                if not joined:
                    current = _clone_session(current)
                    joined = True
                _absorb_session(current, fragment)
            else:
                merged.append(current)
                current = fragment
                joined = False
        merged.append(current)
    merged.sort(key=lambda s: (s.first_ts, s.source))
    return merged


class TimeoutSweep:
    """Figure 4: number of sessions as a function of the timeout.

    Record every per-source inter-packet gap once; the session count for
    timeout T is ``sources + |{gaps > T}|``, and ``sources`` is the
    lower bound reached at timeout = infinity.  Gaps are kept per source
    so sources identified later (research scanners) can be excluded
    without a second pass over the packets.
    """

    def __init__(self) -> None:
        self._last_seen: dict[int, float] = {}
        self._gaps: dict[int, list] = {}
        self._excluded: set = set()
        self._sorted: Optional[list] = None
        self._gap_count = 0

    def observe(self, source: int, timestamp: float) -> None:
        last = self._last_seen.get(source)
        if last is not None:
            self._gaps.setdefault(source, []).append(timestamp - last)
            if source not in self._excluded:
                self._gap_count += 1
            self._sorted = None
        self._last_seen[source] = timestamp

    def _observe_sorted(self, source: int, timestamps: list) -> None:
        """:meth:`observe` every timestamp of a source not seen before,
        in one pass: the same ``later - earlier`` float subtractions,
        without a call per timestamp."""
        self._last_seen[source] = timestamps[-1]
        if len(timestamps) > 1:
            gaps = [
                later - earlier
                for earlier, later in zip(timestamps, timestamps[1:])
            ]
            self._gaps[source] = gaps
            if source not in self._excluded:
                self._gap_count += len(gaps)
            self._sorted = None

    def exclude_sources(self, sources) -> None:
        """Drop sources (e.g. research scanners) from the sweep.

        Keeps the sorted gap list alive: the excluded sources' gaps are
        subtracted with one merge pass instead of re-sorting every
        remaining gap from scratch.
        """
        new = set(sources) - self._excluded
        if not new:
            return
        self._excluded |= new
        removed = [gap for source in new for gap in self._gaps.get(source, ())]
        self._gap_count -= len(removed)
        if self._sorted is not None and removed:
            removed.sort()
            self._sorted = _sorted_difference(self._sorted, removed)

    def merge(self, other: "TimeoutSweep") -> None:
        """Fold a shard's sweep into this one (disjoint source sets)."""
        overlap = set(self._last_seen) & set(other._last_seen)
        if overlap:
            raise ValueError(f"shards overlap on {len(overlap)} sources")
        if other._excluded:
            raise ValueError("merge partial sweeps before excluding sources")
        self._last_seen.update(other._last_seen)
        self._gaps.update(other._gaps)
        self._gap_count += other._gap_count
        self._sorted = None

    @property
    def source_count(self) -> int:
        return len(set(self._last_seen) - self._excluded)

    @property
    def packet_count(self) -> int:
        return self._gap_count + self.source_count

    def sessions_at(self, timeout: float) -> int:
        """Session count under the given timeout (seconds)."""
        if self._sorted is None:
            self._sorted = sorted(
                gap
                for source, gaps in self._gaps.items()
                if source not in self._excluded
                for gap in gaps
            )
        index = bisect.bisect_right(self._sorted, timeout)
        return self.source_count + len(self._sorted) - index

    def _sorted_gaps(self) -> list:
        """The currently-included gaps in sorted order (testing hook)."""
        self.sessions_at(0.0)
        return list(self._sorted or ())

    def sweep(self, timeouts_minutes: Iterable[float]) -> list:
        """(timeout_minutes, session_count) series for Figure 4."""
        return [
            (minutes, self.sessions_at(minutes * MINUTE))
            for minutes in timeouts_minutes
        ]

    def knee_minutes(
        self, candidates: Iterable[float] = tuple(range(1, 61)), threshold: float = 0.02
    ) -> float:
        """Smallest timeout where the marginal session reduction per
        extra minute drops below ``threshold`` of the remaining excess
        over the infinity floor — the paper's ~5 minute knee."""
        series = self.sweep(candidates)
        floor = self.source_count
        for (m1, s1), (_m2, s2) in zip(series, series[1:]):
            excess = s1 - floor
            if excess <= 0:
                return m1
            if (s1 - s2) / excess < threshold:
                return m1
        return series[-1][0]


class RecordingSweep(TimeoutSweep):
    """A :class:`TimeoutSweep` that also retains per-source timestamps.

    Gap *values* are enough to merge source-disjoint shards, but not
    destination-partitioned vantages: the union stream's gaps are
    differences of interleaved timestamps from several partitions, and
    floats don't let us reconstruct timestamps from gaps
    (``t1 + (t2 - t1) != t2`` in general).  Keeping the observed
    timestamps — the same asymptotic cost as the gap lists — lets
    :func:`merge_recorded_sweeps` rebuild the union sweep exactly.
    """

    def __init__(self) -> None:
        super().__init__()
        self._timestamps: dict[int, list] = {}

    def observe(self, source: int, timestamp: float) -> None:
        self._timestamps.setdefault(source, []).append(timestamp)
        super().observe(source, timestamp)


def merge_recorded_sweeps(sweeps: Iterable["RecordingSweep"]) -> TimeoutSweep:
    """Rebuild the single-stream sweep from per-vantage recorded sweeps.

    Per source, the union of the vantages' timestamp lists (a sorted
    multiset merge, duplicates kept) is exactly the timestamp sequence
    a serial sweep over the union stream observes, so replaying it
    (:meth:`TimeoutSweep._observe_sorted`) reproduces the serial gap
    multiset bit for bit — the same float subtractions on the same
    values.  Returns a plain :class:`TimeoutSweep` ready for
    ``exclude_sources`` / ``sessions_at``.
    """
    per_source: dict[int, list] = {}
    for sweep in sweeps:
        if not isinstance(sweep, RecordingSweep):
            raise TypeError("federated sweep merge needs RecordingSweep inputs")
        if sweep._excluded:
            raise ValueError("merge recorded sweeps before excluding sources")
        for source, stamps in sweep._timestamps.items():
            per_source.setdefault(source, []).extend(stamps)
    merged = TimeoutSweep()
    for source, stamps in per_source.items():
        stamps.sort()
        merged._observe_sorted(source, stamps)
    return merged
