"""The network telescope itself: a darknet packet tap.

A telescope is a routed but unused prefix whose every incoming packet
is unsolicited by construction.  :class:`Telescope` filters an incoming
stream down to packets destined to its prefix, keeps arrival counters,
and can persist captures to pcap for offline analysis — the same
pipeline shape as the UCSD telescope feeding the paper's toolchain.
"""

from __future__ import annotations

import heapq
import operator
import time
from typing import Iterable, Iterator

from repro import obs
from repro.net.addresses import IPv4Network
from repro.net.packet import CapturedPacket
from repro.net.pcap import write_pcap
from repro.telescope.genlane import M_RECORDS as _M_LANE_RECORDS

# Generation-rate metrics.  The capture generator is the single funnel
# every scenario stream passes through, so it is the one place to count
# generated packets — flushed every _FLUSH_EVERY packets (and at
# generator close) to keep the per-packet loop free of metric calls.
_M_GENERATED = obs.counter(
    "repro_telescope_packets_total",
    "packets captured by the telescope tap (destined to its prefix)",
)
_M_DROPPED = obs.counter(
    "repro_telescope_dropped_total",
    "generated packets outside the telescope prefix (not captured)",
)
_M_GENERATE = obs.histogram(
    "repro_telescope_generate_seconds",
    "wall seconds per full capture-stream generation",
)
_FLUSH_EVERY = 4096


class Telescope:
    """A /N darknet capturing unsolicited traffic."""

    def __init__(self, prefix: IPv4Network) -> None:
        self.prefix = prefix
        self.packets_seen = 0
        self.packets_dropped = 0

    @property
    def extrapolation_factor(self) -> float:
        """Scale factor from telescope counts to Internet-wide counts.

        The paper's /9 covers 1/512 of IPv4, hence the 512x max-pps
        extrapolation in Section 5.2.
        """
        return 2.0 ** self.prefix.prefix_len

    def capture(self, stream: Iterable[CapturedPacket]) -> Iterator[CapturedPacket]:
        """Yield only packets destined to the telescope prefix."""
        if not obs.enabled():
            for packet in stream:
                if packet.dst in self.prefix:
                    self.packets_seen += 1
                    yield packet
                else:
                    self.packets_dropped += 1
            return
        # metrics-on path: identical filtering, counters flushed in bulk
        seen_base = self.packets_seen
        dropped_base = self.packets_dropped
        flushed = 0
        start = time.perf_counter()
        try:
            for packet in stream:
                if packet.dst in self.prefix:
                    self.packets_seen += 1
                    yield packet
                    pending = self.packets_seen - seen_base - flushed
                    if pending >= _FLUSH_EVERY:
                        _M_GENERATED.inc(pending)
                        flushed += pending
                else:
                    self.packets_dropped += 1
        finally:
            _M_GENERATED.inc(self.packets_seen - seen_base - flushed)
            _M_DROPPED.inc(self.packets_dropped - dropped_base)
            _M_GENERATE.observe(time.perf_counter() - start)

    def capture_records(self, stream: Iterable[tuple]) -> Iterator[tuple]:
        """The generation fast lane's twin of :meth:`capture`.

        Filters flat gen records (see :mod:`repro.telescope.genlane`)
        on their destination field with the same counters and the same
        bulk-flushed metrics, plus the lane's own
        ``repro_genlane_records_total``.
        """
        prefix = self.prefix
        network = prefix.network
        netmask = prefix.netmask
        if not obs.enabled():
            # counters kept in locals and flushed on close: an instance
            # attribute store per record is measurable at lane rates
            seen = dropped = 0
            try:
                for record in stream:
                    if record[2] & netmask == network:
                        seen += 1
                        yield record
                    else:
                        dropped += 1
            finally:
                self.packets_seen += seen
                self.packets_dropped += dropped
            return
        # metrics-on keeps the same local-counter loop: the lane runs
        # fast enough that even instance-attribute stores per record
        # would show up against the <5% instrumentation budget
        seen = dropped = flushed = 0
        start = time.perf_counter()
        try:
            for record in stream:
                if record[2] & netmask == network:
                    seen += 1
                    yield record
                    if seen - flushed >= _FLUSH_EVERY:
                        pending = seen - flushed
                        _M_GENERATED.inc(pending)
                        _M_LANE_RECORDS.inc(pending)
                        flushed = seen
                else:
                    dropped += 1
        finally:
            pending = seen - flushed
            _M_GENERATED.inc(pending)
            _M_LANE_RECORDS.inc(pending)
            _M_DROPPED.inc(dropped)
            self.packets_seen += seen
            self.packets_dropped += dropped
            _M_GENERATE.observe(time.perf_counter() - start)

    def capture_to_pcap(self, stream: Iterable[CapturedPacket], path) -> int:
        """Capture a stream to a pcap file; returns the packet count."""
        return write_pcap(path, self.capture(stream))


def merge_streams(*streams: Iterable[CapturedPacket]) -> Iterator[CapturedPacket]:
    """Merge per-source time-sorted packet streams into one tap feed."""
    return heapq.merge(*streams, key=lambda p: p.timestamp)


def _tagged(unit_iter, unit: int):
    for record in unit_iter:
        yield record, unit


def merge_units(units: list, unit_indices, tagged: bool = False) -> Iterator:
    """The records of ``units[i]`` for each ``i`` in ``unit_indices``,
    merged by timestamp.

    ``heapq.merge`` is stable, so timestamp ties fall to the earlier
    iterator; with ``unit_indices`` ascending that is the lower unit
    index, exactly as in the serial merge over all units.  ``tagged``
    yields ``(record, unit index)`` pairs for a later cross-worker
    merge instead of bare records.
    """
    if tagged:
        return heapq.merge(
            *(_tagged(units[unit], unit) for unit in unit_indices),
            key=lambda item: item[0][0],
        )
    return heapq.merge(
        *(units[unit] for unit in unit_indices), key=operator.itemgetter(0)
    )
