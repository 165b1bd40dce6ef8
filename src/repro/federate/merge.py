"""Distributed state merge for any partition of the packet stream.

Federated vantages tile the telescope prefix by *destination*, and
unit-sharded scenario runs (``report --workers N``,
:mod:`repro.core.parallel`) split it by *generation unit*; either way —
unlike the source-hash sharding of a packet stream — the same source
shows up in several partial states and the disjoint-source merges
raise.  This module provides the overlap-aware alternative, exact for
any partition of a source's time-ordered packets:

- :func:`tile_prefixes` splits the telescope net into K tiles (K need
  not be a power of two — the largest tile is halved repeatedly, so
  K=3 over a /9 yields one /10 and two /11s);
- :func:`merge_federated_states` rebuilds the exact single-telescope
  :class:`~repro.core.pipeline.PartialState` from the per-vantage
  states: additive counters ride
  :meth:`~repro.core.pipeline.PartialState.merge_counts`, session
  fragments are rejoined by
  :func:`~repro.core.sessions.chain_merge_sessions` (exactness proof
  in its docstring), and the timeout sweep is replayed from recorded
  timestamps via :func:`~repro.core.sessions.merge_recorded_sweeps`.

Bit-exactness against the serial pipeline is pinned by
``tests/test_federation_equivalence.py`` and ``tests/test_unit_shards.py``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.pipeline import AnalysisConfig, PartialState
from repro.core.sessions import (
    RecordingSweep,
    chain_merge_sessions,
    merge_recorded_sweeps,
)
from repro.net.addresses import IPv4Network


def tile_prefixes(base, count: int) -> list:
    """Split ``base`` into ``count`` tiles covering it exactly.

    Repeatedly halves the largest (shortest-prefix) tile, breaking
    ties toward the lowest network address, then returns the tiles in
    address order.  Powers of two give equal tiles; other counts give
    the flattest possible split (K=3 → ``[/10, /11, /11]`` of a /9).
    """
    if isinstance(base, str):
        base = IPv4Network.from_cidr(base)
    if count < 1:
        raise ValueError("need at least one tile")
    if count > 2 ** (32 - base.prefix_len):
        raise ValueError(f"cannot split {base} into {count} tiles")
    tiles = [base]
    while len(tiles) < count:
        widest = min(tiles, key=lambda net: (net.prefix_len, net.network))
        tiles.remove(widest)
        tiles.extend(widest.subnets(widest.prefix_len + 1))
    tiles.sort(key=lambda net: net.network)
    return tiles


def _merge_sessionizers(
    merged: PartialState, states: Sequence[PartialState], timeout: float
) -> None:
    for packet_class, target in merged.sessionizers.items():
        fragments: list = []
        seen: set = set()
        for state in states:
            source = state.sessionizers.get(packet_class)
            if source is None:
                continue
            if source.timeout != timeout:
                raise ValueError(
                    "cannot merge vantage sessionizers with different timeouts"
                )
            fragments.extend(source.closed)
            fragments.extend(source.open_sessions())
            seen |= source._seen_sources
        target.closed = chain_merge_sessions(fragments, timeout)
        target._seen_sources = seen
        target.source_count = len(seen)


def merge_federated_states(
    states: Iterable[PartialState], config: AnalysisConfig
) -> PartialState:
    """The global state of K partial states over a partitioned stream.

    Every input must carry a :class:`~repro.core.sessions.RecordingSweep`
    (vantages and unit shards install one; see
    :mod:`repro.federate.vantage`, :mod:`repro.core.parallel`) and must
    already be closed — open sessions are treated as fragments, so an
    unflushed state still merges, but the bit-exactness pin assumes
    end-of-window flushes.  The inputs are not mutated.
    """
    states = list(states)
    if not states:
        raise ValueError("nothing to merge: no vantage states")
    merged = PartialState.initial(config)
    for state in states:
        merged.merge_counts(state)
    _merge_sessionizers(merged, states, config.session_timeout)
    sweeps = [state.sweep for state in states]
    for sweep in sweeps:
        if not isinstance(sweep, RecordingSweep):
            raise ValueError(
                "federated merge needs RecordingSweep vantage states "
                "(plain TimeoutSweep gaps cannot be re-unioned exactly)"
            )
    merged.sweep = merge_recorded_sweeps(sweeps)
    return merged
