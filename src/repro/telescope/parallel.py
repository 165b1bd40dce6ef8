"""Sharded parallel scenario generation, bit-identical to serial.

The producer-side mirror of :mod:`repro.core.parallel`: where the
analysis runner shards *consumption* of a packet stream by source IP,
this module shards *production* of the stream by generation unit — the
per-actor record iterators :meth:`Scenario.record_units` exposes (each
research sweep, the bot and TCP scanners, each planned flood, the
misconfiguration and stray-UDP noise).

Why this is exact
-----------------

Every unit draws from its own ``SeededRng`` stream, split from the
scenario seed by label (``SeededRng.split`` — independent of draw
order anywhere else), so a worker that rebuilds the scenario from its
config and runs a *subset* of units produces byte-for-byte the records
the serial path produces for those units.  The one shared-stream
exception, the stray-UDP model's ``random_unrouted_address()`` draw
against the topology RNG, is confined to a single unit and therefore a
single worker.  Serial order is the k-way merge of all units by
``(timestamp, unit index)`` (``heapq.merge`` breaks ties toward the
earlier iterator); each worker locally merges its own units by
timestamp — a subset of units preserves their relative order, so the
worker's stream is sorted by the same key — and the parent merges the
worker streams by ``(timestamp, unit index)``, reproducing the serial
sequence exactly.  The telescope filter runs parent-side, after the
merge, just as in the serial path.

Units are dealt to workers by :func:`assign_units` (longest processing
time first, on :meth:`Scenario.unit_costs` estimates) and merged per
worker by :func:`repro.telescope.telescope.merge_units`; the
unit-sharded analysis runner of :mod:`repro.core.parallel` (``report
--workers N``) uses the same two helpers (through
:meth:`Scenario.lane_batches`), so both sharded paths split and order
units identically.

Transport
---------

The shared-memory ring transport of ``core/parallel.py``, reversed:
each worker owns a ring of slots in a parent-created segment, packs
fixed-width scalar records (:data:`_GEN_RECORD` — the analysis record
plus the wire-only x1/x2 fields and the unit tag) plus payload bytes
into free slots, and sends tiny ``(slot, count)`` descriptors; the
parent parses records in place and acks drained slots back.  Payload
bytes are shipped only for UDP (kind 1) records — TCP records carry no
payload and ICMP echo payloads are all-zero by construction
(:mod:`repro.telescope.backscatter`), so the parent reconstructs them
locally.
"""

from __future__ import annotations

import collections
import heapq
import multiprocessing
import queue as queue_module
import struct
import traceback
from typing import Iterator

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - always present on CPython >= 3.8
    _shared_memory = None

from repro import obs
from repro.core.parallel import RING_SLOTS, SLOT_SIZE, _attach_segment
from repro.telescope.genlane import M_GEN_WORKERS, M_SHARD_RECORDS
from repro.telescope.telescope import merge_units

#: one generated record, little-endian, no padding: timestamp f64,
#: src u32, dst u32, total_length u16, proto u8, kind u8, f1 u16,
#: f2 u16, f3 u16, payload_length u32, x1 u32, x2 u32, unit u32.
#: ``kind`` carries the payload-follows flag in its high bit, exactly
#: like the analysis transport.
_GEN_RECORD = struct.Struct("<dIIHBBHHHIIII")
_PAYLOAD_FLAG = 0x80
_FLUSH_WATERMARK = SLOT_SIZE - (_GEN_RECORD.size + 0x10000)
_BATCH = 512


def assign_units(costs: list, workers: int) -> list:
    """Deal generation units to ``workers`` shards, balanced by cost.

    Longest-processing-time first: units in descending estimated cost
    (:meth:`Scenario.unit_costs`; ties to the lower unit index) each go
    to the least-loaded shard so far (ties to the lower shard index).
    Deterministic, so every process computes the same assignment.
    Returns one ascending unit-index list per shard; a shard may be
    empty when there are fewer units than workers.
    """
    loads = [0.0] * workers
    shards: list = [[] for _ in range(workers)]
    for unit in sorted(range(len(costs)), key=lambda unit: (-costs[unit], unit)):
        shard = min(range(workers), key=lambda index: (loads[index], index))
        shards[shard].append(unit)
        loads[shard] += costs[unit]
    for shard in shards:
        shard.sort()
    return shards


def _gen_worker(
    index,
    config,
    unit_indices,
    shm_name,
    slot_size,
    slots,
    desc_queue,
    ack_queue,
    metrics_enabled=False,
) -> None:
    """Generate the assigned units, locally merged, into ring slots.

    The worker rebuilds the scenario from its config (deterministic:
    planning and model construction depend only on the seed), merges
    its units by timestamp (:func:`merge_units`) and ships packed
    records tagged with the global unit index the parent's k-way merge
    keys on.  Ends with a ``("done",
    snapshot)`` descriptor, or ``("error", traceback)`` on failure.
    """
    segment = None
    try:
        obs.set_enabled(metrics_enabled)
        obs.REGISTRY.reset()
        from repro.telescope.workload import Scenario

        segment = _attach_segment(shm_name)
        buf = segment.buf
        units = Scenario(config).record_units()
        free = collections.deque(range(slots))
        pack = _GEN_RECORD.pack
        buffer = bytearray()
        count = 0
        shipped = 0

        def flush() -> None:
            nonlocal buffer, count
            while True:
                try:
                    free.append(ack_queue.get_nowait())
                except queue_module.Empty:
                    break
            # parent acks every drained slot; daemonized workers die
            # with the parent, so an indefinite wait cannot leak
            slot = free.popleft() if free else ack_queue.get()
            base = slot * slot_size
            buf[base : base + len(buffer)] = buffer
            desc_queue.put((slot, count))
            buffer = bytearray()
            count = 0

        for record, unit in merge_units(units, unit_indices, tagged=True):
            plen = record[9]
            kind = record[5]
            ship = plen and kind == 1
            if len(record) == 11:
                x1 = x2 = 0
            else:
                x1 = record[11]
                x2 = record[12]
            buffer += pack(
                record[0],
                record[1],
                record[2],
                record[3],
                record[4],
                (kind | _PAYLOAD_FLAG) if ship else kind,
                record[6],
                record[7],
                record[8],
                plen,
                x1,
                x2,
                unit,
            )
            if ship:
                buffer += record[10]
            count += 1
            shipped += 1
            if count >= _BATCH or len(buffer) >= _FLUSH_WATERMARK:
                flush()
        if count:
            flush()
        if obs.enabled():
            M_SHARD_RECORDS.inc(shipped, worker=str(index))
            snapshot = obs.REGISTRY.snapshot()
        else:
            snapshot = None
        desc_queue.put(("done", snapshot))
    except BaseException:
        desc_queue.put(("error", traceback.format_exc()))
    finally:
        if segment is not None:
            try:
                segment.close()
            except (OSError, BufferError):  # pragma: no cover
                pass


def _get_with_liveness(q, process):
    """Blocking get that notices a dead worker instead of hanging."""
    while True:
        try:
            return q.get(timeout=5.0)
        except queue_module.Empty:
            if not process.is_alive():
                raise RuntimeError(
                    f"generation worker {process.name} died "
                    f"(exit {process.exitcode})"
                ) from None


def _worker_stream(
    index, buf, slot_size, desc_queue, ack_queue, process, snapshots
) -> Iterator[tuple]:
    """Yield ``(timestamp, unit, record)`` triples from one worker.

    Records are parsed straight out of the shared segment; each slot is
    acked back once fully drained.  The worker's terminal ``done``
    descriptor parks its metrics snapshot in ``snapshots``.
    """
    unpack_from = _GEN_RECORD.unpack_from
    record_size = _GEN_RECORD.size
    zeros: dict[int, bytes] = {}
    while True:
        descriptor = _get_with_liveness(desc_queue, process)
        head = descriptor[0]
        if head == "done":
            snapshots[index] = descriptor[1]
            return
        if head == "error":
            raise RuntimeError(
                f"generation worker {index} failed:\n{descriptor[1]}"
            )
        slot, count = descriptor
        offset = slot * slot_size
        for _ in range(count):
            fields = unpack_from(buf, offset)
            offset += record_size
            kind = fields[5]
            plen = fields[9]
            if kind & _PAYLOAD_FLAG:
                kind &= 0x7F
                payload = bytes(buf[offset : offset + plen])
                offset += plen
            else:
                payload = zeros.get(plen)
                if payload is None:
                    payload = zeros[plen] = b"\x00" * plen
            if kind == 1:
                record = fields[:5] + (kind, *fields[6:9], plen, payload)
            else:
                record = fields[:5] + (
                    kind,
                    *fields[6:9],
                    plen,
                    payload,
                    fields[10],
                    fields[11],
                )
            yield fields[0], fields[12], record
        ack_queue.put(slot)


def generate_records(scenario, workers: int) -> Iterator[tuple]:
    """The scenario's gen-record stream, produced by ``workers``
    processes and merged back into exact serial order.

    Yields raw (unfiltered) records — callers apply
    ``Telescope.capture_records`` on top, like
    :meth:`Scenario.records` does — in the identical sequence the
    serial merge produces, so downstream pcap bytes and pipeline
    results are bit-identical to a one-process run.
    """
    units = scenario.record_units()
    if not units:
        return
    workers = max(1, min(int(workers), len(units)))
    segments = []
    if workers > 1 and _shared_memory is not None:
        try:
            for _ in range(workers):
                segments.append(
                    _shared_memory.SharedMemory(
                        create=True, size=RING_SLOTS * SLOT_SIZE
                    )
                )
        except (OSError, ValueError):
            for segment in segments:
                segment.close()
                segment.unlink()
            segments = []
    if not segments:
        # one worker, or no usable shared memory: generate in-process
        yield from merge_units(units, range(len(units)))
        return
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )
    assignment = assign_units(scenario.unit_costs(), workers)
    desc_queues = [ctx.Queue(maxsize=RING_SLOTS + 2) for _ in range(workers)]
    ack_queues = [ctx.Queue() for _ in range(workers)]
    processes = [
        ctx.Process(
            target=_gen_worker,
            args=(
                index,
                scenario.config,
                assignment[index],
                segments[index].name,
                SLOT_SIZE,
                RING_SLOTS,
                desc_queues[index],
                ack_queues[index],
                obs.enabled(),
            ),
            name=f"quicsand-gen-{index}",
            daemon=True,
        )
        for index in range(workers)
    ]
    for process in processes:
        process.start()
    snapshots: list = [None] * workers
    try:
        streams = [
            _worker_stream(
                index,
                segments[index].buf,
                SLOT_SIZE,
                desc_queues[index],
                ack_queues[index],
                processes[index],
                snapshots,
            )
            for index in range(workers)
        ]
        # ties on (timestamp, unit) cannot occur across workers (a unit
        # lives on one worker), so this total order equals serial order
        for _ts, _unit, record in heapq.merge(
            *streams, key=lambda item: (item[0], item[1])
        ):
            yield record
        M_GEN_WORKERS.set(workers)
        for snapshot in snapshots:
            if snapshot is not None:
                obs.REGISTRY.merge_snapshot(snapshot)
    finally:
        for process in processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
        for segment in segments:
            try:
                segment.close()
            except (OSError, BufferError):  # pragma: no cover - double close
                pass
            try:
                segment.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
