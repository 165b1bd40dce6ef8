"""Span tracer for the benchmark's traced run.

The traced run records a span (name, start, end, parent) around the
calls the ``repro`` CLI makes into each layer's public functions.  The
spans are installed from here, by wrapping those functions in the
child process, so ``src/`` carries no tracing of its own.  Spans are
kept in memory and written out as JSON when the run ends.

Iterators are the tricky layer boundary: generation, capture and pcap
reading are lazy, so their work happens whenever the consumer pulls.
:meth:`Tracer.iterate` pulls a chunk of items inside one span and then
hands them out, so the cost is timed per chunk, never per packet, and
spans nest strictly (a span never stays open across a ``yield``).

A span's *self time* is its duration minus the time its child spans
cover.  Because spans nest strictly, the self times of all spans add
up to the time the top-level spans cover; ``other`` is the rest of the
traced wall.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import resource
import time
from collections import Counter
from itertools import islice
from typing import Optional

#: every span name the traced run can record, in report order; each
#: yields ``<name>.s`` (self seconds) and ``<name>.share`` (of traced wall)
SPAN_NAMES = (
    "setup.imports",
    "setup.scenario",
    "setup.analysis",
    "gen.research",
    "gen.bots",
    "gen.tcp_scans",
    "gen.floods",
    "gen.misconfig",
    "gen.stray",
    "gen.merge",
    "capture",
    "genlane.lane_records",
    "gen.rich",
    "pcap.read",
    "pipeline",
    "lane.consume_records",
    "lane.consume",
    "parallel",
    "finalize",
    "finalize.identify_research",
    "finalize.collect_sessions",
    "finalize.detect_attacks",
    "finalize.correlate",
    "render",
    "stream.process_batch",
    "stream.finish",
)

#: generation span kinds with a ``.records`` counter
GEN_KINDS = ("research", "bots", "tcp_scans", "floods", "misconfig", "stray", "rich")

#: per-layer metrics that are not span times: name -> unit
COUNT_METRICS = {
    "gen.research.records": "count",
    "gen.bots.records": "count",
    "gen.tcp_scans.records": "count",
    "gen.floods.records": "count",
    "gen.misconfig.records": "count",
    "gen.stray.records": "count",
    "gen.rich.records": "count",
    "capture.records": "count",
    "capture.dropped": "count",
    "pcap.records": "count",
    "pcap.bytes": "B",
    "lane.fast_parses": "count",
    "lane.fallbacks": "count",
    "cache.initial.hit_rate": "ratio",
    "cache.initial-sealer.hit_rate": "ratio",
    "cache.keystream.hit_rate": "ratio",
    "cache.response.hit_rate": "ratio",
    "cache.dissect.hit_rate": "ratio",
    "parallel.parent_cpu_s": "s",
    "parallel.worker_cpu_s": "s",
    "parallel.busy_share": "ratio",
    "stream.batches": "count",
    "stream.alerts": "count",
    "stream.evicted_sessions": "count",
    "stream.peak_live_sources": "count",
    "gc.pause_s": "s",
    "gc.pause_s.share": "ratio",
    "gc.collections": "count",
    "other.s": "s",
    "other.share": "ratio",
    "trace.wall_s": "s",
    "trace.spans": "count",
    "trace.overhead": "ratio",
}


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.s"] = "s"
        units[f"{name}.share"] = "ratio"
    units.update(COUNT_METRICS)
    return units


#: ``repro_pipeline_stage_seconds`` stages traced as finalize spans
_FINALIZE_STAGES = {
    "finalize": "finalize",
    "identify-research": "finalize.identify_research",
    "collect-sessions": "finalize.collect_sessions",
    "detect-attacks": "finalize.detect_attacks",
    "correlate": "finalize.correlate",
}

#: generation units of ``Scenario.record_units()``, by model method
_UNIT_METHODS = (
    ("repro.telescope.scanners", "ResearchScannerModel", "records", "gen.research"),
    ("repro.telescope.scanners", "BotScannerModel", "records", "gen.bots"),
    ("repro.telescope.scanners", "TcpScannerModel", "records", "gen.tcp_scans"),
    ("repro.telescope.attacks", "AttackTrafficModel", "flood_records", "gen.floods"),
    ("repro.telescope.noise", "MisconfigurationModel", "records", "gen.misconfig"),
    ("repro.telescope.noise", "StrayUdpModel", "records", "gen.stray"),
)

#: items pulled per span by :meth:`Tracer.iterate`
CHUNK = 512


def wrap(owner, attr: str, make) -> bool:
    """Replace ``owner.attr`` by ``make(original)``; False if it is missing."""
    original = getattr(owner, attr, None)
    if original is None:
        return False
    setattr(owner, attr, functools.wraps(original)(make(original)))
    return True


class Tracer:
    """In-memory span recorder with strictly nested spans."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index]`` per span
        self.spans: list = []
        self._stack: list = []
        self.counts: Counter = Counter()
        self.gc_pause = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0
        #: wrap targets that no longer exist (their metrics read 0)
        self.missing: list = []
        self.scenarios: list = []
        self.lanes: list = []
        self.analyzers: list = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str, start: Optional[float] = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if start is None:
            start = time.perf_counter()
        self.spans.append([name, start, 0.0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str, inner):
        """Run the context manager ``inner`` inside a ``name`` span."""
        index = self.begin(name)
        try:
            with inner:
                yield
        finally:
            self.end(index)

    def iterate(self, name: str, iterable, chunk: int = CHUNK):
        """Yield ``iterable``'s items, pulling ``chunk`` at a time in a span."""
        iterator = iter(iterable)
        key = f"{name}.records"
        while True:
            index = self.begin(name)
            try:
                items = list(islice(iterator, chunk))
            finally:
                self.end(index)
            if not items:
                return
            self.counts[key] += len(items)
            yield from items

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    # -- installation ----------------------------------------------------

    def _wrap(self, owner, attr: str, make):
        if not wrap(owner, attr, make):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")

    def wrap_call(self, owner, attr: str, name: str, keep: Optional[list] = None):
        """Time every call of ``owner.attr`` as a ``name`` span.

        With ``keep``, the call's first argument (the instance, for a
        constructor) is appended to it so counters can be read later.
        """

        def make(original):
            def wrapper(*args, **kwargs):
                index = self.begin(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.end(index)
                    if keep is not None:
                        keep.append(args[0])

            return wrapper

        self._wrap(owner, attr, make)

    def wrap_iter(self, owner, attr: str, name: str) -> None:
        """Trace iteration of the iterator ``owner.attr(...)`` returns."""

        def make(original):
            def wrapper(*args, **kwargs):
                return self.iterate(name, original(*args, **kwargs))

            return wrapper

        self._wrap(owner, attr, make)

    def install(self) -> None:
        """Wrap the layer entry points the CLI workloads call."""
        import importlib

        from repro import cli, obs
        from repro.core import parallel
        from repro.core.batchlane import BatchLane
        from repro.core.pipeline import PartialState, QuicsandPipeline
        from repro.net.pcap import PcapReader
        from repro.stream.analyzer import StreamAnalyzer
        from repro.telescope import telescope, workload

        self.wrap_call(workload.Scenario, "__init__", "setup.scenario", self.scenarios)
        self.wrap_call(QuicsandPipeline, "__init__", "setup.analysis")
        self.wrap_call(StreamAnalyzer, "__init__", "setup.analysis", self.analyzers)
        for module, cls, attr, name in _UNIT_METHODS:
            self.wrap_iter(getattr(importlib.import_module(module), cls), attr, name)
        self.wrap_iter(workload, "lane_records", "genlane.lane_records")
        self.wrap_iter(workload.Scenario, "packets", "gen.rich")
        self.wrap_iter(PcapReader, "__iter__", "pcap.read")

        def capture_records(original):
            # the merged unit stream is capture's input: trace both
            def wrapper(telescope_, stream):
                merged = self.iterate("gen.merge", stream)
                return self.iterate("capture", original(telescope_, merged))

            return wrapper

        self._wrap(telescope.Telescope, "capture_records", capture_records)
        self.wrap_call(QuicsandPipeline, "process", "pipeline")
        self.wrap_call(QuicsandPipeline, "process_record_batches", "pipeline")
        self.wrap_call(PartialState, "consume_lane_records", "lane.consume_records")
        self.wrap_call(PartialState, "consume_lane", "lane.consume")
        self._wrap(BatchLane, "__init__", self._keep_lane)
        self._wrap(parallel, "run_sharded", self._parallel)
        self._wrap(obs, "span", self._stage_span)
        self.wrap_call(cli, "build_report", "render")
        self.wrap_call(StreamAnalyzer, "stream_report", "render")
        self.wrap_call(StreamAnalyzer, "process_batch", "stream.process_batch")
        self.wrap_call(StreamAnalyzer, "finish", "stream.finish")
        gc.callbacks.append(self._on_gc)

    def _keep_lane(self, original):
        def wrapper(lane, *args, **kwargs):
            original(lane, *args, **kwargs)
            self.lanes.append(lane)

        return wrapper

    def _stage_span(self, original):
        def wrapper(histogram, **labels):
            inner = original(histogram, **labels)
            name = None
            if getattr(histogram, "name", None) == "repro_pipeline_stage_seconds":
                name = _FINALIZE_STAGES.get(labels.get("stage"))
            return inner if name is None else self.span(name, inner)

        return wrapper

    def _parallel(self, original):
        def wrapper(*args, **kwargs):
            workers = kwargs.get("workers", args[2] if len(args) > 2 else 1)
            cpu = time.process_time()
            children = resource.getrusage(resource.RUSAGE_CHILDREN)
            index = self.begin("parallel")
            try:
                return original(*args, **kwargs)
            finally:
                self.end(index)
                start, end = self.spans[index][1:3]
                after = resource.getrusage(resource.RUSAGE_CHILDREN)
                parent_cpu = time.process_time() - cpu
                worker_cpu = (after.ru_utime + after.ru_stime) - (
                    children.ru_utime + children.ru_stime
                )
                self.counts["parallel.parent_cpu_s"] += parent_cpu
                self.counts["parallel.worker_cpu_s"] += worker_cpu
                self.counts["parallel.capacity_s"] += (end - start) * (int(workers) + 1)

        return wrapper

    # -- results ---------------------------------------------------------

    def self_times(self) -> tuple:
        """(self seconds per span name, seconds covered by top-level spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Counter = Counter()
        covered = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
            if parent < 0:
                covered += end - start
        return totals, covered

    def metrics(self, wall: float) -> dict:
        """Every per-layer metric except ``trace.overhead`` and ``pcap.bytes``."""
        from repro import obs

        totals, covered = self.self_times()
        values = {}
        for name in SPAN_NAMES:
            values[f"{name}.s"] = totals.get(name, 0.0)
            values[f"{name}.share"] = totals.get(name, 0.0) / wall
        counts = self.counts
        for kind in GEN_KINDS:
            values[f"gen.{kind}.records"] = counts[f"gen.{kind}.records"]
        values["capture.records"] = counts["capture.records"]
        values["capture.dropped"] = sum(
            scenario.telescope.packets_dropped for scenario in self.scenarios
        )
        values["pcap.records"] = counts["pcap.read.records"]
        values["lane.fast_parses"] = sum(lane.fast_parses for lane in self.lanes)
        values["lane.fallbacks"] = sum(
            sum(lane.fallbacks.values()) for lane in self.lanes
        )
        values["cache.dissect.hit_rate"] = _rate(
            sum(lane.cache_hits for lane in self.lanes),
            sum(lane.cache_misses for lane in self.lanes),
        )
        # the template caches keep their own tallies; the registry's
        # collectors publish them once metrics are enabled
        obs.enable()
        obs.REGISTRY.collect()
        hits = obs.REGISTRY.get("repro_template_cache_hits_total")
        misses = obs.REGISTRY.get("repro_template_cache_misses_total")
        for cache in ("initial", "initial-sealer", "keystream", "response"):
            values[f"cache.{cache}.hit_rate"] = _rate(
                hits.value(cache=cache) if hits else 0,
                misses.value(cache=cache) if misses else 0,
            )
        values["parallel.parent_cpu_s"] = counts["parallel.parent_cpu_s"]
        values["parallel.worker_cpu_s"] = counts["parallel.worker_cpu_s"]
        busy = counts["parallel.parent_cpu_s"] + counts["parallel.worker_cpu_s"]
        capacity = counts["parallel.capacity_s"]
        values["parallel.busy_share"] = busy / capacity if capacity else 0.0
        telemetry = [analyzer.telemetry for analyzer in self.analyzers]
        values["stream.batches"] = sum(t.batches for t in telemetry)
        values["stream.alerts"] = sum(t.alerts for t in telemetry)
        values["stream.evicted_sessions"] = sum(t.evicted_sessions for t in telemetry)
        values["stream.peak_live_sources"] = max(
            (t.peak_live_sources for t in telemetry), default=0
        )
        values["gc.pause_s"] = self.gc_pause
        values["gc.pause_s.share"] = self.gc_pause / wall
        values["gc.collections"] = self.gc_collections
        values["other.s"] = wall - covered
        values["other.share"] = (wall - covered) / wall
        values["trace.wall_s"] = wall
        values["trace.spans"] = len(self.spans)
        return values

    def dump(self, path, origin: float) -> None:
        """Write the spans as JSON, times in seconds since ``origin``."""
        rows = [
            {"name": name, "start": start - origin, "end": end - origin, "parent": up}
            for name, start, end, up in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"spans": rows, "missing": self.missing}, handle)


def _rate(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0
