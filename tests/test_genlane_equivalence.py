"""Gen-lane equivalence: the generation fast lane is invisible too.

The acceptance contract of the columnar generation lane
(:mod:`repro.telescope.genlane` + :mod:`repro.telescope.parallel`),
mirroring ``tests/test_lane_equivalence.py`` for the analysis lane:

- the wire bytes stamped from mutable templates
  (``write_records(wire_items(scenario.records()))``) produce a pcap
  byte-identical to the rich per-packet object path
  (``capture_to_pcap(scenario.packets())``);
- sharded parallel generation (``records(workers=1..4)``, worker
  processes merged by timestamp) is bit-identical to serial;
- the fused generate→analyze path
  (``process_record_batches(scenario.lane_batches())``) produces a
  :class:`PipelineResult` identical to dissecting the rich packet
  stream, serially and as unit shards (``process(scenario)`` with
  ``workers=2``: each worker generates and analyzes its own units).
"""

import dataclasses

import pytest

from repro.core import QuicsandPipeline
from repro.core.pipeline import AnalysisConfig
from repro.core.report import build_report
from repro.net.pcap import write_records
from repro.telescope import Scenario, ScenarioConfig
from repro.telescope.genlane import wire_items
from repro.util.timeutil import HOUR

SCENARIO_KW = dict(seed=11, duration=HOUR, research_sample=1 / 2048)

#: same identity-compared helper fields as tests/test_lane_equivalence.py
_IDENTITY_FIELDS = {"config", "timeout_sweep", "quic_detector", "common_detector"}


def scenario():
    # a fresh Scenario per call: generation consumes its RNG streams
    return Scenario(ScenarioConfig(**SCENARIO_KW))


@pytest.fixture(scope="module")
def rich_pcap_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("genlane") / "rich.pcap"
    s = scenario()
    count = s.telescope.capture_to_pcap(s.packets(), path)
    assert count > 0
    return path.read_bytes()


def make_pipeline(s, **config_kw):
    return QuicsandPipeline(
        registry=s.internet.registry,
        census=s.internet.census,
        greynoise=s.internet.greynoise,
        config=AnalysisConfig(**config_kw),
    )


def assert_identical(reference, other, s, label):
    for field in dataclasses.fields(reference):
        if field.name in _IDENTITY_FIELDS:
            continue
        assert getattr(reference, field.name) == getattr(
            other, field.name
        ), (label, field.name)
    assert reference.timeout_sweep.sweep(range(1, 61)) == other.timeout_sweep.sweep(
        range(1, 61)
    ), label
    weight = s.truth.research_weight
    assert build_report(reference, research_weight=weight) == build_report(
        other, research_weight=weight
    ), label


def test_gen_lane_pcap_bytes_identical_to_rich(tmp_path, rich_pcap_bytes):
    """Serial fast generation writes the exact pcap the object path does."""
    path = tmp_path / "fast.pcap"
    s = scenario()
    write_records(path, wire_items(s.records()))
    assert path.read_bytes() == rich_pcap_bytes


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_parallel_generation_bit_identical(tmp_path, rich_pcap_bytes, workers):
    """Sharded worker generation merges back to the exact serial bytes."""
    path = tmp_path / f"workers{workers}.pcap"
    s = scenario()
    write_records(path, wire_items(s.records(workers=workers)))
    assert path.read_bytes() == rich_pcap_bytes


def test_parallel_record_stream_identical():
    """Not just the bytes: the flat gen records themselves match, so
    the fused analyze path sees an identical stream from any shard
    count."""
    serial = list(scenario().records())
    assert serial
    parallel = list(scenario().records(workers=2))
    assert parallel == serial


def test_fused_record_path_matches_rich_pipeline():
    """generate→analyze without packets or wire bytes: lane_batches into
    process_record_batches equals the full dissection pipeline."""
    s_rich = scenario()
    reference = make_pipeline(s_rich, fast_lane=True).process(s_rich.packets())

    s_fused = scenario()
    pipeline = make_pipeline(s_fused, fast_lane=True)
    fused = pipeline.process_record_batches(
        s_fused.lane_batches(pipeline.config.batch_size)
    )
    assert_identical(reference, fused, s_rich, "fused")

    s_workers = scenario()
    fused_workers = make_pipeline(s_workers, fast_lane=True, workers=2).process(
        s_workers
    )
    assert_identical(reference, fused_workers, s_rich, "fused-workers=2")
