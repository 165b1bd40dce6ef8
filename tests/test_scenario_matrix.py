"""The scenario equivalence matrix: every registered scenario, the
full four-way battery.

Auto-discovers :data:`repro.telescope.presets.SCENARIOS` — the four
IBR classes in isolation plus every adversarial workload — and pins,
for each one:

- fast lane == rich lane (``AnalysisConfig.fast_lane``);
- gen-lane synthesis == rich synthesis (fused
  ``process_record_batches`` feed, plus sharded ``records(workers=2)``
  against serial records);
- serial == workers 2–4 (shared-memory ring transport);
- serial == unit shards at workers 2–4 (``report --workers N``: each
  worker generates and analyzes its own generation units);
- batch == streaming-exact ``PipelineResult``s, bit for bit.

Any future scenario registered in the presets module gets this battery
for free; a scenario whose generators drift between their rich and
record twins, or whose record units mis-order under the parallel
merge, fails here before it ever reaches a golden report.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.core import QuicsandPipeline
from repro.core.pipeline import AnalysisConfig
from repro.core.report import build_report
from repro.telescope import Scenario
from repro.telescope.presets import SCENARIOS, get_scenario, scenario_names

#: result fields compared by identity-only helpers (no value equality);
#: everything they influence is covered by the compared fields and the
#: rendered report (mirrors tests/test_lane_equivalence.py).
_IDENTITY_FIELDS = {"config", "timeout_sweep", "quic_detector", "common_detector"}


def make_pipeline(scenario, **config_kw):
    return QuicsandPipeline(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
        config=AnalysisConfig(**config_kw),
    )


def run(scenario, packets, **config_kw):
    return make_pipeline(scenario, **config_kw).process(iter(packets))


def assert_identical(reference, other, scenario, label):
    for field in dataclasses.fields(reference):
        if field.name in _IDENTITY_FIELDS:
            continue
        assert getattr(reference, field.name) == getattr(
            other, field.name
        ), (label, field.name)
    assert reference.timeout_sweep.sweep(range(1, 61)) == other.timeout_sweep.sweep(
        range(1, 61)
    ), label
    weight = scenario.truth.research_weight
    assert build_report(reference, research_weight=weight) == build_report(
        other, research_weight=weight
    ), label


@pytest.fixture(scope="module", params=scenario_names())
def case(request):
    """One registered scenario: its capture and the fast-lane reference.

    Module-scoped per param, so the (expensive) generation and the
    reference analysis run once per scenario, not once per test.
    """
    name = request.param
    preset = get_scenario(name)
    config = preset.config()
    scenario = Scenario(config)
    packets = list(scenario.packets())
    reference = run(scenario, packets, fast_lane=True)
    return SimpleNamespace(
        name=name,
        preset=preset,
        config=config,
        scenario=scenario,
        packets=packets,
        reference=reference,
    )


def test_registry_covers_ibr_and_adversarial():
    """The matrix's discovery surface: all four pre-existing IBR classes
    and at least five adversarial scenarios are registered."""
    names = scenario_names()
    assert len(names) == len(set(names))
    ibr = [n for n in names if not SCENARIOS[n].adversarial]
    adversarial = [n for n in names if SCENARIOS[n].adversarial]
    assert len(ibr) >= 4
    assert len(adversarial) >= 5


def test_scenario_generates_traffic(case):
    """Every registered scenario actually reaches the telescope."""
    assert case.packets, f"{case.name} produced an empty capture"
    timestamps = [p.timestamp for p in case.packets]
    assert timestamps == sorted(timestamps), f"{case.name} capture unsorted"


def test_fast_lane_vs_rich_lane(case):
    rich = run(case.scenario, case.packets, fast_lane=False)
    assert_identical(case.reference, rich, case.scenario, f"{case.name}:rich")


def test_gen_lane_vs_rich_synthesis(case):
    """The generation fast lane reproduces the rich capture: the fused
    record-batch feed analyzes identically, and sharded generation
    yields the serial record stream bit for bit."""
    fused = make_pipeline(case.scenario).process_record_batches(
        Scenario(case.config).lane_batches()
    )
    assert_identical(case.reference, fused, case.scenario, f"{case.name}:fused")

    serial = list(Scenario(case.config).records())
    sharded = list(Scenario(case.config).records(workers=2))
    assert serial == sharded, f"{case.name}: gen-workers=2 diverged"


def test_serial_vs_workers(case):
    for workers in (2, 3, 4):
        parallel = run(
            case.scenario, case.packets, fast_lane=True, workers=workers
        )
        assert_identical(
            case.reference,
            parallel,
            case.scenario,
            f"{case.name}:workers={workers}",
        )


def test_serial_vs_unit_shards(case):
    for workers in (2, 3, 4):
        s = Scenario(case.config)
        sharded = make_pipeline(s, workers=workers).process(s)
        assert_identical(
            case.reference,
            sharded,
            case.scenario,
            f"{case.name}:unit-shards={workers}",
        )


def test_batch_vs_streaming_exact(case):
    from repro.stream import StreamAnalyzer
    from repro.util.batching import batched

    analyzer = StreamAnalyzer(
        registry=case.scenario.internet.registry,
        census=case.scenario.internet.census,
        greynoise=case.scenario.internet.greynoise,
        config=AnalysisConfig(fast_lane=True),
    )
    for _ in analyzer.events(batched(iter(case.packets), 512)):
        pass
    streamed = analyzer.result()
    assert_identical(
        case.reference, streamed, case.scenario, f"{case.name}:stream"
    )
