"""Unit shards: ``report --workers N`` generates and analyzes in the workers.

A fast-lane :class:`Scenario` handed to ``QuicsandPipeline.process``
with ``workers > 1`` runs as unit shards (:mod:`repro.core.parallel`):
each worker takes a cost-balanced subset of the scenario's generation
units, generates, filters and analyzes them itself, and the parent only
merges the shipped states with the federation merge.  Pinned here:

- the longest-processing-time assignment is deterministic, balanced and
  really splits one victim's floods across workers, so the chain merge
  of session fragments is exercised, not passed vacuously;
- the merged result equals serial, in process and through the CLI;
- a worker that raises, is killed or vanishes fails the run loudly;
- metrics merge exactly once;
- on two or more cores the sharded run is not slower than serial.

Scenario-wide equivalence at workers 2–4 lives in
``tests/test_scenario_matrix.py``.
"""

import dataclasses
import io
import os
import signal
import time
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main
from repro.core import QuicsandPipeline
from repro.core.classify import PacketClass
from repro.core import parallel
from repro.core.parallel import unit_shard_state
from repro.core.pipeline import AnalysisConfig
from repro.core.report import build_report
from repro.federate.merge import merge_federated_states
from repro.telescope import Scenario, ScenarioConfig
from repro.telescope.attacks import QUIC
from repro.telescope.parallel import assign_units
from repro.telescope.presets import adversarial_scenario_names, scenario_config
from repro.util.timeutil import HOUR

SCENARIO_KW = dict(seed=11, duration=HOUR, research_sample=1 / 2048)
GOLDEN = Path(__file__).parent / "data" / "report_seed11_2h.txt"
CPUS = os.cpu_count() or 1

#: same identity-compared helper fields as tests/test_lane_equivalence.py
_IDENTITY_FIELDS = {"config", "timeout_sweep", "quic_detector", "common_detector"}


def scenario(**overrides):
    # a fresh Scenario per run: generation consumes its RNG streams
    return Scenario(ScenarioConfig(**{**SCENARIO_KW, **overrides}))


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


@pytest.fixture(scope="module")
def reference():
    s = scenario()
    return make_pipeline(s).process(s)


# -- assignment ----------------------------------------------------------------


def test_assignment_is_deterministic_and_complete():
    costs = scenario().unit_costs()
    for workers in (1, 2, 3, 4):
        shards = assign_units(costs, workers)
        assert shards == assign_units(scenario().unit_costs(), workers)
        assert sorted(u for shard in shards for u in shard) == list(range(len(costs)))
        assert all(shard == sorted(shard) for shard in shards)


def test_assignment_is_longest_processing_time_first():
    # LPT: 5 → A, 4 → B, 3 → B (4 < 5), 3 → A (5 < 7), 1 → B (7 < 8)
    assert assign_units([3.0, 5.0, 1.0, 4.0, 3.0], 2) == [[1, 4], [0, 2, 3]]
    # more workers than units: the spare shards stay empty
    assert assign_units([1.0, 2.0], 3) == [[1], [0], []]


def test_assignment_balances_the_estimated_cost():
    costs = scenario(duration=6 * HOUR).unit_costs()
    for workers in (2, 3, 4):
        loads = [sum(costs[u] for u in shard) for shard in assign_units(costs, workers)]
        # LPT is within the largest unit of the optimum
        assert max(loads) - min(loads) <= max(costs)


#: records emitted per expected event, by adversarial kind: one per
#: datagram, request or answer, a 16-chunk drip (plus its Initial) per
#: slowloris source, about 2.2 per victim response train
_RECORDS_PER_EVENT = {
    "optimistic-ack": 1.0,
    "h3-flood": 1.0,
    "vn-retry": 1.0,
    "h3-slowloris": 16.0,
    "pulse-wave": 2.2,
    "carpet-bomb": 2.2,
}


@pytest.mark.parametrize("name", adversarial_scenario_names())
def test_adversarial_unit_costs_follow_the_generated_work(name):
    """The event counts adversarial unit costs scale with track what
    the generator emits: burst sizes, per-victim rates and pulse
    schedules included."""
    s = Scenario(scenario_config(name))
    model = s.adversarial[0]
    start, end = s.config.start, s.config.end
    emitted = sum(1 for _ in model.records(start, end))
    expected = model.expected_events(start, end) * _RECORDS_PER_EVENT[model.spec.kind]
    assert 0.85 <= emitted / expected <= 1.15, (emitted, expected)


def test_one_victims_floods_split_across_workers_merge_exactly(reference):
    """Two QUIC floods on one victim land on different workers, both
    shards hold QUIC-response sessions of that victim, and the merged
    shard states still finalize to the serial result."""
    s = scenario()
    shards = assign_units(s.unit_costs(), 2)
    worker_of = {unit: index for index, shard in enumerate(shards) for unit in shard}
    # unit order: research sweeps, bots, TCP scans, then each flood
    first_flood = len(s.internet.research_scanners) + 2
    victims: dict = {}
    for offset, flood in enumerate(s.plan.all_floods):
        if flood.vector == QUIC:
            victims.setdefault(flood.victim_ip, set()).add(
                worker_of[first_flood + offset]
            )
    split = {victim for victim, workers in victims.items() if len(workers) > 1}
    assert split, "no victim's QUIC floods were split across workers"

    config = AnalysisConfig()
    states = [unit_shard_state(scenario(), shard, config) for shard in shards]
    responders = [
        {
            session.source
            for session in state.sessionizers[PacketClass.QUIC_RESPONSE].closed
        }
        for state in states
    ]
    assert split <= responders[0] & responders[1]

    merged = make_pipeline(s).finalize_state(merge_federated_states(states, config))
    assert_identical(reference, merged, s, "in-process unit shards")


# -- equivalence ---------------------------------------------------------------


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_unit_shards_equal_serial(reference, workers):
    s = scenario()
    sharded = make_pipeline(s, workers=workers).process(s)
    assert_identical(reference, sharded, s, f"unit shards workers={workers}")
    # the parent's telescope counters cover what the workers captured
    assert s.telescope.packets_seen == reference.total_packets


def test_cli_report_workers_matches_golden():
    stream = io.StringIO()
    argv = ["report", "--seed", "11", "--hours", "2", "--research-sample"]
    code = main([*argv, str(1 / 2048), "--workers", "2"], stream=stream)
    assert code == 0
    assert stream.getvalue() == GOLDEN.read_text() + "\n"


# -- worker failure ------------------------------------------------------------


def _failing_shard(monkeypatch, action):
    """Make shard 1 of a two-worker run die via ``action()``."""
    target = assign_units(scenario().unit_costs(), 2)[1]
    original = parallel.unit_shard_state

    def patched(s, unit_indices, config):
        if list(unit_indices) == target:
            action()
        return original(s, unit_indices, config)

    monkeypatch.setattr(parallel, "unit_shard_state", patched)


def _raise():
    raise ValueError("injected shard failure")


def _kill():
    os.kill(os.getpid(), signal.SIGKILL)


def _vanish():
    os._exit(0)


@pytest.mark.parametrize(
    "action, message",
    [
        (_raise, "shard worker 1 failed"),
        (_kill, "shard worker 1 died"),
        (_vanish, "shard worker 1 died"),
    ],
    ids=["raises", "killed", "exits-without-result"],
)
def test_worker_failure_is_loud(monkeypatch, action, message):
    _failing_shard(monkeypatch, action)
    s = scenario()
    start = time.monotonic()
    with pytest.raises(RuntimeError, match=message):
        make_pipeline(s, workers=2).process(s)
    assert time.monotonic() - start < 60.0


# -- metrics -------------------------------------------------------------------


@pytest.fixture
def metrics_on():
    """Enable the process-wide registry for one test, zeroed both ways."""
    was = obs.enabled()
    obs.REGISTRY.reset()
    obs.enable()
    yield obs.REGISTRY
    obs.REGISTRY.reset()
    obs.set_enabled(was)


def _cold_run(registry, workers):
    """One run from empty template caches and a zeroed registry.

    The caches are cleared before the reset, so the reset's collector
    pull already sees their zeroed tallies.
    """
    from repro.quic import crypto
    from repro.telescope import backscatter, scanners

    crypto._cached_keystream.cache_clear()
    for cache in (backscatter._RESPONSE_TEMPLATES, scanners._INITIAL_TEMPLATES):
        cache.hits = cache.misses = 0
        cache._cache.clear()
    backscatter._INITIAL_SEALERS.clear()
    backscatter._INITIAL_SEALER_STATS.update(hits=0, misses=0)
    registry.reset()
    s = scenario()
    return make_pipeline(s, workers=workers).process(s)


def _totals(registry):
    def labelled(name, label):
        metric = registry.get(name)
        return {labels[label]: value for labels, value in metric.samples()}

    registry.collect()  # pull the template-cache tallies, as an export does
    return {
        "captured": registry.get("repro_telescope_packets_total").value(),
        "dropped": registry.get("repro_telescope_dropped_total").value(),
        "genlane": registry.get("repro_genlane_records_total").value(),
        "packets": registry.get("repro_pipeline_packets_total").value(),
        "classified": labelled("repro_pipeline_classified_total", "klass"),
        "malformed": labelled("repro_malformed_packets_total", "reason"),
        "sessions": labelled("repro_pipeline_sessions_total", "klass"),
        "attacks": labelled("repro_pipeline_attacks_total", "vector"),
        # worker caches are pulled by collectors; the size gauge is not
        # compared: it holds the parent's own caches after the run
        "cache_hits": labelled("repro_template_cache_hits_total", "cache"),
        "cache_misses": labelled("repro_template_cache_misses_total", "cache"),
    }


def test_metrics_merge_exactly_once(metrics_on):
    serial_result = _cold_run(metrics_on, workers=1)
    serial = _totals(metrics_on)

    sharded_result = _cold_run(metrics_on, workers=2)
    sharded = _totals(metrics_on)

    assert sharded_result.total_packets == serial_result.total_packets
    assert serial["captured"] == serial["genlane"] == serial_result.total_packets
    assert serial["malformed"], "no malformed reasons to compare"
    # every cache did work, most of it inside the workers
    for cache in ("initial", "initial-sealer", "keystream", "response"):
        assert serial["cache_misses"][cache] > 0, cache
    assert sharded == serial

    shard = metrics_on.get("repro_parallel_shard_packets_total")
    per_worker = {labels["worker"]: value for labels, value in shard.samples()}
    assert set(per_worker) == {"0", "1"}
    assert sum(per_worker.values()) == serial_result.total_packets
    assert metrics_on.get("repro_parallel_workers").value() == 2


# -- throughput ----------------------------------------------------------------


@pytest.mark.skipif(CPUS < 2, reason="parallel speedup needs >= 2 cores")
def test_unit_shards_throughput_at_least_serial():
    """On multi-core machines the unit-sharded run must not be slower.

    Every timed run generates a seed no earlier run in this process
    generated, so its template caches start cold, as in a CLI run (the
    parallel run goes first: its workers leave the parent's caches
    cold for the serial run of the same seed).
    """

    def timed(workers, seed):
        s = scenario(seed=seed, duration=2 * HOUR, research_sample=1 / 256)
        pipeline = make_pipeline(s, workers=workers)
        start = time.perf_counter()
        pipeline.process(s)
        return time.perf_counter() - start

    timed(2, 1)  # imports and worker start-up paths
    timed(1, 1)
    serial = parallel_s = 0.0
    for seed in (4101, 4102, 4103):
        parallel_s += timed(min(4, CPUS), seed)
        serial += timed(1, seed)
    assert parallel_s <= serial * 1.1  # allow 10% jitter headroom
