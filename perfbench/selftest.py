"""Smoke test of the benchmark itself, on a short window.

Runs every workload through ``run.py`` untraced and traced, for the CLI
default seed and the held-out seed, and checks that:

- the last line is the result object with exactly the contract's keys,
  ``correct`` is true and nothing failed;
- every end-to-end metric of ``BENCHMARK.json`` is in the result line
  with its unit, every end-to-end metric (gated or not) is in the row
  and positive (the batch latencies on ``watch`` only), and every
  per-layer metric is in the traced run;
- traced and untraced runs agree on report bytes and packet counts;
- ``report``, ``analyze-pcap`` and ``report-workers2`` print the same
  report bytes at the same seed;
- the per-layer self times plus ``other.s`` add up to the traced wall.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
from run import BATCH_UNITS, END_TO_END_UNITS, WORKLOADS  # noqa: E402
from tracer import SPAN_NAMES  # noqa: E402

#: the CLI default seed and the held-out seed
SEEDS = (20210401, 20211102)
#: a 1 h window keeps the whole self-test to about a minute
HOURS = 1.0
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
#: the traced counter that must equal the report's packet count
PACKET_COUNTERS = {
    "report": "capture.records",
    "analyze-pcap": "pcap.records",
    "report-workers2": "gen.rich.records",
    "watch": "gen.rich.records",
}


def bench(workload: str, seed: int, hours: float, trace: int) -> tuple:
    """Run ``run.py`` once; return its row and its result line."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    argv += ["--hours", repr(hours)]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise AssertionError(
            f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}"
        )
    row = next(json.loads(line[4:]) for line in lines if line.startswith("row "))
    return row, json.loads(lines[-1])


def check_metrics(metrics: dict, declared: dict, where: str, errors: list) -> None:
    """``metrics`` (name -> {value, unit}) must be exactly ``declared``
    (name -> unit)."""
    if sorted(metrics) != sorted(declared):
        extra = sorted(set(declared) ^ set(metrics))
        errors.append(f"{where}: metrics {extra} missing or extra")
    for name, unit in declared.items():
        printed = metrics.get(name, {}).get("unit")
        if printed != unit:
            errors.append(f"{where}: {name} unit {printed!r} != {unit!r}")


def check_workload(workload: str, seed: int, hours: float, declared, errors) -> str:
    """Check one workload untraced and traced; return its report digest."""
    plain_row, plain = bench(workload, seed, hours, 0)
    traced_row, traced = bench(workload, seed, hours, 1)
    where = f"seed {seed} {workload}"
    for row, result in ((plain_row, plain), (traced_row, traced)):
        label = f"{where} trace={row['trace']}"
        if set(result) != RESULT_KEYS:
            errors.append(f"{label}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            errors.append(f"{label}: {row['failures'] or result}")
    gated = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    check_metrics(plain["metrics"], gated, f"{where} result", errors)
    units = dict(END_TO_END_UNITS)
    if workload == "watch":
        units.update(BATCH_UNITS)
    printed = {
        name: {"value": value, "unit": units.get(name)}
        for name, value in plain_row["metrics"].items()
    }
    check_metrics(printed, units, f"{where} row", errors)
    errors.extend(
        f"{where}: {name} = {value['value']}"
        for name, value in printed.items()
        if not value["value"] > 0
    )
    layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
    check_metrics(traced["metrics"], layers, f"{where} traced", errors)
    if plain_row["report_sha256"] != traced_row["report_sha256"]:
        errors.append(f"{where}: traced and untraced reports differ")
    values = traced_row["layers"]
    counter = PACKET_COUNTERS[workload]
    if not plain_row["packets"] == traced_row["packets"] == values[counter]:
        errors.append(
            f"{where}: packets untraced {plain_row['packets']}, traced "
            f"{traced_row['packets']}, {counter} {values[counter]}"
        )
    covered = sum(values[f"{name}.s"] for name in SPAN_NAMES) + values["other.s"]
    wall = values["trace.wall_s"]
    if abs(covered - wall) > 1e-6 * wall:
        errors.append(f"{where}: self times + other.s = {covered} != wall {wall}")
    digest = plain_row["report_sha256"]
    print(f"checked {where}: {plain_row['packets']:,} packets, report {digest[:12]}")
    return digest


def check_seed(seed: int, hours: float, declared: dict, errors: list) -> None:
    digests = {
        workload: check_workload(workload, seed, hours, declared, errors)
        for workload in WORKLOADS
    }
    shared = {w: d for w, d in digests.items() if WORKLOADS[w]["family"] == "report"}
    if len(set(shared.values())) != 1:
        errors.append(f"seed {seed}: report bytes differ across workloads {shared}")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors: list = []
    for seed in SEEDS:
        check_seed(seed, HOURS, declared, errors)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
