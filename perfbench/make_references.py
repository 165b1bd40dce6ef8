"""Regenerate ``perfbench/references.json``: the pinned report digests.

Each benchmark run checks the report its workload prints against a
reference for its seed.  The references come from the *rich* code path
(``--no-gen-lane --no-fast-lane``: per-packet objects, the rich
dissector), which shares no generation or per-packet analysis code with
the fast paths the workloads time, so a match is evidence of a correct
report and not only of a repeatable one.

- ``report`` digests are the stdout of ``repro report --no-gen-lane
  --no-fast-lane``; the ``report``, ``analyze-pcap`` and
  ``report-workers2`` workloads must all print exactly these bytes.
- ``watch`` digests are the stdout of ``repro watch --no-fast-lane``.

Usage (from the repository root)::

    python3 perfbench/make_references.py

Regenerate only when a change is *meant* to alter a report, and say so
in the change.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCES = BENCH_DIR / "references.json"

#: the rich path each family's reference is rendered through
REFERENCE_COMMANDS = {
    "report": ["report", "--no-gen-lane", "--no-fast-lane"],
    "watch": ["watch", "--no-fast-lane"],
}
#: seeds 0-63, the CLI default and the held-out seed
SEEDS = (*range(64), 20210401, 20211102)
#: the benchmark's window; ``run.py`` uses references only at this length
HOURS = 24.0
#: reference renders run two at a time
JOBS = 2


def digest(family: str, seed: int) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "repro", *REFERENCE_COMMANDS[family]]
    argv += ["--hours", repr(HOURS), "--seed", str(seed)]
    done = subprocess.run(argv, capture_output=True, env=env, cwd=ROOT, check=True)
    return hashlib.sha256(done.stdout).hexdigest()


def main() -> int:
    jobs = [(family, seed) for seed in SEEDS for family in REFERENCE_COMMANDS]
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        digests = list(pool.map(lambda job: digest(*job), jobs))
    table = {
        "hours": HOURS,
        "commands": {
            family: " ".join(["repro", *argv])
            for family, argv in REFERENCE_COMMANDS.items()
        },
    }
    for (family, seed), value in zip(jobs, digests):
        table.setdefault(family, {})[str(seed)] = value
    REFERENCES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(jobs)} digests to {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
