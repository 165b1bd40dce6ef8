"""Run one ``repro`` CLI command in this process, for ``run.py``.

``run.py`` starts this script once per repetition with a JSON spec as
its only argument::

    {"mode": "timed" | "setup" | "traced", "root": checkout root,
     "argv": CLI arguments, "cpus": CPUs for forked workers,
     "t_spawn": perf_counter() just before the parent started us,
     "report": report path, "out": result path, "trace": span dump path}

It imports the ``repro`` CLI from ``<root>/src`` and calls
``repro.cli.main(argv)`` with an in-memory output stream, then writes
the captured report and a small JSON result.  The clock is the
system-wide monotonic clock, so the parent can subtract its own
``t_spawn`` from the marks taken here.

- ``setup`` stops at the first call into generation or analysis and
  records only that mark (the set-up time).
- ``timed`` also records the set-up mark, and on ``watch`` the latency
  of each ``StreamAnalyzer.process_batch`` call.  Nothing is timed per
  packet.
- ``traced`` installs :class:`tracer.Tracer` spans instead.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time

from tracer import Tracer, wrap


def install_setup_mark(marks: dict, on_first=None) -> None:
    """Stamp ``marks['first']`` at the first call into generation or analysis."""
    from repro.core.pipeline import QuicsandPipeline
    from repro.stream.analyzer import StreamAnalyzer
    from repro.telescope.workload import Scenario

    def make(original):
        def wrapper(*args, **kwargs):
            if "first" not in marks:
                marks["first"] = time.perf_counter()
                if on_first is not None:
                    on_first()
            return original(*args, **kwargs)

        return wrapper

    entry_points = (
        (
            Scenario,
            ("records", "packets", "lane_batches", "live_batches", "packet_batches"),
        ),
        (QuicsandPipeline, ("process", "process_record_batches")),
        (StreamAnalyzer, ("process_batch",)),
    )
    for owner, names in entry_points:
        for name in names:
            wrap(owner, name, make)


def install_batch_timer(samples: list) -> None:
    """Time each ``StreamAnalyzer.process_batch`` call (``watch`` only)."""
    from repro.stream.analyzer import StreamAnalyzer

    def make(original):
        def process_batch(analyzer, batch):
            start = time.perf_counter()
            try:
                return original(analyzer, batch)
            finally:
                samples.append(time.perf_counter() - start)

        return process_batch

    wrap(StreamAnalyzer, "process_batch", make)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle)


def main() -> int:
    spec = json.loads(sys.argv[1])
    mode = spec["mode"]
    # run.py pins this process to one CPU; pool workers get them all back
    cpus = spec["cpus"]
    os.register_at_fork(after_in_child=lambda: os.sched_setaffinity(0, cpus))
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        imports = tracer.begin("setup.imports", start=spec["t_spawn"])
    import repro
    import repro.cli

    marks: dict = {}
    samples: list = []
    if mode == "setup":

        def stop_here() -> None:
            _write_json(spec["out"], {"first": marks["first"]})
            sys.stdout.flush()
            os._exit(0)

        install_setup_mark(marks, stop_here)
    else:
        install_setup_mark(marks)
    if mode == "timed":
        install_batch_timer(samples)
    if tracer is not None:
        tracer.install()
        tracer.end(imports)
    stream = io.StringIO()
    code = repro.cli.main(spec["argv"], stream=stream)
    with open(spec["report"], "w") as handle:
        handle.write(stream.getvalue())
    end = time.perf_counter()
    result = {
        "exit": code,
        "first": marks.get("first"),
        "end": end,
        "batch_s": samples,
        "version": getattr(repro, "__version__", "unknown"),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(end - spec["t_spawn"])
        result["missing"] = tracer.missing
        tracer.dump(spec["trace"], spec["t_spawn"])
    _write_json(spec["out"], result)
    return code


if __name__ == "__main__":
    sys.exit(main())
