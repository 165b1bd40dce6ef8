"""The repository benchmark: real ``repro`` CLI runs, end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload report --seed 20210401 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each workload runs one ``repro`` CLI command over a 24 h window at the
CLI-default scenario as a closed loop of one: a repetition starts when
the previous one has finished, until ``--seconds`` have passed (at
least two repetitions).  Every repetition is a fresh process (see
``child.py``), so set-up, peak RSS and CPU are per run.  See
``perfbench/README.md`` for why each workload exists and what each
metric should move.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run makes one untraced and
one traced repetition and reports the per-layer metrics instead.  Every
report is checked against the pinned reference for its seed
(``references.json``), and a traced report must equal the untraced one.
Inputs come only from ``--seed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
REFERENCES = BENCH_DIR / "references.json"

sys.path.insert(0, str(BENCH_DIR))
from tracer import SPAN_NAMES, per_layer_units  # noqa: E402

DEFAULT_SEED = 20210401  # the repro CLI's default --seed
DEFAULT_HOURS = 24.0
#: the paper's month of UCSD /9 traffic, for the extrapolated wall-clock
PAPER_MONTH_PACKETS = 92e6
#: set-up-only probes per run (after one uncounted warm-up probe)
SETUP_PROBES = 6
#: timed repetitions per run at least, however long they take, so that
#: ``pps_adj`` can drop one the host slowed down
MIN_REPETITIONS = 2
#: pure-Python loop iterations of one host-speed sample (see loop_ms)
LOOP_ITERATIONS = 20_000
#: CPU milliseconds of one sample on a quiet host: the 2-vCPU Xeon VM
#: the benchmark was built on, when neither vCPU was slowed down
REFERENCE_LOOP_MS = 1.25
#: the workloads slow down more than the loop does, by about this power
#: of its slowdown (least-squares fits over 51 repetitions of ``report``
#: and 62 of ``watch`` on that VM gave 1.21 and 1.25)
SLOWDOWN_EXPONENT = 1.25
#: seconds between host-speed samples while a child runs
SAMPLE_EVERY_S = 0.1
#: every run must end well inside 180 s
RUN_DEADLINE_S = 170.0

#: name -> CLI arguments (``{capture}`` is the set-up pcap) and the
#: reference family of its report
WORKLOADS = {
    "report": {"argv": ["report"], "family": "report"},
    "analyze-pcap": {
        "argv": ["analyze", "{capture}"],
        "family": "report",
        "capture": True,
    },
    "report-workers2": {"argv": ["report", "--workers", "2"], "family": "report"},
    "watch": {"argv": ["watch"], "family": "watch"},
}

#: every end-to-end metric a row prints, with its unit
END_TO_END_UNITS = {
    "wall_s": "s",
    "pps": "1/s",
    "pps_adj": "1/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "setup_raw_s": "s",
}
#: printed on ``watch`` only, the one workload that runs a StreamAnalyzer
BATCH_UNITS = {"batch_ms_p50": "ms", "batch_ms_p99": "ms"}
#: the subset in the result line, i.e. gated by the bounds in
#: BENCHMARK.json.  The host's speed drifts by up to 1.7x over seconds
#: to minutes, so raw times spread more than any bound allowed; the
#: gated times are scaled to the reference host speed (``pps_adj``,
#: ``setup_s``), and ``pps_adj`` divides by the packet count, which
#: removes the seed-to-seed spread in input size (not in packet mix).
GATED = ("pps_adj", "peak_rss_mib", "setup_s")

_PACKETS = re.compile(r"^(?:packets captured|packets processed)\s+([\d,]+)", re.M)
_WROTE = re.compile(r"wrote ([\d,]+) packets")


class BenchError(RuntimeError):
    """The benchmark itself cannot run (not a failed repetition)."""


# -- processes ---------------------------------------------------------------


def loop_ms() -> float:
    """CPU milliseconds of a fixed pure-Python loop: the host's speed now.

    The benchmark's CPU (see :func:`main`) slows down by up to 1.7x for
    seconds to minutes at a time when the host is shared; the load
    average of a virtual machine does not show it, this loop does.
    Thread CPU time is used, so a child sharing the CPU does not count.
    """
    start = time.thread_time()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return (time.thread_time() - start) * 1000.0


def _wait(proc: subprocess.Popen, timeout: float, speed=None):
    """Wait for ``proc`` (killing it after ``timeout``); return its rusage.

    With a ``speed`` list, a host-speed sample is appended to it every
    ``SAMPLE_EVERY_S`` while ``proc`` runs.
    """
    deadline = time.perf_counter() + max(timeout, 1.0)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
            if speed is not None:
                speed.append(loop_ms())
            time.sleep(SAMPLE_EVERY_S)
    except BaseException:
        proc.kill()
        os.waitpid(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


class Child:
    """One ``child.py`` process and what it left behind."""

    def __init__(self, root: Path, workdir: Path, tag: str, mode: str, argv):
        self.tag = tag
        self.report_path = workdir / f"{tag}.txt"
        self.trace_path = workdir / f"{tag}.trace.json"
        out_path = workdir / f"{tag}.json"
        spec = {
            "mode": mode,
            "root": str(root),
            "argv": argv,
            "cpus": ALL_CPUS,
            "report": str(self.report_path),
            "out": str(out_path),
            "trace": str(self.trace_path),
        }
        speed = [loop_ms()]
        with open(workdir / f"{tag}.log", "wb") as log:
            spec["t_spawn"] = self.t_spawn = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), json.dumps(spec)],
                stdout=log,
                stderr=subprocess.STDOUT,
                cwd=root,
            )
            self.usage = _wait(proc, deadline_left(), speed)
        #: the host's mean loop time while this child ran
        self.loop_ms = statistics.fmean(speed)
        self.code = proc.returncode
        self.result = json.loads(out_path.read_text()) if out_path.exists() else {}
        self.log = (workdir / f"{tag}.log").read_text(errors="replace")

    @property
    def ok(self) -> bool:
        return self.code == 0 and self.result.get("exit") == 0

    @property
    def host_scale(self) -> float:
        """Factor that turns this child's times into reference-host times."""
        return (REFERENCE_LOOP_MS / self.loop_ms) ** SLOWDOWN_EXPONENT

    @property
    def setup_s(self):
        first = self.result.get("first")
        return None if first is None else first - self.t_spawn

    @property
    def wall_s(self) -> float:
        return self.result["end"] - self.t_spawn

    @property
    def wall_adj_s(self) -> float:
        return self.wall_s * self.host_scale

    @property
    def cpu_s(self) -> float:
        return self.usage.ru_utime + self.usage.ru_stime

    @property
    def peak_rss_mib(self) -> float:
        return self.usage.ru_maxrss / 1024.0  # KiB on Linux

    def report(self) -> bytes:
        return self.report_path.read_bytes() if self.report_path.exists() else b""


_DEADLINE = [float("inf")]
#: every CPU the benchmark may use; children run pinned to the first
#: (see main) and hand the rest back to their worker processes
ALL_CPUS = sorted(os.sched_getaffinity(0))


def deadline_left() -> float:
    left = _DEADLINE[0] - time.perf_counter()
    if left <= 0:
        raise BenchError("run deadline exceeded")
    return left


def simulate_capture(root: Path, workdir: Path, seed: int, hours: float):
    """Write the ``analyze-pcap`` capture; return (path, packets written)."""
    capture = workdir / "capture.pcap"
    argv = [sys.executable, "-m", "repro", "simulate", "--out", str(capture)]
    argv += ["--hours", repr(hours), "--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with open(workdir / "simulate.log", "wb") as log:
        proc = subprocess.Popen(
            argv, stdout=log, stderr=subprocess.STDOUT, cwd=root, env=env
        )
        _wait(proc, deadline_left())
    text = (workdir / "simulate.log").read_text(errors="replace")
    match = _WROTE.search(text)
    if proc.returncode != 0 or match is None:
        raise BenchError(f"repro simulate failed:\n{text}")
    return capture, int(match.group(1).replace(",", ""))


# -- environment -------------------------------------------------------------


def src_digest(root: Path) -> str:
    """SHA-256 over ``src/`` (path and bytes of every .py file)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "none"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() or "none"


def environment(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "repro_version": None,  # filled in from the first repetition
        "commit": git_commit(root),
        "src_sha256": src_digest(root)[:16],
        "loadavg_1m": os.getloadavg()[0],
        "host_loop_ms": statistics.median(loop_ms() for _ in range(25)),
    }


# -- one workload --------------------------------------------------------------


def reference_for(family: str, seed: int, hours: float):
    """The pinned report digest for this seed and window, or None."""
    table = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    if table.get("hours") != hours:
        return None
    return table.get(family, {}).get(str(seed))


def packets_in(report: bytes):
    match = _PACKETS.search(report.decode(errors="replace"))
    return int(match.group(1).replace(",", "")) if match else None


def percentile(samples: list, q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def run_workload(root: Path, name: str, args, env: dict) -> dict:
    """Run one workload per ``args`` (seed, seconds, trace, hours); its row."""
    workdir = root / ".perfbench" / f"run-{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run_workload(root, workdir, name, args, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(root: Path, workdir: Path, name: str, args, env: dict) -> dict:
    spec = WORKLOADS[name]
    seed, seconds, hours, trace = args.seed, args.seconds, args.hours, bool(args.trace)
    written = capture = None
    if spec.get("capture"):
        capture, written = simulate_capture(root, workdir, seed, hours)
    argv = [a.format(capture=capture) for a in spec["argv"]]
    argv += ["--hours", repr(hours), "--seed", str(seed)]

    def child(tag, mode):
        return Child(root, workdir, tag, mode, argv)

    probes = []
    for index in range(SETUP_PROBES + 1):
        probe = child(f"setup{index}", "setup")
        if probe.code != 0 or probe.setup_s is None:
            raise BenchError(f"set-up probe failed:\n{probe.log}")
        if index:  # the first probe warms caches and bytecode
            probes.append(probe)

    reps = []
    started = time.perf_counter()
    while True:
        reps.append(child(f"rep{len(reps)}", "timed"))
        if trace or (
            len(reps) >= MIN_REPETITIONS and time.perf_counter() - started >= seconds
        ):
            break
    traced = child("traced", "traced") if trace else None

    expected = reference_for(spec["family"], seed, hours)
    failures = []
    digests = []
    for rep in reps + ([traced] if traced else []):
        report = rep.report()
        digest = hashlib.sha256(report).hexdigest()
        digests.append(digest)
        problem = None
        if not rep.ok:
            problem = f"exit {rep.code}:\n{rep.log[-2000:]}"
        elif expected is not None and digest != expected:
            problem = f"report {digest[:12]} != reference {expected[:12]}"
        elif digest != digests[0]:
            problem = f"report {digest[:12]} != first repetition {digests[0][:12]}"
        elif packets_in(report) is None:
            problem = "no packet count in the report"
        elif written is not None and packets_in(report) != written:
            problem = f"analyzed {packets_in(report)} packets, simulate wrote {written}"
        if problem:
            failures.append(f"{rep.tag}: {problem}")
    good = [rep for rep in reps if rep.ok]
    if env.get("repro_version") is None and good:
        env["repro_version"] = good[0].result.get("version")

    row = {
        "workload": name,
        "seed": seed,
        "hours": hours,
        "trace": int(trace),
        "env": env,
        "repetitions": len(reps),
        "reference": "pinned" if expected else "unpinned (checked for agreement only)",
        "report_sha256": digests[0] if digests else None,
        "attempted": len(reps) + (1 if traced else 0),
        "failed": len(failures),
        "failures": failures,
    }
    if not good:
        row["metrics"] = {}
        return row
    walls = [rep.wall_s for rep in good]
    packets = packets_in(good[0].report()) or 0
    median = statistics.median
    metrics = {
        "wall_s": median(walls),
        "pps": median(packets / wall for wall in walls),
        # the fastest repetition: the work is deterministic, and the host
        # only ever slows a repetition down, in ways the loop misses
        "pps_adj": max(packets / rep.wall_adj_s for rep in good),
        "cpu_s": median(rep.cpu_s for rep in good),
        "peak_rss_mib": median(rep.peak_rss_mib for rep in good),
        "setup_s": median(probe.setup_s * probe.host_scale for probe in probes),
        "setup_raw_s": median(probe.setup_s for probe in probes),
    }
    batch = [s * 1000.0 for rep in good for s in rep.result["batch_s"]]
    if batch:
        metrics["batch_ms_p50"] = percentile(batch, 50)
        metrics["batch_ms_p99"] = percentile(batch, 99)
    row.update(
        packets=packets,
        metrics=metrics,
        month_h=PAPER_MONTH_PACKETS / metrics["pps"] / 3600.0,
        batch_samples=len(batch),
        setup_samples=len(probes),
        walls=walls,
        loop_ms=[rep.loop_ms for rep in good],
    )
    if traced is not None and traced.ok:
        layers = dict(traced.result["layers"])
        layers["pcap.bytes"] = capture.stat().st_size if capture else 0
        layers["trace.overhead"] = traced.wall_adj_s / good[0].wall_adj_s - 1.0
        row["layers"] = layers
        row["missing_hooks"] = traced.result.get("missing", [])
        traces = root / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        shutil.copy(traced.trace_path, traces / f"{name}-seed{seed}.json")
    return row


# -- output --------------------------------------------------------------------


def print_row(row: dict) -> None:
    name = row["workload"]
    settings = f"seed={row['seed']}  hours={row['hours']:g}  trace={row['trace']}"
    print(f"== {name}  {settings}")
    print("env " + json.dumps(row["env"], sort_keys=True))
    print(
        f"reference: {row['reference']}; "
        f"report sha256 {str(row['report_sha256'])[:16]}; "
        f"fail_rate {row['failed']}/{row['attempted']}"
    )
    for failure in row["failures"]:
        print(f"FAILED {failure}")
    metrics = row["metrics"]
    for metric, unit in {**END_TO_END_UNITS, **BATCH_UNITS}.items():
        if metric not in metrics:
            continue
        line = f"  {metric:<14} {metrics[metric]:>14.4f} {unit}"
        if metric == "pps":
            line += f"   (paper month of 92e6 packets: {row['month_h']:.2f} h)"
        elif metric == "pps_adj":
            line += f"   (at a {REFERENCE_LOOP_MS} ms host loop)"
        elif metric == "wall_s":
            reps = row["repetitions"]
            line += f"   ({reps} repetition(s), {row['packets']:,} packets)"
        elif metric == "setup_s":
            line += f"   (median of {row['setup_samples']})"
        elif metric.startswith("batch_ms"):
            line += f"   ({row['batch_samples']} batch samples)"
        print(line)
    layers = row.get("layers")
    if layers:
        print("  traced layers (self seconds, share of traced wall):")
        spans = sorted(SPAN_NAMES + ("other",), key=lambda span: -layers[f"{span}.s"])
        for span in spans:
            seconds, share = layers[f"{span}.s"], layers[f"{span}.share"]
            if seconds > 0:
                print(f"    {span:<28} {seconds:>9.4f} s  {share:>7.2%}")
        counts = {
            key: value
            for key, value in layers.items()
            if not key.endswith((".s", ".share"))
        }
        print("  traced counters: " + json.dumps(counts, sort_keys=True))
        if row.get("missing_hooks"):
            missing = ", ".join(row["missing_hooks"])
            print(f"  hooks not installed (layer reads 0): {missing}")


def result_line(rows: list, trace: bool) -> dict:
    if trace:
        units = per_layer_units()
    else:
        units = {name: END_TO_END_UNITS[name] for name in GATED}
    metrics = {}
    prefix = len(rows) > 1
    for row in rows:
        values = row.get("layers", {}) if trace else row["metrics"]
        for name, unit in units.items():
            if name in values:
                key = f"{row['workload']}.{name}" if prefix else name
                metrics[key] = {"value": values[name], "unit": unit}
    attempted = sum(row["attempted"] for row in rows)
    failed = sum(row["failed"] for row in rows)
    complete = all(
        name in (row.get("layers", {}) if trace else row["metrics"])
        for row in rows
        for name in units
    )
    return {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="repro end-to-end benchmark")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--hours",
        type=float,
        default=DEFAULT_HOURS,
        help="window length (24 h benchmark; shorter for smoke runs)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated benchmark still stops and reaps its child (see _wait)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = BENCH_DIR.parent
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {root / 'src'}", file=sys.stderr)
        return 2
    # Each child runs on one CPU, and the host-speed samples are taken
    # on that CPU while it runs: on a shared host each CPU drifts on
    # its own.  Worker processes get every CPU back (see child.py).
    os.sched_setaffinity(0, {ALL_CPUS[0]})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    _DEADLINE[0] = time.perf_counter() + RUN_DEADLINE_S * len(names)
    env = environment(root)
    rows = []
    try:
        for name in names:
            row = run_workload(root, name, args, env)
            print_row(row)
            print("row " + json.dumps(row, sort_keys=True), flush=True)
            rows.append(row)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result_line(rows, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
