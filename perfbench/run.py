#!/usr/bin/env python3
"""trajcore benchmark: seeded workloads, end-to-end metrics and layer traces.

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy:

    python3 perfbench/run.py --workload coop-drift --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One run builds the workload's inputs ``SETUP_REPS`` times (``setup_s`` is
the median), then repeats the workload's fixed operation list ("pass") for
about ``--seconds`` seconds in one process, with no threads.  Every result
is checked against ``reference.json``; a guard trip, a non-zero CLI exit or
a digest that differs from the reference counts as a failed operation.

Times are reported in seconds at a fixed reference speed of the machine.
The CPU time a shared host gives one process drifts by up to 1.8x over
tens of seconds, for the program and for any other Python code alike.
So a fixed pure-Python loop (``calibration_loop``, which never calls
trajcore) is timed before set-up and after each set-up and operation, and
each measured interval is multiplied by ``CALIBRATION_REFERENCE_S`` over
the mean of the ``CALIBRATION_WINDOW`` loop times on each side of it.  A
change to trajcore moves the adjusted times as much as the raw ones; a
change in machine speed moves neither.
The raw times and every loop time are printed and kept in the result file.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes, reports the
per-layer metrics of the traced passes, the tracing overhead against the
untraced ones, and checks that every count repeats exactly from pass to
pass.  Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Inputs and the CLI's files live in ``.perfbench_work/`` under
the checkout and are removed at exit; a result file (with the spans of a
traced run) is kept in ``.perfbench_work/results/``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPS = 3
MIN_PASSES = 3  # untraced; a traced run makes at least two traced and two untraced
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
WORKLOAD_NAMES = ("coop-drift", "schedule-cli", "mine-families")  # keys of workloads.WORKLOADS
CALIBRATION_LOOPS = 100_000
# calibration_loop's time at the reference speed; on an Intel Xeon with 2
# vCPUs and Python 3.11 it took 0.03 to 0.06 s as the host's load changed
CALIBRATION_REFERENCE_S = 0.05
# loop times averaged on each side of an interval: one loop is too short to
# sample the host's load, a whole run too long to follow its changes
CALIBRATION_WINDOW = 6


def machine_facts(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def tail_level(min_samples: int) -> int:
    """Highest whole percentile with TAIL_BEYOND samples beyond it at min_samples."""
    return math.floor(100 * (1 - TAIL_BEYOND / min_samples))


def percentile(values, level: int) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(level / 100 * len(ordered)))
    return ordered[rank - 1]


def guard_message(exc) -> str:
    from trajcore.errors import ExplosionGuard

    if isinstance(exc, ExplosionGuard):
        return f"guard tripped at {exc.visited} nodes (node budget {exc.budget})"
    return f"guard tripped at {exc.budget + 1} common subsequences (budget {exc.budget})"


def calibration_loop() -> int:
    """Fixed work like the library's inner loops: tuple keys hashed into a dict."""
    table = {}
    for i in range(CALIBRATION_LOOPS):
        key = (i & 8191, (i >> 13) & 3)
        table[key] = table.get(key, 0) + 1
    return len(table)


class SpeedGauge:
    """Times ``calibration_loop`` and turns raw intervals into reference seconds."""

    def __init__(self):
        self.loop_times = []
        calibration_loop()  # warm-up, not recorded
        self.measure()

    def measure(self) -> None:
        start = time.perf_counter()
        calibration_loop()
        self.loop_times.append(time.perf_counter() - start)

    def mark(self) -> int:
        """Index of the latest loop: the start of the interval about to be timed."""
        return len(self.loop_times) - 1

    def factor(self, mark: int) -> float:
        """Multiplier to reference seconds for the interval that started at ``mark``."""
        first = max(0, mark + 1 - CALIBRATION_WINDOW)
        window = self.loop_times[first:mark + 1 + CALIBRATION_WINDOW]
        return CALIBRATION_REFERENCE_S / statistics.mean(window)


class Runner:
    """Runs passes, times each operation and checks it against the reference."""

    def __init__(self, reference, tracer, gauge):
        self.reference = reference
        self.tracer = tracer
        self.gauge = gauge
        self.raw = {False: {}, True: {}}  # traced -> op position -> [(latency, gauge mark)]
        self.marks = {}  # tracer (phase, tag) -> gauge mark of that interval
        self.failures = []
        self.mismatched = False
        self.counts = {}  # (op key, traced) -> counts derived from the result
        self.attempted = 0

    def run_pass(self, ops, index, traced) -> float:
        """Run every op once; return the pass's raw time, calibration included."""
        from trajcore.errors import GuardError

        pass_start = time.perf_counter()
        for position, op in enumerate(ops):
            recording = (self.tracer.recording("op", (index, position)) if traced
                         else contextlib.nullcontext())
            mark = self.marks[("op", (index, position))] = self.gauge.mark()
            start = time.perf_counter()
            try:
                with recording:
                    result = op.run()
                failure = None
            except GuardError as exc:
                result, failure = None, guard_message(exc)
            elapsed = time.perf_counter() - start
            self.raw[traced].setdefault(position, []).append((elapsed, mark))
            self.gauge.measure()
            self.attempted += 1
            if failure is None:
                failure = self.check(op, result, traced)
            if failure is not None:
                self.failures.append(f"{op.key}: {failure}")
        return time.perf_counter() - pass_start

    def latencies(self, traced, raw=False) -> dict:
        """Op position -> latencies in reference seconds (or as measured)."""
        return {p: [t if raw else t * self.gauge.factor(m) for t, m in v]
                for p, v in self.raw[traced].items()}

    def factors(self) -> dict:
        return {key: self.gauge.factor(m) for key, m in self.marks.items()}

    def wall(self, traced, raw=False) -> float:
        """Time to solution of the op list: the sum of each op's median latency."""
        return sum(statistics.median(v) for v in self.latencies(traced, raw).values())

    def samples(self, traced) -> list:
        return [x for v in self.latencies(traced).values() for x in v]

    def check(self, op, result, traced):
        digest, failure = op.check(result)
        if failure is not None:
            return failure
        expected = self.reference.get(op.key)
        if digest != expected:
            self.mismatched = True
            return f"digest {digest} differs from reference {expected}"
        counts = op.counts(result)
        previous = self.counts.setdefault((op.key, traced), counts)
        if counts != previous:
            self.mismatched = True
            return f"result counts {counts} differ from an earlier pass: {previous}"
        return None


def run_workload(name, seed, seconds, trace, reference):
    import tracer as tracing
    import workloads

    setup = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    work_dir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    gauge = SpeedGauge()
    runner = Runner(reference["ops"][name], tracer, gauge)
    setup_raw = []
    traced_passes = []
    with tracer.installed() if trace else contextlib.nullcontext():
        try:
            for rep in range(SETUP_REPS):
                shutil.rmtree(work_dir, ignore_errors=True)
                work_dir.mkdir(parents=True)
                recording = (tracer.recording("setup", rep) if trace
                             else contextlib.nullcontext())
                runner.marks[("setup", rep)] = gauge.mark()
                start = time.perf_counter()
                with recording:
                    ops = setup(seed, str(work_dir))
                setup_raw.append(time.perf_counter() - start)
                gauge.measure()

            plan = [False, True, False, True] if trace else [False] * MIN_PASSES
            first = runner.run_pass(ops, 0, plan[0])
            wanted = max(len(plan), round(seconds / first))
            if trace and wanted % 2:
                wanted += 1
            for index in range(1, wanted):
                traced = trace and index % 2 == 1
                if traced:
                    traced_passes.append(index)
                runner.run_pass(ops, index, traced)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)

    setup_times = [t * gauge.factor(runner.marks[("setup", rep)])
                   for rep, t in enumerate(setup_raw)]
    level = tail_level(MIN_PASSES * len(ops))
    samples = runner.samples(False)
    summary = {
        "workload": name,
        "trace": int(trace),
        "machine": machine_facts(seed),
        "ops_per_pass": len(ops),
        "passes": {"untraced": len(samples) // len(ops), "traced": len(traced_passes)},
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures,
        "ops_failed_frac": len(runner.failures) / runner.attempted,
        "tail": {"level": level, "samples": len(samples),
                 "beyond": len(samples) - math.ceil(level / 100 * len(samples))},
        "setup_s": setup_times,
        "setup_raw_s": setup_raw,
        "latencies_s": {ops[p].key: v for p, v in runner.latencies(False).items()},
        "raw_latencies_s": {ops[p].key: v for p, v in runner.latencies(False, raw=True).items()},
        "raw": {"wall_s": runner.wall(False, raw=True), "setup_s": statistics.median(setup_raw)},
        "calibration": {"reference_s": CALIBRATION_REFERENCE_S, "loop_s": gauge.loop_times},
    }
    correct = not runner.mismatched
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (runner.wall(False), "s"),
            "op_p50_s": (statistics.median(samples), "s"),
            "op_tail_s": (percentile(samples, level), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        layers = tracing.per_layer_metrics(tracer, traced_passes, runner.factors())
        untraced = runner.wall(False)
        layers["trace.overhead_pct"] = 100 * (runner.wall(True) - untraced) / untraced
        metrics = {k: (v, _unit(k)) for k, v in layers.items()}
        problems = count_problems(tracing.op_counts(tracer), traced_passes, ops, runner)
        summary["count_check"] = problems or "ok"
        correct = correct and not problems
        summary["spans"] = tracing.spans_payload(tracer)
    return correct, summary, metrics


def count_problems(per_op, traced_passes, ops, runner) -> list:
    """Check the counts of a traced run.

    Layer counts must repeat exactly between traced passes; the counts read
    from each op's result must be the same with and without tracing; and
    where the outermost span (the call the benchmark made) counts the same
    thing as the result, the two must agree.
    """
    problems = []
    for position, op in enumerate(ops):
        seen = [per_op[(p, position)] for p in traced_passes]
        if any(c != seen[0] for c in seen[1:]):
            problems.append(f"{op.key}: counts differ between traced passes: {seen}")
        untraced = runner.counts.get((op.key, False), {})
        traced = runner.counts.get((op.key, True), {})
        if untraced != traced:
            problems.append(f"{op.key}: traced results {traced} != untraced results {untraced}")
        root = seen[0][1]
        for key in untraced.keys() & root.keys():
            if untraced[key] != root[key]:
                problems.append(f"{op.key}: {key} traced {root[key]} != result {untraced[key]}")
    return problems


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("bytes_read"):
        return "B"
    return "count"


def report(summary, metrics):
    m = summary["machine"]
    print(f"trajcore benchmark: workload {summary['workload']}, seed {m['seed']}, "
          f"trace {summary['trace']}")
    print(f"machine: {m['cpu']}, nproc {m['nproc']}, Python {m['python']}, NumPy {m['numpy']}")
    print(f"passes: {summary['passes']['untraced']} untraced, {summary['passes']['traced']} traced, "
          f"{summary['ops_per_pass']} ops each")
    loops = summary["calibration"]["loop_s"]
    print(f"speed: calibration loop median {statistics.median(loops):.4f} s, "
          f"range {min(loops):.4f}-{max(loops):.4f} s over {len(loops)} loops, "
          f"reference {summary['calibration']['reference_s']} s; times below are at the reference")
    print(f"raw (as measured): wall_s {summary['raw']['wall_s']:.6f} s, "
          f"setup_s {summary['raw']['setup_s']:.6f} s")
    print(f"ops: {summary['attempted']} attempted, {summary['failed']} failed, "
          f"ops_failed_frac {summary['ops_failed_frac']:.4f} (fraction)")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_tail_s":
            t = summary["tail"]
            note = f"  (p{t['level']} of {t['samples']} ops, {t['beyond']} beyond)"
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6f}"
        print(f"  {name:<30} {shown} {unit}{note}")
    if "count_check" in summary:
        print(f"count check: {summary['count_check']}")
    for failure in summary["failures"]:
        print(f"FAILED {failure}")


def run_all(args) -> int:
    """Run every workload in its own process and print their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="trajcore benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "trajcore" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: no trajcore sources at {package.parent}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    reference_path = BENCH_DIR / "reference.json"
    try:
        with open(reference_path) as handle:
            reference = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: cannot read {reference_path}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import trajcore

    if Path(trajcore.__file__).resolve() != package.resolve():
        print(f"perfbench: imported trajcore from {trajcore.__file__}, not {package}",
              file=sys.stderr)
        return 2

    correct, summary, metrics = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), reference
    )
    report(summary, metrics)
    results_dir = ROOT / ".perfbench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    summary["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    summary["correct"] = correct
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as handle:
        json.dump(summary, handle)
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
