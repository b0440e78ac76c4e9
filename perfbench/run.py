#!/usr/bin/env python3
"""hsidenoise benchmark: time to a scored restoration, end to end and per layer.

    python3 perfbench/run.py --workload accept-32 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, nothing needs installing.  Workloads (closed loop, one
caller, each operation starting when the previous one returns) are in
``workloads.py``; ``all`` runs each in its own process and prints a table.

``--trace 0`` times the unmodified package: set-up in fresh processes
(median of several), then whole passes over the workload's inputs until
``--seconds`` have passed.  A timing's samples are passes (the median
operation of each pass) and the reported value is their median; the
detail line adds the highest percentile with ten samples beyond it and the
sample count.  ``--trace 1`` records spans by wrapping the
package's functions from outside (``tracer.py``): one set of passes
untraced, then as many traced, and reports per-layer metrics and the
tracing overhead.  Every operation's output is checked; an operation that
raises, exits nonzero or fails a check counts as failed.

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The line before it
holds the detail: timing distributions, failures, the environment and, in
a traced run, the per-function table.  Spans go to ``.bench_out/``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("paper-case3", "accept-32", "cli-real-case4")
SETUP_REPEATS = {"full": 3, "tiny": 1}
END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "solve_s": "s",
    "sweep_ms": "ms",
    "mpsnr_gain_db": "dB",
    "mssim": "1",
    "peak_rss_mb": "MB",
}
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class SetupFailed(Exception):
    """The set-up could not produce the workload's inputs; no result is possible."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the self-test")
    parser.add_argument("--prepare-into", help=argparse.SUPPRESS)  # set-up child
    return parser.parse_args(argv)


def limit_threads():
    """BLAS threads at most the CPUs this process may run on; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in _THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 1 <= int(current) <= nproc):
            os.environ[var] = str(nproc)


def import_package():
    """Import hsidenoise from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "hsidenoise" / "__init__.py").is_file():
        raise SetupFailed(f"no hsidenoise sources under {src}")
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    import hsidenoise
    import hsidenoise.cli  # noqa: F401  (the CLI workload calls hsidenoise.cli.main)

    if Path(hsidenoise.__file__).resolve().parent != (src / "hsidenoise").resolve():
        raise SetupFailed(f"imported hsidenoise from {hsidenoise.__file__}, not {src}")
    return hsidenoise


def timed_setups(args, workdir):
    """Run the set-up in fresh processes; return each one's wall time."""
    times = []
    for _ in range(SETUP_REPEATS[args.size]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
               "--prepare-into", str(workdir)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SetupFailed(f"set-up exited {proc.returncode}: {proc.stderr.strip()}")
    return times


class Loop:
    """Closed-loop passes over the inputs, with checks and failure counts."""

    def __init__(self, hs, workload, inputs, workdir):
        self.hs, self.workload, self.inputs, self.workdir = hs, workload, inputs, workdir
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def passes(self, seconds=None, count=None, tracer=None):
        """Whole passes over the inputs until ``seconds`` are used (at least
        one), or ``count`` passes; returns the passes' successful outcomes."""
        from workloads import check

        passes = []
        deadline = time.perf_counter() + (seconds or 0.0)
        while True:
            passes.append([])
            for inp in self.inputs:
                self.attempted += 1
                if tracer is not None:
                    tracer.op = self.attempted
                try:
                    outcome = self.workload.run(self.hs, inp, self.workdir, tracer)
                    failures = check(outcome, inp, self.digests)
                    outcome.restored = None  # checked; peak RSS stays the program's own
                except Exception as exc:  # the loop must go on: count, report, continue
                    traceback.print_exc(file=sys.stderr)
                    failures = [f"{inp.key}: {type(exc).__name__}: {exc}"]
                if failures:
                    self.failed += 1
                    self.failures.extend(failures)
                    print("\n".join(failures), file=sys.stderr)
                else:
                    passes[-1].append(outcome)
            if (count is not None and len(passes) >= count) or (
                count is None and time.perf_counter() >= deadline
            ):
                return [p for p in passes if p]


def per_pass(passes, attr, reduce=statistics.median):
    """One sample per pass, so every sample covers the same mix of inputs.

    Timings take the pass median: a rare input that runs to the sweep cap
    (``solver.sweeps`` and ``solver.converged_frac`` report those) does not
    swing the sample.  Quality takes the pass mean, so every input counts.
    """
    return [reduce([getattr(o, attr) for o in p]) for p in passes]


def end_to_end(passes, setup_times):
    import numpy as np

    outcomes = [o for p in passes for o in p]
    values = {
        "setup_s": float(np.median(setup_times)),
        **{k: float(np.median(per_pass(passes, k))) for k in ("pipeline_s", "solve_s")},
        "sweep_ms": 1e3 * sum(o.solve_s for o in outcomes) / sum(o.sweeps for o in outcomes),
        "mpsnr_gain_db": float(np.median(per_pass(passes, "gain_db", statistics.fmean))),
        "mssim": float(np.median(per_pass(passes, "mssim", statistics.fmean))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def timed_run(args, hs, workload, size, workdir):
    from report import distribution

    setup_times = timed_setups(args, workdir)
    inputs = workload.load(hs, args.seed, size, workdir)
    loop = Loop(hs, workload, inputs, workdir)
    passes = loop.passes(seconds=args.seconds)
    detail = {
        "operations_per_pass": len(inputs),
        "timings": {
            "setup_s": distribution(setup_times),
            **{k: distribution(per_pass(passes, k))
               for k in ("pipeline_s", "solve_s", "evaluate_s")},
        },
        "sweeps_per_pass": [sum(o.sweeps for o in p) for p in passes],
    }
    metrics = end_to_end(passes, setup_times) if passes else {}
    return loop, metrics, detail


def traced_run(args, hs, workload, size, workdir):
    import numpy as np

    from report import function_table, per_layer, read_alloc_ratios, solve_accounting
    from tracer import SpanTable, Tracer

    tracer = Tracer()
    wrapped = tracer.install()
    try:  # set-up and load in-process, traced as operation 0
        workload.prepare(hs, args.seed, size, workdir, tracer)
        inputs = workload.load(hs, args.seed, size, workdir)
    finally:
        tracer.restore()
    loop = Loop(hs, workload, inputs, workdir)
    untraced = loop.passes(seconds=args.seconds / 2)
    tracer.install()
    try:
        traced = loop.passes(count=len(untraced), tracer=tracer)
    finally:
        tracer.restore()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write_csv(spans_path)

    metrics, detail = {}, {"passes_each": len(untraced), "wrapped_functions": wrapped,
                           "spans": len(tracer.spans), "spans_file": str(spans_path)}
    if untraced and traced:
        table = SpanTable(tracer.spans)
        untraced_solve_s = float(np.median(per_pass(untraced, "solve_s")))
        traced_solve_s = float(np.median(per_pass(traced, "solve_s")))
        layers = per_layer(table, [o for p in traced for o in p], inputs[0].noisy.shape,
                           traced_solve_s, untraced_solve_s)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in sorted(layers.items())}
        accounting = solve_accounting(table)
        # self times plus the uncovered rest must account for the traced solve
        gap = abs(accounting["parts_sum_s"] - accounting["solve_total_s"])
        if not gap <= 1e-9 * accounting["solve_total_s"]:
            loop.failures.append(f"span self times miss the traced solve time by {gap} s")
        detail.update(solve_accounting=accounting, functions=function_table(table),
                      untraced_solve_s=untraced_solve_s,
                      read_cube_alloc_ratios=sorted(set(round(r, 3) for r in read_alloc_ratios(table))))
    return loop, metrics, detail


def run_one(args):
    limit_threads()
    hs = import_package()
    from report import environment
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    size = workload.sizes[args.size]
    if args.prepare_into:
        workload.prepare(hs, args.seed, size, Path(args.prepare_into))
        return 0

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir()
    try:
        run = traced_run if args.trace else timed_run
        loop, metrics, detail = run(args, hs, workload, size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not metrics:
        raise SetupFailed("no operation succeeded; nothing to report\n" + "\n".join(loop.failures))
    detail.update(workload=args.workload, size=args.size, seconds=args.seconds,
                  trace=args.trace, failures=loop.failures[:20], env=environment(args.seed))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args):
    """Each workload in its own process (so peak RSS is that workload's), one table."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= 0 if results[name]["correct"] else 1
        print(f"{name}: attempted {results[name]['attempted']}, failed {results[name]['failed']}")
        for metric, m in results[name]["metrics"].items():
            print(f"  {metric:<44s} {m['value']:>14.6g} {m['unit']}")
        evaluate = json.loads(lines[-2])["detail"].get("timings", {}).get("evaluate_s")
        if evaluate:  # measured in timed runs, not gated (see BENCHMARK.json)
            print(f"  {'evaluate_s':<44s} {evaluate['median']:>14.6g} s")
    print(json.dumps(results))
    return status


def main(argv=None):
    args = parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
