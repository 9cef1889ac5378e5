"""Layered benchmark for cyclica.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; cyclica is imported from ./src.
One process drives the load, with BLAS and OpenMP pinned to one thread.
The run repeats whole rounds (every operation of every instance, once)
until S seconds have passed, checks every output (see workloads.py), and
prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced.
With --trace 1 a warm-up round is followed by alternating untraced and
traced rounds, and the metrics are the per-layer ones (medians over traced
rounds) plus trace.overhead_s (median over pairs of traced minus untraced
round time).  Each run also writes
bench/out/<workload>-s<seed>-t<trace>.json, and a traced run its spans to
bench/out/<workload>-s<seed>-spans.json.gz.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3  # extra set-ups in fresh processes, besides this process's own
SETUP_TIMEOUT_S = 60

END_TO_END = (("wall_s", "s"), ("instance_p50_ms", "ms"), ("largest_instance_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the inputs, print the times taken, exit")
    return p.parse_args(argv)


def set_up(workload, seed):
    """Import cyclica (and sympy) from ./src and build the inputs.

    Returns the workload, the set-up time and the time the benchmark spent
    in its own proofs and check preparation, which the set-up time leaves out.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import cyclica
    if Path(cyclica.__file__).resolve().parent != SRC / "cyclica":
        raise ImportError(f"cyclica imported from {cyclica.__file__}, not from {SRC}")
    import workloads
    wl = workloads.build(workload, seed)
    total = time.perf_counter() - t0
    return wl, total - workloads.OWN_S, workloads.OWN_S


def setup_in_fresh_process(workload, seed):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])  # [setup_s, own checks s]


class Outcome:
    """Attempted / failed counts and the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []

    def record(self, inst, op, ok, out):
        self.attempted += 1
        if ok:
            try:
                problem = op.check(out)
            except Exception as exc:  # a check that cannot read the output
                problem = f"output unreadable: {type(exc).__name__}: {exc}"
        else:
            problem = f"raised {type(out).__name__}: {out}"
        if problem is None:
            return
        if op.fault or not ok:
            self.failed += 1
        else:
            self.correct = False
        tag = f"known fault {op.fault}" if op.fault else ("FAILED" if not ok else "WRONG")
        line = f"{tag}: {inst.name}/{op.label}: {problem}"
        if line not in self.problems:
            self.problems.append(line)


def run_round(wl, tracer, outcome):
    """One pass over every instance; returns (wall, per-instance times)."""
    times = []
    results = []
    start = time.perf_counter()
    for idx, inst in enumerate(wl.instances):
        t0 = time.perf_counter()
        outs = []
        for op in inst.ops:
            try:
                if tracer is None:
                    out = op.run()
                else:
                    tracer.op = idx
                    out = tracer.operation(op.label, op.run)
                outs.append((True, out))
            except Exception as exc:  # counted as a failed operation
                outs.append((False, exc))
        times.append(time.perf_counter() - t0)
        results.append(outs)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.op = None
        tracer.report_bytes += sum(len(_report_text(out).encode()) for outs in results
                                   for ok, out in outs if ok and _report_text(out))
    for inst, outs in zip(wl.instances, results):
        for op, (ok, out) in zip(inst.ops, outs):
            outcome.record(inst, op, ok, out)
    return wall, times


def _report_text(out):
    """The JSON report text of an operation that goes through the CLI."""
    if isinstance(out, tuple) and out and isinstance(out[0], str):
        return out[0]
    return None


def end_to_end(rounds, wl, setups):
    """Round times are taken from the slowest round of the run.

    On a shared machine the speed of identical work alternates between a
    steady sustained rate and faster bursts that last seconds to minutes.
    The slowest round is the time at the sustained rate; over ten seeds it
    varied about half as much as the median round did (see README.md).
    """
    walls = [w for w, _ in rounds]
    per_instance = [max(ts) for ts in zip(*(t for _, t in rounds))]
    largest = next(i for i, inst in enumerate(wl.instances) if inst.largest)
    values = {
        "wall_s": max(walls),
        "instance_p50_ms": 1000 * statistics.median(per_instance),
        "largest_instance_s": max(t[largest] for _, t in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def environment():
    import numpy
    import sympy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "sympy": sympy.__version__, "cpu": cpu, "nproc": os.cpu_count(),
            "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cyclica" / "__init__.py").is_file():
        print(f"error: no cyclica sources under {SRC}", file=sys.stderr)
        return 2
    try:
        wl, own_setup, own_checks = set_up(args.workload, args.seed)
    except (ImportError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps([own_setup, own_checks]))
        return 0
    samples = [(own_setup, own_checks)] + [setup_in_fresh_process(args.workload, args.seed)
                                           for _ in range(SETUP_REPEATS)]
    setups = [s for s, _ in samples]

    outcome = Outcome()
    rounds, traced_rounds, layer_rounds = [], [], []
    tracer = None
    start = time.perf_counter()
    if args.trace:
        from tracer import Tracer
        run_round(wl, None, outcome)  # warm-up; its time is not used
        tracer = Tracer()
        while not traced_rounds or time.perf_counter() - start < args.seconds:
            rounds.append(run_round(wl, None, outcome))
            tracer.reset()
            tracer.install()
            try:
                traced_rounds.append(run_round(wl, tracer, outcome))
            finally:
                tracer.remove()
            layer_rounds.append(tracer.metrics())
    else:
        while (len(rounds) < wl.min_rounds
               or time.perf_counter() - start < args.seconds):
            rounds.append(run_round(wl, None, outcome))

    if args.trace:
        from tracer import per_layer_names
        values = {name: statistics.median(r[name] for r in layer_rounds)
                  for name, _ in per_layer_names() if name != "trace.overhead_s"}
        # each traced round against the untraced round just before it
        values["trace.overhead_s"] = statistics.median(
            t - u for (t, _), (u, _) in zip(traced_rounds, rounds))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_names()}
    else:
        metrics = end_to_end(rounds, wl, setups)

    for line in outcome.problems:
        print(line, file=sys.stderr)
    result = {"correct": outcome.correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "rounds": len(rounds) + len(traced_rounds) + bool(args.trace),
              "instances": [inst.name for inst in wl.instances],
              "untraced_round_s": [w for w, _ in rounds],
              "untraced_instance_s": [t for _, t in rounds],
              "traced_round_s": [w for w, _ in traced_rounds],
              "setup_samples_s": setups,
              "own_checks_prep_s": [own for _, own in samples],
              "problems": outcome.problems, **result}
    stem = f"{args.workload}-s{args.seed}"
    (OUT / f"{stem}-t{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(OUT / f"{stem}-spans.json.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
