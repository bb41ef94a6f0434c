"""catmin's benchmark: one workload per process, every verdict checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Load is a closed loop in this one process: each operation starts after the
previous verdict, with no worker pool.  The run makes its inputs from the
seed (set-up), then repeats passes over them for about `--seconds`; a pass
starts only while the median pass still fits, and at least one runs.

Times are calibrated to the machine's speed of the moment.  On a shared host
the same pass runs up to twice as slow for minutes at a time (CPU time rises
with wall time, every count repeats exactly), so a raw time says more about
the neighbours than about the program.  A fixed pure-Python reference loop
runs between operations; each operation's wall time is divided by the mean
time of the loops just before and after it, and multiplied by the loop's
time on the quiet reference machine (`REF_LOOP_S`).  ``wall_s`` is the sum
over a pass's operations of each one's median calibrated time over the
run's passes: the pass's time to verdict at the reference speed.  A change
that slows the program raises every ratio; a busy neighbour raises both
sides of it.  ``setup_s`` stays a raw time: a fresh process spends it
mostly on imports, which the loop does not track.  The raw pass times are
in the report line.

With ``--trace 0`` the last line of standard output is the untraced result
with the end-to-end metrics; with ``--trace 1`` it is the per-layer metrics
of a traced run, whose passes alternate with untraced ones so that the
tracing overhead is measured on the same inputs.  A fuller report (the
environment, every failure) is printed on the line before and kept under
``bench/_out/`` with the spans of a traced run.

An operation fails when it raises, returns another verdict or exit code than
expected, or fails an output check; failures are counted in ``failed`` and
do not stop the run.  ``correct`` is false only on a wrong answer: the
program certified something (a PASS, exit 0, a positive verdict) that the
checks reject.  A failure the program reports itself (an exception, a FAIL,
a non-zero exit, a negative verdict) is counted, not a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
SETUP_REPEATS = 5  # set-up runs, each in a fresh process; setup_s is their median
# time of reference_loop() on the quiet reference machine (2-vCPU Intel Xeon
# at 2.0 GHz, Python 3.11): calibrated times are in its seconds
REF_LOOP_S = 0.006
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import networkx
    import numpy
    import scipy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARS},
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def reference_loop() -> float:
    """Seconds taken by a fixed amount of pure-Python work: the machine's
    speed of the moment, independent of catmin."""
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - t0


def setup_seconds(args) -> list[float]:
    """Process start to ready-to-run (imports, inputs, instance files),
    measured on fresh processes so every sample pays the imports."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - t0)
    return samples


@dataclass
class Pass:
    wall: float
    times: list[float]
    failures: list
    tracer: object = None
    refs: list[float] | None = None  # reference-loop time around each operation


def run_pass(ops, tracer=None) -> Pass:
    """One closed-loop pass over the operations, each timed to its verdict,
    with the reference loop between them.  `wall` leaves the loops out."""
    from workloads import run_op

    times, refs, failures = [], [], []
    ref_before = reference_loop()
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        t0 = time.perf_counter()
        failure = run_op(op)
        times.append(time.perf_counter() - t0)
        ref_after = reference_loop()
        refs.append((ref_before + ref_after) / 2.0)
        ref_before = ref_after
        if failure is not None:
            failures.append((op.name, failure))
    return Pass(sum(times), times, failures, tracer, refs)


def calibrated(seconds: float, ref: float) -> float:
    """`seconds` measured while the reference loop took `ref`, in seconds
    of the reference machine."""
    return seconds * REF_LOOP_S / ref


def calibrated_pass(passes: list[Pass]) -> float:
    """Sum over the operations of each one's median calibrated time."""
    return sum(
        statistics.median(calibrated(p.times[i], p.refs[i]) for p in passes)
        for i in range(len(passes[0].times))
    )


def measure(ops, seconds: float, trace: bool) -> list[Pass]:
    """Repeat passes while the median pass still fits in `seconds`.  Traced
    runs alternate untraced and traced passes, starting untraced."""
    from tracer import Tracer, instrument

    start = time.perf_counter()
    passes: list[Pass] = []
    while True:
        tracer = restore = None
        if trace and len(passes) % 2:
            tracer = Tracer()
            tracer.op = len(passes) * len(ops) - 1
            restore = instrument(tracer)
        try:
            passes.append(run_pass(ops, tracer))
        finally:
            if restore is not None:
                restore()
        enough = len(passes) >= (2 if trace else 1)
        if enough and time.perf_counter() - start + statistics.median(p.wall for p in passes) > seconds:
            return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "catmin" / "__init__.py").is_file():
        print(f"error: no catmin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=OUT) as work:
            workloads.build(args.workload, args.seed, work)
        return 0

    setup = setup_seconds(args)
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        ops = workloads.build(args.workload, args.seed, work)
        passes = measure(ops, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced = [p for p in passes if p.tracer is None]
    traced = [p for p in passes if p.tracer is not None]
    failures = [f for p in passes for f in p.failures]
    attempted = len(ops) * len(passes)
    # each operation's median over the passes; with an odd number of
    # operations op_p50_s is then one operation's time, not a blend of two
    op_medians = {op.name: statistics.median(p.times[i] for p in untraced) for i, op in enumerate(ops)}
    e2e = {
        "wall_s": calibrated_pass(untraced),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    # reported, not gated: one operation's time moves more between runs than
    # a whole pass does
    per_op = {"op_p50_s": statistics.median(op_medians.values()), "ops_per_pass": len(ops)}
    if len(ops) >= 100:  # a p90 needs at least ten operations beyond it
        times = [t for p in untraced for t in p.times]
        per_op["op_p90_s"] = statistics.quantiles(times, n=10, method="inclusive")[-1]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(args.seed),
        "op_median_s": op_medians,
        "pass_wall_s": {"untraced": [p.wall for p in untraced], "traced": [p.wall for p in traced]},
        "setup_samples_s": setup,
        "reference_loop_s": [r for p in passes for r in p.refs],
        "attempted": attempted,
        "failed": len(failures),
        "fail_fraction": len(failures) / attempted,
        "failures": [{"op": name, "kind": f.kind, "claimed": f.claimed, "detail": f.detail}
                     for name, f in failures],
        "end_to_end": e2e,
        "per_operation": per_op,
    }
    if args.trace:
        from tracer import LAYER_METRICS, layer_metrics

        per_pass = [layer_metrics(p.tracer) for p in traced]
        layers = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        layers["trace.overhead_s"] = calibrated_pass(traced) - e2e["wall_s"]
        report["per_layer"] = layers
        units = {name: unit for name, unit, _, _ in LAYER_METRICS}
        units["trace.overhead_s"] = "s"
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "op", "child_s"],
            "spans": [span for p in traced for span in p.tracer.spans],
        }))
    else:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in e2e.items()}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps(report))
    print(json.dumps({
        "correct": not any(f.claimed for _, f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every benchmarked workload, each in its own process, one after another."""
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        res = results[name]
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
