"""Benchmark for stiefelcd: four workloads, end-to-end metrics and a traced pass.

Run from the repository root; the package is imported from ./src:

    python3 bench/run.py --workload spca_desk --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 0

One run sets up its workload's inputs from --seed, then repeats the
workload's operation on them for --seconds and checks every output.

--trace 0 reports the end-to-end metrics:
  setup_s      median over fresh processes of the wall time from before
               `import stiefelcd` until the inputs are built
  run_ref      median over operations of one operation's wall time divided
               by that of a fixed numpy reference loop run around it (the
               first operation is a warm-up and is not counted)
  peak_rss_mb  peak resident memory of the benchmark process
The raw wall time per operation, run_s, is in the summary line with its
median, sample count and tail percentile.  It is not the gated metric
because the shared host's speed drifts by up to a quarter within a minute,
and the reference ratio cancels most of that drift.

--trace 1 reports the per-layer metrics of tracing.PER_LAYER: half the
time runs untraced, half with every layer's public functions wrapped, and
the spans are written to bench/out/spans-<workload>.csv.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it is a summary with sample counts,
error_rate and the environment.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace

WORKLOAD_NAMES = ("spca_desk", "l1pca_traced", "circle_grid", "verify")
SETUP_SAMPLES = 5
STRIDE_OFF_OPS = 3
END_TO_END_UNITS = {"setup_s": "s", "run_ref": "ref", "peak_rss_mb": "MB"}


def load_workloads():
    """The workloads module, with stiefelcd imported from ./src only."""
    src = os.path.join(os.getcwd(), "src")
    package = os.path.join(src, "stiefelcd")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit("bench: no src/stiefelcd here; run from the repository root")
    sys.path.insert(0, src)
    import stiefelcd

    if os.path.dirname(os.path.abspath(stiefelcd.__file__)) != package:
        raise SystemExit(f"bench: imported stiefelcd from {stiefelcd.__file__}, not {package}")
    import workloads

    return workloads


def describe(samples):
    """Median, sample count, IQR over median, and the tail percentile.

    The tail is the highest whole percentile with at least ten samples
    above it (nearest rank); with ten samples or fewer there is none.
    """
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "spread": None,
           "tail_percentile": None, "tail": None}
    if n >= 2:
        q1, median, q3 = statistics.quantiles(ordered, n=4)
        out["spread"] = (q3 - q1) / median
    if n > 10:
        p = (100 * (n - 10)) // n
        out["tail_percentile"] = p
        out["tail"] = ordered[max(1, -(-p * n // 100)) - 1]
    return out


@dataclass
class Op:
    """One timed operation; output and instance are kept only on request."""

    seconds: float
    counted: bool  # False for the warm-up
    failures: list
    reference: float = None
    instance: object = None
    output: object = None


def measure(workload, run, instances, seconds, warmup, min_ops=3, reference=None, keep=False):
    """Repeat run over the instances in turn until seconds have passed.

    Every output is checked as soon as its operation ends, outside the
    timed region.  With a reference timer, it runs before the first
    operation and after every one, and each operation's reference time is
    the mean of the two around it.
    """
    ops = []
    threads = threading.active_count()
    deadline = time.perf_counter() + seconds
    ref_before = reference() if reference else None
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        inst = instances[i % len(instances)]
        output = None
        t0 = time.perf_counter()
        try:
            output = run(i, inst)
            failures = []
        except Exception as err:  # a failed operation is counted, not fatal
            failures = [f"{type(err).__name__}: {err}"]
        dt = time.perf_counter() - t0
        if not failures:
            try:
                failures = workload.check(inst, output)
            except Exception as err:  # malformed output is a failed check
                failures = [f"check raised {type(err).__name__}: {err}"]
        if threading.active_count() > threads:
            failures.append(f"{threading.active_count() - threads} threads outlived the operation")
        ref = None
        if reference:
            ref_after = reference()
            ref, ref_before = 0.5 * (ref_before + ref_after), ref_after
        kept = (inst, output) if keep and not failures else (None, None)
        ops.append(Op(dt, not (warmup and i == 0), failures, ref, *kept))
        i += 1
    return ops


def median_ratio(ops):
    """Median over counted operations of wall time over reference time."""
    return statistics.median(op.seconds / op.reference for op in ops if op.counted)


def environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "machine_settings_changed": False,
        "note": "measures only its own processes; no governor, pinning, cgroup or "
        "cache setting is touched",
        "reference_noise": "a 0.8 s solve repeated on a shared 2-CPU host had "
        "IQR/median 0.21 in both wall and CPU time",
    }


def setup_child(args):
    t0 = time.perf_counter()
    workloads = load_workloads()
    workloads.WORKLOADS[args.workload].setup(args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def setup_samples(args):
    """Set-up wall times of SETUP_SAMPLES fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def untraced_run(args, workloads):
    workload = workloads.WORKLOADS[args.workload]
    setups = setup_samples(args)
    instances = workload.setup(args.seed)
    ops = measure(workload, lambda i, inst: workload.run(inst), instances, args.seconds,
                  warmup=True, reference=workloads.reference_seconds)
    times = [op.seconds for op in ops if op.counted]
    ratios = [op.seconds / op.reference for op in ops if op.counted]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_ref": statistics.median(ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    summary = {
        "setup_s": describe(setups),
        "run_ref": describe(ratios),
        "run_s": describe(times),
        "reference_s": describe([op.reference for op in ops if op.counted]),
    }
    return metrics, END_TO_END_UNITS, ops, summary


def traced_run(args, workloads):
    import tracing

    workload = workloads.WORKLOADS[args.workload]
    rec = tracing.Recorder()
    instances = workload.setup(args.seed, rec)
    half = args.seconds / 2.0
    ref = workloads.reference_seconds
    base = measure(workload, lambda i, inst: workload.run(inst), instances, half,
                   warmup=True, reference=ref, keep=True)
    base_ratio = median_ratio(base)

    trace_ratio, off = None, []
    if hasattr(workload, "untraced"):
        off = measure(workload, lambda i, inst: workload.run(workload.untraced(inst)),
                      instances, 0.0, warmup=False, min_ops=STRIDE_OFF_OPS, reference=ref)
        trace_ratio = base_ratio / median_ratio(off)

    traced_instances = [
        replace(inst, problem=rec.instrument(inst.problem)) if hasattr(inst, "problem") else inst
        for inst in instances
    ]
    rec.install()
    try:
        traced = measure(workload, lambda i, inst: rec.operation(i, workload.run, inst),
                         traced_instances, half, warmup=False, reference=ref)
    finally:
        rec.uninstall()
    ops = base + off + traced

    finished = [op for op in base if op.output is not None]
    quality = []
    if hasattr(workload, "quality"):
        for op in finished:
            quality += workload.quality(op.instance, op.output)
    iteration_seconds = None
    if hasattr(workload, "iteration_seconds") and finished:
        import numpy as np

        iteration_seconds = np.concatenate(
            [workload.iteration_seconds(op.output) for op in finished]
        )
    workers = os.cpu_count() or 1
    values, absent = tracing.layer_metrics(
        rec, median_ratio(traced) / base_ratio, trace_ratio, quality, iteration_seconds, workers
    )
    nproc = len(os.sched_getaffinity(0))
    if values["solvers.grid.threads"] > nproc:
        ops[-1].failures.append(f"grid ran on {values['solvers.grid.threads']} threads > nproc {nproc}")

    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    spans_path = os.path.join(workloads.OUT_DIR, f"spans-{args.workload}.csv")
    rec.write_spans(spans_path)
    units = {name: unit for name, unit, *_ in tracing.PER_LAYER}
    summary = {
        "samples": {"untraced_ops": len(base) - 1, "traced_ops": len(traced),
                    "stride_off_ops": len(off)},
        "spans": {"kept": len(rec.spans), "dropped": rec.dropped, "path": spans_path},
        "absent": absent,
        "targets": {name: target for name, _, _, target in tracing.PER_LAYER},
    }
    return values, units, ops, summary


def run_all(args):
    """Every workload in its own process, printed as one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=True,
        )
        lines = proc.stdout.splitlines()
        summary, result = json.loads(lines[-2]), json.loads(lines[-1])
        results[name] = result
        for metric, entry in result["metrics"].items():
            n = summary.get(metric, {}).get("n", 1)
            print(f"{name:13s} {metric:42s} {entry['value']:14.6g} {entry['unit']:6s} n={n}")
        run_s = summary.get("run_s")
        if run_s:
            tail = f" p{run_s['tail_percentile']}={run_s['tail']:.6g}" if run_s["tail"] else ""
            print(f"{name:13s} {'run_s (wall time, not gated)':42s} {run_s['median']:14.6g} s"
                  f"      n={run_s['n']}{tail}")
        print(f"{name:13s} error_rate {summary['error_rate']} "
              f"({result['failed']} failed / {result['attempted']} attempted)")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        return setup_child(args)
    if args.workload == "all":
        return run_all(args)

    workloads = load_workloads()
    run = traced_run if args.trace else untraced_run
    values, units, ops, summary = run(args, workloads)
    failed = sum(1 for op in ops if op.failures)
    summary.update(
        workload=args.workload,
        trace=args.trace,
        error_rate=failed / len(ops),
        failures=[op.failures for op in ops if op.failures][:5],
        environment=environment(args.seed),
    )
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))


if __name__ == "__main__":
    main()
