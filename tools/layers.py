"""Kernel and iteration layers of the solver's hot path, for one or two source trees.

Run from the repository root:

    python3 tools/layers.py --quick                      # ./src only, under 20 s
    python3 tools/layers.py --against HEAD~1 --out BENCH_15.json

--against REV extracts src/ of the git revision REV into a temporary
directory and measures it beside ./src.  Each tree is measured in fresh
interpreter processes, the trees alternating, one process per tree and
round.  A process times:

  kernel layer     microseconds per call of core's private kernels on a
                   (1, 100, 5) stack, as the solver loop calls them, the
                   sparse-PCA quadratic oracle and its l1 proximal map;
                   the best of 5 repeats of a timed batch of calls
  iteration layer  microseconds per iteration of each algorithm on 100x5
                   sparse PCA (gamma 0.1, constant step 1e-3), with the
                   trace off (trace_stride = max_iters) and at stride 1;
                   the best of 3 runs

The JSON gives, per metric and tree, the median and the quartiles over the
rounds, and with --against the ratio of the medians, ./src over REV.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import timeit

KERNEL_SHAPE = (1, 100, 5)
DATA_SEED, X_SEED, RUN_SEED = 3, 0, 1
TOP_EIGENVALUES = (10.0, 8.0, 6.0, 4.0, 2.0)
ALGORITHMS = ("ncdf_sgd", "ncdf_proxsgd", "rsgd_baseline")
MODES = {  # rounds, kernel calls per timed batch, iterations per run
    "quick": (3, 2_000, 300),
    "full": (7, 20_000, 2_000),
}


def measure(src, calls, iters):
    """One process's kernel and iteration timings of the stiefelcd under src."""
    sys.path.insert(0, src)
    import numpy as np

    from stiefelcd import core, solvers
    from stiefelcd.problems import make_sparse_pca, spiked_covariance

    problem = make_sparse_pca(spiked_covariance(100, TOP_EIGENVALUES, seed=DATA_SEED), 5, 0.1)
    rng = np.random.default_rng(X_SEED)
    q = np.linalg.qr(rng.standard_normal(KERNEL_SHAPE[1:]))[0]
    x = np.ascontiguousarray((1.0 + 1e-3) * q[None])  # inside the shell, off the manifold
    d = rng.standard_normal(KERNEL_SHAPE)
    resid, poly = core._state(x)
    kernels = {
        "_state": lambda: core._state(x),
        "_fro": lambda: core._fro(resid),
        "_map": lambda: core._map(x, poly),
        "_jacobian": lambda: core._jacobian(x, d, resid, poly),
        "_polar": lambda: core._polar(x),
        "quadratic_oracle": lambda: problem.phi_subgrad(x, None),
        "l1_prox": lambda: problem.reg.prox(x, 1e-3),
    }
    out = {}
    for name, fn in kernels.items():
        best = min(timeit.repeat(fn, number=calls, repeat=5))
        out["kernel_us." + name] = 1e6 * best / calls
    for algorithm in ALGORITHMS:
        for label, stride in (("trace_off", iters), ("stride_1", 1)):
            cfg = solvers.SolverConfig(
                beta=1.0,
                schedule=solvers.StepSchedule(kind="constant", eta0=1e-3),
                max_iters=iters,
                seed=RUN_SEED,
                trace_stride=stride,
            )
            runs = []
            for _ in range(3):
                t0 = time.perf_counter()
                solvers.ALGORITHM_RUNNERS[algorithm](problem, cfg)
                runs.append(time.perf_counter() - t0)
            out[f"iteration_us.{algorithm}.{label}"] = 1e6 * min(runs) / iters
    out["numpy"] = np.__version__
    return out


def extract(rev, into):
    """src/ of git revision rev, unpacked under into."""
    archive = os.path.join(into, "src.tar")
    subprocess.run(["git", "archive", "--output", archive, rev, "src"], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    return os.path.join(into, "src")


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="3 rounds of short timings")
    parser.add_argument("--against", metavar="REV", help="also measure src/ of this git revision")
    parser.add_argument("--out", help="write the JSON here as well as to stdout")
    parser.add_argument("--measure", nargs=3, help=argparse.SUPPRESS)  # src calls iters
    args = parser.parse_args()
    if args.measure:
        src, calls, iters = args.measure
        print(json.dumps(measure(src, int(calls), int(iters))))
        return
    mode = "quick" if args.quick else "full"
    rounds, calls, iters = MODES[mode]
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"worktree": os.path.abspath("src")}
        if args.against:
            trees = {args.against: extract(args.against, tmp), **trees}
        samples = {label: [] for label in trees}
        for r in range(rounds):
            order = list(trees) if r % 2 == 0 else list(trees)[::-1]
            for label in order:
                cmd = [sys.executable, __file__, "--measure", trees[label], str(calls), str(iters)]
                done = subprocess.run(cmd, check=True, capture_output=True, text=True)
                samples[label].append(json.loads(done.stdout))
    metrics = {}
    for name in samples["worktree"][0]:
        if name == "numpy":
            continue
        metrics[name] = {label: summary([s[name] for s in runs]) for label, runs in samples.items()}
        if args.against:
            metrics[name]["ratio"] = (
                metrics[name]["worktree"]["median"] / metrics[name][args.against]["median"]
            )
    report = {
        "script": "tools/layers.py",
        "mode": mode,
        "rounds": rounds,
        "trees": list(trees),
        "environment": {
            "python": platform.python_version(),
            "numpy": samples["worktree"][0]["numpy"],
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
        },
        "shapes": {"kernel": list(KERNEL_SHAPE), "iteration": [100, 5]},
        "seeds": {"data": DATA_SEED, "kernel_x": X_SEED, "run": RUN_SEED},
        "kernel_calls_per_batch": calls,
        "iterations_per_run": iters,
        "metrics": metrics,
    }
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
