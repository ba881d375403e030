"""Kernel, iteration and ops layers of the solver's hot path, for one or two source trees.

Run from the repository root:

    python3 tools/layers.py --quick                      # ./src only, under 30 s
    python3 tools/layers.py --against HEAD~1 --out BENCH_15.json

--against REV extracts src/ of the git revision REV into a temporary
directory and measures it beside ./src.  Each tree is measured in fresh
interpreter processes, the trees alternating; a round runs 3 processes per
tree (1 with --quick) and keeps each metric's least value, so a slow spell
of a shared host shorter than a round moves none of its metrics.  A
process times:

  kernel layer     microseconds per call of core's private kernels on a
                   (1, 100, 5) stack, as the solver loop calls them, the
                   sparse-PCA quadratic oracle and its l1 proximal map;
                   and of the kernels that stiefelcd verify calls, at
                   verify's shapes: inverse_A at 12x4, its root solve
                   _scalar_map_inverse on four fixed singular values,
                   random_shell_point at 10x3 and project_stiefel at 20x5,
                   in batches a tenth as long; the best of 5 repeats of a
                   timed batch of calls
  iteration layer  microseconds per iteration of each algorithm on 100x5
                   sparse PCA (gamma 0.1, constant step 1e-3), with the
                   trace off (trace_stride = max_iters) and at stride 1;
                   and of the subgradient and proximal methods on the
                   benchmark's noisy 12x3 L1-PCA (30x12 data, p = 3, noise
                   sigma 0.05 with bound 0.1, estimated safeguards and the
                   shell check, the l1pca_traced config), likewise; the
                   best of 3 runs
  sampling layer   microseconds per estimate_constants call on that noisy
                   L1-PCA instance at the data seed, as l1pca_traced sets
                   it up, and per brute_force_sphere_oracle call at 100 000
                   angles on the circle grid's problem; the best of 7
                   calls; and the oracle's tracemalloc peak in KiB at
                   100 000 and 1 000 000 angles

and, once per tree in a process of its own:

  ops layer        Python and C function calls per iteration of the same
                   runs, noisy ones included, counted with sys.setprofile:
                   a 2 000-iteration run minus a 1 000-iteration run, after
                   one warm run; and
                   per iteration of the stacked grid (run_step_grid) of
                   each algorithm on the benchmark's circle grid config
                   (6x2 L1-PCA data, p = 1, beta 0.1, harmonic eta0 0.03),
                   a 2 000-epoch grid minus a 1 000-epoch grid, whose
                   surviving candidates are the same; and, as
                   sample_ops, per sample of that noisy estimate_constants
                   call, 400 samples minus 200.  The counts repeat
                   exactly, so --against gives their exact difference,
                   ./src minus REV.  c_call does not see operators such as
                   @ and -, so a count is a proxy for numpy dispatches, not
                   for flops

The JSON gives, per metric and tree, the median and the quartiles over the
rounds, and with --against the ratio of the medians, ./src over REV, and
the median and quartiles of the per-round ratios, ./src over REV within
each round.  The two trees of a round run back to back, so a slow spell
of a shared host moves both sides of a per-round ratio alike; a move that
the ratio of medians leaves unresolved can show in the paired one.
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
import tracemalloc
from functools import partial

KERNEL_SHAPE = (1, 100, 5)
VERIFY_SPECTRUM = (0.2, 0.9, 1.4, 2.5)  # inverse_A's 12x4 input is A of a matrix with these
VERIFY_BATCH_DIVISOR = 10  # the verify kernels cost tens of microseconds: batches a tenth as long
DATA_SEED, X_SEED, RUN_SEED = 3, 0, 1
GRID_SEED = 0  # data and grid seed of the ops layer's circle grid: 3, 5 and 10 candidates survive
TOP_EIGENVALUES = (10.0, 8.0, 6.0, 4.0, 2.0)
ALGORITHMS = ("ncdf_sgd", "ncdf_proxsgd", "rsgd_baseline")
OPS_ITERS = (1_000, 2_000)  # the ops layer counts the second run minus the first
OPS_SAMPLES = (200, 400)  # and the second estimate minus the first
SPHERE_STEPS = (100_000, 1_000_000)  # the oracle is timed at the first; its peak read at both
SAMPLING_REPEATS = 7
MODES = {  # rounds, processes per tree and round, kernel calls per timed batch, iterations per run
    "quick": (3, 1, 2_000, 300),
    "full": (7, 3, 20_000, 2_000),
}


def iteration_problem():
    """The 100x5 sparse PCA problem of the iteration and ops layers."""
    from stiefelcd.problems import make_sparse_pca, spiked_covariance

    return make_sparse_pca(spiked_covariance(100, TOP_EIGENVALUES, seed=DATA_SEED), 5, 0.1)


def iteration_runs(iters):
    """(metric suffix, run callable) for each algorithm, trace off and at stride 1."""
    from stiefelcd import solvers

    problem = iteration_problem()
    for algorithm in ALGORITHMS:
        for label, stride in (("trace_off", iters), ("stride_1", 1)):
            cfg = solvers.SolverConfig(
                beta=1.0,
                schedule=solvers.StepSchedule(kind="constant", eta0=1e-3),
                max_iters=iters,
                seed=RUN_SEED,
                trace_stride=stride,
            )
            run = solvers.ALGORITHM_RUNNERS[algorithm]
            yield f"{algorithm}.{label}", partial(run, problem, cfg)


def noisy_problem():
    """The noisy 12x3 L1-PCA problem of bench/workloads.py's l1pca_traced at the data seed."""
    from stiefelcd.problems import NoiseModel, attach_noise, gaussian_matrix, make_l1_pca

    data = gaussian_matrix(30, 12, seed=DATA_SEED)
    return attach_noise(make_l1_pca(data, 3), NoiseModel(sigma=0.05, bound=0.1))


def noisy_runs(iters):
    """(metric suffix, run callable) of the noisy L1-PCA runs, trace off and at stride 1.

    As bench/workloads.py's l1pca_traced sets up an instance: beta is the
    smallest that the shell check accepts for the sampled constants, and the
    steps are the largest that the safeguards allow.
    """
    from stiefelcd import solvers
    from stiefelcd.problems import estimate_constants

    problem = noisy_problem()
    m1, mt, mh = estimate_constants(problem, seed=DATA_SEED)
    beta = max(16.0 * m1, 60.0 * mt, 16.0 * mh)
    for algorithm, eta in (("ncdf_sgd", 1.0 / (2.0 * beta)), ("ncdf_proxsgd", 1.0 / (19.0 * mt))):
        for label, stride in (("trace_off", iters), ("stride_1", 1)):
            cfg = solvers.SolverConfig(
                beta=beta,
                schedule=solvers.StepSchedule(kind="constant", eta0=eta),
                max_iters=iters,
                feas_shell_check=True,
                safeguards=(m1, mt, mh),
                seed=RUN_SEED,
                trace_stride=stride,
            )
            run = solvers.ALGORITHM_RUNNERS[algorithm]
            yield f"noisy.{algorithm}.{label}", partial(run, problem, cfg)


def circle_problem():
    """The 2x1 L1-PCA problem of the circle grid config (6x2 data)."""
    from stiefelcd.problems import gaussian_matrix, make_l1_pca

    return make_l1_pca(gaussian_matrix(6, 2, seed=GRID_SEED), 1)


def grid_runs(budget_epochs):
    """(metric name, grid callable) for each algorithm on the circle grid config."""
    from stiefelcd import solvers

    problem = circle_problem()
    cfg = solvers.SolverConfig(
        beta=0.1, schedule=solvers.StepSchedule(kind="harmonic_decay", eta0=0.03), seed=GRID_SEED
    )
    for algorithm in ALGORITHMS:
        grid = partial(solvers.run_step_grid, problem, cfg, budget_epochs, algorithm)
        yield f"grid.{algorithm}", grid


def count_calls(run):
    """{"call": Python calls, "c_call": C calls} made by run()."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def sampling_runs(samples):
    """(metric name, estimate callable) of estimate_constants on the noisy L1-PCA problem."""
    from stiefelcd.problems import estimate_constants

    estimate = partial(estimate_constants, noisy_problem(), samples, DATA_SEED)
    yield "estimate_constants.noisy", estimate


def count_ops(src):
    """Calls of the stiefelcd under src: {"ops": in OPS_ITERS' extra iterations of each run
    and grid, "sample_ops": in OPS_SAMPLES' extra samples of each estimate}."""
    sys.path.insert(0, src)
    out = {"ops": {}, "sample_ops": {}}
    layers = [("ops", OPS_ITERS, runs) for runs in (iteration_runs, noisy_runs, grid_runs)]
    for layer, (short, long), runs in [*layers, ("sample_ops", OPS_SAMPLES, sampling_runs)]:
        for (name, run_short), (_, run_long) in zip(runs(short), runs(long)):
            run_short()  # warm: fills one-time caches
            a, b = count_calls(run_short), count_calls(run_long)
            for event, label in (("call", "python"), ("c_call", "c")):
                out[layer][f"{name}.{label}_calls"] = b[event] - a[event]
    return out


def sphere_peak_kib(problem, steps):
    """tracemalloc's peak, in KiB, over one brute_force_sphere_oracle call."""
    from stiefelcd.diagnostics import brute_force_sphere_oracle

    tracemalloc.start()
    try:
        brute_force_sphere_oracle(problem, steps)
        return tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()


def measure(src, calls, iters):
    """One process's kernel and iteration timings of the stiefelcd under src."""
    sys.path.insert(0, src)
    import numpy as np

    from stiefelcd import core

    problem = iteration_problem()
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
    u = np.linalg.qr(rng.standard_normal((12, 4)))[0]
    v = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    y = core.apply_A((u * np.array(VERIFY_SPECTRUM)) @ v.T)
    sigma = core.scalar_map(np.array(VERIFY_SPECTRUM, dtype=np.longdouble))
    shell = core.random_shell_point(rng, 20, 5, 0.5)
    verify_kernels = {
        "inverse_A": lambda: core.inverse_A(y),
        "_scalar_map_inverse": lambda: core._scalar_map_inverse(sigma, 1e-14),
        "random_shell_point": lambda: core.random_shell_point(rng, 10, 3, 0.5),
        "project_stiefel": lambda: core.project_stiefel(shell),
    }
    out = {}
    for group, number in ((kernels, calls), (verify_kernels, calls // VERIFY_BATCH_DIVISOR)):
        for name, fn in group.items():
            best = min(timeit.repeat(fn, number=number, repeat=5))
            out["kernel_us." + name] = 1e6 * best / number
    for name, run in [*iteration_runs(iters), *noisy_runs(iters)]:
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            run()
            runs.append(time.perf_counter() - t0)
        out["iteration_us." + name] = 1e6 * min(runs) / iters
    from stiefelcd.diagnostics import brute_force_sphere_oracle
    from stiefelcd.problems import estimate_constants

    noisy, circle = noisy_problem(), circle_problem()
    sampling = {
        "estimate_constants": lambda: estimate_constants(noisy, seed=DATA_SEED),
        "sphere_oracle": lambda: brute_force_sphere_oracle(circle, SPHERE_STEPS[0]),
    }
    for name, fn in sampling.items():
        fn()  # warm
        out["sampling_us." + name] = 1e6 * min(timeit.repeat(fn, number=1, repeat=SAMPLING_REPEATS))
    for steps in SPHERE_STEPS:
        out[f"sampling_peak_kib.sphere_oracle.{steps}"] = sphere_peak_kib(circle, steps)
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
    parser.add_argument("--count-ops", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        src, calls, iters = args.measure
        print(json.dumps(measure(src, int(calls), int(iters))))
        return
    if args.count_ops:
        print(json.dumps(count_ops(args.count_ops)))
        return
    mode = "quick" if args.quick else "full"
    rounds, processes, calls, iters = MODES[mode]
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"worktree": os.path.abspath("src")}
        if args.against:
            trees = {args.against: extract(args.against, tmp), **trees}
        commands = {
            label: [sys.executable, __file__, "--measure", src, str(calls), str(iters)]
            for label, src in trees.items()
        }
        samples = {label: [] for label in trees}
        for r in range(rounds):
            order = list(trees) if r % 2 == 0 else list(trees)[::-1]
            measured = {label: [] for label in trees}
            for _ in range(processes):
                for label in order:
                    done = subprocess.run(
                        commands[label], check=True, capture_output=True, text=True
                    )
                    measured[label].append(json.loads(done.stdout))
            for label, outs in measured.items():  # numpy's version string is the same in each
                samples[label].append({name: min(o[name] for o in outs) for name in outs[0]})
        counted = {}
        for label, src in trees.items():
            cmd = [sys.executable, __file__, "--count-ops", src]
            counted[label] = json.loads(subprocess.run(cmd, check=True, capture_output=True).stdout)
    metrics = {}
    for name in samples["worktree"][0]:
        if name == "numpy":
            continue
        metrics[name] = {label: summary([s[name] for s in runs]) for label, runs in samples.items()}
        if args.against:
            metrics[name]["ratio"] = (
                metrics[name]["worktree"]["median"] / metrics[name][args.against]["median"]
            )
            pairs = zip(samples["worktree"], samples[args.against], strict=True)
            metrics[name]["paired_ratio"] = summary([a[name] / b[name] for a, b in pairs])
    # calls per iteration, or per sample; the difference of the integer counts, so it is exact
    ops = {"ops": {}, "sample_ops": {}}
    for layer, (short, long) in (("ops", OPS_ITERS), ("sample_ops", OPS_SAMPLES)):
        for name in counted["worktree"][layer]:
            ops[layer][name] = {
                label: counts[layer][name] / (long - short) for label, counts in counted.items()
            }
            if args.against:
                change = counted["worktree"][layer][name] - counted[args.against][layer][name]
                ops[layer][name]["difference"] = change / (long - short)
    report = {
        "script": "tools/layers.py",
        "mode": mode,
        "rounds": rounds,
        "processes_per_round": processes,
        "trees": list(trees),
        "environment": {
            "python": platform.python_version(),
            "numpy": samples["worktree"][0]["numpy"],
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
        },
        "shapes": {
            "kernel": list(KERNEL_SHAPE),
            "verify_kernels": {
                "inverse_A": [12, 4],
                "_scalar_map_inverse": len(VERIFY_SPECTRUM),
                "random_shell_point": [10, 3],
                "project_stiefel": [20, 5],
            },
            "iteration": [100, 5],
            "noisy": [30, 12, 3],
            "grid": [6, 2, 1],
            "sphere_steps": list(SPHERE_STEPS),
        },
        "verify_spectrum": list(VERIFY_SPECTRUM),
        "seeds": {"data": DATA_SEED, "kernel_x": X_SEED, "run": RUN_SEED, "grid": GRID_SEED},
        "kernel_calls_per_batch": calls,
        "verify_kernel_calls_per_batch": calls // VERIFY_BATCH_DIVISOR,
        "iterations_per_run": iters,
        "sampling_repeats": SAMPLING_REPEATS,
        "metrics": metrics,
        "ops_iterations": list(OPS_ITERS),
        "ops_samples": list(OPS_SAMPLES),
        "ops_note": "calls per iteration, and sample_ops per sample; c_call does not see "
        "operators such as @ and -, so a count is a proxy for numpy dispatches, not for flops",
        **ops,
    }
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
