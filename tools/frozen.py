"""Frozen outputs of the stiefelcd command line, against themselves and against a git revision.

Run from the repository root:
    python3 tools/frozen.py                    # ./src twice: determinism and each case's checks
    python3 tools/frozen.py --against HEAD     # uncommitted work against the last commit
    python3 tools/frozen.py --against HEAD^1   # a commit against its parent

Each case is one process in a directory of its own, run twice on ./src and, with --against
REV, once on src/ of REV (unpacked by tools/layers.py's extract).  The runs must agree in exit
code, stderr, stdout without the run summary's "seconds", and trace columns 1-5; the first must
give the case's exit code and pass its expect.  A failure names the case and the part; a
trace that differs also gets each column's largest absolute and relative difference.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

from layers import extract

TRACE = "trace.csv"
SECONDS = re.compile(r'"seconds": [^,]*, ')
Result = namedtuple("Result", "code stderr stdout trace")

NOISE = {"sigma": 0.05, "bound": 0.1}
L1PCA = {"kind": "l1_pca", "rows": 20, "n": 6, "p": 2, "seed": 4, "noise": NOISE}
SPCA = {"kind": "sparse_pca", "n": 100, "p": 5, "seed": 3, "gamma": 0.1,
        "top_eigenvalues": [10.0, 8.0, 6.0, 4.0, 2.0]}
MLP = {"kind": "orthogonal_mlp", "widths": [8, 3, 2], "n_samples": 40, "seed": 5}
QUAD = {"kind": "quadratic_trace", "n": 8, "p": 3, "seed": 1}
SCALED = {**QUAD, "scale": 0.01}
CIRCLE = {"kind": "l1_pca", "rows": 6, "n": 2, "p": 1, "seed": 0}
HUGE = {"kind": "l1_pca", "data_path": "data.csv", "p": 1}
SHELL = {"safeguards": "estimate", "feas_shell_check": True}
RUN = {"max_iters": 300, "seed": 7, "trace_stride": 1}
CAPPED = {**SHELL, "budget_epochs": 30, "max_iters": 60, "seed": 7, "kind": "harmonic_decay",
          "eta0": 0.9, "epoch_len": 2}
SAMPLING = f"""from stiefelcd.cli import build_problem
from stiefelcd.diagnostics import brute_force_sphere_oracle
from stiefelcd.problems import estimate_constants
for conf in {[{**L1PCA, "rows": 30, "n": 12, "p": 3}, {**SPCA, "noise": NOISE}, MLP]!r}:
    print(*(v.hex() for v in estimate_constants(build_problem(conf), seed=7)))
print(*(v.hex() for v in brute_force_sphere_oracle(build_problem({CIRCLE!r}), 100_000)))"""


def cli(command, code, expect=None, problem=None, trace=False, data=None, **solver):
    """(argv, files, exit code, expect) of a stiefelcd.cli process.  solver's kind, eta0 and
    epoch_len go to its schedule; expect(Result), if given, must hold on ./src's first run."""
    files = {"data.csv": (data + "\n") * 4} if data else {}
    if problem:
        if "eta0" in solver:
            solver["schedule"] = {k: solver.pop(k) for k in ("kind", "eta0", "epoch_len")
                                  if k in solver}
        output = {"output": {"trace_path": TRACE}} if trace else {}
        files["config.json"] = json.dumps({"problem": problem, "solver": solver, **output})
    config = ["config.json"] if problem else []
    return ["-m", "stiefelcd.cli", *command.split(), *config], files, code, expect


def rows(n):
    return lambda r: r.trace.count("\n") == n


CASES = {
    "det": cli("run", 0, None, L1PCA, True, algorithm="ncdf_proxsgd", beta=500.0, **SHELL,
               kind="constant", eta0=0.0001, **RUN),
    "det-quad": cli("run", 0, rows(301), QUAD, True, algorithm="ncdf_sgd", beta=2000.0, **SHELL,
                    kind="constant", eta0=0.0001, **RUN),
    "det-spca": cli("run", 0, rows(501), SPCA, True, algorithm="ncdf_proxsgd", beta=1.0,
                    kind="constant", eta0=0.005, **{**RUN, "max_iters": 500, "seed": 2}),
    "det-mlp": cli("run", 0, rows(201), MLP, True, algorithm="ncdf_sgd", beta=1.0,
                   kind="constant", eta0=0.01, **{**RUN, "max_iters": 200, "seed": 2}),
    "det-rsgd": cli("run", 0, rows(301), L1PCA, True, algorithm="rsgd_baseline", beta=1.0,
                    kind="harmonic_decay", eta0=0.01, **RUN),
    "det-sgd": cli("run", 0, rows(301), {**L1PCA, "rows": 30, "n": 12, "p": 3}, True,
                   algorithm="ncdf_sgd", beta=6500.0, **SHELL, kind="constant", eta0=5e-05, **RUN),
    **{f"verify-{seed}": cli(f"verify --seed {seed} --samples 200", 0) for seed in range(3)},
    "rsgd-nonfinite": cli("run", 2, lambda r: "\nrun diverged: baseline step produced non-finite "
                          "entries at iteration 0\n" in "\n" + r.stderr, HUGE, True,
                          "1e200,1e200,1e200", algorithm="rsgd_baseline", max_iters=5,
                          trace_stride=1, kind="constant", eta0=1e300),
    "rsgd-grid": cli("grid", 0, None, L1PCA, algorithm="rsgd_baseline", budget_epochs=40, seed=7,
                     kind="harmonic_decay", eta0=0.01, epoch_len=5),
    "stop": cli("run", 0, lambda r: re.search('"iterations": 40, .*"tol_met"',
                                              r.stdout.splitlines()[-1]), {**SPCA, "n": 30, "p": 3,
                "top_eigenvalues": [10.0, 8.0, 6.0]}, True, algorithm="ncdf_sgd", beta=1.0,
                kind="constant", eta0=0.005, max_iters=800, seed=2, trace_stride=3,
                stop_tol_stationarity=5.0, stop_tol_feasibility=0.1),
    **{f"{name}-grid": cli("grid", 0, lambda r: r.stdout.count(" inf\n") == 9
                           and r.stdout.endswith("\nselected 0.01\n"), L1PCA, algorithm=name,
                           beta=1.0, seed=7, budget_epochs=20, trace_stride=1,
                           kind="harmonic_decay", eta0=0.01)
       for name in ("ncdf_sgd", "ncdf_proxsgd")},
    **{f"circle-{name}": cli("grid", 0, lambda r, n=name: n != "ncdf_sgd"
                             or r.stdout.count(" inf\n") == 6, CIRCLE, algorithm=name, beta=0.1,
                             budget_epochs=250, seed=0, trace_stride=250, kind="harmonic_decay",
                             eta0=0.03)
       for name in ("ncdf_sgd", "ncdf_proxsgd", "rsgd_baseline")},
    **{f"capped-{name}-{beta}": cli("grid", code, lambda r, ok=ok: r.stdout.count(" inf\n") in ok,
                                    SCALED, algorithm=name, beta=beta, **CAPPED)
       for name, beta, code, ok in (("ncdf_sgd", 10.0, 0, range(1, 10)),
                                    ("ncdf_proxsgd", 10.0, 0, range(1, 10)),
                                    ("ncdf_sgd", 1.0, 2, [10]))},
    **{f"capped-run-{name}": cli("run", 3, lambda r: re.search(
        "largest scheduled step is 0.9$", r.stderr, re.M), SCALED,
        algorithm=name, beta=10.0, **CAPPED) for name in ("ncdf_sgd", "ncdf_proxsgd")},
    "sampling": (["-c", SAMPLING], {}, 0, lambda r: r.stdout.count("\n") == 4),
    "huge": cli("run", 2, lambda r: r.stderr.count("\n") == 1 and json.loads(  # strict JSON
                r.stdout.splitlines()[-1], parse_constant=int)["stationarity"] is None,
                HUGE, False, "1e308,1e308,1e308", algorithm="ncdf_sgd", max_iters=5),
    "verify-negative-seed": cli("verify --seed -1", 3,
                                lambda r: r.stderr.count("\n") == 1 and "seed" in r.stderr),
}


def run(case, src, where):
    """Result of one process of case on the stiefelcd under src, in the new directory where."""
    where.mkdir(parents=True)
    for name, text in case[1].items():
        (where / name).write_text(text, encoding="utf-8")
    done = subprocess.run([sys.executable, *case[0]], cwd=where, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    path = where / TRACE
    lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
    trace = "".join(",".join(line.split(",")[:5]) + "\n" for line in lines)
    return Result(done.returncode, done.stderr, SECONDS.sub("", done.stdout), trace)


def gap(x, y):
    """(absolute, relative) difference of two trace entries: 0 where both are equal or nan."""
    d = 0.0 if x == y or x != x and y != y else abs(x - y)
    return (d, d and d / max(abs(x), abs(y))) if math.isfinite(d) else (math.inf, math.inf)


def trace_gaps(a, b):
    """Lines giving, per trace column, the largest absolute and relative difference."""
    (header, *a), b = a.splitlines(), b.splitlines()[1:]
    out = [f"    {len(a)} rows against {len(b)}"] if len(a) != len(b) else []
    for j, column in enumerate(header.split(",")):
        gaps = [gap(float(x.split(",")[j]), float(y.split(",")[j])) for x, y in zip(a, b)]
        gaps = gaps or [(0.0, 0.0)]
        out.append(f"    {column}: largest absolute difference {max(g[0] for g in gaps):.3e}, "
                   f"relative {max(g[1] for g in gaps):.3e}")
    return out


def check(name, case, runs):
    """Failure lines of the case called name, given its runs as (label, Result), ./src's first."""
    (_, first), *others = runs
    failed = [] if first.code == case[2] else [f"{name}: exit code {first.code}, not {case[2]}"]
    try:
        holds = case[3] is None or case[3](first)
    except (ValueError, LookupError, TypeError):  # no last line, or NaN in JSON: int("NaN")
        holds = False
    failed += [] if holds else [f"{name}: its expect fails"]
    for label, other in others:
        for part, a, b in zip(Result._fields, first, other):
            if a != b:
                failed.append(f"{name}: {part} differs between ./src and {label}")
                failed += trace_gaps(a, b) if part == "trace" and a and b else []
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="also run src/ of this git revision")
    args = parser.parse_args()
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = [("./src", os.path.abspath("src")), ("./src's second run", os.path.abspath("src"))]
        trees += [(args.against, extract(args.against, tmp))] if args.against else []
        for name, case in CASES.items():
            failures = check(name, case, [(label, run(case, src, Path(tmp, str(i), name)))
                                          for i, (label, src) in enumerate(trees)])
            print(f"{name}: {'FAILED' if failures else 'ok'}", flush=True)
            failed += failures
    print(*failed, f"{len(CASES)} cases on {', '.join(label for label, _ in trees)}: "
          f"{'FAILED' if failed else 'all agree and every check holds'}", sep="\n")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
