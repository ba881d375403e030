"""The four benchmark workloads: seeded inputs, one timed operation, output checks.

Each workload builds a small set of instances from the benchmark seed in
``setup`` and cycles through them, one instance per timed operation, so a
run's median averages over several inputs instead of resting on one.
Operations are sized at under a second so that a 20 s run holds about
twenty of them; each step or sample count that is shorter than its
acceptance criterion's says so where it is set.

Operations reach the package through module attributes
(solvers.ALGORITHM_RUNNERS, cli.main) so that the traced pass's wrappers
see them.  Checks hold for every seed and use the names this module bound
at import time, before any wrapper is installed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from stiefelcd import cli, solvers
from stiefelcd.core import feasibility_violation
from stiefelcd.diagnostics import IDENTITY_CHECKS, brute_force_sphere_oracle
from stiefelcd.problems import (
    NoiseModel,
    attach_noise,
    estimate_constants,
    gaussian_matrix,
    make_l1_pca,
    make_sparse_pca,
)
from stiefelcd.solvers import SolverConfig, StepSchedule, grid_candidates, stationarity_estimate

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

SHELL = 1.0 / 6.0


def derived_seeds(seed: int, count: int) -> list:
    """Instance seeds for one run, a pure function of the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence([int(seed), 2205]).generate_state(count)]


def _call(rec, name, fn, *args, **kwargs):
    """fn(*args), recorded as a span called name when a recorder is given."""
    if rec is None:
        return fn(*args, **kwargs)
    return rec.wrap(name, fn)(*args, **kwargs)


def _captured(argv):
    """cli.main(argv) with its stdout and stderr kept in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# spca_desk: criterion 11, the 100 x 5 sparse PCA desk run

SPCA_STEPS = 6000  # criterion 11 runs 60 000; the decay keeps its shape


def planted_sparse_covariance(seed: int) -> np.ndarray:
    """100 x 100 PSD matrix with five sparse planted spikes, as in criterion 11."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    top = np.zeros((20, 20))
    for i, lam in enumerate((5.0, 4.0, 3.0, 2.0, 1.0)):
        v = np.zeros(20)
        v[4 * i : 4 * i + 4] = rng.choice([-0.5, 0.5], size=4)
        top += lam * np.outer(v, v)
    w = gaussian_matrix(80, 80, seed=seed + 1000)
    cov = np.zeros((100, 100))
    cov[:20, :20] = top
    cov[20:, 20:] = 0.005 * (w @ w.T) / 80.0
    return 0.5 * (cov + cov.T)


def spca_schedule(total: int = SPCA_STEPS) -> StepSchedule:
    """Criterion 11's step rule on a horizon of total steps: flat, then geometric decay."""
    ks = np.arange(total)
    rate = 0.9995 ** (60_000 / total)
    steps = np.maximum(5e-3 * np.minimum(1.0, rate ** (ks - total // 2)), 1e-8)
    return StepSchedule(kind="custom", values=tuple(steps))


@dataclass(frozen=True)
class SpcaInstance:
    problem: object
    cfg: SolverConfig


class SpcaDesk:
    name = "spca_desk"
    instances = 8

    def setup(self, seed, rec=None):
        schedule = spca_schedule()
        out = []
        for d in derived_seeds(seed, self.instances):
            cov = planted_sparse_covariance(d)
            problem = _call(rec, "problems.build", make_sparse_pca, cov, 5, 0.1)
            cfg = SolverConfig(
                beta=1.0,
                schedule=schedule,
                max_iters=SPCA_STEPS,
                seed=d,
                trace_stride=SPCA_STEPS,
            )
            out.append(SpcaInstance(problem, cfg))
        return out

    def run(self, inst):
        return solvers.ALGORITHM_RUNNERS["ncdf_proxsgd"](inst.problem, inst.cfg)

    def check(self, inst, result):
        bad = []
        feas = feasibility_violation(result.final_x)
        if not feas <= 1e-3:
            bad.append(f"final feasibility {feas:.3e} > 1e-3")
        proj = feasibility_violation(result.projected.matrix)
        if not proj <= 1e-12:
            bad.append(f"projected feasibility {proj:.3e} > 1e-12")
        return bad

    def quality(self, inst, result):
        """(stationarity, feasibility) of the final iterate."""
        return [
            (
                stationarity_estimate(inst.problem, result.projected),
                feasibility_violation(result.final_x),
            )
        ]


# ---------------------------------------------------------------------------
# l1pca_traced: criterion 8, noisy L1-PCA with safeguards at trace stride 1

L1PCA_STEPS = 1000  # per run; criterion 8 runs 10 000


@dataclass(frozen=True)
class L1pcaInstance:
    problem: object
    sgd_cfg: SolverConfig
    prox_cfg: SolverConfig
    mt: float


class L1pcaTraced:
    name = "l1pca_traced"
    instances = 8

    def setup(self, seed, rec=None):
        out = []
        for d in derived_seeds(seed, self.instances):
            data = gaussian_matrix(30, 12, seed=d)
            noisy = _call(
                rec,
                "problems.build",
                lambda: attach_noise(make_l1_pca(data, 3), NoiseModel(sigma=0.05, bound=0.1)),
            )
            m1, mt, mh = _call(
                rec, "problems.estimate_constants", estimate_constants, noisy, seed=d
            )
            beta = max(16.0 * m1, 60.0 * mt, 16.0 * mh)
            common = dict(
                beta=beta,
                max_iters=L1PCA_STEPS,
                feas_shell_check=True,
                safeguards=(m1, mt, mh),
                trace_stride=1,
            )
            sgd = SolverConfig(
                schedule=StepSchedule(kind="constant", eta0=1.0 / (2.0 * beta)),
                seed=d,
                **common,
            )
            prox = SolverConfig(
                schedule=StepSchedule(kind="constant", eta0=1.0 / (19.0 * mt)),
                seed=d + 1,
                **common,
            )
            out.append(L1pcaInstance(noisy, sgd, prox, mt))
        return out

    def run(self, inst):
        runners = solvers.ALGORITHM_RUNNERS
        return (
            runners["ncdf_sgd"](inst.problem, inst.sgd_cfg),
            runners["ncdf_proxsgd"](inst.problem, inst.prox_cfg),
        )

    def untraced(self, inst):
        """The same instance with the solver's own trace off (stride = max_iters)."""
        return replace(
            inst,
            sgd_cfg=replace(inst.sgd_cfg, trace_stride=L1PCA_STEPS),
            prox_cfg=replace(inst.prox_cfg, trace_stride=L1PCA_STEPS),
        )

    def check(self, inst, results):
        sgd, prox = results
        bad = []
        for label, res in (("sgd", sgd), ("prox", prox)):
            worst = max(res.trace.feas)
            if not worst <= SHELL:
                bad.append(f"{label}: traced feasibility {worst:.3e} left the 1/6 shell")
        cum = float(np.sum(np.asarray(prox.trace.feas) ** 2))
        steps = inst.prox_cfg.schedule
        budget = 19.0 * inst.mt**2 * sum(steps.step(k) ** 2 for k in range(prox.iterations))
        if not cum <= budget:
            bad.append(f"prox: cumulative violation {cum:.3e} > budget {budget:.3e}")
        return bad

    def quality(self, inst, results):
        return [
            (stationarity_estimate(inst.problem, r.projected), feasibility_violation(r.final_x))
            for r in results
        ]

    def iteration_seconds(self, results):
        """Per-iteration wall times read from the solvers' own trace column."""
        return np.concatenate([np.diff(r.trace.seconds) for r in results])


# ---------------------------------------------------------------------------
# circle_grid: criterion 10's circle L1-PCA through `stiefelcd grid`

GRID_ALGORITHMS = ("ncdf_sgd", "ncdf_proxsgd", "rsgd_baseline")
GRID_BUDGET = 250  # steps per candidate; criterion 10 runs 20 000
ORACLE_STEPS = 100_000


def circle_minimum(data) -> float:
    """Exact minimum of -sum_i |d_i . u| over unit vectors u.

    sum_i |d_i . u| = max over sign vectors s of (D's) . u, so its maximum
    on the circle is max_s ||D's||; enumerating the 2^rows signs is exact.
    """
    d = np.asarray(data, dtype=float)
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=d.shape[0])))
    return -float(np.max(np.linalg.norm(signs @ d, axis=1)))


@dataclass(frozen=True)
class CircleInstance:
    configs: tuple  # (algorithm, path) pairs
    minimum: float
    oracle_gap: float  # |brute-force oracle - exact minimum|; nan if not run


class CircleGrid:
    name = "circle_grid"
    instances = 32  # grid cost varies by instance with its divergence count

    def setup(self, seed, rec=None):
        os.makedirs(OUT_DIR, exist_ok=True)
        out = []
        for i, d in enumerate(derived_seeds(seed, self.instances)):
            configs = []
            for algorithm in GRID_ALGORITHMS:
                conf = {
                    "problem": {"kind": "l1_pca", "rows": 6, "n": 2, "p": 1, "seed": d},
                    "solver": {
                        "algorithm": algorithm,
                        "beta": 0.1,
                        "schedule": {"kind": "harmonic_decay", "eta0": 0.03},
                        "budget_epochs": GRID_BUDGET,
                        "seed": d,
                        "trace_stride": GRID_BUDGET,
                    },
                }
                path = os.path.join(OUT_DIR, f"circle-{d}-{algorithm}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(conf, fh)
                configs.append((algorithm, path))
            data = gaussian_matrix(6, 2, seed=d)
            minimum = circle_minimum(data)
            gap = float("nan")
            if i == 0:
                _, brute = _call(
                    rec,
                    "diagnostics.sphere_oracle",
                    brute_force_sphere_oracle,
                    make_l1_pca(data, 1),
                    ORACLE_STEPS,
                )
                gap = abs(brute - minimum)
            out.append(CircleInstance(tuple(configs), minimum, gap))
        return out

    def run(self, inst):
        return [(algorithm, *_captured(["grid", path])) for algorithm, path in inst.configs]

    def check(self, inst, outputs):
        bad = []
        if inst.oracle_gap > 1e-3:  # nan when this instance ran no oracle
            bad.append(f"brute-force oracle is {inst.oracle_gap:.3e} off the exact minimum")
        expected = grid_candidates()
        for algorithm, code, out, _ in outputs:
            if code != 0:
                bad.append(f"{algorithm}: exit code {code}")
                continue
            lines = out.splitlines()
            rows = [tuple(float(v) for v in line.split()) for line in lines[:-1]]
            if [eta for eta, _ in rows] != list(expected):
                bad.append(f"{algorithm}: table rows are not the 10 grid candidates in order")
                continue
            values = [val for _, val in rows]
            best = int(np.argmin(values))
            if lines[-1] != f"selected {rows[best][0]!r}":
                bad.append(f"{algorithm}: '{lines[-1]}' is not the first argmin {rows[best][0]!r}")
            low = min(values)
            if low < inst.minimum - 1e-3:
                bad.append(f"{algorithm}: value {low:.6f} below circle minimum {inst.minimum:.6f}")
        return bad


# ---------------------------------------------------------------------------
# verify: `stiefelcd verify`, the only user of diagnostics

VERIFY_SAMPLES = 200  # the CLI default is 1000
VERIFY_REPORTS = len(IDENTITY_CHECKS) + 2  # plus the two stationarity-suite reports


class Verify:
    name = "verify"
    instances = 8

    def setup(self, seed, rec=None):
        return derived_seeds(seed, self.instances)

    def run(self, seed):
        return _captured(["verify", "--seed", str(seed), "--samples", str(VERIFY_SAMPLES)])

    def check(self, seed, output):
        code, out, _ = output
        bad = [] if code == 0 else [f"exit code {code}"]
        reports = [json.loads(line) for line in out.splitlines()]
        if len(reports) != VERIFY_REPORTS:
            bad.append(f"{len(reports)} reports, expected {VERIFY_REPORTS}")
        bad += [f"check {r['name']} failed" for r in reports if not r["passed"]]
        return bad


# ---------------------------------------------------------------------------
# machine-speed reference

REFERENCE_STEPS = 1700


def reference_seconds() -> float:
    """Wall time of a fixed numpy loop that does not use stiefelcd.

    One step is a projected sign-subgradient step on a 12 x 3 iterate with
    a polar retraction: small products, a sign, a Gram, a finiteness scan
    and an SVD, each paying numpy's per-call overhead as the solvers' loops
    do.  The shared host's speed swings move it and the operations alike,
    so operation time over reference time cancels most of them.
    """
    rng = np.random.default_rng(0)
    data = rng.standard_normal((30, 12))
    x = np.linalg.svd(rng.standard_normal((12, 3)), full_matrices=False)[0]
    eye = np.eye(3)
    t0 = time.perf_counter()
    for _ in range(REFERENCE_STEPS):
        w = -data.T @ np.sign(data @ x)
        y = x - 1e-3 * (w - x @ (0.5 * (x.T @ w + w.T @ x))) - 1e-3 * (x @ (x.T @ x - eye))
        if not np.all(np.isfinite(y)):
            raise FloatingPointError("reference loop left the finite range")
        u, _, vt = np.linalg.svd(y, full_matrices=False)
        x = u @ vt
    return time.perf_counter() - t0


WORKLOADS = {w.name: w for w in (SpcaDesk(), L1pcaTraced(), CircleGrid(), Verify())}
