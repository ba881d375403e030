"""Executable verification suite for the map identities and solver bounds.

Every invariant promised by the core module is bound to a named check that
samples seeded random inputs and reports the worst violation against a
pinned tolerance.  Reports are plain records (one JSON line each) so a
build can be vetted from the command line, and the whole suite is
deterministic given (seed, samples).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    PenaltyConfig,
    apply_A,
    ata_residual_identity,
    feasibility_violation,
    inverse_A,
    jacobian_apply,
    ncdf_subgradient,
    ncdf_value,
    project_stiefel,
    random_shell_point,
    random_stiefel,
    sym,
)
from .errors import ConfigurationError, DimensionError
from .problems import ProblemDefinition, estimate_constants, make_quadratic_trace


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check; passed is always max_violation <= tolerance.

    error is "<Type>: <message>" when the check raised instead of finishing
    (it then reports an infinite violation), and None otherwise.
    """

    name: str
    samples: int
    max_violation: float
    tolerance: float
    passed: bool
    seed: int
    error: Optional[str] = None

    def to_line(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "samples": self.samples,
                "max_violation": self.max_violation,
                "tolerance": self.tolerance,
                "passed": self.passed,
                "seed": self.seed,
                "error": self.error,
            },
            sort_keys=True,
        )


def _report(name, samples, max_violation, tolerance, seed, error=None) -> CheckReport:
    max_violation = float(max_violation)
    tolerance = float(tolerance)
    return CheckReport(
        name=name,
        samples=int(samples),
        max_violation=max_violation,
        tolerance=tolerance,
        passed=bool(max_violation <= tolerance),
        seed=int(seed),
        error=error,
    )


def _random_dims(rng, n_max=20, p_max=5):
    n = int(rng.integers(2, n_max + 1))
    p = int(rng.integers(1, min(n, p_max) + 1))
    return n, p


def _unit_direction(rng, n, p):
    d = rng.standard_normal((n, p))
    return d / np.linalg.norm(d)


def _jacobian_scale(x) -> float:
    # crude operator-norm bound for the Jacobian at x, used to scale
    # inner-product tolerances the same way the map's magnitude grows
    g = float(np.linalg.norm(x.T @ x))
    return (15.0 + 10.0 * g + 3.0 * g * g) / 8.0 + 3.0 * g


# ---------------------------------------------------------------------------
# individual checks: each returns (max_violation, tolerance)


def _check_fixed_point(rng, samples, scale):
    worst = 0.0
    for _ in range(samples):
        n, p = _random_dims(rng)
        x = random_stiefel(rng, n, p)
        worst = max(worst, np.linalg.norm(apply_A(x) - x) / math.sqrt(p))
    return worst, 1e-13 * scale


def _check_factorization(rng, samples, scale):
    worst = 0.0
    for _ in range(samples):
        n, p = _random_dims(rng)
        x = rng.uniform(-2.0, 2.0, size=(n, p))
        lhs, rhs = ata_residual_identity(x)
        denom = max(1.0, float(np.linalg.norm(x)) ** 2)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)) / denom)
    return worst, 1e-11 * scale


def _check_cubic(rng, samples, scale):
    worst = -np.inf
    for _ in range(samples):
        n, p = _random_dims(rng)
        x = random_shell_point(rng, n, p, 1.0 * (1.0 - rng.random()))
        before = feasibility_violation(x)
        after = feasibility_violation(apply_A(x))
        worst = max(worst, after - before**3)
    return worst, 1e-12 * scale


def _check_fd(rng, samples, scale):
    t = 1e-5
    worst = 0.0
    for _ in range(samples):
        n, p = _random_dims(rng)
        x = rng.uniform(-1.5, 1.5, size=(n, p))
        d = _unit_direction(rng, n, p)
        fd = (apply_A(x + t * d) - apply_A(x - t * d)) / (2.0 * t)
        worst = max(worst, float(np.linalg.norm(jacobian_apply(x, d) - fd)))
    return worst, 1e-6 * scale


def _check_manifold_form(rng, samples, scale):
    worst = 0.0
    for _ in range(samples):
        n, p = _random_dims(rng)
        x = random_stiefel(rng, n, p)
        d = _unit_direction(rng, n, p)
        closed = d - x @ sym(d.T @ x)
        worst = max(worst, float(np.linalg.norm(jacobian_apply(x, d) - closed)))
    return worst, 1e-12 * scale


def _check_self_adjoint(rng, samples, scale):
    worst = 0.0
    for _ in range(samples):
        n, p = _random_dims(rng)
        x = rng.uniform(-2.0, 2.0, size=(n, p))
        d = rng.standard_normal((n, p))
        w = rng.standard_normal((n, p))
        lhs = float(np.sum(jacobian_apply(x, d) * w))
        rhs = float(np.sum(d * jacobian_apply(x, w)))
        denom = np.linalg.norm(d) * np.linalg.norm(w) * _jacobian_scale(x)
        worst = max(worst, abs(lhs - rhs) / denom)
    return worst, 1e-12 * scale


def _check_normal_component(rng, samples, scale):
    worst = 0.0
    for _ in range(samples):
        n, p = _random_dims(rng)
        x = rng.uniform(-1.5, 1.5, size=(n, p))
        w = rng.standard_normal((n, p))
        g = x.T @ x
        resid = g - np.eye(p)
        lhs = float(np.sum(jacobian_apply(x, w) * (x @ resid)))
        rhs = 15.0 / 8.0 * float(np.sum(sym(x.T @ w) * np.linalg.matrix_power(resid, 3)))
        denom = 1.0 + abs(lhs) + abs(rhs) + np.linalg.norm(w) * _jacobian_scale(x)
        worst = max(worst, abs(lhs - rhs) / denom)
    return worst, 1e-12 * scale


def _check_roundtrip(rng, samples, scale):
    worst = 0.0
    for _ in range(samples):
        n, p = _random_dims(rng, n_max=12, p_max=4)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((p, p)))
        s = rng.uniform(0.0, 3.0, size=p)
        # the scalar map's derivative vanishes at 1, so inversion there is
        # ill-conditioned (cube-root error growth); sample away from it
        while np.any(np.abs(s - 1.0) < 0.01):
            bad = np.abs(s - 1.0) < 0.01
            s[bad] = rng.uniform(0.0, 3.0, size=int(bad.sum()))
        x = (u[:, :p] * s) @ v.T
        err = np.linalg.norm(inverse_A(apply_A(x)) - x)
        worst = max(worst, float(err) / max(1.0, float(np.linalg.norm(x))))
    return worst, 1e-10 * scale


def _check_projection_distance(rng, samples, scale):
    worst = -np.inf
    for _ in range(samples):
        n, p = _random_dims(rng)
        x = random_shell_point(rng, n, p, 0.5 * (1.0 - rng.random()))
        v = feasibility_violation(x)
        gap = float(np.linalg.norm(x - project_stiefel(x).matrix)) - v
        worst = max(worst, gap)
    return worst, 0.0


def _check_projection_map_distance(rng, samples, scale):
    worst = -np.inf
    for _ in range(samples):
        n, p = _random_dims(rng)
        x = random_shell_point(rng, n, p, 0.5 * (1.0 - rng.random()))
        v = feasibility_violation(x)
        gap = float(np.linalg.norm(apply_A(x) - project_stiefel(x).matrix)) - 4.0 * v**3
        worst = max(worst, gap)
    # additive floor: the left side carries absolute float noise even when
    # the cubic right side underflows it for near-feasible samples
    return worst, 2e-15 * scale


def _internal_smooth_problem(rng):
    m = rng.standard_normal((10, 10))
    return make_quadratic_trace(m + m.T, 3)


def _check_stationarity_bound(rng, samples, scale):
    problem = _internal_smooth_problem(rng)
    m1, mt, mh = estimate_constants(problem, seed=int(rng.integers(2**31)))
    beta = max(16.0 * m1, 60.0 * mt, 16.0 * mh)
    return _stationarity_violation(problem, beta, m1, rng, samples), 0.0


def _check_projection_descent(rng, samples, scale):
    problem = _internal_smooth_problem(rng)
    m1, _, _ = estimate_constants(problem, seed=int(rng.integers(2**31)))
    beta = 16.0 * m1
    return _descent_violation(problem, beta, m1, rng, samples), 1e-10 * scale


def _stationarity_violation(problem, beta, m1, rng, samples):
    penalty = PenaltyConfig(beta=beta)
    r = 0.9 * beta / (2.0 * beta + 8.0 * m1)
    worst = -np.inf
    for _ in range(samples):
        x = random_shell_point(rng, problem.n, problem.p, r * (1.0 - rng.random()))
        grad = ncdf_subgradient(problem.f_subgrad, x, penalty)
        lower = 0.25 * beta * feasibility_violation(x)
        worst = max(worst, lower - float(np.linalg.norm(grad)))
    return worst


def _descent_violation(problem, beta, m1, rng, samples):
    penalty = PenaltyConfig(beta=beta)
    cap = min(0.5, 0.999 * beta / (16.0 * m1))
    worst = -np.inf
    for _ in range(samples):
        x = random_shell_point(rng, problem.n, problem.p, cap * (1.0 - rng.random()))
        h_x = ncdf_value(problem.f_value, x, penalty)
        h_p = ncdf_value(problem.f_value, project_stiefel(x).matrix, penalty)
        worst = max(worst, h_p - h_x)
    return worst


# registry in report order; the index doubles as the per-check RNG stream
IDENTITY_CHECKS = (
    ("cubic_feasibility_bound", _check_cubic),
    ("exact_factorization", _check_factorization),
    ("fixed_point_on_manifold", _check_fixed_point),
    ("inverse_roundtrip", _check_roundtrip),
    ("jacobian_finite_difference", _check_fd),
    ("jacobian_manifold_form", _check_manifold_form),
    ("jacobian_normal_component", _check_normal_component),
    ("jacobian_self_adjoint", _check_self_adjoint),
    ("projection_descent", _check_projection_descent),
    ("projection_distance", _check_projection_distance),
    ("projection_map_distance", _check_projection_map_distance),
    ("stationarity_lower_bound", _check_stationarity_bound),
)


def run_identity_suite(seed=0, samples=1000, tol_scale=1.0):
    """Run every named identity check on seeded random inputs.

    Failures are reported, never raised.  tol_scale multiplies every
    tolerance (for reduced-precision builds); reports come back in name
    order.
    """
    if samples < 1:
        raise ConfigurationError(f"samples must be >= 1, got {samples}")
    if tol_scale <= 0:
        raise ConfigurationError(f"tol_scale must be positive, got {tol_scale}")
    reports = []
    for index, (name, fn) in enumerate(IDENTITY_CHECKS):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 7, index]))
        error = None
        try:
            violation, tolerance = fn(rng, int(samples), float(tol_scale))
        except Exception as exc:
            # a check that cannot even execute is a failed check, and the
            # suite's contract is to report failures rather than throw
            violation, tolerance = float("inf"), 0.0
            error = f"{type(exc).__name__}: {exc}"
        reports.append(_report(name, samples, violation, tolerance, seed, error))
    return sorted(reports, key=lambda r: r.name)


def run_stationarity_suite(problem: ProblemDefinition, beta: float, seed=0, samples=500):
    """Gradient-norm lower bound and projection descent on a user problem.

    Only smooth problems qualify: with a set-valued oracle one returned
    element cannot certify the distance bound.  A beta far below the
    safeguard level shows up as failed reports, not exceptions.
    """
    if not problem.smooth:
        raise ConfigurationError(
            "stationarity suite needs a smooth problem; the bound is not "
            "checkable through one element of a subdifferential"
        )
    if samples < 1:
        raise ConfigurationError(f"samples must be >= 1, got {samples}")
    if not beta > 0:
        raise ConfigurationError(f"beta must be positive, got {beta}")
    m1 = estimate_constants(problem, seed=seed)[0]
    rng_a = np.random.default_rng(np.random.SeedSequence([int(seed), 8, 0]))
    rng_b = np.random.default_rng(np.random.SeedSequence([int(seed), 8, 1]))
    reports = [
        _report(
            "stationarity_lower_bound",
            samples,
            _stationarity_violation(problem, beta, m1, rng_a, samples),
            0.0,
            seed,
        ),
        _report(
            "projection_descent",
            samples,
            _descent_violation(problem, beta, m1, rng_b, samples),
            1e-10,
            seed,
        ),
    ]
    return sorted(reports, key=lambda r: r.name)


def brute_force_sphere_oracle(problem: ProblemDefinition, grid_steps: int):
    """Global minimum of f over the circle by exhaustive angle search.

    Returns (angle, value) for the first grid minimizer of
    f((cos t, sin t)') over grid_steps uniform angles in [0, 2 pi).
    """
    if (problem.n, problem.p) != (2, 1):
        raise DimensionError(
            f"sphere oracle needs a 2 x 1 problem, got {problem.n} x {problem.p}"
        )
    if grid_steps < 1:
        raise ConfigurationError(f"grid_steps must be >= 1, got {grid_steps}")
    thetas = 2.0 * math.pi * np.arange(grid_steps) / grid_steps
    cos, sin = np.cos(thetas), np.sin(thetas)
    values = np.empty(grid_steps)
    point = np.empty((2, 1))
    for i in range(grid_steps):
        point[0, 0] = cos[i]
        point[1, 0] = sin[i]
        values[i] = problem.f_value(point)
    best = int(np.argmin(values))
    return float(thetas[best]), float(values[best])


def format_reports(reports) -> str:
    """One JSON record per line, ready for printing or file capture."""
    return "\n".join(report.to_line() for report in reports)
