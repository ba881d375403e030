"""Executable verification suite for the map identities and solver bounds.

Every invariant promised by the core module is bound to a named check: its
violations on seeded random inputs, reduced by one function (_worst) to
their worst value against a pinned tolerance.  A nan sample makes that
worst value nan, so the check fails.  Checks on random shapes draw and
evaluate one sample at a time (_sampled); the stationarity and descent
checks, whose samples all share their problem's shape, draw every point
first and evaluate h and its gradient once on the stack, slice by slice
bitwise as on each point alone.  Reports are plain records (one JSON line
each) so a build can be vetted from the command line, and the whole
suite is deterministic given (seed, samples): each identity check draws
from its own stream, so the suite gives the same reports whichever
process runs each check (_fan_out).
"""

from __future__ import annotations

import json
import math
import os
import pickle
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .core import (
    StiefelPoint,
    _eye,
    _fro,
    _gram,
    _h,
    _h_grad,
    _polar,
    _shell_points,
    _state,
    apply_A,
    ata_residual_identity,
    feasibility_violation,
    inverse_A,
    jacobian_apply,
    project_stiefel,
    random_shell_point,
    random_stiefel,
    sym,
)
from .core import _integer, _positive
from .errors import ConfigurationError, DimensionError
from .problems import (
    STACK_ENTRIES,
    ProblemDefinition,
    estimate_constants,
    make_quadratic_trace,
)


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
        """The report as strict JSON: a nan or infinite max_violation is written null."""
        record = asdict(self)
        if not math.isfinite(self.max_violation):
            record["max_violation"] = None
        return json.dumps(record, sort_keys=True)


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


def _failed(name, samples, seed, error) -> CheckReport:
    return _report(name, samples, math.inf, 0.0, seed, error)


def _norm(m) -> float:
    """np.linalg.norm(m) of a float64 array without its wrapper: the root of the same dot."""
    r = m.ravel(order="K")
    return math.sqrt(r.dot(r))


def _random_dims(rng, n_max=20, p_max=5):
    n = int(rng.integers(2, n_max + 1))
    p = int(rng.integers(1, min(n, p_max) + 1))
    return n, p


def _unit_direction(rng, n, p):
    d = rng.standard_normal((n, p))
    return d / _norm(d)


def _jacobian_scale(x) -> float:
    # crude operator-norm bound for the Jacobian at x, used to scale
    # inner-product tolerances the same way the map's magnitude grows
    g = _norm(x.T @ x)
    return (15.0 + 10.0 * g + 3.0 * g * g) / 8.0 + 3.0 * g


# ---------------------------------------------------------------------------
# the reduction, the sampler and the per-sample violations it reduces


def _worst(violations):
    """Largest of the violations; unlike max(), a nan among them is kept, so it fails its check."""
    worst = -math.inf
    for v in violations:
        if v > worst or v != v:
            worst = v
    return worst


def _sampled(tolerance, violation):
    """The check (rng, samples, scale) -> (worst of samples violation(rng) calls, tolerance * scale)."""

    def check(rng, samples, scale):
        return _worst(violation(rng) for _ in range(samples)), tolerance * scale

    return check


def _fixed_point(rng):
    n, p = _random_dims(rng)
    x = random_stiefel(rng, n, p)
    return _norm(apply_A(x) - x) / math.sqrt(p)


def _factorization(rng):
    n, p = _random_dims(rng)
    x = rng.uniform(-2.0, 2.0, size=(n, p))
    lhs, rhs = ata_residual_identity(x)
    denom = max(1.0, _norm(x) ** 2)
    r = (lhs - rhs).ravel(order="K")
    return float(np.sqrt(r.dot(r))) / denom  # the root in long double, as np.linalg.norm takes it


def _cubic(rng):
    n, p = _random_dims(rng)
    x = random_shell_point(rng, n, p, 1.0 * (1.0 - rng.random()))
    before = feasibility_violation(x)
    after = feasibility_violation(apply_A(x))
    return after - before**3


def _finite_difference(rng):
    t = 1e-5
    n, p = _random_dims(rng)
    x = rng.uniform(-1.5, 1.5, size=(n, p))
    d = _unit_direction(rng, n, p)
    fd = (apply_A(x + t * d) - apply_A(x - t * d)) / (2.0 * t)
    return _norm(jacobian_apply(x, d) - fd)


def _manifold_form(rng):
    n, p = _random_dims(rng)
    x = random_stiefel(rng, n, p)
    d = _unit_direction(rng, n, p)
    closed = d - x @ sym(d.T @ x)
    return _norm(jacobian_apply(x, d) - closed)


def _self_adjoint(rng):
    n, p = _random_dims(rng)
    x = rng.uniform(-2.0, 2.0, size=(n, p))
    d = rng.standard_normal((n, p))
    w = rng.standard_normal((n, p))
    lhs = float(np.sum(jacobian_apply(x, d) * w))
    rhs = float(np.sum(d * jacobian_apply(x, w)))
    denom = _norm(d) * _norm(w) * _jacobian_scale(x)
    return abs(lhs - rhs) / denom


def _normal_component(rng):
    n, p = _random_dims(rng)
    x = rng.uniform(-1.5, 1.5, size=(n, p))
    w = rng.standard_normal((n, p))
    g = x.T @ x
    resid = g - np.eye(p)
    lhs = float(np.sum(jacobian_apply(x, w) * (x @ resid)))
    rhs = 15.0 / 8.0 * float(np.sum(sym(x.T @ w) * ((resid @ resid) @ resid)))
    denom = 1.0 + abs(lhs) + abs(rhs) + _norm(w) * _jacobian_scale(x)
    return abs(lhs - rhs) / denom


def _roundtrip(rng):
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
    return _norm(inverse_A(apply_A(x)) - x) / max(1.0, _norm(x))


def _projection_distance(rng):
    n, p = _random_dims(rng)
    x = random_shell_point(rng, n, p, 0.5 * (1.0 - rng.random()))
    v = feasibility_violation(x)
    return _norm(x - project_stiefel(x).matrix) - v


def _projection_map_distance(rng):
    n, p = _random_dims(rng)
    x = random_shell_point(rng, n, p, 0.5 * (1.0 - rng.random()))
    v = feasibility_violation(x)
    return _norm(apply_A(x) - project_stiefel(x).matrix) - 4.0 * v**3


def _internal_smooth_problem(rng):
    m = rng.standard_normal((10, 10))
    return make_quadratic_trace(m + m.T, 3)


def _stacked(gaps, problem, beta, m1, rng, samples):
    """Worst of the violations gaps(problem, beta, m1, rng, B) returns for stacks of B points.

    The stacks take samples points in order, at most STACK_ENTRIES entries
    each, so the draws are those of one stack of all of them.
    """
    chunk = max(1, STACK_ENTRIES // (problem.n * problem.p))
    sizes = (min(chunk, samples - lo) for lo in range(0, samples, chunk))
    return _worst(v for b in sizes for v in gaps(problem, beta, m1, rng, b).tolist())


def _stationarity_gaps(problem, beta, m1, rng, samples):
    """Violations of ||grad h|| >= (beta/4) feas at samples points inside the safeguarded shell."""
    r = 0.9 * beta / (2.0 * beta + 8.0 * m1)
    x = _shell_points(rng, problem.n, problem.p, lambda g: r * (1.0 - g.random()), samples)
    grad = _h_grad(problem.f_subgrad, x, beta)
    return 0.25 * beta * _fro(_state(x)[0]) - _fro(grad)


def _descent_gaps(problem, beta, m1, rng, samples):
    """Increase of h under projection onto the manifold at samples points of the shell."""
    cap = min(0.5, 0.999 * beta / (16.0 * m1))
    x = _shell_points(rng, problem.n, problem.p, lambda g: cap * (1.0 - g.random()), samples)
    q = _polar(x)[0]
    feas = _fro(_gram(q) - _eye(problem.p, 3))
    rejected = np.flatnonzero(~(feas <= 1e-12))
    if rejected.size:  # project_stiefel's certificate, bitwise per slice: raise its error
        StiefelPoint(q[rejected[0]])
    return _h(problem.f_values, q, beta) - _h(problem.f_values, x, beta)


def _check_stationarity_bound(rng, samples, scale):
    problem = _internal_smooth_problem(rng)
    m1, mt, mh = estimate_constants(problem, seed=int(rng.integers(2**31)))
    beta = max(16.0 * m1, 60.0 * mt, 16.0 * mh)
    return _stacked(_stationarity_gaps, problem, beta, m1, rng, samples), 0.0 * scale


def _check_projection_descent(rng, samples, scale):
    problem = _internal_smooth_problem(rng)
    m1, _, _ = estimate_constants(problem, seed=int(rng.integers(2**31)))
    return _stacked(_descent_gaps, problem, 16.0 * m1, m1, rng, samples), 1e-10 * scale


# registry in report order; the index doubles as the per-check RNG stream
IDENTITY_CHECKS = (
    ("cubic_feasibility_bound", _sampled(1e-12, _cubic)),
    ("exact_factorization", _sampled(1e-11, _factorization)),
    ("fixed_point_on_manifold", _sampled(1e-13, _fixed_point)),
    ("inverse_roundtrip", _sampled(1e-10, _roundtrip)),
    ("jacobian_finite_difference", _sampled(1e-6, _finite_difference)),
    ("jacobian_manifold_form", _sampled(1e-12, _manifold_form)),
    ("jacobian_normal_component", _sampled(1e-12, _normal_component)),
    ("jacobian_self_adjoint", _sampled(1e-12, _self_adjoint)),
    ("projection_descent", _check_projection_descent),
    ("projection_distance", _sampled(0.0, _projection_distance)),
    # additive floor: the left side carries absolute float noise even when
    # the cubic right side underflows it for near-feasible samples
    ("projection_map_distance", _sampled(2e-15, _projection_map_distance)),
    ("stationarity_lower_bound", _check_stationarity_bound),
)


def _claims(fd):
    """The indices read one byte at a time from the claim pipe fd, until it is empty."""
    while claim := os.read(fd, 1):
        yield claim[0]


def _serve(task, claims, out):
    """A forked child's whole life: run claimed indices, pickling each to out, then _exit.

    Before each task(index) it sends (index, None), so the parent knows
    which index a child that dies was running.  os._exit skips the
    inherited stdio buffers, atexit handlers and every frame above.
    """
    status = 1
    try:
        with open(out, "wb") as stream:
            for index in _claims(claims):
                pickle.dump((index, None), stream)
                stream.flush()
                pickle.dump((index, task(index)), stream)
                stream.flush()
        status = 0
    finally:
        os._exit(status)


def _fan_out(task, count, lost):
    """[task(0), ..., task(count - 1)] for count <= 256, run by this process and forked children.

    With k = min(count, CPUs this process may use) the caller forks k - 1
    children, and every process claims indices one at a time from one pipe
    filled, and closed for writing, before the first fork; a slow task so
    holds up only its own process.  Each child pickles back its results.
    An index whose child ended before sending its result gets
    lost(index, error) instead, error naming how the child ended.  If a
    fork fails, the processes already running claim the rest.  Every child
    is reaped before this returns or raises.  Without os.fork or
    os.sched_getaffinity, or with k = 1, the caller runs every task itself.
    """
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    workers = min(count, len(os.sched_getaffinity(0))) if forks else 1
    if workers <= 1:
        return [task(index) for index in range(count)]
    results = [None] * count
    ended = {}  # index claimed by a child that ended without its result -> how it ended
    claims, fill = os.pipe()
    os.write(fill, bytes(range(count)))
    os.close(fill)
    children = {}  # pid -> the read end of its result pipe
    try:
        for _ in range(workers - 1):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                _serve(task, claims, write)
            os.close(write)
            children[pid] = open(read, "rb")
        for index in _claims(claims):
            results[index] = task(index)
        for pid in list(children):
            running = None
            with children[pid] as stream:
                while True:
                    try:
                        index, result = pickle.load(stream)
                    except (EOFError, pickle.UnpicklingError):
                        break
                    if result is None:
                        running = index
                    else:
                        results[index], running = result, None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if running is not None:
                ended[running] = (
                    f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                )
    finally:
        os.close(claims)
        if children:  # an exception cut the call short: stop and reap the children left
            import signal  # only here, so that importing the package loads no new module

            for pid, stream in children.items():
                stream.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    worker = "ChildProcessError: the worker running it "
    return [
        lost(index, worker + ended.get(index, "ended early")) if result is None else result
        for index, result in enumerate(results)
    ]


def _identity_check(index, seed, samples, tol_scale) -> CheckReport:
    """Report of IDENTITY_CHECKS[index] on its own stream SeedSequence([seed, 7, index])."""
    name, fn = IDENTITY_CHECKS[index]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7, index]))
    try:
        violation, tolerance = fn(rng, samples, tol_scale)
    except Exception as exc:
        # a check that cannot even execute is a failed check, and the
        # suite's contract is to report failures rather than throw
        return _failed(name, samples, seed, f"{type(exc).__name__}: {exc}")
    return _report(name, samples, violation, tolerance, seed)


def run_identity_suite(seed=0, samples=1000, tol_scale=1.0):
    """Run every named identity check on seeded random inputs.

    Failures are reported, never raised; a check whose worker process
    dies fails with a ChildProcessError naming how it ended.  tol_scale
    multiplies every tolerance (for reduced-precision builds); reports
    come back in name order.  Where os.fork and os.sched_getaffinity exist,
    the checks run in forked workers on every CPU this process may use
    (_fan_out), and serially elsewhere or on one CPU; the reports do not
    depend on which.  Python 3.12 and later warn (DeprecationWarning)
    when a process with more than one thread forks, and numpy's BLAS
    thread pool is one.
    """
    samples = _integer("samples", samples, 1)
    seed = _integer("seed", seed, 0)
    tol_scale = _positive("tol_scale", tol_scale)
    reports = _fan_out(
        lambda index: _identity_check(index, seed, samples, tol_scale),
        len(IDENTITY_CHECKS),
        lambda index, error: _failed(IDENTITY_CHECKS[index][0], samples, seed, error),
    )
    return sorted(reports, key=lambda r: r.name)


def run_stationarity_suite(
    problem: ProblemDefinition, beta: float, seed=0, samples=500, constants=None
):
    """Gradient-norm lower bound and projection descent on a user problem.

    Only smooth problems qualify: with a set-valued oracle one returned
    element cannot certify the distance bound.  A beta far below the
    safeguard level shows up as failed reports, not exceptions.
    constants, when the caller has them, are estimate_constants(problem,
    seed=seed), which is otherwise called here.
    """
    if not problem.smooth:
        raise ConfigurationError(
            "stationarity suite needs a smooth problem; the bound is not "
            "checkable through one element of a subdifferential"
        )
    _integer("samples", samples, 1)
    _integer("seed", seed, 0)
    _positive("beta", beta)
    m1 = (constants or estimate_constants(problem, seed=seed))[0]
    suite = (
        ("stationarity_lower_bound", 0.0, _stationarity_gaps),
        ("projection_descent", 1e-10, _descent_gaps),
    )
    reports = []
    for index, (name, tolerance, gaps) in enumerate(suite):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 8, index]))
        worst = _stacked(gaps, problem, beta, m1, rng, samples)
        reports.append(_report(name, samples, worst, tolerance, seed))
    return sorted(reports, key=lambda r: r.name)


# points per f_values call of the sphere oracle: a stack of about a thousand
# 2 x 1 points keeps the call count low and the memory flat in grid_steps
SPHERE_CHUNK = 1024


def brute_force_sphere_oracle(problem: ProblemDefinition, grid_steps: int):
    """Global minimum of f over the circle by exhaustive angle search.

    Returns (angle, value) for the first grid minimizer of
    f((cos t, sin t)') over grid_steps uniform angles in [0, 2 pi).  The
    values come from problem.f_values on stacks of SPHERE_CHUNK points,
    each bitwise f_value of its point.
    """
    if (problem.n, problem.p) != (2, 1):
        raise DimensionError(
            f"sphere oracle needs a 2 x 1 problem, got {problem.n} x {problem.p}"
        )
    _integer("grid_steps", grid_steps, 1)
    thetas = 2.0 * math.pi * np.arange(grid_steps) / grid_steps
    cos, sin = np.cos(thetas), np.sin(thetas)
    values = np.empty(grid_steps)
    for lo in range(0, grid_steps, SPHERE_CHUNK):
        hi = lo + SPHERE_CHUNK
        values[lo:hi] = problem.f_values(np.stack([cos[lo:hi], sin[lo:hi]], axis=-1)[..., None])
    best = int(np.argmin(values))
    return float(thetas[best]), float(values[best])


def format_reports(reports) -> str:
    """One JSON record per line, ready for printing or file capture."""
    return "\n".join(report.to_line() for report in reports)
