"""Subgradient-type solvers for the dissolved objective.

Two penalty-based iterations and one feasible baseline:

  run_subgradient        x+ = x - eta (J(x)[w] + beta x (x'x - I)),
                         w drawn from the subdifferential of f at A(x)
  run_prox_subgradient   x+ = prox_{eta r}(A(x) - eta d),
                         d drawn from the smooth part at x itself
  run_riemannian_baseline  projected subgradient step followed by the
                         polar retraction (stays exactly feasible)

Runs are deterministic given (problem, config, seed): every iteration
draws from a generator keyed by (seed, stream, iteration), so oracle
noise at iteration k is reproducible bitwise.  Oracles receive a stand-in
that builds that generator on first attribute access, so deterministic
oracles skip its set-up.

One driver, _lockstep, advances a stacked (B, n, p) iterate: a single
run is a stack of one, and the step-size grid stacks its candidates, so
each candidate scores bitwise what its single run would.  The driver
validates x0 once and then runs on core's unchecked kernels, sharing one
state per iterate (Gram residual and map polynomial) between the guard,
the trace and the update; each run keeps its own bookkeeping (_Run), and
each algorithm is one step (_Method).  Oracle outputs are shape-checked;
every step's result and the trace's oracle outputs are checked for
finiteness.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .core import (
    SHELL_RADIUS,
    StiefelPoint,
    _fro,
    _gram,
    _jacobian,
    _map,
    _polar,
    _state,
    _tangent,
    apply_A,
    feasibility_violation,
    project_stiefel,
    project_tangent,
    random_stiefel,
    validate_matrix,
)
from .errors import (
    ConfigurationError,
    DimensionError,
    DivergenceError,
    GridSearchError,
    SafeguardViolationError,
)
from .problems import ProblemDefinition

SCHEDULE_KINDS = ("harmonic_decay", "constant", "custom")

# iterates whose Gram residual passes this are treated as runaways
DIVERGENCE_FEAS_LIMIT = 10.0


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


class _LazyRng:
    """Stand-in for _rng(seed, *key) that builds the generator on first attribute access.

    Oracles call it like a Generator (rng.normal, rng.standard_normal, ...);
    one that never draws costs no SeedSequence set-up, and one that does
    gets exactly the generator _rng would have built.
    """

    __slots__ = ("_key", "_gen")

    def __init__(self, seed: int, *key: int):
        self._key = (seed, *key)
        self._gen = None

    def __getattr__(self, name):
        if self._gen is None:
            self._gen = _rng(*self._key)
        return getattr(self._gen, name)


@dataclass(frozen=True)
class StepSchedule:
    """Step-size rule eta_k.

    harmonic_decay: eta0 / (0.1 * (k // epoch_len) + 1)
    constant:       eta0
    custom:         values[k]
    """

    kind: str = "harmonic_decay"
    eta0: float = 0.1
    epoch_len: int = 1
    values: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ConfigurationError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "custom":
            if not self.values:
                raise ConfigurationError("custom schedule requires a values sequence")
            vals = tuple(float(v) for v in self.values)
            if any(v <= 0 for v in vals):
                raise ConfigurationError("custom schedule values must be positive")
            object.__setattr__(self, "values", vals)
        elif not self.eta0 > 0:
            raise ConfigurationError(f"eta0 must be positive, got {self.eta0}")
        if self.epoch_len < 1:
            raise ConfigurationError(f"epoch_len must be >= 1, got {self.epoch_len}")

    def step(self, k: int) -> float:
        if self.kind == "constant":
            return self.eta0
        if self.kind == "harmonic_decay":
            return self.eta0 / (0.1 * (k // self.epoch_len) + 1.0)
        if k >= len(self.values):
            raise ConfigurationError(
                f"custom schedule has {len(self.values)} values, needed step {k}"
            )
        return self.values[k]

    def max_step(self, max_iters: int) -> float:
        if self.kind == "custom":
            return max(self.values[:max_iters])
        return self.eta0


@dataclass(frozen=True)
class SolverConfig:
    """Run configuration shared by all three algorithms.

    safeguards holds the sampled constant estimates (M1, Mt, Mh) used when
    feas_shell_check is on; stop tolerances of zero disable early
    stopping.  The stopping rule is evaluated every 10 iterations and
    requires the projected stationarity estimate and the Gram residual to
    both fall below their tolerances.
    """

    beta: float = 0.1
    schedule: StepSchedule = field(default_factory=StepSchedule)
    max_iters: int = 1000
    feas_shell_check: bool = False
    safeguards: tuple = (0.0, 0.0, 0.0)
    seed: int = 0
    stop_tol_stationarity: float = 0.0
    stop_tol_feasibility: float = 0.0
    trace_stride: int = 1

    def __post_init__(self):
        if not self.beta > 0:
            raise ConfigurationError(f"beta must be positive, got {self.beta}")
        if self.max_iters < 1:
            raise ConfigurationError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.trace_stride < 1:
            raise ConfigurationError(f"trace_stride must be >= 1, got {self.trace_stride}")
        if len(self.safeguards) != 3 or any(s < 0 for s in self.safeguards):
            raise ConfigurationError("safeguards must be three nonnegative estimates")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")
        if self.stop_tol_stationarity < 0 or self.stop_tol_feasibility < 0:
            raise ConfigurationError("stop tolerances must be nonnegative")

    @property
    def eta0(self) -> float:
        return self.schedule.eta0


@dataclass
class IterateTrace:
    """Per-iteration records; h_mapped is filled only by the proximal run."""

    iters: list = field(default_factory=list)
    f: list = field(default_factory=list)
    h: list = field(default_factory=list)
    feas: list = field(default_factory=list)
    stat: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    h_mapped: Optional[list] = None

    def append(self, k, f, h, feas, stat, seconds, h_mapped=None):
        self.iters.append(int(k))
        self.f.append(float(f))
        self.h.append(float(h))
        self.feas.append(float(feas))
        self.stat.append(float(stat))
        self.seconds.append(float(seconds))
        if h_mapped is not None:
            if self.h_mapped is None:
                self.h_mapped = []
            self.h_mapped.append(float(h_mapped))

    def __len__(self):
        return len(self.iters)


@dataclass
class SolverResult:
    final_x: np.ndarray
    projected: Optional[StiefelPoint]  # None only on non-finite divergence payloads
    trace: IterateTrace
    termination: str  # max_iters | tol_met | divergence_guard
    iterations: int


def default_initial_point(problem: ProblemDefinition, seed: int) -> np.ndarray:
    """Seeded Gaussian matrix pushed onto the manifold by polar projection."""
    return random_stiefel(_rng(seed, 1), problem.n, problem.p)


def subgradient_step(x, d, eta: float, beta: float) -> np.ndarray:
    """One penalty-subgradient update x - eta * (d + beta x (x'x - I))."""
    x = validate_matrix(x, "x")
    d = validate_matrix(d, "d")
    if d.shape != x.shape:
        raise ConfigurationError(f"direction shape {d.shape} != iterate shape {x.shape}")
    if eta < 0:
        raise ConfigurationError(f"step size must be nonnegative, got {eta}")
    y = _penalty_step(x, d, eta, beta, _gram(x) - np.eye(x.shape[1]))
    if not np.isfinite(y).all():
        raise DivergenceError("subgradient step produced non-finite entries")
    return y


def _penalty_step(x, d, eta, beta, resid):
    return x - eta * (d + beta * (x @ resid))


def prox_subgradient_step(x, d, eta: float, reg=None) -> np.ndarray:
    """One proximal update prox_{eta r}(A(x) - eta d); identity prox if reg is None."""
    x = validate_matrix(x, "x")
    d = validate_matrix(d, "d")
    if d.shape != x.shape:
        raise ConfigurationError(f"direction shape {d.shape} != iterate shape {x.shape}")
    if eta < 0:
        raise ConfigurationError(f"step size must be nonnegative, got {eta}")
    if reg is not None and reg.prox is None:
        raise ConfigurationError("regularizer has no proximal map")
    y = apply_A(x) - eta * d
    if reg is not None:
        y = np.asarray(reg.prox(y, eta), dtype=float)
    if not np.isfinite(y).all():
        raise DivergenceError("proximal step produced non-finite entries")
    return y


def stationarity_estimate(problem: ProblemDefinition, point, rng=None) -> float:
    """Norm of the projected subgradient ||W - X sym(X'W)||_F at a feasible point.

    Uses the single element returned by the problem's oracle, so for
    composite objectives this is an upper estimate tied to that selection.
    """
    if isinstance(point, StiefelPoint):
        x = point.matrix
    else:
        x = validate_matrix(point, "point")
        if feasibility_violation(x) > 1e-8:
            raise ValueError("stationarity estimate requires a feasible point")
    w = problem.f_subgrad(x, rng)
    return float(np.linalg.norm(project_tangent(x, w)))


def _loop_stationarity(problem: ProblemDefinition, q, rng, k: int) -> float:
    """stationarity_estimate at the loop's polar factor q, without re-validating q.

    The oracle output is shape-checked; a non-finite one aborts the run as
    a divergence, like a non-finite step does.
    """
    w = problem.f_subgrad(q, rng)
    if w.shape != q.shape:
        raise DimensionError(f"shape {w.shape} != base shape {q.shape}")
    if not np.isfinite(w).all():
        raise DivergenceError(f"stationarity oracle produced non-finite entries at iteration {k}")
    return float(np.linalg.norm(_tangent(q, w)))


def _check_algorithm1_safeguards(problem: ProblemDefinition, cfg: SolverConfig):
    if not cfg.feas_shell_check:
        return
    m1, mt, mh = cfg.safeguards
    needed = max(16.0 * m1, 60.0 * mt, 16.0 * mh)
    if cfg.beta < needed:
        raise ConfigurationError(
            f"feas_shell_check requires beta >= max(16 M1, 60 Mt, 16 Mh) = {needed:.6g}, "
            f"got beta = {cfg.beta:.6g}"
        )
    cap = 1.0 / (2.0 * cfg.beta)
    biggest = cfg.schedule.max_step(cfg.max_iters)
    if biggest > cap:
        raise ConfigurationError(
            f"feas_shell_check requires steps <= 1/(2 beta) = {cap:.6g}, "
            f"largest scheduled step is {biggest:.6g}"
        )


def _check_algorithm2_safeguards(problem: ProblemDefinition, cfg: SolverConfig):
    reg = problem.reg
    if reg is not None and reg.prox is None:
        raise ConfigurationError("proximal solver needs a regularizer with a prox")
    if not cfg.feas_shell_check:
        return
    _, mt, _ = cfg.safeguards
    denom = 19.0 * (mt + (reg.lipschitz if reg is not None else 0.0))
    if denom <= 0:
        return
    cap = 1.0 / denom
    biggest = cfg.schedule.max_step(cfg.max_iters)
    if biggest > cap:
        raise ConfigurationError(
            f"feas_shell_check requires steps <= 1/(19 (Mt + Mr)) = {cap:.6g}, "
            f"largest scheduled step is {biggest:.6g}"
        )


def _remap(mapped):
    """(G - I, A(.)) of the mapped point(s), for the proximal run's h_mapped merit."""
    resid, poly = _state(mapped)
    return resid, _map(mapped, poly)


class _Run:
    """One run's bookkeeping: its guard, trace rows, stopping rule and result.

    The driver keeps one of these per row of its stack; the iterate itself
    lives with the driver.  failure holds (error, iterate, k) once a masked
    error has ended the run.
    """

    __slots__ = ("problem", "cfg", "trace", "t0", "failure")

    def __init__(self, problem: ProblemDefinition, cfg: SolverConfig):
        self.problem = problem
        self.cfg = cfg
        self.trace = IterateTrace()
        self.t0 = time.perf_counter()
        self.failure = None

    def guard(self, x, feas: float, k: int):
        """Raise if iterate k, with Gram residual feas, is non-finite, runaway or off the shell."""
        # a non-finite entry of x makes feas non-finite, so x is scanned only then
        if not math.isfinite(feas) and not np.isfinite(x).all():
            raise DivergenceError(f"iterate became non-finite at iteration {k}")
        if feas > DIVERGENCE_FEAS_LIMIT:
            raise DivergenceError(
                f"Gram residual {feas:.3g} exceeded the divergence guard at iteration {k}"
            )
        if self.cfg.feas_shell_check and feas > SHELL_RADIUS + 1e-12:
            raise SafeguardViolationError(
                f"iterate left the 1/6 feasibility shell at iteration {k} "
                f"(residual {feas:.6g}); the bound beta >= max(16 M1, 60 Mt, 16 Mh) "
                "did not hold for this run"
            )

    def record(self, k, feas, mapped, proj, remapped=None) -> float:
        """Append iterate k's trace row and return its stationarity estimate.

        mapped is A(x), proj the polar factor of x, and remapped the
        _remap of mapped when the run records h_mapped.
        """
        problem, beta = self.problem, self.cfg.beta
        h = problem.f_value(mapped) + 0.25 * beta * feas * feas
        stat = _loop_stationarity(problem, proj, _LazyRng(self.cfg.seed, 3, k), k)
        h_mapped = None
        if remapped is not None:
            feas_m = float(_fro(remapped[0]))
            h_mapped = problem.f_value(remapped[1]) + 0.25 * beta * feas_m**2
        self.trace.append(
            k, problem.f_value(proj), h, feas, stat, time.perf_counter() - self.t0, h_mapped
        )
        return stat

    def tol_met(self, k, feas, stat, proj) -> bool:
        """The stopping rule at iterate k; stat is None when k was not traced."""
        cfg = self.cfg
        if stat is None:
            stat = _loop_stationarity(self.problem, proj, _LazyRng(cfg.seed, 3, k), k)
        return stat <= cfg.stop_tol_stationarity and feas <= cfg.stop_tol_feasibility

    def result(self, x, termination: str, steps: int) -> SolverResult:
        finite = bool(np.all(np.isfinite(x)))
        return SolverResult(
            final_x=x,
            projected=project_stiefel(x) if finite else None,
            trace=self.trace,
            termination=termination,
            iterations=steps,
        )


def _sgd_step(x, mapped, w, eta, beta, resid, poly):
    return _penalty_step(x, _jacobian(x, w, resid, poly), eta, beta, resid)


def _prox_step(x, mapped, d, eta, beta, resid, poly):
    return mapped - eta * d


def _baseline_step(x, mapped, w, eta, beta, resid, poly):
    return x - eta * _tangent(x, w)


@dataclass(frozen=True)
class _Method:
    """One algorithm's iteration, split where the driver must go per run.

    check(problem, cfg)                    safeguard checks before the run
    direction(problem, seed, k, at)        one run's oracle call at x or A(x), shape-checked
    step(x, A(x), d, eta, beta, G - I, M)  update algebra on the stacked iterate
    retract(y)                             applied to the vetted update, if set
    """

    check: Callable
    step: Callable
    label: str  # names the step in the driver's non-finite DivergenceError
    retract: Optional[Callable] = None
    maps: bool = False  # direction or step reads A(x)
    proximal: bool = False  # the driver applies reg.prox to the step; the trace records h_mapped
    at_map: bool = False  # the direction's oracle is called at A(x) rather than at x

    def direction(self, problem, seed, k, at):
        # the proximal method steps along the smooth part only; the others along f
        oracle = problem.phi_subgrad if self.proximal else problem.f_subgrad
        d = np.asarray(oracle(at, _LazyRng(seed, 0, k)), dtype=float)
        if d.shape != at.shape:
            raise DimensionError(f"direction shape {d.shape} != iterate shape {at.shape}")
        return d


_METHODS = {
    "ncdf_sgd": _Method(
        _check_algorithm1_safeguards, _sgd_step, "subgradient", maps=True, at_map=True
    ),
    "ncdf_proxsgd": _Method(
        _check_algorithm2_safeguards, _prox_step, "proximal", maps=True, proximal=True
    ),
    "rsgd_baseline": _Method(
        lambda problem, cfg: None, _baseline_step, "baseline", retract=lambda y: _polar(y)[0]
    ),
}


def _run_single(problem, cfg, x0, method: _Method) -> SolverResult:
    """One run, driven as a stack of one; the masked error that ends it is re-raised.

    A guard's or a step's error carries the partial run as err.result; a
    configuration error, such as a custom schedule shorter than max_iters,
    carries none.
    """
    method.check(problem, cfg)
    if x0 is None:
        x = default_initial_point(problem, cfg.seed)
    else:
        x = validate_matrix(x0, "x0").copy()
        if x.shape != (problem.n, problem.p):
            raise ConfigurationError(
                f"x0 shape {x.shape} does not match problem ({problem.n}, {problem.p})"
            )
    run = _Run(problem, cfg)
    results = _lockstep(problem, method, [run], x[None])
    if run.failure is None:
        return results[run]
    err, x, k = run.failure
    if not isinstance(err, ConfigurationError):
        # hand the partial run back with the error so callers can still
        # emit whatever trace was collected before the abort
        err.result = run.result(x, "divergence_guard", k)
    raise err


def run_subgradient(problem: ProblemDefinition, cfg: SolverConfig, x0=None) -> SolverResult:
    """Penalty subgradient method on h(x) = f(A(x)) + (beta/4)||x'x - I||^2.

    The direction at iteration k transports one subgradient of f,
    evaluated at the mapped point A(x_k), through the map's Jacobian.
    """
    return _run_single(problem, cfg, x0, _METHODS["ncdf_sgd"])


def run_prox_subgradient(problem: ProblemDefinition, cfg: SolverConfig, x0=None) -> SolverResult:
    """Proximal subgradient method x+ = prox_{eta r}(A(x) - eta d).

    The smooth-part direction is evaluated at the iterate x_k itself, not
    at the mapped point.  The trace records the dissolved objective both
    at x_k (h column) and at A(x_k) (h_mapped), the latter being the
    monotone-ish merit of this iteration.
    """
    return _run_single(problem, cfg, x0, _METHODS["ncdf_proxsgd"])


def run_riemannian_baseline(problem: ProblemDefinition, cfg: SolverConfig, x0=None) -> SolverResult:
    """Feasible baseline: projected subgradient step plus polar retraction."""
    return _run_single(problem, cfg, x0, _METHODS["rsgd_baseline"])


ALGORITHM_RUNNERS = {
    "ncdf_sgd": run_subgradient,
    "ncdf_proxsgd": run_prox_subgradient,
    "rsgd_baseline": run_riemannian_baseline,
}

ALGORITHMS = tuple(_METHODS)

# errors that end one run of the stack; any other propagates
_MASKED = (DivergenceError, SafeguardViolationError, ConfigurationError)


def _guarded(live, x, feas, k, limit):
    """Rows of the stack whose run passes its guard at iterate k; the others record their failure.

    The guard passes every residual at or below limit (the divergence
    limit, or the shell radius under feas_shell_check), so the runs' own
    guards are consulted only when some residual, nan included, is not.
    """
    if all(f <= limit for f in feas):
        return range(len(live))
    rows = []
    for i, run in enumerate(live):
        try:
            run.guard(x[i], feas[i], k)
        except _MASKED as err:
            run.failure = (err, x[i], k)
            continue
        rows.append(i)
    return rows


def _keep(rows, live, *stacks):
    """live and each stack (None passes through) cut down to the given rows."""
    return [live[i] for i in rows], *(None if a is None else a[rows] for a in stacks)


def _lockstep(problem, method: _Method, live: list, x) -> dict:
    """Advance runs that share max_iters, trace stride and stop rule as one (B, n, p) stack x.

    Returns {run: SolverResult} for every run that finishes.  A run whose
    guard, trace, oracle, schedule or step raises a masked error leaves the
    stack with its failure recorded; any other error propagates.  Each
    iteration forms the Gram state, the map, the polar factor, the step and
    the proximal map once for the whole stack; each run keeps its own
    guard, trace row, stopping rule and oracle call on its slice.
    """
    cfg = live[0].cfg
    stop_on = cfg.stop_tol_stationarity > 0 and cfg.stop_tol_feasibility > 0
    limit = DIVERGENCE_FEAS_LIMIT
    if cfg.feas_shell_check:
        limit = min(limit, SHELL_RADIUS + 1e-12)
    reg = problem.reg if method.proximal else None
    d = np.empty_like(x)  # the directions, one buffer cut down with the stack
    results = {}
    for k in range(cfg.max_iters):
        resid, poly = _state(x)
        feas = _fro(resid).tolist()
        rows = _guarded(live, x, feas, k, limit)
        if len(rows) < len(live):
            feas = [feas[i] for i in rows]
            live, x, resid, poly, d = _keep(rows, live, x, resid, poly, d)
            if not live:
                return results
        traced = k % cfg.trace_stride == 0
        stopping = stop_on and k % 10 == 0
        mapped = _map(x, poly) if traced or method.maps else None
        if traced or stopping:
            proj = _polar(x)[0]
            remapped = _remap(mapped) if traced and method.proximal else None
        at = mapped if method.at_map else x
        etas, rows = [], []
        for i, run in enumerate(live):
            try:
                if traced or stopping:
                    stat = None
                    if traced:
                        mine = None if remapped is None else (remapped[0][i], remapped[1][i])
                        stat = run.record(k, feas[i], mapped[i], proj[i], mine)
                    if stopping and run.tol_met(k, feas[i], stat, proj[i]):
                        results[run] = run.result(x[i], "tol_met", k)
                        continue
                d[i] = method.direction(problem, run.cfg.seed, k, at[i])
                etas.append(run.cfg.schedule.step(k))
            except _MASKED as err:
                run.failure = (err, x[i], k)
                continue
            rows.append(i)
        if len(rows) < len(live):
            live, x, resid, poly, mapped, d = _keep(rows, live, x, resid, poly, mapped, d)
            if not live:
                return results
        # a stack of one steps by a float: bitwise the same, and cheaper than a (1, 1, 1) array
        eta = etas[0] if len(etas) == 1 else np.array(etas)[:, None, None]
        y = method.step(x, mapped, d, eta, cfg.beta, resid, poly)
        if reg is not None:
            y = np.asarray(reg.prox(y, eta), dtype=float)
        if not np.isfinite(y).all():
            finite = np.isfinite(y).all(axis=(-2, -1))
            message = f"{method.label} step produced non-finite entries at iteration {k}"
            for i in np.flatnonzero(~finite):
                live[i].failure = (DivergenceError(message), x[i], k)
            live, y, d = _keep(np.flatnonzero(finite), live, y, d)
            if not live:
                return results
        x = y if method.retract is None else method.retract(y)
    # the driver guards iterates on entry, so vet the last update too
    feas = _fro(_state(x)[0]).tolist()
    for i in _guarded(live, x, feas, cfg.max_iters, limit):
        results[live[i]] = live[i].result(x[i], "max_iters", cfg.max_iters)
    return results


def grid_candidates() -> tuple:
    """The fixed 10-point step-size grid {k1 * 10^-k2 : k1 in 1,3,5,7,9; k2 in 1,2}."""
    return tuple(sorted(k1 / 10.0**k2 for k1 in (1, 3, 5, 7, 9) for k2 in (1, 2)))


def run_step_grid(
    problem: ProblemDefinition,
    cfg: SolverConfig,
    budget_epochs: int,
    algorithm: str = "ncdf_sgd",
):
    """(eta0, final projected objective) for every grid candidate, in grid order.

    Candidate i runs cfg with eta0 set to the candidate, max_iters to
    budget_epochs epochs and a seed derived from (cfg.seed, i); its row is
    bitwise what the single run of that config scores.  The candidates
    advance in lockstep as one stacked iterate.  A candidate that diverges,
    trips a guard or fails a configuration check scores +inf; any other
    error propagates.  A custom schedule is rejected, because it ignores
    the eta0 that the grid varies.
    """
    if algorithm not in _METHODS:
        raise ConfigurationError(f"unknown algorithm {algorithm!r}")
    if budget_epochs < 1:
        raise ConfigurationError(f"budget_epochs must be >= 1, got {budget_epochs}")
    if cfg.schedule.kind == "custom":
        raise ConfigurationError(
            "grid search varies eta0, which a custom schedule ignores; "
            "use a harmonic_decay or constant schedule"
        )
    method = _METHODS[algorithm]
    candidates = grid_candidates()
    runs = {}
    for i, eta in enumerate(candidates):
        derived = int(np.random.SeedSequence([cfg.seed, 1000 + i]).generate_state(1)[0])
        run_cfg = replace(
            cfg,
            schedule=replace(cfg.schedule, eta0=eta),
            max_iters=budget_epochs * cfg.schedule.epoch_len,
            seed=derived,
        )
        try:
            method.check(problem, run_cfg)
        except ConfigurationError:
            continue
        runs[i] = _Run(problem, run_cfg)
    results = {}
    if runs:
        x = np.stack([default_initial_point(problem, run.cfg.seed) for run in runs.values()])
        results = _lockstep(problem, method, list(runs.values()), x)
    rows = []
    for i, eta in enumerate(candidates):
        result = results.get(runs.get(i))
        value = float("inf") if result is None else problem.f_value(result.projected.matrix)
        rows.append((eta, value))
    return rows


def best_grid_step(rows) -> Optional[float]:
    """eta0 of the first strict minimum of (eta0, value) rows, or None if none beats +inf.

    The rows come in ascending eta0 order, so ties go to the smaller step.
    """
    best_eta, best_val = None, float("inf")
    for eta, val in rows:
        if val < best_val:
            best_eta, best_val = eta, val
    return best_eta


def grid_search_eta0(
    problem: ProblemDefinition,
    cfg: SolverConfig,
    budget_epochs: int,
    algorithm: str = "ncdf_sgd",
) -> float:
    """Grid candidate with the best final objective; ties go to the smaller step."""
    best = best_grid_step(run_step_grid(problem, cfg, budget_epochs, algorithm))
    if best is None:
        raise GridSearchError("every step-size candidate diverged or was rejected")
    return best
