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

The loops validate x0 once and then run on core's unchecked kernels,
sharing one state per iterate (Gram residual and map polynomial) between
the guard, the trace and the update.  Oracle outputs are shape-checked;
every step's result and the trace's oracle outputs are checked for
finiteness.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import (
    OMEGA_SIXTH,
    StiefelPoint,
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
ALGORITHMS = ("ncdf_sgd", "ncdf_proxsgd", "rsgd_baseline")

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
    return _penalty_step(x, d, eta, beta, _gram(x) - np.eye(x.shape[1]))


def _penalty_step(x, d, eta, beta, resid):
    out = x - eta * (d + beta * (x @ resid))
    if not np.isfinite(out).all():
        raise DivergenceError("subgradient step produced non-finite entries")
    return out


def prox_subgradient_step(x, d, eta: float, reg=None) -> np.ndarray:
    """One proximal update prox_{eta r}(A(x) - eta d); identity prox if reg is None."""
    x = validate_matrix(x, "x")
    d = validate_matrix(d, "d")
    if d.shape != x.shape:
        raise ConfigurationError(f"direction shape {d.shape} != iterate shape {x.shape}")
    if eta < 0:
        raise ConfigurationError(f"step size must be nonnegative, got {eta}")
    return _prox_step(apply_A(x), d, eta, reg)


def _prox_step(mapped, d, eta, reg):
    y = mapped - eta * d
    if reg is not None:
        if reg.prox is None:
            raise ConfigurationError("regularizer has no proximal map")
        y = reg.prox(y, eta)
    y = np.asarray(y, dtype=float)
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


def _check_algorithm1_safeguards(cfg: SolverConfig):
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


def _check_algorithm2_safeguards(cfg: SolverConfig, m_r: float):
    _, mt, _ = cfg.safeguards
    denom = 19.0 * (mt + m_r)
    if denom <= 0:
        return
    cap = 1.0 / denom
    biggest = cfg.schedule.max_step(cfg.max_iters)
    if biggest > cap:
        raise ConfigurationError(
            f"feas_shell_check requires steps <= 1/(19 (Mt + Mr)) = {cap:.6g}, "
            f"largest scheduled step is {biggest:.6g}"
        )


def _guard(x, feas: float, k: int, shell_check: bool):
    if not np.isfinite(x).all():
        raise DivergenceError(f"iterate became non-finite at iteration {k}")
    if feas > DIVERGENCE_FEAS_LIMIT:
        raise DivergenceError(
            f"Gram residual {feas:.3g} exceeded the divergence guard at iteration {k}"
        )
    if shell_check and feas > OMEGA_SIXTH.radius + 1e-12:
        raise SafeguardViolationError(
            f"iterate left the 1/6 feasibility shell at iteration {k} "
            f"(residual {feas:.6g}); the bound beta >= max(16 M1, 60 Mt, 16 Mh) "
            "did not hold for this run"
        )


def _run_loop(problem, cfg, x0, update, record_mapped=False):
    """Shared driver: trace recording, stopping rule, guards, bookkeeping."""
    if x0 is None:
        x = default_initial_point(problem, cfg.seed)
    else:
        x = validate_matrix(x0, "x0").copy()
        if x.shape != (problem.n, problem.p):
            raise ConfigurationError(
                f"x0 shape {x.shape} does not match problem ({problem.n}, {problem.p})"
            )
    trace = IterateTrace()
    stop_on = cfg.stop_tol_stationarity > 0 and cfg.stop_tol_feasibility > 0
    termination = "max_iters"
    steps = 0
    t0 = time.perf_counter()
    try:
        for k in range(cfg.max_iters):
            # the guard, the trace and the update all share this one state
            resid, poly = _state(x)
            feas = float(np.linalg.norm(resid))
            _guard(x, feas, k, cfg.feas_shell_check)
            stat = None
            if k % cfg.trace_stride == 0:
                mapped = _map(x, poly)
                h = problem.f_value(mapped) + 0.25 * cfg.beta * feas * feas
                proj = _polar(x)[0]
                stat = _loop_stationarity(problem, proj, _LazyRng(cfg.seed, 3, k), k)
                h_mapped = None
                if record_mapped:
                    resid_m, poly_m = _state(mapped)
                    feas_m = float(np.linalg.norm(resid_m))
                    h_mapped = problem.f_value(_map(mapped, poly_m)) + 0.25 * cfg.beta * feas_m**2
                trace.append(
                    k,
                    problem.f_value(proj),
                    h,
                    feas,
                    stat,
                    time.perf_counter() - t0,
                    h_mapped,
                )
            if stop_on and k % 10 == 0:
                if stat is None:
                    stat = _loop_stationarity(problem, _polar(x)[0], _LazyRng(cfg.seed, 3, k), k)
                if stat <= cfg.stop_tol_stationarity and feas <= cfg.stop_tol_feasibility:
                    termination = "tol_met"
                    break
            x = update(x, k, resid, poly)
            steps = k + 1
        if termination == "max_iters":
            # the loop guards iterates on entry, so vet the last update too
            _guard(x, float(np.linalg.norm(_state(x)[0])), steps, cfg.feas_shell_check)
    except (DivergenceError, SafeguardViolationError) as err:
        # hand the partial run back with the error so callers can still
        # emit whatever trace was collected before the abort
        finite = bool(np.all(np.isfinite(x)))
        err.result = SolverResult(
            final_x=x,
            projected=project_stiefel(x) if finite else None,
            trace=trace,
            termination="divergence_guard",
            iterations=steps,
        )
        raise
    return SolverResult(
        final_x=x,
        projected=project_stiefel(x),
        trace=trace,
        termination=termination,
        iterations=steps,
    )


def run_subgradient(problem: ProblemDefinition, cfg: SolverConfig, x0=None) -> SolverResult:
    """Penalty subgradient method on h(x) = f(A(x)) + (beta/4)||x'x - I||^2.

    The direction at iteration k transports one subgradient of f,
    evaluated at the mapped point A(x_k), through the map's Jacobian.
    """
    if cfg.feas_shell_check:
        _check_algorithm1_safeguards(cfg)

    def update(x, k, resid, poly):
        w = problem.f_subgrad(_map(x, poly), _LazyRng(cfg.seed, 0, k))
        if w.shape != x.shape:
            raise DimensionError(f"direction shape {w.shape} != base shape {x.shape}")
        d = _jacobian(x, w, resid, poly)
        return _penalty_step(x, d, cfg.schedule.step(k), cfg.beta, resid)

    return _run_loop(problem, cfg, x0, update)


def run_prox_subgradient(problem: ProblemDefinition, cfg: SolverConfig, x0=None) -> SolverResult:
    """Proximal subgradient method x+ = prox_{eta r}(A(x) - eta d).

    The smooth-part direction is evaluated at the iterate x_k itself, not
    at the mapped point.  The trace records the dissolved objective both
    at x_k (h column) and at A(x_k) (h_mapped), the latter being the
    monotone-ish merit of this iteration.
    """
    reg = problem.reg
    if reg is not None and reg.prox is None:
        raise ConfigurationError("proximal solver needs a regularizer with a prox")
    if cfg.feas_shell_check:
        _check_algorithm2_safeguards(cfg, reg.lipschitz if reg is not None else 0.0)

    def update(x, k, resid, poly):
        d = np.asarray(problem.phi_subgrad(x, _LazyRng(cfg.seed, 0, k)), dtype=float)
        if d.shape != x.shape:
            raise ConfigurationError(f"direction shape {d.shape} != iterate shape {x.shape}")
        return _prox_step(_map(x, poly), d, cfg.schedule.step(k), reg)

    return _run_loop(problem, cfg, x0, update, record_mapped=True)


def run_riemannian_baseline(problem: ProblemDefinition, cfg: SolverConfig, x0=None) -> SolverResult:
    """Feasible baseline: projected subgradient step plus polar retraction."""

    def update(x, k, resid, poly):
        w = problem.f_subgrad(x, _LazyRng(cfg.seed, 0, k))
        if w.shape != x.shape:
            raise DimensionError(f"shape {w.shape} != base shape {x.shape}")
        step = x - cfg.schedule.step(k) * _tangent(x, w)
        if not np.isfinite(step).all():
            raise DivergenceError(f"baseline step produced non-finite entries at iteration {k}")
        return _polar(step)[0]

    return _run_loop(problem, cfg, x0, update)


ALGORITHM_RUNNERS = {
    "ncdf_sgd": run_subgradient,
    "ncdf_proxsgd": run_prox_subgradient,
    "rsgd_baseline": run_riemannian_baseline,
}


def grid_candidates() -> tuple:
    """The fixed 10-point step-size grid {k1 * 10^-k2 : k1 in 1,3,5,7,9; k2 in 1,2}."""
    return tuple(sorted(k1 / 10.0**k2 for k1 in (1, 3, 5, 7, 9) for k2 in (1, 2)))


def run_step_grid(
    problem: ProblemDefinition,
    cfg: SolverConfig,
    budget_epochs: int,
    algorithm: str = "ncdf_sgd",
    workers: int = 1,
):
    """Final projected objective for every grid candidate.

    Candidates run independently (optionally on a thread pool), each with
    a seed derived from (cfg.seed, candidate index).  Failed candidates
    (divergence, safeguard or cap violations) score +inf.  A custom
    schedule is rejected, because it ignores the eta0 that the grid varies.
    """
    if algorithm not in ALGORITHM_RUNNERS:
        raise ConfigurationError(f"unknown algorithm {algorithm!r}")
    if budget_epochs < 1:
        raise ConfigurationError(f"budget_epochs must be >= 1, got {budget_epochs}")
    if cfg.schedule.kind == "custom":
        raise ConfigurationError(
            "grid search varies eta0, which a custom schedule ignores; "
            "use a harmonic_decay or constant schedule"
        )
    runner = ALGORITHM_RUNNERS[algorithm]
    candidates = grid_candidates()

    def score(i_and_eta):
        i, eta = i_and_eta
        derived = int(np.random.SeedSequence([cfg.seed, 1000 + i]).generate_state(1)[0])
        run_cfg = replace(
            cfg,
            schedule=replace(cfg.schedule, kind=cfg.schedule.kind, eta0=eta),
            max_iters=budget_epochs * cfg.schedule.epoch_len,
            seed=derived,
        )
        try:
            result = runner(problem, run_cfg)
        except (DivergenceError, SafeguardViolationError, ConfigurationError):
            return eta, float("inf")
        return eta, problem.f_value(result.projected.matrix)

    items = list(enumerate(candidates))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(score, items))
    else:
        rows = [score(item) for item in items]
    return rows


def grid_search_eta0(
    problem: ProblemDefinition,
    cfg: SolverConfig,
    budget_epochs: int,
    algorithm: str = "ncdf_sgd",
    workers: int = 1,
) -> float:
    """Grid candidate with the best final objective; ties go to the smaller step."""
    rows = run_step_grid(problem, cfg, budget_epochs, algorithm, workers)
    best_eta, best_val = None, float("inf")
    for eta, val in rows:  # ascending candidate order, so first win is smallest
        if val < best_val:
            best_eta, best_val = eta, val
    if best_eta is None:
        raise GridSearchError("every step-size candidate diverged or was rejected")
    return best_eta
