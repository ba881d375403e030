"""Subgradient-type solvers for the dissolved objective.

Two penalty-based iterations and one feasible baseline:

  run_subgradient        x+ = x - eta (J(x)[w] + beta x (x'x - I)),
                         w drawn from the subdifferential of f at A(x)
  run_prox_subgradient   x+ = prox_{eta r}(A(x) - eta d),
                         d drawn from the smooth part at x itself
  run_riemannian_baseline  projected subgradient step followed by the
                         polar retraction (stays exactly feasible)

Runs are deterministic given (problem, config, seed): each run owns one
counter-based generator (Philox keyed by its seed), handed to the step's
oracle call at iteration k positioned at that iteration, so oracle noise
at iteration k is reproducible bitwise and independent of the run's
history.  The generator is built on the first draw, so deterministic
oracles skip its set-up.  Stationarity (the trace's stat column, the
stopping rule and stationarity_estimate) calls the oracle without a
generator, which the oracle contract makes exact; one routine,
_stationarity, takes its norm.  A non-finite output ends a run, and
stationarity_estimate returns nan for it.

One driver, _lockstep, advances a stacked (B, n, p) iterate: a single
run is a stack of one, and the step-size grid stacks its candidates, so
each candidate scores bitwise what its single run would.  Step sizes are
resolved and the safeguards checked before the first iteration; x0 is
validated once.  The driver then runs on core's unchecked kernels,
sharing each iterate's Gram residual, and its map polynomial where read,
between the guard, the trace and the update, and owns every run's trace
and outcome; each algorithm is one step (_Method).  Each oracle site makes one
call: the step's on the whole stack (2-d for a stack of one; phi's alone
without a regularizer), the trace's per block of iterates.  An error that an
oracle or value callable raises propagates unchanged, whatever its type; only
the driver's own checks end a single run.  Oracle outputs are shape-checked;
the trace's oracle outputs and every step's result are checked for finiteness,
the latter by the next guard, which a retraction reaches unchanged.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import Callable, Optional

import numpy as np

from .core import (
    SHELL_RADIUS,
    StiefelPoint,
    _certified,
    _fro,
    _gram,
    _jacobian,
    _map,
    _polar,
    _poly,
    _tangent,
    _terms,
    feasibility_violation,
    project_stiefel,
    validate_matrix,
)
from .core import _finite, _integer, _number, _positive
from .errors import ConfigurationError, DimensionError, DivergenceError, SafeguardViolationError
from .problems import ProblemDefinition, _shaped, _shell_beta

# each schedule kind and the StepSchedule keys it reads, besides kind
SCHEDULE_KINDS = {
    "harmonic_decay": ("eta0", "epoch_len"),
    "constant": ("eta0", "epoch_len"),
    "custom": ("values",),
}

# iterates whose Gram residual passes this are treated as runaways
DIVERGENCE_FEAS_LIMIT = 10.0
# and shell-checked ones past this have left the shell
_SHELL_LIMIT = SHELL_RADIUS + 1e-12


def _philox(seed: int) -> np.random.Generator:
    """The one generator of the run seeded seed: Philox keyed by SeedSequence([seed])."""
    key = np.random.SeedSequence([int(seed)]).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _RunNoise:
    """One run's oracle noise, handed to its oracle calls as their generator.

    at(k) returns the generator of the oracle call at iteration k: the run's
    Philox at counter (0, 0, k, 0) with nothing buffered, the call's draws
    continuing from there, so iteration k's draws depend on (seed, k) only.
    Before the first draw it returns this object instead, whose first
    attribute access (rng.normal, ...) builds and positions the Philox, so
    an oracle that never draws costs no set-up.
    """

    __slots__ = ("_seed", "_gen", "_state", "_at")

    def __init__(self, seed: int):
        self._seed, self._gen, self._state, self._at = seed, None, None, None

    def at(self, k: int):
        if self._gen is None:  # built on the first draw, by __getattr__
            self._at = k
            return self
        self._state["state"]["counter"] = (0, 0, k, 0)
        self._gen.bit_generator.state = self._state
        return self._gen

    def __getattr__(self, name):
        if self._gen is None and self._at is not None:
            self._gen = _philox(self._seed)
            state = self._gen.bit_generator.state  # counter 0, empty buffer
            key = tuple(state["state"]["key"].tolist())  # the setter reads tuples faster
            self._state = dict(state, state={"key": key}, buffer=tuple(state["buffer"]))
            self.at(self._at)
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
        if self.kind not in (kinds := tuple(SCHEDULE_KINDS)):
            raise ConfigurationError(f"kind must be one of {kinds}, got {self.kind!r}")
        if "values" in SCHEDULE_KINDS[self.kind]:
            _finite("eta0", self.eta0)
            if not isinstance(self.values, (tuple, list)) or not self.values:
                raise ConfigurationError("values must be a nonempty sequence for a custom schedule")
            vals = tuple(_number("values", v) for v in self.values)
            if not all(map(math.isfinite, vals)):
                raise ConfigurationError(f"values must be finite, got {vals}")
            if any(v <= 0 for v in vals):
                raise ConfigurationError("values must be positive for a custom schedule")
            object.__setattr__(self, "values", vals)
        else:
            _positive("eta0", self.eta0)
        _integer("epoch_len", self.epoch_len, 1)

    def step(self, k: int) -> float:
        return _steps(self, k, "k", one=True)[0][0]

    def steps(self, n: int) -> list:
        """step(0), ..., step(n - 1); raises ConfigurationError if a custom schedule is shorter."""
        return _steps(self, n, "n")[0]


def _steps(schedule: StepSchedule, index, name: str, etas=None, one=False) -> list:
    """The one step formula: for each eta0 in etas (default schedule.eta0; a custom schedule
    reads its values instead), the list [step(index)] if one, else step(0), ..., step(index - 1).
    A bad index or a list too long to allocate is a ConfigurationError naming name.
    """
    i = _integer(name, index, 0)
    start, stop = (i, i + 1) if one else (0, i)
    if schedule.kind == "custom":
        if stop > (size := len(schedule.values)):  # names the first missing step
            raise ConfigurationError(
                f"custom schedule has {size} values, needed step {max(start, size)}"
            )
        return [list(schedule.values[start:stop])]
    etas = (schedule.eta0,) if etas is None else etas
    try:
        if schedule.kind == "constant":
            return [[eta] * (stop - start) for eta in etas]
        # k // min(epoch_len, stop) = k // epoch_len for k < stop, in int64 for any epoch_len
        divisors = 0.1 * (np.arange(start, stop) // min(schedule.epoch_len, stop)) + 1.0
        return [(eta / divisors).tolist() for eta in etas]
    except (MemoryError, OverflowError, ValueError) as err:  # ValueError: past numpy's limit
        raise ConfigurationError(f"{name}: {index} steps do not fit in memory") from err


@dataclass(frozen=True)
class SolverConfig:
    """Run configuration shared by all three algorithms.

    safeguards holds the sampled constant estimates (M1, Mt, Mh) used when
    feas_shell_check is on.  Every 10 iterations the stopping rule ends a
    run whose projected stationarity estimate and Gram residual are both
    below their tolerances; both zero disable it, and one alone is rejected.
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
        if not isinstance(self.feas_shell_check, bool):
            # bool("false") is True, so a string would silently turn the check on
            raise ConfigurationError(
                f"feas_shell_check: expected true or false, got {self.feas_shell_check!r}"
            )
        _positive("beta", self.beta)
        for name in ("stop_tol_stationarity", "stop_tol_feasibility"):
            _finite(name, getattr(self, name))
        for name, least in (("max_iters", 1), ("trace_stride", 1), ("seed", 0)):
            _integer(name, getattr(self, name), least)
        # nan fails >= 0; an inf estimate passes, and the shell check rejects every finite beta
        if not isinstance(self.safeguards, (tuple, list)) or len(self.safeguards) != 3 or not all(
            _number("safeguards", s) >= 0 for s in self.safeguards
        ):
            raise ConfigurationError("safeguards must be three nonnegative estimates")
        # held as floats, so an integer beyond float range is the inf it stands for
        guards = tuple(_number("safeguards", s) for s in self.safeguards)
        object.__setattr__(self, "safeguards", guards)
        if self.stop_tol_stationarity < 0 or self.stop_tol_feasibility < 0:
            raise ConfigurationError(
                "stop_tol_stationarity and stop_tol_feasibility must be nonnegative"
            )
        if (self.stop_tol_stationarity > 0) != (self.stop_tol_feasibility > 0):
            raise ConfigurationError(
                "stop_tol_stationarity and stop_tol_feasibility stop a run only together"
            )


@dataclass
class IterateTrace:
    """Per-iteration records; seconds is the wall time when the iterate was reached."""

    iters: list = field(default_factory=list)
    f: list = field(default_factory=list)
    h: list = field(default_factory=list)
    feas: list = field(default_factory=list)
    stat: list = field(default_factory=list)
    seconds: list = field(default_factory=list)

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
    """Gaussian matrix from SeedSequence([seed, 1]) pushed onto the manifold by polar projection."""
    return _initial_points(problem, [seed])[0]


def _initial_points(problem: ProblemDefinition, seeds) -> np.ndarray:
    """(B, n, p) stack of default_initial_point of each seed: one Gaussian each, one _polar."""
    rngs = [np.random.default_rng([_integer("seed", s, 0), 1]) for s in seeds]
    return _polar(np.stack([rng.standard_normal((problem.n, problem.p)) for rng in rngs]))[0]


def stationarity_estimate(problem: ProblemDefinition, point) -> float:
    """Norm of the projected subgradient ||W - X sym(X'W)||_F at a feasible point.

    Uses the single exact element that the problem's oracle returns when
    called without a generator, so for composite objectives this is an
    upper estimate tied to that selection; nan if that element is not finite.
    """
    x = point.matrix if isinstance(point, StiefelPoint) else validate_matrix(point, "point")
    if x.shape != (problem.n, problem.p):
        raise DimensionError(f"point shape {x.shape} != problem shape {(problem.n, problem.p)}")
    if not isinstance(point, StiefelPoint) and feasibility_violation(x) > 1e-8:
        raise ValueError("stationarity estimate requires a feasible point")
    w = np.ascontiguousarray(_shaped(problem.f_subgrad(x), x.shape))  # F order rounds otherwise
    norm, finite = _stationarity(x[None], w[None])
    return float(norm[0]) if finite[0] else math.nan


def _stationarity(x, w):
    """(||W - X sym(X'W)||_F of each slice of a stack, whether each slice of w is finite).

    Each norm is bitwise its slice's 2-d _tangent and _fro, rescaled by its largest
    entry only where the tangent slice is finite and its plain norm overflows.
    """
    t = _tangent(x, w)
    norms = _fro(t)
    for i in np.flatnonzero(norms == math.inf):
        if np.isfinite(t[i]).all():
            m = np.max(np.abs(t[i]))
            norms[i] = m * _fro(t[i] / m)
    return norms, np.isfinite(w).all(axis=(-2, -1))


def _sgd_cap(problem: ProblemDefinition, cfg: SolverConfig):
    if not cfg.feas_shell_check:
        return math.inf, ""
    if cfg.beta < (needed := _shell_beta(cfg.safeguards)):
        raise ConfigurationError(
            f"feas_shell_check requires beta >= max(16 M1, 60 Mt, 16 Mh) = {needed:.6g}, "
            f"got beta = {cfg.beta:.6g}"
        )
    return 1.0 / (2.0 * cfg.beta), "1/(2 beta)"


def _prox_cap(problem: ProblemDefinition, cfg: SolverConfig):
    reg = problem.reg
    if reg is not None and reg.prox is None:
        raise ConfigurationError("proximal solver needs a regularizer with a prox")
    if not cfg.feas_shell_check:
        return math.inf, ""
    denom = 19.0 * (cfg.safeguards[1] + (reg.lipschitz if reg is not None else 0.0))
    return (1.0 / denom, "1/(19 (Mt + Mr))") if denom > 0 else (math.inf, "")


def _guard(feas: float, k: int, shell: bool):
    """The error ending a run whose iterate k, of Gram residual feas, is runaway or off the shell.

    None if it passes.  The shell is checked only when shell (the run's feas_shell_check)
    is set.  The driver hands a non-finite iterate to its step's error instead, so
    here only an overflowing Gram matrix makes feas inf or NaN; both trip the guard.
    """
    if not feas <= DIVERGENCE_FEAS_LIMIT:
        return DivergenceError(
            f"Gram residual {feas:.3g} exceeded the divergence guard at iteration {k}"
        )
    if shell and feas > _SHELL_LIMIT:
        return SafeguardViolationError(
            f"iterate left the 1/6 feasibility shell at iteration {k} "
            f"(residual {feas:.6g}); the bound beta >= max(16 M1, 60 Mt, 16 Mh) "
            "did not hold for this run"
        )
    return None


def _sgd_step(x, mapped, w, eta, beta, resid, poly):
    return x - eta * (_jacobian(x, w, resid, poly) + beta * (x @ resid))


def _prox_step(x, mapped, d, eta, beta, resid, poly):
    return mapped - eta * d


def _baseline_step(x, mapped, w, eta, beta, resid, poly):
    return x - eta * _tangent(x, w)


def _retract(y):
    """Polar factor of each finite slice of the stack y; a non-finite slice stays for the guard."""
    if np.isfinite(y).all():
        return _polar(y)[0]
    finite = np.isfinite(y).all(axis=(-2, -1))
    y[finite] = _polar(y[finite])[0]
    return y


@dataclass(frozen=True)
class _Method:
    """One algorithm's iteration, split where the driver must go per run.

    cap(problem, cfg)                      (largest step the safeguards allow, its formula),
                                           or ConfigurationError where no step would pass
    step(x, A(x), d, eta, beta, G - I, M)  update algebra on the stacked iterate
    retract(y)                             applied to the update's finite slices, if set
    """

    cap: Callable
    step: Callable
    label: str  # names the step in the driver's non-finite DivergenceError
    retract: Optional[Callable] = None
    proximal: bool = False  # steps along phi and applies reg.prox
    at_map: bool = False  # the direction's oracle is called at A(x) rather than at x


_METHODS = {
    "ncdf_sgd": _Method(_sgd_cap, _sgd_step, "subgradient", at_map=True),
    "ncdf_proxsgd": _Method(_prox_cap, _prox_step, "proximal", proximal=True),
    "rsgd_baseline": _Method(lambda *_: (math.inf, ""), _baseline_step, "baseline", _retract),
}


def _run_single(problem, cfg, x0, method: _Method) -> SolverResult:
    """One run, driven as a stack of one; the error that ends it is re-raised.

    A guard's or a step's error carries the partial run as err.result.  A
    custom schedule shorter than max_iters fails before the first oracle
    call, with no partial run.
    """
    (steps,) = _steps(cfg.schedule, cfg.max_iters, "max_iters")
    cap, rule = method.cap(problem, cfg)
    if (biggest := max(steps)) > cap:
        raise ConfigurationError(
            f"feas_shell_check requires steps <= {rule} = {cap:.6g}, "
            f"largest scheduled step is {biggest:.6g}"
        )
    if x0 is None:
        x = default_initial_point(problem, cfg.seed)
    else:
        x = validate_matrix(x0, "x0").copy()
        if x.shape != (problem.n, problem.p):
            raise ConfigurationError(
                f"x0 shape {x.shape} does not match problem ({problem.n}, {problem.p})"
            )
    (outcome,) = _lockstep(problem, method, cfg, [cfg.seed], [steps], x[None])
    if isinstance(outcome, SolverResult):
        return outcome
    err, x, k, trace = outcome
    projected = project_stiefel(x) if np.isfinite(x).all() else None
    err.result = SolverResult(x, projected, trace, "divergence_guard", k)
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
    at the mapped point.
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


def _keep(outcomes, rows: list, *stacks):
    """rows and each stack (a list or an array; None passes) cut to the runs without an outcome."""
    kept = [i for i, r in enumerate(rows) if outcomes[r] is None]
    return [[a[i] for i in kept] if isinstance(a, list) else a if a is None else a[kept]
            for a in (rows, *stacks)]


# queued trace rows hold at most this many matrix entries per point (iterate
# and mapped point), and never less than one row
TRACE_QUEUE_ENTRIES = 8192


class _TraceQueue:
    """Trace and stopping-rule rows of one lockstep call, evaluated per block.

    add() copies iterate k of a run, and its mapped point for a trace row,
    into the block; flush() evaluates it when it is full, at the stopping
    rule and (through end()) before any run's outcome is set.  A block takes
    one _polar, one exact oracle call, one _stationarity and one f_values
    call each for h and f, each row bitwise its 2-d calls, and each run's
    rows are appended to its trace as columns; stat[run] keeps the run's
    last stationarity.  A non-finite stationarity output ends that run at
    its row's iterate k, with the rows before k, and drops its later rows.
    """

    def __init__(self, problem, beta, shape, traces, outcomes):
        self.problem, self.beta, self.traces, self.outcomes = problem, beta, traces, outcomes
        block = max(1, TRACE_QUEUE_ENTRIES // (shape[0] * shape[1]))
        self.x, self.mapped = np.empty((block, *shape)), np.empty((block, *shape))
        self.rows, self.stat = [], {}  # rows: (run, k, feas, seconds, traced) of each queued row

    def add(self, run, k, x, mapped, feas, seconds):
        """Queue iterate k of run; a trace row if mapped is given, else the stopping rule's."""
        if self.outcomes[run] is not None:  # a row flushed earlier in iteration k ended it
            return
        j = len(self.rows)
        self.x[j] = x
        if mapped is not None:
            self.mapped[j] = mapped
        self.rows.append((run, k, feas, seconds, mapped is not None))
        if j + 1 == len(self.x):
            self.flush()

    def end(self, run, outcome):
        """Flush, then set run's outcome unless a queued row of the run ended it first."""
        self.flush()
        if self.outcomes[run] is None:
            self.outcomes[run] = outcome

    def flush(self):
        rows, self.rows = self.rows, []
        if not (n := len(rows)):
            return
        runs, iters, feas, seconds, traced = zip(*rows)
        x, mapped = self.x[:n], self.mapped[:n]
        proj = _polar(x)[0]
        stat, finite = _stationarity(proj, _shaped(self.problem.f_subgrad(proj), x.shape))
        stat = stat.tolist()
        self.stat.update(zip(runs, stat))  # read only for runs no row ended
        end = {}  # the row that ends each run ending in this block
        for j in compress(range(n), (~finite).tolist()):
            if self.outcomes[run := runs[j]] is None:
                end[run] = j
                err = DivergenceError(
                    f"stationarity oracle produced non-finite entries at iteration {iters[j]}"
                )
                self.outcomes[run] = (err, x[j].copy(), iters[j], self.traces[run])
        if end or not all(traced):  # keep the trace rows before each end
            if not (at := [j for j in range(n) if traced[j] and j < end.get(runs[j], n)]):
                return
            cut = ([c[j] for j in at] for c in (runs, iters, feas, stat, seconds))
            (runs, iters, feas, stat, seconds), mapped, proj = cut, mapped[at], proj[at]
        feas_at = np.array(feas)
        h = self.problem.f_values(mapped) + 0.25 * self.beta * feas_at * feas_at
        cols = (iters, self.problem.f_values(proj).tolist(), h.tolist(), feas, stat, seconds)
        one = runs.count(runs[0]) == len(runs)  # one run's rows extend its columns unfiltered
        for run in dict.fromkeys(runs):
            t, kept = self.traces[run], None if one else [r == run for r in runs]
            for column, col in zip((t.iters, t.f, t.h, t.feas, t.stat, t.seconds), cols):
                column.extend(col if one else compress(col, kept))


@np.errstate(over="ignore", invalid="ignore")  # the checks end a run on non-finite values
def _lockstep(problem, method: _Method, cfg: SolverConfig, seeds, steps, x) -> list:
    """Advance runs that differ only in seed and step sizes as one (B, n, p) stack x.

    cfg holds what the runs share; row i draws its oracle noise from the
    generator of seeds[i] and steps by steps[i][k].  Returns one outcome
    per row: its SolverResult, or (error, iterate, k, trace) for a run
    that a guard, a non-finite trace oracle or a non-finite step ended at
    iterate k.  An error of an oracle or value callable propagates
    unchanged, whatever its type, unless queued trace rows end every run
    at an earlier iterate.  Each iteration forms G - I, M / 8 and the map
    (these two only where a step or trace row reads them), the polar factor,
    the oracle call, the step and the proximal map once for the whole
    stack.  The guard takes each row's Gram residual (one dot product for a
    stack of one) and goes row by row only when one fails; it finds a
    non-finite step, the baseline's too, by that residual.  Trace and
    stopping-rule rows go per block (_TraceQueue), each run ending where it
    would if each row were evaluated at once.  A row leaves when its run
    ends, at the guard or at a trace or stopping row.
    """
    shell = cfg.feas_shell_check
    limit = min(DIVERGENCE_FEAS_LIMIT, _SHELL_LIMIT) if shell else DIVERGENCE_FEAS_LIMIT
    passes = limit.__ge__  # f <= limit, false for NaN; every residual that passes skips the guard
    tol_stat, tol_feas = cfg.stop_tol_stationarity, cfg.stop_tol_feasibility
    stop_on = tol_stat > 0  # SolverConfig makes both tolerances positive or neither
    max_iters, stride, beta = cfg.max_iters, cfg.trace_stride, cfg.beta
    step, retract, at_map = method.step, method.retract, method.at_map
    maps = at_map or method.proximal  # the NCDF steps read A(x), so M / 8; the baseline's neither
    prox = problem.reg.prox if method.proximal and problem.reg is not None else None
    # the proximal method steps along the smooth part only; the others along f, which is phi
    # when there is no regularizer (_shaped makes the float array that f_subgrad would)
    oracle = problem.phi_subgrad if method.proximal or problem.reg is None else problem.f_subgrad
    noise = [_RunNoise(seed) for seed in seeds]
    rows = list(range(len(seeds)))  # the run of each row of the stack
    etas, steps = steps, np.asarray(steps, dtype=float)  # (B, max_iters), cut down with the stack
    traces = [IterateTrace() for _ in seeds]
    outcomes = [None] * len(seeds)
    terms, shape = _terms(x.shape[-1], x.ndim), x.shape[1:]
    eye = terms[0]
    queue = _TraceQueue(problem, beta, shape, traces, outcomes)
    non_finite = method.label + " step produced non-finite entries at iteration {}"
    t0 = time.perf_counter()
    try:
        for k in range(max_iters + 1):
            resid = (g := _gram(x)) - eye
            if len(rows) == 1:  # one dot product: bitwise the batched one (see core._violation)
                flat = resid.ravel()
                feas = [math.sqrt(flat.dot(flat))]
            else:  # _fro's dot products, with math.sqrt per row
                flat = resid.reshape(len(rows), 1, -1)
                feas = [math.sqrt(s) for s in (flat @ flat.swapaxes(-1, -2)).ravel().tolist()]
            if not all(map(passes, feas)):
                for i, r in enumerate(rows):
                    if not (math.isfinite(feas[i]) or np.isfinite(x[i]).all()):
                        # step k - 1 was not finite (k > 0, as x0 is validated finite)
                        err = DivergenceError(non_finite.format(k - 1))
                        queue.end(r, (err, prev[i], k - 1, traces[r]))
                    elif err := _guard(feas[i], k, shell):
                        queue.end(r, (err, x[i], k, traces[r]))
                rows, feas, x, g, resid, steps = _keep(outcomes, rows, feas, x, g, resid, steps)
            if not rows or k == max_iters:
                break
            traced = k % stride == 0
            stopping = stop_on and k % 10 == 0
            poly = _poly(g, terms) if traced or maps else None  # read by the step or a trace row
            mapped = None if poly is None else _map(x, poly)
            if traced or stopping:  # the only rows, besides the guard's, that can end a run
                seconds = time.perf_counter() - t0
                for i, r in enumerate(rows):
                    queue.add(r, k, x[i], mapped[i] if traced else None, feas[i], seconds)
                if stopping:
                    queue.flush()
                    for i, r in enumerate(rows):
                        if outcomes[r] is None and queue.stat[r] <= tol_stat:
                            if feas[i] <= tol_feas:
                                outcomes[r] = SolverResult(
                                    x[i], project_stiefel(x[i]), traces[r], "tol_met", k
                                )
                if outcomes.count(None) < len(rows):  # the stopping rule or a flush ended a run
                    rows, x, resid, poly, mapped, steps = _keep(
                        outcomes, rows, x, resid, poly, mapped, steps
                    )
                    if not rows:
                        break
            at = mapped if at_map else x
            if len(rows) == 1:  # a single run's oracle gets a 2-d iterate and one generator,
                d = _shaped(oracle(at[0], noise[rows[0]].at(k)), shape)[None]
                eta = float(etas[rows[0]][k])  # and its step a float: bitwise a (1, 1, 1) array's
            else:
                d = _shaped(oracle(at, (noise[r].at(k) for r in rows)), x.shape)
                eta = steps[:, k, None, None]
            y = step(x, mapped, d, eta, beta, resid, poly)
            if prox is not None:
                y = np.ascontiguousarray(prox(y, eta), dtype=float)
            # the next guard catches a non-finite step and reports prev
            prev, x = x, y if retract is None else retract(y)
    except Exception:
        queue.flush()  # a queued row may end a run before the error was reached
        if any(outcome is None for outcome in outcomes):
            raise
        return outcomes
    # any row still here passed the guard at k = max_iters, so its iterate is finite
    for i, (r, q, smallest) in enumerate(zip(rows, *_polar(x))):  # one SVD for the stack
        queue.end(r, SolverResult(x[i], _certified(q, smallest), traces[r], "max_iters", k))
    return outcomes


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
    budget_epochs epochs, tracing off and a seed derived from (cfg.seed,
    i); its row is bitwise what the single run of that config scores with
    tracing off.  The method's step cap is computed once: a candidate whose
    largest step exceeds it scores +inf without running, and a cap that
    raises (the single run's pre-run error) rejects every candidate.  The
    others advance in lockstep as one stacked iterate; one that a guard, a
    non-finite step or a non-finite stationarity output ends scores +inf.
    An error of an oracle or value callable propagates, whatever its type.
    A custom schedule is rejected, because it ignores the eta0 that the
    grid varies.
    """
    if algorithm not in _METHODS:
        raise ConfigurationError(f"unknown algorithm {algorithm!r}")
    _integer("budget_epochs", budget_epochs, 1)
    if cfg.schedule.kind == "custom":
        raise ConfigurationError(
            "grid search varies eta0, which a custom schedule ignores; "
            "use a harmonic_decay or constant schedule"
        )
    method = _METHODS[algorithm]
    candidates = grid_candidates()
    budget = budget_epochs * cfg.schedule.epoch_len
    shared = replace(cfg, max_iters=budget, trace_stride=budget)
    rows = _steps(cfg.schedule, budget, "budget_epochs", candidates)
    try:
        cap = method.cap(problem, shared)[0]
    except ConfigurationError:  # no step passes: every candidate is rejected
        cap = -math.inf
    kept = [i for i, row in enumerate(rows) if max(row) <= cap]
    seeds = [int(np.random.SeedSequence([cfg.seed, 1000 + i]).generate_state(1)[0]) for i in kept]
    scores = {}
    if kept:
        steps = [rows[i] for i in kept]
        ends = _lockstep(problem, method, shared, seeds, steps, _initial_points(problem, seeds))
        done = {i: o.projected.matrix for i, o in zip(kept, ends) if isinstance(o, SolverResult)}
        if done:  # one f_values call scores every finished candidate, each bitwise its f_value
            scores = dict(zip(done, problem.f_values(np.stack(list(done.values()))).tolist()))
    return [(eta, scores.get(i, float("inf"))) for i, eta in enumerate(candidates)]


def best_grid_step(rows) -> Optional[float]:
    """eta0 of the first strict minimum of (eta0, value) rows, or None if none beats +inf.

    The rows come in ascending eta0 order, so ties go to the smaller step.
    """
    best_eta, best_val = None, float("inf")
    for eta, val in rows:
        if val < best_val:
            best_eta, best_val = eta, val
    return best_eta
