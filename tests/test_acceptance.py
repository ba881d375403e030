"""Acceptance checklist: one test per shipped guarantee, one summary line each.

Every tolerance and every seed is pinned here.  Each test prints a single
PASS/FAIL line (visible under pytest -s or in the captured output of a
failing run) so the suite doubles as a release checklist.
"""

import time

import numpy as np

import stiefelcd.core as core
from stiefelcd import cli
from stiefelcd.core import (
    PenaltyConfig,
    apply_A,
    ata_residual_identity,
    feasibility_violation,
    inverse_A,
    jacobian_apply,
    ncdf_subgradient,
    project_stiefel,
    random_shell_point,
    random_stiefel,
)
from stiefelcd.diagnostics import brute_force_sphere_oracle
from stiefelcd.problems import (
    NoiseModel,
    attach_noise,
    estimate_constants,
    gaussian_matrix,
    make_l1_pca,
    make_quadratic_trace,
    make_sparse_pca,
)
from stiefelcd.solvers import (
    SolverConfig,
    StepSchedule,
    run_prox_subgradient,
    run_riemannian_baseline,
    run_subgradient,
    stationarity_estimate,
)


def _line(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def _rng(*key):
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def test_criterion_01_exact_gram_residual_factorization():
    t0 = time.perf_counter()
    combos = [(n, p) for n in (3, 10, 20) for p in (1, 3, 5) if p <= n]
    rng = _rng(2026, 1)
    worst = 0.0
    for i in range(1000):
        n, p = combos[i % len(combos)]
        x = rng.uniform(-2.0, 2.0, (n, p))
        lhs, rhs = ata_residual_identity(x)
        err = float(np.linalg.norm((lhs - rhs).astype(float)))
        worst = max(worst, err / max(1.0, float(np.linalg.norm(x)) ** 2))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-11 and elapsed < 5.0
    _line(1, ok, f"max scaled factorization error {worst:.3e} (tol 1e-11), {elapsed:.2f}s")
    assert ok


def test_criterion_02_cubic_feasibility_contraction():
    rng = _rng(2026, 2)
    worst = -np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 16))
        p = int(rng.integers(1, min(n, 5) + 1))
        x = random_shell_point(rng, n, p, 1.0 - rng.random())
        before = feasibility_violation(x)
        after = feasibility_violation(apply_A(x))
        worst = max(worst, after - before**3)
    ok = worst <= 1e-12
    _line(2, ok, f"max excess over cubed violation {worst:.3e} (tol 1e-12)")
    assert ok


def test_criterion_03_jacobian_matches_finite_differences():
    rng = _rng(2026, 3)
    step = 1e-5
    worst_fd = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 16))
        p = int(rng.integers(1, min(n, 5) + 1))
        x = rng.uniform(-2.0, 2.0, (n, p))
        d = rng.standard_normal((n, p))
        d /= np.linalg.norm(d)
        jd = jacobian_apply(x, d)
        fd = (apply_A(x + step * d) - apply_A(x - step * d)) / (2.0 * step)
        worst_fd = max(worst_fd, float(np.linalg.norm(jd - fd)) / max(1.0, float(np.linalg.norm(jd))))
    worst_closed = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 16))
        p = int(rng.integers(1, min(n, 5) + 1))
        x = random_stiefel(rng, n, p)
        d = rng.standard_normal((n, p))
        d /= np.linalg.norm(d)
        sym = 0.5 * (x.T @ d + d.T @ x)
        worst_closed = max(
            worst_closed, float(np.linalg.norm(jacobian_apply(x, d) - (d - x @ sym)))
        )
    ok = worst_fd <= 1e-6 and worst_closed <= 1e-12
    _line(3, ok, f"FD error {worst_fd:.3e} (tol 1e-6), tangent-form gap {worst_closed:.3e} (tol 1e-12)")
    assert ok


def test_criterion_04_self_adjointness_and_normal_pairing():
    rng = _rng(2026, 4)
    worst_sa = 0.0
    worst_pair = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 16))
        p = int(rng.integers(1, min(n, 5) + 1))
        x = random_shell_point(rng, n, p, 1.0 - rng.random())
        d = rng.standard_normal((n, p))
        d /= np.linalg.norm(d)
        w = rng.standard_normal((n, p))
        w /= np.linalg.norm(w)
        jd = jacobian_apply(x, d)
        jw = jacobian_apply(x, w)
        gap = abs(float(np.sum(jd * w)) - float(np.sum(d * jw)))
        worst_sa = max(worst_sa, gap / max(1.0, float(np.linalg.norm(jd)), float(np.linalg.norm(jw))))
        g = x.T @ x
        res = g - np.eye(p)
        lhs = float(np.sum(jw * (x @ res)))
        rhs = (15.0 / 8.0) * float(np.sum((0.5 * (x.T @ w + w.T @ x)) * (res @ res @ res)))
        worst_pair = max(worst_pair, abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs)))
    ok = worst_sa <= 1e-12 and worst_pair <= 1e-12
    _line(4, ok, f"self-adjoint gap {worst_sa:.3e}, normal pairing gap {worst_pair:.3e} (tol 1e-12)")
    assert ok


def test_criterion_05_inverse_round_trip():
    rng = _rng(5, 5)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 13))
        p = int(rng.integers(1, min(n, 4) + 1))
        u = np.linalg.qr(rng.standard_normal((n, p)))[0]
        v = np.linalg.qr(rng.standard_normal((p, p)))[0]
        x = u @ np.diag(rng.uniform(0.0, 3.0, p)) @ v.T
        err = float(np.linalg.norm(inverse_A(apply_A(x)) - x))
        worst = max(worst, err / max(1.0, float(np.linalg.norm(x))))
    ok = worst <= 1e-10
    _line(5, ok, f"max scaled round-trip error {worst:.3e} (tol 1e-10)")
    assert ok


def test_criterion_06_projection_distance_bounds():
    rng = _rng(0, 6)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 16))
        p = int(rng.integers(1, min(n, 5) + 1))
        x = random_shell_point(rng, n, p, 0.5 * (1.0 - rng.random()))
        feas = feasibility_violation(x)
        pm = project_stiefel(x).matrix
        if float(np.linalg.norm(x - pm)) > feas:
            violations += 1
        if float(np.linalg.norm(apply_A(x) - pm)) > 4.0 * feas**3:
            violations += 1
    ok = violations == 0
    _line(6, ok, f"{violations} violations over 1000 samples (tol: zero)")
    assert ok


def test_criterion_07_stationarity_lower_bound():
    m = gaussian_matrix(10, 10, seed=7)
    problem = make_quadratic_trace(0.5 * (m + m.T), 3)
    m1, mt, mh = estimate_constants(problem, seed=7)
    beta = max(16.0 * m1, 60.0 * mt, 16.0 * mh)
    penalty = PenaltyConfig(beta=beta)
    radius = 0.9 * beta / (2.0 * beta + 8.0 * m1)
    rng = _rng(2026, 7)
    worst = -np.inf
    for _ in range(500):
        x = random_shell_point(rng, problem.n, problem.p, radius * (1.0 - rng.random()))
        grad = ncdf_subgradient(problem.f_subgrad, x, penalty)
        lower = 0.25 * beta * feasibility_violation(x)
        worst = max(worst, lower - float(np.linalg.norm(grad)))
    ok = worst <= 0.0
    _line(7, ok, f"max (beta/4)*violation minus gradient norm {worst:.3e} (tol 0)")
    assert ok


def test_criterion_08_shell_invariance_over_long_runs():
    data = gaussian_matrix(30, 12, seed=8)
    noisy = attach_noise(make_l1_pca(data, 3), NoiseModel(sigma=0.05, bound=0.1))
    m1, mt, mh = estimate_constants(noisy, seed=8)
    beta = max(16.0 * m1, 60.0 * mt, 16.0 * mh)

    cfg1 = SolverConfig(
        beta=beta,
        schedule=StepSchedule(kind="constant", eta0=1.0 / (2.0 * beta)),
        max_iters=10_000,
        feas_shell_check=True,
        safeguards=(m1, mt, mh),
        seed=80,
        trace_stride=1,
    )
    res1 = run_subgradient(noisy, cfg1)
    max1 = float(np.max(res1.trace.feas))

    cap = 1.0 / (19.0 * mt)  # no prox term, so its subgradient bound is zero
    cfg2 = SolverConfig(
        beta=beta,
        schedule=StepSchedule(kind="constant", eta0=cap),
        max_iters=10_000,
        feas_shell_check=True,
        safeguards=(m1, mt, mh),
        seed=81,
        trace_stride=1,
    )
    res2 = run_prox_subgradient(noisy, cfg2)
    max2 = float(np.max(res2.trace.feas))
    cum = float(np.sum(np.asarray(res2.trace.feas) ** 2))
    budget = 19.0 * mt**2 * sum(cfg2.schedule.step(k) ** 2 for k in range(res2.iterations))

    ok = max1 <= 1.0 / 6.0 and max2 <= 1.0 / 6.0 and cum <= budget
    _line(
        8,
        ok,
        f"max violations {max1:.3e} / {max2:.3e} (shell 1/6), "
        f"cumulative {cum:.3e} <= {budget:.3e}",
    )
    assert ok


def test_criterion_09_eigenvalue_oracle_convergence():
    t0 = time.perf_counter()
    problem = make_quadratic_trace(np.diag(np.arange(6.0, 0.0, -1.0)), 2)
    # leading invariant subspace gives -(6 + 5) = -11
    cfg1 = SolverConfig(
        beta=16.0 * problem.lipschitz_est,
        schedule=StepSchedule(kind="constant", eta0=1.0 / (32.0 * problem.lipschitz_est)),
        max_iters=4000,
        seed=5,
    )
    res1 = run_subgradient(problem, cfg1)
    gap1 = abs(problem.f_value(res1.projected.matrix) + 11.0)

    cfg2 = SolverConfig(schedule=StepSchedule(kind="constant", eta0=0.02), max_iters=3000, seed=5)
    res2 = run_riemannian_baseline(problem, cfg2)
    gap2 = abs(problem.f_value(res2.final_x) + 11.0)

    elapsed = time.perf_counter() - t0
    ok = (
        gap1 <= 1e-4
        and gap2 <= 1e-4
        and res1.iterations <= 50_000
        and res2.iterations <= 50_000
        and elapsed < 10.0
    )
    _line(9, ok, f"objective gaps {gap1:.3e} / {gap2:.3e} (tol 1e-4), {elapsed:.2f}s")
    assert ok


def test_criterion_10_brute_force_circle_agreement():
    problem = make_l1_pca(gaussian_matrix(6, 2, seed=0), 1)
    _, oracle_value = brute_force_sphere_oracle(problem, 100_000)
    cfg = SolverConfig(
        beta=0.1,
        schedule=StepSchedule(kind="harmonic_decay", eta0=0.03),
        max_iters=20_000,
        seed=0,
    )
    result = run_subgradient(problem, cfg)
    gap = problem.f_value(result.projected.matrix) - oracle_value
    ok = abs(gap) <= 1e-3
    _line(10, ok, f"objective gap to grid oracle {gap:.3e} (tol 1e-3)")
    assert ok


def _planted_sparse_covariance(seed: int) -> np.ndarray:
    """PSD matrix with five sparse planted spikes on disjoint supports.

    The trace objective is rotation-invariant inside the leading
    eigenspace, so the entrywise penalty alone picks the basis there; with
    disjoint constant-magnitude supports that basis is the planted one and
    the smooth gradient vanishes on every off-support entry.
    """
    rng = _rng(seed, 11)
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


def test_criterion_11_sparse_pca_desk_run():
    t0 = time.perf_counter()
    problem = make_sparse_pca(_planted_sparse_covariance(0), 5, 0.1)
    total = 60_000
    ks = np.arange(total)
    steps = np.maximum(5e-3 * np.minimum(1.0, 0.9995 ** (ks - 30_000)), 1e-8)
    cfg = SolverConfig(
        beta=1.0,
        schedule=StepSchedule(kind="custom", values=tuple(steps)),
        max_iters=total,
        seed=0,
        trace_stride=total,
    )
    result = run_prox_subgradient(problem, cfg)
    elapsed = time.perf_counter() - t0
    feas = feasibility_violation(result.final_x)
    stat = stationarity_estimate(problem, result.projected)
    proj_feas = feasibility_violation(result.projected.matrix)
    ok = stat <= 1e-2 and feas <= 1e-3 and proj_feas <= 1e-12 and elapsed < 10.0
    _line(
        11,
        ok,
        f"stationarity {stat:.3e} (tol 1e-2), feasibility {feas:.3e} (tol 1e-3), "
        f"projected {proj_feas:.3e} (tol 1e-12), {elapsed:.2f}s",
    )
    assert ok


def test_criterion_12_mutation_sensitivity(monkeypatch, capsys):
    assert cli.main(["verify", "--samples", "40"]) == 0
    failures = []
    for idx in range(3):
        flipped = list(core._A_COEFFS)
        flipped[idx] = -flipped[idx]
        monkeypatch.setattr(core, "_A_COEFFS", tuple(flipped))
        code = cli.main(["verify", "--samples", "40"])
        monkeypatch.undo()
        if code == 0:
            failures.append(idx)
    capsys.readouterr()
    ok = not failures
    _line(12, ok, f"undetected coefficient sign flips: {failures or 'none'}")
    assert ok
