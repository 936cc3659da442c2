import functools
import inspect
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import dcsparse.harness
import dcsparse.solvers
from dcsparse.channel import sample_sparse_channel
from dcsparse.harness import (SOLVER_REGISTRY, ExperimentConfig, run_noiseless_study,
                              run_snr_sweep)
from dcsparse.metrics import normalized_sq_error
from dcsparse.seeding import derive_seed, make_rng
from dcsparse.sensing import (MeasurementMatrix, add_noise, aligned_empty, gaussian_matrix,
                              measure, snr_to_sigma)
from dcsparse.solvers import (_ALPHA_MAX, _ALPHA_MIN, _TOL_FLOOR, _TRACE_BATCH,
                              InstanceTooLarge, NumericalFailure, ReconResult, SolverOptions,
                              SolverTrace, SparseProblem, _column_norms, _lam_max,
                              _power_lam_max, _record, _solve_prox, bcqp_gradient,
                              brute_force_l0, dc_gpsr, default_rho, gpsr_baseline, ista,
                              objective_exact, objective_l1, omp, solve_bcqp_gp, split_pos_neg)
from dcsparse.sparsity import sparsity_gap, top_k1_norm, top_k1_subgradient


def soft_threshold(a, lam):
    """Reference shrinkage toward zero by lam: sign(a) * max(|a| - lam, 0)."""
    return np.sign(a) * np.maximum(np.abs(a) - lam, 0.0)


def small_problem(seed, m=8, n=12, k=2, rho=None, x_true=None):
    phi = gaussian_matrix(m, n, derive_seed(9000, seed))
    if x_true is None:
        rng = make_rng(derive_seed(9001, seed))
        x_true = np.zeros(n)
        x_true[rng.choice(n, k, replace=False)] = rng.standard_normal(k)
    y = phi.phi @ x_true
    if rho is None:
        rho = default_rho(phi, y)
    return SparseProblem(y=y, phi=phi, k=k, rho=rho), x_true


def explicit_bcqp(p, w_z):
    """Independent dense construction of the split quadratic (B, c)."""
    ptp = p.phi.phi.T @ p.phi.phi
    B = np.block([[ptp, -ptp], [-ptp, ptp]])
    pty = p.phi.phi.T @ p.y
    c = np.concatenate([-pty, pty]) + p.rho * (1.0 - w_z)
    return B, c


# ---------------------------------------------------------------- objectives

def test_objective_exact_at_zero():
    p, _ = small_problem(0)
    assert objective_exact(np.zeros(12), p) == pytest.approx(0.5 * p.y @ p.y)


def test_objective_exact_vanishes_at_sparse_solution():
    p, x_true = small_problem(1)
    assert objective_exact(x_true, p) == pytest.approx(0.0, abs=1e-18)


def test_objective_exact_penalty_free_when_sparse():
    p, _ = small_problem(2)
    rng = make_rng(0)
    x = np.zeros(12)
    x[[1, 4]] = rng.standard_normal(2)
    r = p.y - p.phi.phi @ x
    assert objective_exact(x, p) == 0.5 * float(r @ r)  # the penalty is exactly 0


def test_objective_l1_at_zero():
    p, _ = small_problem(3)
    assert objective_l1(np.zeros(12), p) == pytest.approx(0.5 * p.y @ p.y)


def test_objective_l1_at_noiseless_optimum():
    p, x_true = small_problem(4)
    assert objective_l1(x_true, p) == pytest.approx(p.rho * np.abs(x_true).sum(), rel=1e-10)


def test_objective_identity():
    p, _ = small_problem(5)
    rng = make_rng(1)
    for _ in range(10):
        x = rng.standard_normal(12)
        lhs = objective_l1(x, p)
        rhs = objective_exact(x, p) + p.rho * top_k1_norm(x, p.k)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_objective_dimension_mismatch():
    p, _ = small_problem(6)
    with pytest.raises(ValueError):
        objective_exact(np.zeros(11), p)
    with pytest.raises(ValueError):
        objective_l1(np.zeros(13), p)


def antenna_cell():
    """A 256-antenna cell, 512 unknowns, 128 measurements and 16 paths, and its x_true."""
    sample = sample_sparse_channel(256, 16, 31)
    phi = gaussian_matrix(128, 512, 32)
    y = measure(phi, sample.x_real)
    return SparseProblem(y=y, phi=phi, k=32, rho=default_rho(phi, y)), sample.x_real


# The trace quantities and the top-(k,1) norm, as functions of (x, problem, ground truth).
EVALUATORS = {
    "objective_exact": lambda x, p, truth: objective_exact(x, p),
    "objective_l1": lambda x, p, truth: objective_l1(x, p),
    "normalized_sq_error": lambda x, p, truth: normalized_sq_error(truth, x),
    "top_k1_norm": lambda x, p, truth: top_k1_norm(x, p.k),
    "sparsity_gap": lambda x, p, truth: sparsity_gap(x, p.k),
}


def stacked_points(p, rng):
    """Rows to score on p: dense, k-sparse, tied magnitudes (all, and k + 1 of them), zero."""
    n = p.phi.n
    sparse = np.zeros((2, n))
    for row in sparse:
        support = rng.choice(n, p.k, replace=False)
        row[support] = rng.standard_normal(p.k)
    ties = np.where(np.arange(n) % 3, 0.5, -0.5)
    boundary_ties = np.where(np.arange(n) <= p.k, -2.0, 0.0)
    return np.vstack([rng.standard_normal((2, n)), sparse, ties, boundary_ties, np.zeros(n)])


@pytest.mark.parametrize("name", EVALUATORS)
def test_each_row_of_a_stack_scores_as_that_point_alone(name):
    evaluate = EVALUATORS[name]
    rng = make_rng(33)
    for p in [*engine_problems(), antenna_cell()[0]]:
        for q in (p, replace(p, k=p.phi.n)):
            truth = rng.standard_normal(q.phi.n)
            points = stacked_points(q, rng)
            values = evaluate(points, q, truth)
            assert isinstance(values, np.ndarray) and values.shape == (len(points),)
            for x, value in zip(points, values):
                one = evaluate(x, q, truth)
                assert type(one) is float
                assert abs(value - one) <= 1e-12 * abs(one)


# ------------------------------------------------------------ bcqp gradient

def test_bcqp_gradient_matches_finite_differences():
    p, _ = small_problem(7, m=6, n=10, k=3)
    rng = make_rng(2)
    w_x = top_k1_subgradient(rng.standard_normal(10), 3).w
    w_z = np.concatenate([np.maximum(w_x, 0), np.maximum(-w_x, 0)])
    B, c = explicit_bcqp(p, w_z)

    def g_of(z):
        return 0.5 * z @ B @ z + c @ z

    h = 1e-6
    for _ in range(20):
        z = np.abs(rng.standard_normal(20))
        grad = bcqp_gradient(z, p, w_z)
        fd = np.zeros(20)
        for i in range(20):
            e = np.zeros(20)
            e[i] = h
            fd[i] = (g_of(z + e) - g_of(z - e)) / (2 * h)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(grad - fd) / denom <= 1e-5


def test_bcqp_gradient_all_data_terms_vanish():
    phi = MeasurementMatrix(np.zeros((3, 4)) + np.eye(3, 4))
    p = SparseProblem(y=np.zeros(3), phi=phi, k=2, rho=0.7)
    grad = bcqp_gradient(np.zeros(8), p, np.zeros(8))
    assert np.allclose(grad, 0.7 * np.ones(8))


def test_bcqp_gradient_block_antisymmetry():
    p, _ = small_problem(8, m=5, n=7, k=2)
    rng = make_rng(3)
    z = np.abs(rng.standard_normal(14))
    w_x = top_k1_subgradient(rng.standard_normal(7), 2).w
    w_z = np.concatenate([np.maximum(w_x, 0), np.maximum(-w_x, 0)])
    grad = bcqp_gradient(z, p, w_z)
    expected = 2 * p.rho * np.ones(7) - p.rho * (w_z[:7] + w_z[7:])
    assert np.allclose(grad[:7] + grad[7:], expected, atol=1e-12)


def test_bcqp_gradient_dimension_check():
    p, _ = small_problem(9)
    with pytest.raises(ValueError):
        bcqp_gradient(np.zeros(10), p, np.zeros(24))


# ------------------------------------------------------------- inner solver

def test_bcqp_corner_optimum_returns_immediately():
    # y = 0 makes c = rho * 1 >= 0, so z = 0 satisfies the KKT conditions.
    phi = gaussian_matrix(4, 6, 3)
    p = SparseProblem(y=np.zeros(4), phi=phi, k=2, rho=0.5)
    z, inner = solve_bcqp_gp(p, np.zeros(12), np.zeros(12))
    assert inner == 0
    assert np.array_equal(z, np.zeros(12))


def test_bcqp_tiny_instance_projected_gradient_residual():
    phi = MeasurementMatrix(np.array([[1.0]]))
    p = SparseProblem(y=np.array([2.0]), phi=phi, k=1, rho=0.1)
    w_z = np.array([1.0, 0.0])
    opts = SolverOptions(inner_tol=1e-300, inner_max=5000)
    z, _ = solve_bcqp_gp(p, w_z, np.zeros(2), opts)
    resid = z - np.maximum(z - bcqp_gradient(z, p, w_z), 0.0)
    assert np.linalg.norm(resid) <= 1e-8
    # closed form: u = y, v = 0 because the selected coordinate is unpenalized
    assert z[0] == pytest.approx(2.0, abs=1e-8)
    assert z[1] == pytest.approx(0.0, abs=1e-12)


def test_bcqp_matches_slow_fixed_step_oracle():
    p, _ = small_problem(10, m=4, n=6, k=2)
    rng = make_rng(4)
    w_x = top_k1_subgradient(rng.standard_normal(6), 2).w
    w_z = np.concatenate([np.maximum(w_x, 0), np.maximum(-w_x, 0)])
    B, c = explicit_bcqp(p, w_z)
    step = 0.5 / max(np.linalg.eigvalsh(B).max(), 1e-12)
    z_ref = np.zeros(12)
    for _ in range(10**6):
        z_ref = np.maximum(z_ref - step * (B @ z_ref + c), 0.0)
    g_ref = 0.5 * z_ref @ B @ z_ref + c @ z_ref

    opts = SolverOptions(inner_tol=1e-300, inner_max=20000)
    z, _ = solve_bcqp_gp(p, w_z, np.zeros(12), opts)
    g = 0.5 * z @ B @ z + c @ z
    assert abs(g - g_ref) <= 1e-10


def test_bcqp_iterates_feasible_monotone_and_safeguarded():
    p, _ = small_problem(11, m=10, n=16, k=3)
    opts = SolverOptions(inner_tol=1e-300, inner_max=500)
    gvals, alphas = [], []

    def cb(k, z, gval, alpha):
        assert np.all(z >= 0.0)
        gvals.append(gval)
        alphas.append(alpha)

    solve_bcqp_gp(p, np.zeros(32), np.zeros(32), opts, on_iterate=cb)
    diffs = np.diff(gvals)
    assert np.all(diffs <= 1e-12)
    assert all(_ALPHA_MIN <= a <= _ALPHA_MAX for a in alphas)


def test_bcqp_has_no_initial_step_parameter():
    # The first step is always 1 / ||phi^T phi|| from the operator's cached estimate.
    p, _ = small_problem(7)
    with pytest.raises(TypeError):
        solve_bcqp_gp(p, np.zeros(2 * p.phi.n), np.zeros(2 * p.phi.n), alpha0=1.0)
    # Its tolerance is opts.inner_tol alone.
    with pytest.raises(TypeError):
        solve_bcqp_gp(p, np.zeros(2 * p.phi.n), np.zeros(2 * p.phi.n), tol=1e-8)


def test_bcqp_rejects_negative_start():
    p, _ = small_problem(12)
    z0 = np.zeros(24)
    z0[0] = -1.0
    with pytest.raises(ValueError):
        solve_bcqp_gp(p, np.zeros(24), z0)


def test_bcqp_nonfinite_raises_numerical_failure():
    phi = gaussian_matrix(4, 6, 5)
    p = SparseProblem(y=np.full(4, np.nan), phi=phi, k=2, rho=0.5)
    with pytest.raises(NumericalFailure) as exc:
        solve_bcqp_gp(p, np.zeros(12), np.zeros(12))
    assert exc.value.iteration == 0


# ------------------------------------------------------------------ dc_gpsr

def test_dc_gpsr_identity_measurement_fixed_point():
    phi = MeasurementMatrix(np.eye(8))
    y = np.zeros(8)
    y[[1, 5, 6]] = [2.0, -3.0, 0.4]
    p = SparseProblem(y=y, phi=phi, k=3, rho=0.05)
    res = dc_gpsr(p)
    assert np.max(np.abs(res.x_hat - y)) <= 1e-10


def test_dc_gpsr_benchmark_scale_recovery():
    from dcsparse.channel import sample_sparse_channel
    from dcsparse.sensing import measure
    cs = sample_sparse_channel(256, 16, derive_seed(0, 0))
    phi = gaussian_matrix(128, 512, derive_seed(0, 1))
    y = measure(phi, cs.x_real)
    p = SparseProblem(y=y, phi=phi, k=32, rho=default_rho(phi, y))
    res = dc_gpsr(p, ground_truth=cs.x_real)
    assert normalized_sq_error(cs.x_real, res.x_hat) <= 1e-20
    assert res.outer_iters <= 20
    assert res.converged


def test_dc_gpsr_outer_descent_and_trace():
    p, x_true = small_problem(13, m=16, n=32, k=4)
    res = dc_gpsr(p, ground_truth=x_true)
    objs = res.trace.outer_objectives
    assert len(objs) == len(res.trace.inner_counts) == len(res.trace.errors)
    assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))
    assert all(e is not None for e in res.trace.errors)
    assert res.trace.outer_steps[0] == 0


def test_dc_gpsr_k_equals_dimension_consistent_overdetermined():
    phi = gaussian_matrix(12, 6, 31)
    x = np.array([1.0, -2.0, 0.5, 0.0, 3.0, -1.0])
    p = SparseProblem(y=phi.phi @ x, phi=phi, k=6, rho=0.3)
    res = dc_gpsr(p)
    assert np.linalg.norm(p.y - phi.phi @ res.x_hat) <= 1e-8


def test_dc_proximal_is_not_exported():
    assert "dc_proximal" not in dcsparse.__all__
    assert not hasattr(dcsparse, "dc_proximal")


@pytest.mark.parametrize("solver", [dc_gpsr, gpsr_baseline, ista])
def test_iterative_solvers_start_from_zero_and_take_keywords_only(solver):
    params = inspect.signature(solver).parameters
    assert "x0" not in params
    assert all(prm.kind is prm.KEYWORD_ONLY for name, prm in params.items() if name != "p")
    p, _ = small_problem(14)
    with pytest.raises(TypeError):
        solver(p, np.zeros(12))
    with pytest.raises(TypeError):
        solver(p, x0=np.zeros(12))


@pytest.mark.parametrize("make", [
    lambda: gaussian_matrix(3, 4, 1),
    lambda: top_k1_subgradient(np.arange(4.0), 2),
    lambda: sample_sparse_channel(8, 2, 1),
    lambda: SparseProblem(y=np.ones(3), phi=gaussian_matrix(3, 4, 1), k=1, rho=1.0),
    lambda: omp(np.ones(3), gaussian_matrix(3, 4, 1), 1),
], ids=["MeasurementMatrix", "SubgradientVector", "ChannelSample", "SparseProblem",
        "ReconResult"])
def test_array_holding_dataclasses_compare_by_identity(make):
    a, b = make(), make()
    assert (a == a) is True
    assert (a == b) is False


# ---------------------------------------------------------- l1-only solvers

def test_gpsr_baseline_zero_data():
    phi = gaussian_matrix(6, 10, 8)
    p = SparseProblem(y=np.zeros(6), phi=phi, k=2, rho=0.5)
    res = gpsr_baseline(p)
    assert np.array_equal(res.x_hat, np.zeros(10))
    assert res.outer_iters == 1


def test_gpsr_baseline_traces_every_inner_iteration():
    p, x_true = small_problem(16, m=10, n=20, k=3)
    res = gpsr_baseline(p, ground_truth=x_true)
    assert len(res.trace.l1_objectives) == res.inner_iters_total + 1
    l1 = res.trace.l1_objectives
    assert all(b <= a + 1e-9 for a, b in zip(l1, l1[1:]))


def test_ista_fixed_point_characterization():
    p, _ = small_problem(17, m=10, n=20, k=3)
    opts = SolverOptions(inner_tol=1e-15, inner_max=100_000)
    res = ista(p, opts=opts)
    L = _power_lam_max(p.phi.phi)
    x = res.x_hat
    step = x - (p.phi.phi.T @ (p.phi.phi @ x) - p.phi.phi.T @ p.y) / L
    assert np.max(np.abs(x - soft_threshold(step, p.rho / L))) <= 1e-6


def test_ista_identity_matrix_single_effective_step():
    phi = MeasurementMatrix(np.eye(5))
    y = np.array([2.0, -0.4, 0.0, 1.2, -3.0])
    p = SparseProblem(y=y, phi=phi, k=2, rho=0.5)
    res = ista(p)
    assert np.allclose(res.x_hat, soft_threshold(y, 0.5), atol=1e-12)
    assert res.converged
    # The first step lands there: ista steps at 1/L, L the power-method estimate, here 1.
    first = ista(p, opts=SolverOptions(inner_max=1))
    assert first.inner_iters_total == 1
    assert np.allclose(first.x_hat, soft_threshold(y, 0.5), atol=1e-12)


def test_ista_matches_gpsr_objective():
    for seed in range(20):
        phi = gaussian_matrix(10, 20, derive_seed(700, seed))
        y = make_rng(derive_seed(701, seed)).standard_normal(10)
        p = SparseProblem(y=y, phi=phi, k=3, rho=0.1 * np.max(np.abs(phi.phi.T @ y)))
        a = gpsr_baseline(p, opts=SolverOptions(inner_tol=1e-300, inner_max=60_000))
        b = ista(p, opts=SolverOptions(inner_tol=1e-15, inner_max=200_000))
        assert abs(objective_l1(a.x_hat, p) - objective_l1(b.x_hat, p)) <= 1e-6


# ------------------------------------------------------------ shared engine

class MatmulCounter(np.ndarray):
    """ndarray whose 2-D views log the `@` and np.dot products taken through them.

    The log is a list that gets one entry per product: the array np.dot
    wrote into, or None for a product that allocated its result.
    """

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def _count(self, out=None):
        if self.log is not None and self.ndim == 2:
            self.log.append(out)

    def __matmul__(self, other):
        self._count()
        return np.matmul(np.asarray(self), np.asarray(other))

    def __rmatmul__(self, other):
        self._count()
        return np.matmul(np.asarray(other), np.asarray(self))

    def __array_function__(self, func, types, args, kwargs):
        if func is np.dot:
            self._count(kwargs.get("out"))
        return super().__array_function__(func, types, args, kwargs)


def counted_problem(p):
    """A copy of p whose matrix logs its products (see MatmulCounter); returns (copy, log)."""
    log = []
    q = replace(p, phi=MeasurementMatrix(p.phi.phi.view(MatmulCounter)))
    q.phi.phi.log = log
    return q, log


def counted_products(solver, p, opts):
    """Run solver on a copy of p whose matrix counts products; return (result, count)."""
    q, log = counted_problem(p)
    return solver(q, opts=opts), len(log)


def engine_problems():
    """20 small instances, every other one with measurement noise."""
    for seed in range(20):
        p, _ = small_problem(500 + seed)
        if seed % 2:
            y = p.y + 0.01 * make_rng(derive_seed(501, seed)).standard_normal(p.y.size)
            p = SparseProblem(y=y, phi=p.phi, k=p.k, rho=default_rho(p.phi, y))
        yield p


def solve_calls(monkeypatch):
    """Record (rho, inner_tol, w_z nonzero) of every solve_bcqp_gp call that dc_gpsr makes."""
    calls = []
    solve = dcsparse.solvers.solve_bcqp_gp

    def spy(p_, w_z, z0, opts, **kwargs):
        calls.append((p_.rho, opts.inner_tol, bool(np.any(w_z))))
        return solve(p_, w_z, z0, opts, **kwargs)

    monkeypatch.setattr(dcsparse.solvers, "solve_bcqp_gp", spy)
    return calls


def test_dc_gpsr_continues_rho_down_to_the_problem_rho(monkeypatch):
    # Step t solves at max(rho, 0.1 ||phi^T y||_inf * 0.3**(t-1)).  Above
    # rho, and at the first step at rho, it solves the l1 problem (w = 0)
    # at inner_tol; converged=True needs a step at rho.
    calls = solve_calls(monkeypatch)
    continued = 0
    for p in engine_problems():
        top = float(np.max(np.abs(p.phi.phi.T @ p.y)))
        calls.clear()
        res = dc_gpsr(p)
        rhos = [rho for rho, _, _ in calls]
        assert res.converged and len(rhos) == res.outer_iters
        assert rhos == [max(p.rho, 0.1 * top * 0.3 ** t) for t in range(len(rhos))]
        assert all(a >= b for a, b in zip(rhos, rhos[1:])) and rhos[-1] == p.rho
        l1 = rhos.index(p.rho) + 1  # the steps above rho and the first at rho
        assert calls[:l1] == [(rho, 1e-8, False) for rho in rhos[:l1]]
        assert any(dc for _, _, dc in calls[l1:])
        continued += l1 > 1
        for outer_max in range(1, l1):
            assert not dc_gpsr(p, opts=SolverOptions(outer_max=outer_max)).converged
    assert continued == 20


@pytest.mark.parametrize("factor", [0.09, 0.1, 0.5, 2.0])
def test_dc_gpsr_solves_every_step_at_rho_from_a_tenth_of_the_correlation(factor,
                                                                         monkeypatch):
    p0, _ = small_problem(31, m=16, n=32, k=4)
    top = float(np.max(np.abs(p0.phi.phi.T @ p0.y)))
    p = replace(p0, rho=factor * top)
    calls = solve_calls(monkeypatch)
    res = dc_gpsr(p)
    assert res.converged
    rhos = [rho for rho, _, _ in calls]
    assert rhos == [max(p.rho, 0.1 * top)] + [p.rho] * (res.outer_iters - 1)
    assert (rhos[0] == p.rho) is (factor >= 0.1)


def test_dc_gpsr_takes_no_l1_result():
    assert list(inspect.signature(dc_gpsr).parameters) == ["p", "opts", "ground_truth"]
    p, _ = small_problem(27, m=16, n=32, k=4)
    with pytest.raises(TypeError):
        dc_gpsr(p, l1_start=gpsr_baseline(p))
    assert "split" not in {f.name for f in fields(ReconResult)}
    assert not hasattr(gpsr_baseline(p), "split")


def test_dc_gpsr_solves_step_one_below_the_tolerance_floor(monkeypatch):
    # An inner_tol below _TOL_FLOOR is clamped to the floor, for the
    # continuation steps above rho as for the steps at rho.
    calls = solve_calls(monkeypatch)
    p, _ = small_problem(28, m=16, n=32, k=4)
    res = dc_gpsr(p, opts=SolverOptions(inner_tol=1e-30, inner_max=300, outer_max=4))
    assert len(calls) == res.outer_iters == 4 and calls[0][0] > p.rho
    assert all(tol == _TOL_FLOOR for _, tol, _ in calls)


def test_dc_gpsr_polishes_at_the_floor_exactly_when_the_subproblem_repeats(monkeypatch):
    # A step solves at _TOL_FLOOR exactly when it follows the first DC step
    # (the second step at rho) and its w_z equals the previous call's; only
    # such a polish may end the loop, converged.
    calls = []
    solve = dcsparse.solvers.solve_bcqp_gp

    def spy(p_, w_z, z0, opts, **kwargs):
        calls.append((p_.rho, opts.inner_tol, w_z.copy()))
        return solve(p_, w_z, z0, opts, **kwargs)

    monkeypatch.setattr(dcsparse.solvers, "solve_bcqp_gp", spy)
    for p in engine_problems():
        calls.clear()
        res = dc_gpsr(p)
        first_dc = [rho for rho, _, _ in calls].index(p.rho) + 1
        polish = [t > first_dc and np.array_equal(w_z, calls[t - 1][2])
                  for t, (_, _, w_z) in enumerate(calls)]
        assert [tol == _TOL_FLOOR for _, tol, _ in calls] == polish
        assert all(tol == 1e-8 for (_, tol, _), pol in zip(calls, polish) if not pol)
        assert polish[-1] and res.converged and len(calls) == res.outer_iters


def test_power_method_runs_once_per_operator(count_calls):
    p, _ = small_problem(29, m=16, n=32, k=4)
    expected = _power_lam_max(p.phi.phi)
    calls = count_calls(dcsparse.solvers, ("_power_lam_max",))
    for solver in (dc_gpsr, gpsr_baseline, ista):
        solver(p)
    assert calls["_power_lam_max"] == 1
    assert p.phi._lam_max_cache == expected
    # Another operator (here one on a counting view of phi) computes its own.
    counted_products(gpsr_baseline, p, SolverOptions(inner_max=5))
    assert calls["_power_lam_max"] == 2
    # A new operator starts without a value.
    assert gaussian_matrix(16, 32, 30)._lam_max_cache is None
    assert calls["_power_lam_max"] == 2
    # Assigning phi drops the value: the next solve computes the new
    # matrix's once and steps as a solve on a fresh operator does.
    other = gaussian_matrix(16, 32, 31).phi
    p.phi.phi = other
    assert p.phi._lam_max_cache is None
    results = [solver(p) for solver in (dc_gpsr, gpsr_baseline, ista)]
    assert calls["_power_lam_max"] == 3
    assert p.phi._lam_max_cache == _power_lam_max(other) != expected
    fresh = replace(p, phi=MeasurementMatrix(other.copy()))
    assert [r.x_hat.tobytes() for r in results] == \
        [solver(fresh).x_hat.tobytes() for solver in (dc_gpsr, gpsr_baseline, ista)]


def test_zero_operator_returns_zero_converged():
    # phi = 0 has no curvature: the power method reads 0, and the cached
    # estimate falls back to 1.0, a first step of 1.  Every iterative
    # solver then stays at x = 0, converged, with no warning on the way.
    phi = MeasurementMatrix(np.zeros((6, 10)))
    y = np.arange(6.0)
    p = SparseProblem(y=y, phi=phi, k=2, rho=default_rho(phi, y))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = [solver(p) for solver in (dc_gpsr, gpsr_baseline, ista)]
    assert phi._lam_max_cache == 1.0
    for res in results:
        assert np.array_equal(res.x_hat, np.zeros(10)) and res.converged
    assert [r.outer_iters for r in results] == [3, 1, 1]
    assert [r.inner_iters_total for r in results] == [0, 0, 1]


def trace_batches(points):
    """Batches a full trace evaluates for `points` inner iterates: all but the last."""
    return -(-(points - 1) // _TRACE_BATCH) if points else 0


@pytest.mark.parametrize("solver, traced, per_iteration",
                         [(ista, False, 2), (ista, True, 3), (gpsr_baseline, False, 2),
                          (gpsr_baseline, True, 3)],
                         ids=["ista_compact-2", "ista-3", "gpsr_baseline_compact-2",
                              "gpsr_baseline-3"])
def test_products_per_inner_iteration(solver, traced, per_iteration, monkeypatch):
    # Each inner step takes two products; gpsr_baseline's loop takes one
    # more every 64 steps to refresh phi x.  Without a full trace nothing
    # else is evaluated per step.  A full trace records every iterate: the
    # final point forms its residual once for both objectives, and the
    # points before it take one product per batch.  In batches of one,
    # each point takes its own: per_iteration.
    p, _ = small_problem(19, m=16, n=32, k=4)
    solve = functools.partial(solver, inner_trace=traced)

    def counts(caps):
        runs = [counted_products(solve, p, SolverOptions(outer_max=1, inner_max=cap,
                                                         inner_tol=1e-300))
                for cap in caps]
        assert [r.inner_iters_total for r, _ in runs] == list(caps)
        return [count for _, count in runs]

    def extra(cap):
        refreshes = cap // 64 if solver is gpsr_baseline else 0
        return refreshes + (trace_batches(cap) if traced else 0)

    caps = (5, 63, 64, 65, 129, 200)
    first, *rest = counts(caps)
    for cap, count in zip(caps[1:], rest):
        assert count - first == 2 * (cap - caps[0]) + extra(cap) - extra(caps[0])
    monkeypatch.setattr(dcsparse.solvers, "_TRACE_BATCH", 1)
    short, longer = counts((5, 15))
    assert longer - short == 10 * per_iteration


def reference_solve_bcqp_gp(p, w_z, z0, opts=None, on_iterate=None):
    """The projected-gradient loop as first written, with fresh arrays each step.

    Kept as the oracle for solve_bcqp_gp, which reuses buffers and must
    produce the same iterates bit for bit.
    """
    def unsplit(z):
        return z[:z.size // 2] - z[z.size // 2:]

    def grad_of(fx):
        g = phi.T @ fx
        return np.concatenate([g, -g]) + c

    opts = SolverOptions() if opts is None else opts
    tol = opts.inner_tol
    phi = p.phi.phi
    w_z = np.asarray(w_z, dtype=float)
    z = np.asarray(z0, dtype=float).copy()
    pty = phi.T @ p.y
    c = np.concatenate([-pty, pty]) + p.rho * (1.0 - w_z)
    lam = _power_lam_max(phi)
    alpha = float(np.clip(1.0 / lam if lam > 0 else 1.0, _ALPHA_MIN, _ALPHA_MAX))

    fx = phi @ unsplit(z)
    grad = grad_of(fx)
    gval = 0.5 * float(fx @ fx) + float(c @ z)
    if not np.isfinite(gval):
        raise NumericalFailure("non-finite objective at the start point", iteration=0)

    inner = 0
    stall = 0
    for k in range(1, opts.inner_max + 1):
        zh = np.maximum(z - alpha * grad, 0.0)
        d = zh - z
        if not d.any():
            break
        gd = float(grad @ d)
        if gd >= 0.0:
            break
        fd = phi @ unsplit(d)
        dbd = float(fd @ fd)
        beta = 1.0 if dbd <= 0.0 else min(1.0, -gd / dbd)
        predicted = -(beta * gd + 0.5 * beta * beta * dbd)
        if predicted <= tol * max(abs(gval), 1e-12):
            stall += 1
            if k == 1 or stall >= 3:
                break
        else:
            stall = 0
        if beta == 1.0:
            z = zh
        else:
            z = np.maximum(z + beta * d, 0.0)
        fx = fx + beta * fd
        if k % 64 == 0:
            fx = phi @ unsplit(z)
        grad = grad_of(fx)
        gnew = 0.5 * float(fx @ fx) + float(c @ z)
        inner = k
        if not np.isfinite(gnew) or not np.all(np.isfinite(z)):
            raise NumericalFailure("non-finite iterate in gradient projection", iteration=k)
        if on_iterate is not None:
            on_iterate(k, z, gnew, alpha)
        alpha = float(np.clip(float(d @ d) / dbd, _ALPHA_MIN, _ALPHA_MAX)) \
            if dbd > 0.0 else _ALPHA_MAX
        gval = gnew
    return z, inner


def assert_same_as_reference(p, w_z, z0, opts=None, **kw):
    """solve_bcqp_gp equals the reference loop bit for bit on p; returns the inner iterations."""
    runs = []
    for solve in (solve_bcqp_gp, reference_solve_bcqp_gp):
        seen = []
        z, inner = solve(p, w_z, z0, opts, **kw,
                         on_iterate=lambda k, z, g, a: seen.append((k, z.copy(), g, a)))
        runs.append((z, inner, seen))
    (z, inner, seen), (z_ref, inner_ref, seen_ref) = runs
    assert np.array_equal(z, z_ref)
    assert inner == inner_ref
    assert len(seen) == len(seen_ref) == inner
    for (k, zk, g, a), (k_ref, zk_ref, g_ref, a_ref) in zip(seen, seen_ref):
        assert (k, g, a) == (k_ref, g_ref, a_ref)
        assert np.array_equal(zk, zk_ref)
    # Without a hook the iterates live in reused buffers: same bytes, same count.
    z_untraced, inner_untraced = solve_bcqp_gp(p, w_z, z0, opts, **kw)
    assert z_untraced.tobytes() == z_ref.tobytes() and inner_untraced == inner_ref
    return inner


def test_bcqp_matches_reference_loop_on_engine_problems():
    for p in engine_problems():
        n = p.phi.n
        assert assert_same_as_reference(p, np.zeros(2 * n), np.zeros(2 * n)) > 0


def test_bcqp_matches_reference_loop_warm_start_with_subgradient():
    p, x_true = small_problem(20, m=16, n=32, k=4)
    w_z = split_pos_neg(top_k1_subgradient(x_true, p.k).w)
    z0 = np.abs(make_rng(6).standard_normal(64))
    assert assert_same_as_reference(p, w_z, z0) > 0


def test_bcqp_matches_reference_loop_degenerate_inputs():
    phi = gaussian_matrix(6, 10, 8)
    p = SparseProblem(y=np.zeros(6), phi=phi, k=2, rho=0.5)
    assert assert_same_as_reference(p, np.zeros(20), np.zeros(20)) == 0
    y = np.zeros(8)
    y[[1, 5, 6]] = [2.0, -3.0, 0.4]
    p = SparseProblem(y=y, phi=MeasurementMatrix(np.eye(8)), k=3, rho=0.05)
    assert assert_same_as_reference(p, np.zeros(16), np.zeros(16)) > 0


def test_bcqp_matches_reference_loop_across_product_refresh():
    # Runs to inner_max, crossing the periodic recomputation of phi x.
    p, _ = small_problem(21, m=16, n=32, k=4)
    opts = SolverOptions(inner_tol=1e-300, inner_max=300)
    assert assert_same_as_reference(p, np.zeros(64), np.zeros(64), opts) == 300


def test_bcqp_partial_step_is_nonnegative_without_a_clamp():
    # solve_bcqp_gp moves to z + beta * d at beta < 1 and clamps no more:
    # z >= 0 and d = fl(max(z - alpha * g, 0) - z) >= -z, so fl(beta * d)
    # >= -z and the sum is >= +0, which max(., 0) returns bit for bit.
    tiny = np.nextafter(0.0, 1.0)
    z_values = np.array([0.0, -0.0, tiny, 1e-300, 1.0, 1e308])
    g_values = np.array([0.0, -0.0, tiny, -tiny, 1e-300, -1e-300, 1.0, -1.0, 1e308, -1e308])
    rng = make_rng(9102)
    g_drawn = rng.standard_normal(200) * 10.0 ** rng.uniform(-320, 300, 200)
    z = np.repeat(z_values, g_values.size + g_drawn.size)
    g = np.tile(np.concatenate([g_values, g_drawn]), z_values.size)
    zeros = np.zeros_like(z)
    with np.errstate(over="ignore"):
        for alpha in (1e-30, 1.0, 1e30):
            zh = np.maximum(np.subtract(z, np.multiply(g, alpha)), zeros)
            d = np.subtract(zh, z)
            for beta in (tiny, 1e-16, 0.5, np.nextafter(1.0, 0.0)):
                step = np.add(z, np.multiply(d, beta))
                clamped = np.maximum(step, zeros)
                assert np.array_equal(step.view(np.uint64), clamped.view(np.uint64))
                assert not np.signbit(step).any()


@pytest.mark.parametrize("solver", [gpsr_baseline, ista])
def test_l1_solvers_without_inner_trace_take_two_products_per_iteration(solver):
    # Without per-iteration trace points only the two products of each
    # inner step remain.
    p, _ = small_problem(19, m=16, n=32, k=4)
    untraced = functools.partial(solver, inner_trace=False)
    runs = [counted_products(untraced, p, SolverOptions(outer_max=1, inner_max=cap))
            for cap in (5, 15)]
    assert [r.inner_iters_total for r, _ in runs] == [5, 15]
    assert runs[1][1] - runs[0][1] == 10 * 2


def assert_compact_trace_is_full_trace_ends(solver, p, opts=None, ground_truth=None):
    full = solver(p, opts=opts, ground_truth=ground_truth)
    compact = solver(p, opts=opts, ground_truth=ground_truth, inner_trace=False)
    assert np.array_equal(compact.x_hat, full.x_hat)
    assert (compact.converged, compact.outer_iters, compact.inner_iters_total) == \
        (full.converged, full.outer_iters, full.inner_iters_total)
    ends = [0] if full.inner_iters_total == 0 else [0, -1]
    for name in ("outer_objectives", "l1_objectives", "errors", "outer_steps"):
        assert getattr(compact.trace, name) == [getattr(full.trace, name)[i] for i in ends]
    assert compact.trace.inner_counts == [0, full.inner_iters_total][:len(ends)]
    return full.inner_iters_total


# Caps on either side of the first two trace batches.
BATCH_CAPS = (_TRACE_BATCH - 1, _TRACE_BATCH, _TRACE_BATCH + 1, 2 * _TRACE_BATCH + 1)


@pytest.mark.parametrize("solver", [gpsr_baseline, ista])
def test_compact_trace_is_first_and_last_full_trace_point(solver):
    for i, p in enumerate(engine_problems()):
        opts = SolverOptions(inner_max=7) if i % 5 == 0 else None  # some stop at the cap
        assert assert_compact_trace_is_full_trace_ends(solver, p, opts) > 0
    p, x_true = small_problem(24, m=16, n=32, k=4)
    assert assert_compact_trace_is_full_trace_ends(solver, p, ground_truth=x_true) > 0
    for cap in BATCH_CAPS:
        opts = SolverOptions(inner_tol=1e-300, inner_max=cap)
        for truth in (x_true, None):
            assert assert_compact_trace_is_full_trace_ends(solver, p, opts, truth) == cap
    # y = 0: gpsr_baseline stops at its start point after 0 iterations.
    q = SparseProblem(y=np.zeros(p.y.size), phi=p.phi, k=p.k, rho=p.rho)
    inner = assert_compact_trace_is_full_trace_ends(solver, q, ground_truth=x_true)
    assert inner == (0 if solver is gpsr_baseline else 1)


@pytest.fixture
def l1_iterates(monkeypatch):
    """x of every iterate the l1 baselines' inner solvers hand to on_iterate, in order."""
    seen = []

    def keep(solve, position, to_x):
        def wrapped(*args, on_iterate=None, **kwargs):
            def on_iterate_and_keep(*step):
                seen.append(to_x(step[position]))
                on_iterate(*step)
            return solve(*args, on_iterate=on_iterate_and_keep, **kwargs)
        monkeypatch.setattr(dcsparse.solvers, solve.__name__, wrapped)

    keep(solve_bcqp_gp, 1, lambda z: z[:z.size // 2] - z[z.size // 2:])
    keep(_solve_prox, 0, lambda x: x.copy())
    return seen


def assert_inner_points_match_record(solver, iterates, p, opts=None, ground_truth=None):
    """Every full-trace point after the start equals _record on its iterate, up to round-off.

    The last point is recorded by _record itself and must be bit-equal.
    """
    iterates.clear()
    res = solver(p, opts=opts, ground_truth=ground_truth)
    inner = res.inner_iters_total
    assert len(iterates) == inner
    assert res.trace.inner_counts == [0] + [1] * inner
    assert res.trace.outer_steps == [0] + [1] * inner
    want = SolverTrace()
    for x in iterates:
        _record(want, p, x, 1, 1, ground_truth)
    scale = 0.5 * float(p.y @ p.y)
    for name in ("outer_objectives", "l1_objectives", "errors"):
        got, ref = getattr(res.trace, name)[1:], getattr(want, name)
        assert len(got) == len(ref) == inner
        if inner:
            assert got[-1] == ref[-1]
        for g, r in zip(got, ref):
            if name == "errors":
                assert (g is None and r is None) or abs(g - r) <= 1e-12 * r
            else:
                assert abs(g - r) <= 1e-12 * max(abs(r), scale)
    return inner


@pytest.mark.parametrize("solver", [gpsr_baseline, ista])
def test_batched_trace_points_match_record(solver, l1_iterates):
    for p in engine_problems():  # clean and noisy
        assert assert_inner_points_match_record(solver, l1_iterates, p) > 0
    p, x_true = small_problem(24, m=16, n=32, k=4)
    for cap in BATCH_CAPS:
        opts = SolverOptions(inner_tol=1e-300, inner_max=cap)
        for truth in (x_true, None):
            assert assert_inner_points_match_record(solver, l1_iterates, p, opts, truth) == cap
    cell, x_cell = antenna_cell()
    assert assert_inner_points_match_record(solver, l1_iterates, cell,
                                            ground_truth=x_cell) > 2 * _TRACE_BATCH
    # y = 0: gpsr_baseline stops at its start point, ista after one step.
    q = SparseProblem(y=np.zeros(p.y.size), phi=p.phi, k=p.k, rho=p.rho)
    inner = assert_inner_points_match_record(solver, l1_iterates, q, ground_truth=x_true)
    assert inner == (0 if solver is gpsr_baseline else 1)


def reference_solve_prox(p, pty, x, L, tol, inner_max, on_iterate=None):
    """The proximal-gradient loop as first written, with fresh arrays each step.

    Kept as the oracle for _solve_prox, which reuses buffers and must
    produce the same iterates bit for bit.
    """
    phi = p.phi.phi

    def objective(x_, fx_):
        r = p.y - fx_
        return 0.5 * float(r @ r) + p.rho * float(np.abs(x_).sum())

    fx = phi @ x
    f = objective(x, fx)
    for j in range(1, inner_max + 1):
        x = soft_threshold(x - (phi.T @ fx - pty) / L, p.rho / L)
        fx = phi @ x
        f_new = objective(x, fx)
        if not np.isfinite(f_new) or not np.all(np.isfinite(x)):
            raise NumericalFailure("non-finite iterate in proximal gradient", iteration=j)
        if on_iterate is not None:
            on_iterate(x)
        done = abs(f - f_new) <= tol * max(abs(f_new), 1e-12)
        f = f_new
        if done:
            break
    return x, j, done


def assert_prox_same_as_reference(p, opts=None):
    """_solve_prox equals the reference loop bit for bit on p; returns (inner iterations, stopped on tol)."""
    opts = SolverOptions() if opts is None else opts
    reference = functools.partial(reference_solve_prox, p, p.phi.phi.T @ p.y, np.zeros(p.phi.n),
                                  _power_lam_max(p.phi.phi), opts.inner_tol, opts.inner_max)
    runs = []
    for solve in (functools.partial(_solve_prox, p, opts), reference):
        seen = []
        x, inner, done = solve(on_iterate=lambda x: seen.append(x.copy()))
        runs.append((x, inner, done, seen))
    (x, inner, done, seen), (x_ref, inner_ref, done_ref, seen_ref) = runs
    assert np.array_equal(x, x_ref)
    assert (inner, done) == (inner_ref, done_ref)
    assert len(seen) == len(seen_ref) == inner
    assert all(np.array_equal(a, b) for a, b in zip(seen, seen_ref))
    # Without a hook the iterates live in a reused buffer: same bytes, same counts.
    x_untraced, *counts = _solve_prox(p, opts)
    assert x_untraced.tobytes() == x_ref.tobytes() and counts == [inner_ref, done_ref]
    return inner, done


def test_prox_matches_reference_loop_on_engine_problems():
    for p in engine_problems():
        assert assert_prox_same_as_reference(p)[0] > 1


def test_prox_matches_reference_loop_degenerate_inputs():
    p, _ = small_problem(21, m=16, n=32, k=4)
    q = SparseProblem(y=np.zeros(16), phi=p.phi, k=p.k, rho=p.rho)
    assert assert_prox_same_as_reference(q) == (1, True)
    assert assert_prox_same_as_reference(p, SolverOptions(inner_max=1)) == (1, False)
    assert assert_prox_same_as_reference(p, SolverOptions(inner_tol=1e-300,
                                                          inner_max=60)) == (60, False)


def test_a_solve_depends_only_on_the_values_of_phi():
    # The same phi C-ordered, F-ordered, 8 bytes off a 64-byte boundary
    # and as a strided view, each passed to the constructor, then the
    # F-ordered and strided ones assigned to an operator that held another
    # matrix and its power-method estimate: MeasurementMatrix stores each
    # as the same aligned C array, so default_rho and every solver give
    # the same bytes.  The noisy default_rho is checked on 20 matrices, the
    # solvers on 2.
    for sample in range(20):
        seed = derive_seed(9100, sample)
        channel = sample_sparse_channel(64, 4, derive_seed(seed, 0))
        phi = gaussian_matrix(32, 128, derive_seed(seed, 1)).phi
        sigma = snr_to_sigma(channel.x_real, 32, 15.0)
        y = add_noise(phi @ channel.x_real, sigma, derive_seed(seed, 2))
        shifted = aligned_empty(phi.size + 1)[1:].reshape(phi.shape)
        strided = np.empty((32, 256))[:, ::2]
        rho = default_rho(MeasurementMatrix(phi), y, sigma)
        operators = []
        for layout in (phi, np.asfortranarray(phi), shifted, strided):
            layout[...] = phi
            operators.append(MeasurementMatrix(layout))
        for layout in (np.asfortranarray(phi), strided):
            mm = gaussian_matrix(32, 128, derive_seed(seed, 3))
            _lam_max(mm)
            mm.phi = layout
            operators.append(mm)
        outcomes = []
        for mm in operators:
            assert default_rho(mm, y, sigma) == rho
            if sample < 2:
                p = SparseProblem(y=y, phi=mm, k=8, rho=rho)
                results = {name: solve(p, SolverOptions(), channel.x_real, inner_trace=False)
                           for name, solve in SOLVER_REGISTRY.items()}
                outcomes.append({name: (r.x_hat.tobytes(), r.converged, r.outer_iters,
                                        r.inner_iters_total) for name, r in results.items()})
        assert all(outcome == outcomes[0] for outcome in outcomes[1:])


@pytest.mark.parametrize("on_iterate", [None, lambda *step: None], ids=["no_hook", "no-op_hook"])
def test_results_belong_to_the_caller(on_iterate):
    # Both loops reuse work buffers, with a hook or without; what they
    # return must still be the caller's: no later call writes it, and it
    # shares no memory with the inputs.
    p, x_true = small_problem(25, m=16, n=32, k=4)
    w_z = split_pos_neg(top_k1_subgradient(x_true, p.k).w)
    z0 = np.abs(make_rng(10).standard_normal(64))
    for cap in (1, 2, 3, 150):  # odd and even step counts: either work buffer last
        opts = SolverOptions(inner_tol=1e-300, inner_max=cap)
        z, inner = solve_bcqp_gp(p, w_z, z0, opts, on_iterate=on_iterate)
        x, j, _ = _solve_prox(p, opts, on_iterate=on_iterate)
        assert inner == j == cap
        z_kept, x_kept = z.copy(), x.copy()
        solve_bcqp_gp(p, w_z, z0, opts, on_iterate=on_iterate)
        solve_bcqp_gp(p, w_z, z, opts, on_iterate=on_iterate)  # a later call started at the result
        _solve_prox(p, opts, on_iterate=on_iterate)
        assert z.tobytes() == z_kept.tobytes() and x.tobytes() == x_kept.tobytes()
        assert not np.shares_memory(z, z0) and not np.shares_memory(z, w_z)
    # A start that is already optimal is returned as a copy.
    q = SparseProblem(y=np.zeros(p.y.size), phi=p.phi, k=p.k, rho=p.rho)
    z0 = np.zeros(64)
    z, inner = solve_bcqp_gp(q, np.zeros(64), z0, on_iterate=on_iterate)
    assert inner == 0 and not np.shares_memory(z, z0)


def test_inner_loop_work_buffers_start_on_64_byte_boundaries():
    # A product with a vector off a 64-byte boundary runs slower, so the
    # iterates must not sit wherever the heap leaves them: vary the heap
    # with held allocations of odd sizes between solves.
    p, x_true = small_problem(25, m=16, n=32, k=4)
    w_z = split_pos_neg(top_k1_subgradient(x_true, p.k).w)
    opts = SolverOptions(inner_tol=1e-300, inner_max=3)
    offsets, held = [], []
    for size in range(1, 17):
        held.append(np.empty(size))
        solve_bcqp_gp(p, w_z, np.zeros(64), opts,
                      on_iterate=lambda k, z, g, a: offsets.append(z.ctypes.data % 64))
        _solve_prox(p, opts, on_iterate=lambda x: offsets.append(x.ctypes.data % 64))
    assert offsets == [0] * (16 * 6)


def test_inner_loops_write_their_products_into_the_same_arrays():
    # The last products of a solve are its loop's: two per iteration, plus
    # solve_bcqp_gp's refresh of phi x every 64 steps.  The two of each
    # iteration write into two arrays allocated once per solve; only the
    # refresh allocates its result.  The logging matrix changes no bit of
    # the result.
    p, x_true = small_problem(25, m=16, n=32, k=4)
    w_z = split_pos_neg(top_k1_subgradient(x_true, p.k).w)
    opts = SolverOptions(inner_tol=1e-300, inner_max=200)

    def assert_loop_reuses_two_arrays(log, refreshes):
        loop = log[-(2 * 200 + refreshes):]
        outs = [out for out in loop if out is not None]
        assert len(outs) == 2 * 200 and len({id(out) for out in outs}) == 2

    q, log = counted_problem(p)
    z, inner = solve_bcqp_gp(q, w_z, np.zeros(64), opts)
    assert inner == 200 and z.tobytes() == solve_bcqp_gp(p, w_z, np.zeros(64), opts)[0].tobytes()
    assert_loop_reuses_two_arrays(log, 200 // 64)
    log.clear()
    x, j, _ = _solve_prox(q, opts)
    assert j == 200 and x.tobytes() == _solve_prox(p, opts)[0].tobytes()
    assert_loop_reuses_two_arrays(log, 0)


# ---------------------------------------------------------------------- omp

def test_omp_single_atom():
    phi = gaussian_matrix(8, 12, 21)
    y = 2.0 * phi.phi[:, 3]
    res = omp(y, phi, 1)
    assert np.flatnonzero(res.x_hat).tolist() == [3]
    assert res.x_hat[3] == pytest.approx(2.0)
    assert np.linalg.norm(y - phi.phi @ res.x_hat) <= 1e-10


def test_omp_zero_measurements():
    phi = gaussian_matrix(8, 12, 22)
    res = omp(np.zeros(8), phi, 3)
    assert np.array_equal(res.x_hat, np.zeros(12))
    assert res.outer_iters == 0


def test_omp_exact_recovery_one_sparse_over_seeds():
    hits = 0
    for seed in range(100):
        phi = gaussian_matrix(16, 64, derive_seed(800, seed))
        rng = make_rng(derive_seed(801, seed))
        x = np.zeros(64)
        x[int(rng.integers(64))] = float(rng.standard_normal()) or 1.0
        res = omp(phi.phi @ x, phi, 1)
        hits += np.allclose(res.x_hat, x, atol=1e-10)
    assert hits == 100


def test_omp_converged_reports_the_residual_stop():
    phi = gaussian_matrix(8, 12, 21)
    y = 2.0 * phi.phi[:, 3]
    early = omp(y, phi, 3)  # residual negligible after round 1
    assert (early.outer_iters, early.converged) == (1, True)
    last = omp(y, phi, 1)  # residual negligible only after the last round
    assert (last.outer_iters, last.converged) == (1, True)
    noisy = omp(y + 0.01 * make_rng(31).standard_normal(8), phi, 3)
    assert (noisy.outer_iters, noisy.converged) == (3, False)
    zero = omp(np.zeros(8), phi, 3)
    assert (zero.outer_iters, zero.converged) == (0, True)


def test_omp_k_range_validation():
    phi = gaussian_matrix(4, 12, 23)
    with pytest.raises(ValueError):
        omp(np.zeros(4), phi, 5)  # k > m


@pytest.mark.parametrize("phi, y, iteration", [
    (np.zeros((3, 4)), [1.0, 1.0, 0.0], 1),
    # Round 1 picks column 0; round 2 can only pick column 1, twice column 0.
    (np.array([[1.0, 2.0], [0.0, 0.0]]), [1.0, 1.0], 2),
], ids=["zero_matrix", "parallel_column"])
def test_omp_rank_deficient_matrix_raises(phi, y, iteration):
    with pytest.raises(NumericalFailure, match="rank-deficient") as failure:
        omp(np.array(y), MeasurementMatrix(phi), 2)
    assert failure.value.iteration == iteration


def reference_omp(y, phi, k):
    """omp with its refit as np.linalg.lstsq on the whole support every round.

    Returns (support in selection order, x_hat, rounds, converged).
    """
    pm = phi.phi
    norms = np.linalg.norm(pm, axis=0)
    safe_norms = np.where(norms > 0, norms, np.inf)
    support = []
    coef = np.zeros(0)
    resid = y.copy()
    resid_tol = 1e-14 * max(1.0, float(np.linalg.norm(y)))
    rounds = 0
    for step in range(1, k + 1):
        if float(np.linalg.norm(resid)) <= resid_tol:
            break
        scores = np.abs(pm.T @ resid) / safe_norms
        scores[support] = -np.inf
        support.append(int(np.argmax(scores)))
        sub = pm[:, support]
        coef, _, rank, _ = np.linalg.lstsq(sub, y, rcond=None)
        if rank < len(support):
            raise NumericalFailure("rank-deficient selected submatrix", iteration=step)
        resid = y - sub @ coef
        rounds = step
    x_hat = np.zeros(phi.n)
    x_hat[support] = coef
    return support, x_hat, rounds, float(np.linalg.norm(resid)) <= resid_tol


class ArgmaxLog:
    """numpy for dcsparse.solvers, with every np.argmax result logged in picks."""

    def __init__(self):
        self.picks = []

    def __getattr__(self, name):
        return getattr(np, name)

    def argmax(self, a):
        i = np.argmax(a)
        self.picks.append(int(i))
        return i


def test_omp_matches_the_lstsq_refit_on_harness_cells(monkeypatch):
    # The first 30 harness cells (base seed 42, 256 antennas, k = 32),
    # noiseless and at 5 and 25 dB, as run_cell hands them to omp.
    cells = []

    def keep(y, phi, k):
        cells.append((y, phi, k))
        return omp(y, phi, k)

    with monkeypatch.context() as patch:
        patch.setattr(dcsparse.harness, "omp", keep)
        cfg = ExperimentConfig(solvers=("omp",), num_samples=30)
        run_noiseless_study(cfg)
        run_snr_sweep(replace(cfg, snr_grid_db=(5.0, 25.0)))
    assert len(cells) == 90
    log = ArgmaxLog()
    monkeypatch.setattr(dcsparse.solvers, "np", log)
    for y, phi, k in cells:
        order, x_ref, rounds, converged = reference_omp(y, phi, k)
        log.picks.clear()
        res = omp(y, phi, k)
        assert log.picks == order
        assert (res.outer_iters, res.converged) == (rounds, converged)
        assert np.linalg.norm(res.x_hat - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_omp_calls_no_lapack_routine(monkeypatch):
    # The first call of a LAPACK routine pages its code into the process
    # for the rest of the run; omp uses matrix-vector products only.
    p, x_true = antenna_cell()

    def refuse(*args, **kwargs):
        raise AssertionError("omp called a LAPACK routine")

    for name in ("lstsq", "qr", "solve", "svd", "cholesky", "inv", "pinv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    res = omp(p.y, p.phi, p.k)
    assert res.converged and normalized_sq_error(x_true, res.x_hat) <= 1e-20


def test_omp_and_noise_aware_default_rho_hold_no_phi_sized_array(traced_peak):
    # np.linalg.norm(phi, axis=0) squared all of phi into a temporary.
    p, _ = antenna_cell()
    y = add_noise(p.y, 0.1, 33)
    bound = 0.5 * p.phi.phi.nbytes
    assert traced_peak(lambda: omp(y, p.phi, p.k)) < bound
    assert traced_peak(lambda: default_rho(p.phi, y, sigma=0.1)) < bound


def _norms_case(shape, seed, values=None):
    """A C-ordered phi of the given shape, drawn normal or from values."""
    rng = make_rng(seed)
    a = rng.standard_normal(shape) if values is None else rng.choice(values, size=shape)
    return MeasurementMatrix(a).phi


# One-column matrices are where numpy sums the contiguous axis pairwise;
# a plain row loop differs there in the last bits.
NORM_SHAPES = ([(1, n) for n in (1, 2, 7, 9, 512)] + [(m, 1) for m in (1, 2, 8, 9, 17, 128, 300)]
               + [(m, 2) for m in (1, 3, 9, 17, 128, 300)] + [(128, 512)])


@pytest.mark.parametrize("shape", NORM_SHAPES)
def test_column_norms_match_linalg_norm_bit_for_bit(shape):
    for seed in range(3):
        pm = _norms_case(shape, derive_seed(9100, seed))
        ref = np.linalg.norm(pm, axis=0)
        got = _column_norms(pm)
        assert (got.shape, got.dtype, got.tobytes()) == (ref.shape, ref.dtype, ref.tobytes())


@pytest.mark.parametrize("shape", [(6, 1), (1, 6), (5, 2), (2, 5), (40, 30)])
def test_column_norms_match_linalg_norm_on_inf_nan_and_signed_zeros(shape):
    pm = _norms_case(shape, 9101, values=[np.inf, -np.inf, np.nan, 0.0, -0.0, 1.5, -2.0])
    assert _column_norms(pm).tobytes() == np.linalg.norm(pm, axis=0).tobytes()
    zeros = np.zeros(shape)
    zeros[::2] = -0.0
    pm = MeasurementMatrix(zeros).phi
    assert _column_norms(pm).tobytes() == np.linalg.norm(pm, axis=0).tobytes()


# ------------------------------------------------------------- brute force

def test_brute_force_exact_recovery():
    p, x_true = small_problem(18, m=8, n=10, k=3)
    x = brute_force_l0(p.y, p.phi, 3)
    assert np.allclose(x, x_true, atol=1e-8)


def test_brute_force_zero_measurements():
    phi = gaussian_matrix(5, 8, 25)
    assert np.array_equal(brute_force_l0(np.zeros(5), phi, 2), np.zeros(8))


def test_brute_force_guard(monkeypatch):
    def refuse(*a, **k):
        raise AssertionError("the enumeration started")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    phi = gaussian_matrix(10, 50, 26)
    with pytest.raises(InstanceTooLarge):
        brute_force_l0(np.zeros(10), phi, 10)
    # C(24, 24) = 1, but the sizes 1 to 24 make 2^24 - 1 supports.
    phi = gaussian_matrix(10, 24, 27)
    with pytest.raises(InstanceTooLarge, match="16777215 supports"):
        brute_force_l0(np.zeros(10), phi, 24)


def test_brute_force_matches_dc_on_tiny_instances():
    matches = 0
    for seed in range(50):
        p, _ = small_problem(300 + seed, m=8, n=12, k=2)
        xb = brute_force_l0(p.y, p.phi, 2)
        xd = dc_gpsr(p).x_hat
        sup_b = set(np.flatnonzero(top_k1_subgradient(xb, 2).w))
        sup_d = set(np.flatnonzero(top_k1_subgradient(xd, 2).w))
        matches += sup_b == sup_d
    assert matches >= 45


# ---------------------------------------------------------------- plumbing

def test_sparse_problem_validation():
    phi = gaussian_matrix(4, 6, 27)
    with pytest.raises(ValueError):
        SparseProblem(y=np.zeros(5), phi=phi, k=2, rho=1.0)
    with pytest.raises(ValueError, match=r"y has shape \(4, 1\), expected \(4,\)"):
        SparseProblem(y=np.zeros((4, 1)), phi=phi, k=2, rho=1.0)
    with pytest.raises(ValueError):
        SparseProblem(y=np.zeros(4), phi=phi, k=0, rho=1.0)
    for rho in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="rho must be"):
            SparseProblem(y=np.zeros(4), phi=phi, k=2, rho=rho)


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(inner_tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(inner_tol=float("nan"))
    with pytest.raises(ValueError, match="inner_tol must be > 0 and finite"):
        SolverOptions(inner_tol=float("inf"))
    with pytest.raises(ValueError):
        SolverOptions(outer_max=0)
    with pytest.raises(ValueError):
        SolverOptions(inner_max=0)


def test_default_rho_zero_signal_fallback():
    phi = gaussian_matrix(4, 6, 28)
    assert default_rho(phi, np.zeros(4)) == 1.0


def test_default_rho_noise_aware_increases():
    phi = gaussian_matrix(16, 32, 29)
    y = make_rng(30).standard_normal(16) * 0.01
    assert default_rho(phi, y, sigma=1.0) > default_rho(phi, y)


def test_power_method_identity():
    assert _power_lam_max(np.eye(7)) == pytest.approx(1.0)
