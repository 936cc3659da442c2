import copy
import functools
from dataclasses import replace

import numpy as np
import pytest

import dcsparse.solvers
from dcsparse.channel import sample_sparse_channel
from dcsparse.metrics import normalized_sq_error
from dcsparse.seeding import derive_seed, make_rng
from dcsparse.sensing import MeasurementMatrix, gaussian_matrix, measure
from dcsparse.solvers import (_ALPHA_MAX, _ALPHA_MIN, _TOL_FLOOR, _TRACE_BATCH,
                              InstanceTooLarge, NumericalFailure, SolverOptions,
                              SolverTrace, SparseProblem, _power_lam_max, _record,
                              _solve_prox, bcqp_gradient, brute_force_l0, dc_gpsr,
                              default_rho, gpsr_baseline, ista, objective_exact,
                              objective_l1, omp, solve_bcqp_gp, split_pos_neg)
from dcsparse.sparsity import soft_threshold, top_k1_norm, top_k1_subgradient


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
    assert objective_exact(x, p) == pytest.approx(0.5 * r @ r, rel=1e-12)


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
    phi = MeasurementMatrix(np.zeros((3, 4)) + np.eye(3, 4), 3, 4)
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
    phi = MeasurementMatrix(np.array([[1.0]]), 1, 1)
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
    phi = MeasurementMatrix(np.eye(8), 8, 8)
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


def test_dc_gpsr_rejects_bad_x0():
    p, _ = small_problem(14)
    with pytest.raises(ValueError):
        dc_gpsr(p, x0=np.zeros(5))


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
    phi = MeasurementMatrix(np.eye(5), 5, 5)
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
    """ndarray whose 2-D views count the `@` products taken through them."""

    def __array_finalize__(self, obj):
        self.counter = getattr(obj, "counter", None)

    def __matmul__(self, other):
        if self.counter is not None and self.ndim == 2:
            self.counter[0] += 1
        return np.matmul(np.asarray(self), np.asarray(other))

    def __rmatmul__(self, other):
        if self.counter is not None and self.ndim == 2:
            self.counter[0] += 1
        return np.matmul(np.asarray(other), np.asarray(self))


def counted_products(solver, p, opts):
    """Run solver on a copy of p whose matrix counts products; return (result, count)."""
    counter = [0]
    q = copy.copy(p)
    q.phi = copy.copy(p.phi)
    q.phi.phi = p.phi.phi.view(MatmulCounter)
    q.phi.phi.counter = counter
    return solver(q, opts=opts), counter[0]


def engine_problems():
    """20 small instances, every other one with measurement noise."""
    for seed in range(20):
        p, _ = small_problem(500 + seed)
        if seed % 2:
            y = p.y + 0.01 * make_rng(derive_seed(501, seed)).standard_normal(p.y.size)
            p = SparseProblem(y=y, phi=p.phi, k=p.k, rho=default_rho(p.phi, y))
        yield p


def test_gpsr_baseline_is_first_dc_gpsr_step():
    for p in engine_problems():
        a = gpsr_baseline(p)
        b = dc_gpsr(p, opts=SolverOptions(outer_max=1))
        assert np.array_equal(a.x_hat, b.x_hat)
        assert a.inner_iters_total == b.inner_iters_total


def assert_same_result(a, b):
    """Equal x_hat, counts, converged flag and trace lists, bit for bit."""
    assert a.x_hat.tobytes() == b.x_hat.tobytes()
    assert (a.converged, a.outer_iters, a.inner_iters_total) == \
        (b.converged, b.outer_iters, b.inner_iters_total)
    for name in ("outer_objectives", "l1_objectives", "errors", "inner_counts",
                 "outer_steps"):
        assert repr(getattr(a.trace, name)) == repr(getattr(b.trace, name))


def assert_resumed_dc_gpsr_is_dc_gpsr(p, opts=None, ground_truth=None):
    """dc_gpsr resumed from gpsr_baseline (either trace) equals dc_gpsr; returns step 1's count."""
    plain = dc_gpsr(p, opts=opts, ground_truth=ground_truth)
    for inner_trace in (True, False):
        start = gpsr_baseline(p, opts=opts, inner_trace=inner_trace)
        resumed = dc_gpsr(p, opts=opts, ground_truth=ground_truth, l1_start=start)
        assert_same_result(resumed, plain)
        assert resumed.trace.inner_counts[1] == start.inner_iters_total
    return plain.trace.inner_counts[1]


def test_dc_gpsr_resumed_from_gpsr_is_dc_gpsr():
    for i, p in enumerate(engine_problems()):
        assert assert_resumed_dc_gpsr_is_dc_gpsr(p) > 0
        if i % 4 == 0:
            assert_resumed_dc_gpsr_is_dc_gpsr(p, SolverOptions(outer_max=1))
    p, x_true = small_problem(24, m=16, n=32, k=4)
    assert_resumed_dc_gpsr_is_dc_gpsr(p, ground_truth=x_true)
    # The l1 solve stopped at its cap, and so is every later step.
    assert assert_resumed_dc_gpsr_is_dc_gpsr(p, SolverOptions(inner_max=7)) == 7
    # y = 0: gpsr takes 0 iterations and step 2 re-solves at the floor.
    q = SparseProblem(y=np.zeros(p.y.size), phi=p.phi, k=p.k, rho=p.rho)
    assert assert_resumed_dc_gpsr_is_dc_gpsr(q, ground_truth=x_true) == 0
    y = np.zeros(8)
    y[[1, 5, 6]] = [2.0, -3.0, 0.4]
    eye = SparseProblem(y=y, phi=MeasurementMatrix(np.eye(8), 8, 8), k=3, rho=0.05)
    assert assert_resumed_dc_gpsr_is_dc_gpsr(eye) > 0


def test_dc_gpsr_resumed_from_gpsr_skips_one_solve(count_calls):
    p, _ = small_problem(25, m=16, n=32, k=4)
    start = gpsr_baseline(p)
    calls = count_calls(dcsparse.solvers, ("solve_bcqp_gp",))
    plain = dc_gpsr(p)
    standalone = calls["solve_bcqp_gp"]
    dc_gpsr(p, l1_start=start)
    assert standalone == plain.outer_iters > 1
    assert calls["solve_bcqp_gp"] - standalone == standalone - 1


def test_dc_gpsr_resumes_from_the_split_not_x_hat(monkeypatch):
    # Step 2 warm-starts from the z = [u; v] gpsr stopped at, which need
    # not be split_pos_neg(x_hat): give it one where both halves are positive.
    p, _ = small_problem(26, m=16, n=32, k=4)
    start = gpsr_baseline(p)
    assert np.array_equal(start.split, split_pos_neg(start.x_hat))
    shifted = start.split + 0.5
    assert np.allclose(shifted[:32] - shifted[32:], start.x_hat, rtol=0, atol=1e-15)
    starts = []
    solve = dcsparse.solvers.solve_bcqp_gp

    def spy(p_, w_z, z0, *args, **kwargs):
        starts.append(np.array(z0))
        return solve(p_, w_z, z0, *args, **kwargs)

    monkeypatch.setattr(dcsparse.solvers, "solve_bcqp_gp", spy)
    dc_gpsr(p, opts=SolverOptions(outer_max=2), l1_start=replace(start, split=shifted))
    assert len(starts) == 1 and np.array_equal(starts[0], shifted)


def test_dc_gpsr_l1_start_guards():
    p, _ = small_problem(27, m=16, n=32, k=4)
    start = gpsr_baseline(p)
    with pytest.raises(ValueError, match="x0"):
        dc_gpsr(p, x0=np.zeros(32), l1_start=start)
    for other in (ista(p), dc_gpsr(p), omp(p.y, p.phi, p.k),
                  gpsr_baseline(small_problem(27)[0])):
        with pytest.raises(ValueError, match="split"):
            dc_gpsr(p, l1_start=other)


def test_dc_gpsr_solves_step_one_below_the_tolerance_floor(count_calls):
    # Step 1 runs at max(inner_tol, floor), not at inner_tol, so gpsr's
    # solve at a smaller inner_tol is not step 1 and is not used.
    p, _ = small_problem(28, m=16, n=32, k=4)
    opts = SolverOptions(inner_tol=1e-30, inner_max=300, outer_max=4)
    calls = count_calls(dcsparse.solvers, ("solve_bcqp_gp",))
    resumed = dc_gpsr(p, opts=opts, l1_start=gpsr_baseline(p, opts=opts))
    assert calls["solve_bcqp_gp"] == 1 + resumed.outer_iters
    assert_same_result(resumed, dc_gpsr(p, opts=opts))


def test_dc_gpsr_accepts_the_outer_stop_only_after_a_solve_at_the_floor(monkeypatch):
    # A step that barely moves z before the tolerance schedule reaches
    # _TOL_FLOOR (at step 10 for inner_tol 1e-8) sends the next solve to
    # the floor, and only a solve there may end the loop.
    tols = []

    def recording(*args, tol=None, **kwargs):
        tols.append(tol)
        return solve_bcqp_gp(*args, tol=tol, **kwargs)

    monkeypatch.setattr(dcsparse.solvers, "solve_bcqp_gp", recording)
    early = 0
    for p in engine_problems():
        tols.clear()
        res = dc_gpsr(p)
        assert res.converged and tols[-1] == _TOL_FLOOR
        early += res.outer_iters < 10
    assert early > 0


def test_gpsr_baseline_carries_its_split():
    for p in engine_problems():
        for inner_trace in (True, False):
            res = gpsr_baseline(p, inner_trace=inner_trace)
            n = p.phi.n
            assert res.split.shape == (2 * n,) and np.all(res.split >= 0)
            assert (res.split[:n] - res.split[n:]).tobytes() == res.x_hat.tobytes()
    assert ista(p).split is None and dc_gpsr(p).split is None
    assert omp(p.y, p.phi, p.k).split is None


def test_power_method_runs_once_per_operator(count_calls):
    p, _ = small_problem(29, m=16, n=32, k=4)
    expected = _power_lam_max(p.phi.phi)
    calls = count_calls(dcsparse.solvers, ("_power_lam_max",))
    for solver in (dc_gpsr, gpsr_baseline, ista):
        solver(p)
    assert calls["_power_lam_max"] == 1
    cached_phi, value = p.phi._lam_max_cache
    assert cached_phi is p.phi.phi and value == expected
    # A copy whose phi is another array (here a counting view) computes its own.
    counted_products(gpsr_baseline, p, SolverOptions(inner_max=5))
    assert calls["_power_lam_max"] == 2
    # A new operator starts without a value.
    assert gaussian_matrix(16, 32, 30)._lam_max_cache is None
    assert calls["_power_lam_max"] == 2


def trace_batches(points):
    """Batches _InnerTrace evaluates for `points` inner iterates: all but the last."""
    return -(-(points - 1) // _TRACE_BATCH) if points else 0


@pytest.mark.parametrize("solver, traced, per_iteration",
                         [(ista, False, 2), (ista, True, 3), (gpsr_baseline, True, 3)],
                         ids=["ista_compact-2", "ista-3", "gpsr_baseline-3"])
def test_products_per_inner_iteration(solver, traced, per_iteration, monkeypatch):
    # Each inner step takes two products; gpsr_baseline's loop takes one
    # more every 64 steps to refresh phi x.  A full trace records every
    # iterate: the final point forms its residual once for both
    # objectives, and the points before it take one product per batch.
    # In batches of one, each point takes its own: per_iteration.
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


def reference_solve_bcqp_gp(p, w_z, z0, opts=None, alpha0=None, tol=None,
                            on_iterate=None):
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
    tol = opts.inner_tol if tol is None else tol
    phi = p.phi.phi
    w_z = np.asarray(w_z, dtype=float)
    z = np.asarray(z0, dtype=float).copy()
    pty = phi.T @ p.y
    c = np.concatenate([-pty, pty]) + p.rho * (1.0 - w_z)
    if alpha0 is None:
        lam = _power_lam_max(phi)
        alpha0 = 1.0 / lam if lam > 0 else 1.0
    alpha = float(np.clip(alpha0, _ALPHA_MIN, _ALPHA_MAX))

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
    runs = []
    for solve in (solve_bcqp_gp, reference_solve_bcqp_gp):
        seen = []
        z, inner = solve(p, w_z, z0, opts, on_iterate=lambda *a: seen.append(a), **kw)
        runs.append((z, inner, seen))
    (z, inner, seen), (z_ref, inner_ref, seen_ref) = runs
    assert np.array_equal(z, z_ref)
    assert inner == inner_ref
    assert len(seen) == len(seen_ref) == inner
    for (k, zk, g, a), (k_ref, zk_ref, g_ref, a_ref) in zip(seen, seen_ref):
        assert (k, g, a) == (k_ref, g_ref, a_ref)
        assert np.array_equal(zk, zk_ref)
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
    p = SparseProblem(y=y, phi=MeasurementMatrix(np.eye(8), 8, 8), k=3, rho=0.05)
    assert assert_same_as_reference(p, np.zeros(16), np.zeros(16)) > 0


def test_bcqp_matches_reference_loop_across_product_refresh():
    # Runs to inner_max, crossing the periodic recomputation of phi x.
    p, _ = small_problem(21, m=16, n=32, k=4)
    opts = SolverOptions(inner_tol=1e-300, inner_max=300)
    assert assert_same_as_reference(p, np.zeros(64), np.zeros(64), opts) == 300


def test_bcqp_iterates_are_never_overwritten():
    p, x_true = small_problem(22, m=16, n=32, k=4)
    w_z = split_pos_neg(top_k1_subgradient(x_true, p.k).w)
    z0 = np.abs(make_rng(7).standard_normal(64))
    opts = SolverOptions(inner_tol=1e-300, inner_max=150)
    kept, snapshots = [], []

    def keep(k, z, gval, alpha):
        kept.append(z)
        snapshots.append(z.copy())

    z, inner = solve_bcqp_gp(p, w_z, z0, opts, on_iterate=keep)
    assert inner == len(kept) == 150
    assert z is kept[-1]
    solve_bcqp_gp(p, w_z, z0, opts, on_iterate=lambda *a: None)  # a later call
    for i, zk in enumerate(kept):
        assert np.array_equal(zk, snapshots[i])
        assert not np.shares_memory(zk, z0) and not np.shares_memory(zk, w_z)
        if i:
            assert not np.shares_memory(zk, kept[i - 1])
    # A start that is already optimal is returned as a copy.
    q = SparseProblem(y=np.zeros(p.y.size), phi=p.phi, k=p.k, rho=p.rho)
    z0 = np.zeros(64)
    z, inner = solve_bcqp_gp(q, np.zeros(64), z0)
    assert inner == 0 and not np.shares_memory(z, z0)


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
    keep(_solve_prox, 0, lambda x: x)
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
    # A 256-antenna cell: 512 unknowns, 128 measurements, 16 paths.
    sample = sample_sparse_channel(256, 16, 31)
    phi = gaussian_matrix(128, 512, 32)
    y = measure(phi, sample.x_real)
    cell = SparseProblem(y=y, phi=phi, k=32, rho=default_rho(phi, y))
    assert assert_inner_points_match_record(solver, l1_iterates, cell,
                                            ground_truth=sample.x_real) > 2 * _TRACE_BATCH
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


def assert_prox_same_as_reference(p, x0=None, tol=1e-8, inner_max=4000):
    x0 = np.zeros(p.phi.n) if x0 is None else x0
    pty = p.phi.phi.T @ p.y
    L = _power_lam_max(p.phi.phi)
    runs = []
    for solve in (_solve_prox, reference_solve_prox):
        seen = []
        x, inner, done = solve(p, pty, x0, L, tol, inner_max, on_iterate=seen.append)
        runs.append((x, inner, done, seen))
    (x, inner, done, seen), (x_ref, inner_ref, done_ref, seen_ref) = runs
    assert np.array_equal(x, x_ref)
    assert (inner, done) == (inner_ref, done_ref)
    assert len(seen) == len(seen_ref) == inner
    assert all(np.array_equal(a, b) for a, b in zip(seen, seen_ref))
    return inner, done


def test_prox_matches_reference_loop_on_engine_problems():
    for p in engine_problems():
        assert assert_prox_same_as_reference(p)[0] > 1


def test_prox_matches_reference_loop_with_warm_start():
    p, _ = small_problem(20, m=16, n=32, k=4)
    x0 = make_rng(8).standard_normal(32)
    assert assert_prox_same_as_reference(p, x0=x0)[0] > 1


def test_prox_matches_reference_loop_degenerate_inputs():
    p, _ = small_problem(21, m=16, n=32, k=4)
    q = SparseProblem(y=np.zeros(16), phi=p.phi, k=p.k, rho=p.rho)
    assert assert_prox_same_as_reference(q) == (1, True)
    assert assert_prox_same_as_reference(p, inner_max=1) == (1, False)
    assert assert_prox_same_as_reference(p, tol=1e-300, inner_max=60) == (60, False)


def test_prox_iterates_are_never_overwritten():
    p, _ = small_problem(22, m=16, n=32, k=4)
    x0 = make_rng(9).standard_normal(32)
    pty = p.phi.phi.T @ p.y
    L = _power_lam_max(p.phi.phi)
    kept, snapshots = [], []

    def keep(x):
        kept.append(x)
        snapshots.append(x.copy())

    x, inner, _ = _solve_prox(p, pty, x0, L, 1e-300, 150, on_iterate=keep)
    assert inner == len(kept) == 150
    assert x is kept[-1]
    _solve_prox(p, pty, x0, L, 1e-300, 150)  # a later call
    for i, xk in enumerate(kept):
        assert np.array_equal(xk, snapshots[i])
        assert not np.shares_memory(xk, x0)
        if i:
            assert not np.shares_memory(xk, kept[i - 1])


def test_traced_benchmark_spans_are_called(count_calls):
    # The dcsparse.solvers spans that bench/run.py --trace 1 requires.
    calls = count_calls(dcsparse.solvers, (
        "solve_bcqp_gp", "top_k1_subgradient", "objective_exact", "objective_l1",
        "normalized_sq_error"))
    p, x_true = small_problem(23, m=16, n=32, k=4)
    start = dcsparse.solvers.gpsr_baseline(p, ground_truth=x_true)
    # dc_gpsr resumed from that solve calls every one of them.
    calls.update(dict.fromkeys(calls, 0))
    dcsparse.solvers.dc_gpsr(p, ground_truth=x_true, l1_start=start)
    assert all(calls.values()), calls


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


def test_omp_rank_deficient_matrix_raises():
    phi = MeasurementMatrix(np.zeros((3, 4)), 3, 4)
    with pytest.raises(NumericalFailure):
        omp(np.array([1.0, 1.0, 0.0]), phi, 2)


# ------------------------------------------------------------- brute force

def test_brute_force_exact_recovery():
    p, x_true = small_problem(18, m=8, n=10, k=3)
    x = brute_force_l0(p.y, p.phi, 3)
    assert np.allclose(x, x_true, atol=1e-8)


def test_brute_force_zero_measurements():
    phi = gaussian_matrix(5, 8, 25)
    assert np.array_equal(brute_force_l0(np.zeros(5), phi, 2), np.zeros(8))


def test_brute_force_guard():
    phi = gaussian_matrix(10, 50, 26)
    with pytest.raises(InstanceTooLarge):
        brute_force_l0(np.zeros(10), phi, 10)


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
    with pytest.raises(ValueError):
        SparseProblem(y=np.zeros(4), phi=phi, k=0, rho=1.0)
    with pytest.raises(ValueError):
        SparseProblem(y=np.zeros(4), phi=phi, k=2, rho=0.0)


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(inner_tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(inner_tol=float("nan"))
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
