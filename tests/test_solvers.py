import copy

import numpy as np
import pytest

import dcsparse.solvers
from dcsparse.metrics import normalized_sq_error
from dcsparse.seeding import derive_seed, make_rng
from dcsparse.sensing import MeasurementMatrix, gaussian_matrix
from dcsparse.solvers import (_ALPHA_MAX, _ALPHA_MIN, InstanceTooLarge,
                              NumericalFailure, SolverOptions, SparseProblem,
                              _power_lam_max, bcqp_gradient,
                              brute_force_l0, dc_gpsr, dc_proximal, default_rho,
                              gpsr_baseline, ista, objective_exact, objective_l1,
                              omp, solve_bcqp_gp, split_pos_neg)
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


def test_dc_gpsr_rejects_bad_x0():
    p, _ = small_problem(14)
    with pytest.raises(ValueError):
        dc_gpsr(p, x0=np.zeros(5))


# -------------------------------------------------------------- dc_proximal

def test_dc_proximal_single_step_is_soft_threshold(monkeypatch):
    monkeypatch.setattr(dcsparse.solvers, "_LIPSCHITZ_MARGIN", 1.0)
    phi = MeasurementMatrix(np.eye(4), 4, 4)
    y = np.array([2.0, -0.3, 0.9, 0.0])
    p = SparseProblem(y=y, phi=phi, k=2, rho=0.5)
    opts = SolverOptions(inner_max=1, outer_max=1)
    res = dc_proximal(p, opts=opts)
    assert np.allclose(res.x_hat, soft_threshold(y, 0.5), atol=1e-12)


def test_dc_proximal_agrees_with_dc_gpsr():
    worst = 0.0
    for seed in range(20):
        p, _ = small_problem(100 + seed, m=16, n=32, k=4)
        opts = SolverOptions(inner_max=8000, outer_max=60)
        a = dc_gpsr(p, opts=opts)
        b = dc_proximal(p, opts=opts)
        worst = max(worst, float(np.max(np.abs(a.x_hat - b.x_hat))))
    assert worst <= 1e-6


def test_dc_proximal_outer_descent():
    p, _ = small_problem(15, m=16, n=32, k=4)
    res = dc_proximal(p)
    objs = res.trace.outer_objectives
    assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))


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


def test_ista_is_first_dc_proximal_step(monkeypatch):
    monkeypatch.setattr(dcsparse.solvers, "_LIPSCHITZ_MARGIN", 1.0)
    for p in engine_problems():
        a = ista(p)
        b = dc_proximal(p, opts=SolverOptions(outer_max=1))
        assert np.array_equal(a.x_hat, b.x_hat)
        assert a.inner_iters_total == b.inner_iters_total
        assert a.trace.l1_objectives[-1] == b.trace.l1_objectives[-1]


@pytest.mark.parametrize("solver, per_iteration",
                         [(dc_proximal, 2), (ista, 3), (gpsr_baseline, 3)])
def test_products_per_inner_iteration(solver, per_iteration):
    # Each inner step takes two products.  ista and gpsr_baseline trace
    # every iterate, and a trace point forms its residual once for both
    # objectives, which is the third product.
    p, _ = small_problem(19, m=16, n=32, k=4)
    runs = [counted_products(solver, p, SolverOptions(outer_max=1, inner_max=cap))
            for cap in (5, 15)]
    assert [r.inner_iters_total for r, _ in runs] == [5, 15]
    assert runs[1][1] - runs[0][1] == 10 * per_iteration


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


def test_traced_benchmark_spans_are_called(count_calls):
    # The dcsparse.solvers spans that bench/run.py --trace 1 requires.
    calls = count_calls(dcsparse.solvers, (
        "solve_bcqp_gp", "top_k1_subgradient", "objective_exact", "objective_l1",
        "normalized_sq_error"))
    p, x_true = small_problem(23, m=16, n=32, k=4)
    dcsparse.solvers.dc_gpsr(p, ground_truth=x_true)
    dcsparse.solvers.gpsr_baseline(p, ground_truth=x_true)
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
