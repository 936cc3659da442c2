"""Sparse recovery solvers.

The flagship routine, dc_gpsr, minimizes

    0.5 * ||y - phi @ x||^2 + rho * (||x||_1 - ||x||_{k,1})

whose penalty is an exact expression of "at most k nonzeros".  The
objective is a difference of convex functions, so each DC outer step
linearizes the subtracted top-(k,1) norm at the current iterate and
solves the remaining convex piece.  dc_gpsr splits x into positive and
negative parts, which turns that piece into a nonnegativity-constrained
quadratic program handled matrix-free by projected gradients with
Barzilai-Borwein step sizes (solve_bcqp_gp).

dc_gpsr starts its DC steps from the l1 solution at rho, which it reaches
by continuation: l1 solves at a weight that shrinks geometrically to rho,
each warm-started at the previous solution, so that start is cheap.

The l1 baselines are gpsr_baseline, one solve_bcqp_gp pass with a zero
subgradient at rho, and ista, proximal-gradient iterations on the
unsplit l1 problem (_solve_prox).  One routine (_l1_baseline) traces
every inner iterate of either, evaluated _TRACE_BATCH at a time, or with
inner_trace=False only the start and end points.  objective_exact,
objective_l1 and normalized_sq_error score every trace point, one x or a
stack of them; objective_exact's penalty is exactly 0 at a k-sparse x.
omp, which refits on a thin QR of its support grown one column per round
by matrix-vector products, and a brute-force cardinality-constrained
least-squares oracle round out the benchmark set.
"""

import math
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .metrics import normalized_sq_error, sq_norms
from .sensing import MeasurementMatrix, aligned_empty
from .sparsity import sparsity_gap, split_pos_neg, top_k1_subgradient

# rho continuation of dc_gpsr (Hale, Yin & Zhang, SIAM J. Optim. 2008):
# outer step t solves at max(rho, _RHO_START * ||phi^T y||_inf * _RHO_DECAY**(t-1)).
# Until the first step at rho the steps are l1 solves (a zero subgradient)
# along the l1 solution path, each warm-started at the previous one, so
# the l1 solution at rho that starts the DC steps takes few iterations.
# The DC subgradient waits for it: the top-k support of an l1 solution at
# a larger weight is a worse estimate at low SNR, and DC steps, which
# leave their support unpenalized, do not give it up again.
_RHO_START = 0.1
_RHO_DECAY = 0.3

# Inner tolerance of dc_gpsr's polish steps, which re-solve an unchanged DC
# subproblem, and the least tolerance of every other step.  It is expressed
# on the *predicted* per-step decrease of solve_bcqp_gp, which stays
# resolvable far below the ~1e-16 * |G| resolution of the objective values
# themselves, so a polish step reaches the subproblem's floating-point floor.
_TOL_FLOOR = 1e-26

# dc_gpsr stops once a polish step moves its split by at most _OUTER_TOL in 2-norm.
_OUTER_TOL = 1e-14
# Barzilai-Borwein steps of solve_bcqp_gp are clamped to [_ALPHA_MIN, _ALPHA_MAX].
_ALPHA_MIN = 1e-30
_ALPHA_MAX = 1e30
# Full traces of the l1 baselines evaluate their inner iterates this many at
# a time: one matrix-matrix product per batch instead of one matrix-vector
# product per point.
_TRACE_BATCH = 64


class NumericalFailure(RuntimeError):
    """Non-finite values encountered inside an iterative solver."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class InstanceTooLarge(ValueError):
    """Exhaustive enumeration would exceed the configured guard."""


@dataclass(eq=False)
class SparseProblem:
    """One recovery instance: measurements, operator, sparsity bound, penalty weight."""

    y: np.ndarray
    phi: MeasurementMatrix
    k: int
    rho: float

    def __post_init__(self):
        self.y = _checked_measurements(self.y, self.phi, self.k, self.phi.n)
        if not self.rho > 0:
            raise ValueError(f"rho must be > 0, got {self.rho}")
        if self.rho == math.inf:
            raise ValueError(f"rho must be finite, got {self.rho}")


def _checked_measurements(y, phi: MeasurementMatrix, k: int, k_max: int) -> np.ndarray:
    """y as a float array, once it has one entry per row of phi and 1 <= k <= k_max."""
    y = np.asarray(y, dtype=float)
    if y.shape != (phi.m,):
        raise ValueError(f"y has shape {y.shape}, expected ({phi.m},)")
    if not 1 <= k <= k_max:
        raise ValueError(f"k must lie in [1, {k_max}], got {k}")
    return y


def default_rho(phi: MeasurementMatrix, y: np.ndarray, sigma: float = 0.0) -> float:
    """Data-driven penalty weight.

    Noiseless part, 5e-4 * ||phi^T y||_inf: small enough that the
    subproblems' shrinkage floor rho / ||phi_j||^2 sits below the weakest
    signal components one typically needs to detect.  When the noise
    standard deviation is known, the weight is raised to half the
    universal threshold, 0.5 * sigma * sqrt(2 log n) * mean ||phi_j||,
    which suppresses pure-noise coordinates while keeping weak signal
    components detectable; the top-k credit leaves the selected support
    unshrunk regardless.  Returns 1.0 for y == 0.  The column norms come
    from _column_norms, which holds no square of all of phi.
    """
    pm = phi.phi
    v = 5e-4 * float(np.max(np.abs(pm.T @ np.asarray(y, dtype=float))))
    if sigma > 0:
        col_scale = float(np.mean(_column_norms(pm)))
        v = max(v, 0.5 * sigma * math.sqrt(2.0 * math.log(phi.n)) * col_scale)
    return v if v > 0 else 1.0


def _column_norms(pm: np.ndarray) -> np.ndarray:
    """The 2-norm of each column of pm, bit for bit np.linalg.norm(pm, axis=0).

    That call squares all of pm into a temporary and sums it row after
    row.  einsum("ij,ij->j") adds each column's squares in the same row
    order without the temporary, so nothing larger than a row is held.
    On one column numpy sums the contiguous axis pairwise instead, which
    einsum does not reproduce, so a one-column pm goes to that call,
    whose temporary is then one column.
    """
    if pm.shape[1] == 1:
        return np.linalg.norm(pm, axis=0)
    return np.sqrt(np.einsum("ij,ij->j", pm, pm))


@dataclass
class SolverOptions:
    """Iteration caps and the inner tolerance.

    outer_max caps the DC outer steps; inner_tol is the relative
    objective-decrease stop of the inner loops and inner_max caps their
    iterations.
    """

    outer_max: int = 50
    inner_tol: float = 1e-8
    inner_max: int = 4000

    def __post_init__(self):
        if not 0 < self.inner_tol < math.inf:
            raise ValueError(f"inner_tol must be > 0 and finite, got {self.inner_tol}")
        if self.outer_max < 1 or self.inner_max < 1:
            raise ValueError("iteration caps must be >= 1")


@dataclass
class SolverTrace:
    """Per-iteration history for convergence plots.

    One entry per recorded point: the exact-penalty objective, the l1
    objective, the normalized squared error when ground truth was given
    (else None), the inner iterations attributed to that point, and the
    outer step it belongs to.  Both objectives are at the problem's rho,
    also for dc_gpsr's continuation steps, which solve at a larger weight.
    """

    outer_objectives: list = field(default_factory=list)
    l1_objectives: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    inner_counts: list = field(default_factory=list)
    outer_steps: list = field(default_factory=list)


@dataclass(eq=False)
class ReconResult:
    """Recovered vector plus convergence bookkeeping."""

    x_hat: np.ndarray
    trace: SolverTrace
    converged: bool
    outer_iters: int

    @property
    def inner_iters_total(self) -> int:
        return int(sum(self.trace.inner_counts))


def objective_exact(x: np.ndarray, p: SparseProblem, *,
                    residual: np.ndarray | None = None) -> float | np.ndarray:
    """Least-squares data term plus the exact sparsity penalty rho * (||x||_1 - ||x||_{k,1}).

    A float for one x, one value per row for a stack of them.  `residual`,
    if given, must be y - phi @ x (row by row); it spares the product.
    """
    x = _check_signal(x, p)
    r = _residual(x, p) if residual is None else residual
    v = 0.5 * sq_norms(r) + p.rho * sparsity_gap(x, p.k)
    return float(v) if x.ndim == 1 else v


def objective_l1(x: np.ndarray, p: SparseProblem, *,
                 residual: np.ndarray | None = None) -> float | np.ndarray:
    """Least-squares data term plus the l1 penalty rho * ||x||_1, as objective_exact."""
    x = _check_signal(x, p)
    r = _residual(x, p) if residual is None else residual
    v = 0.5 * sq_norms(r) + p.rho * np.abs(x).sum(axis=-1)
    return float(v) if x.ndim == 1 else v


def _residual(x: np.ndarray, p: SparseProblem) -> np.ndarray:
    """y - phi @ x, row by row for a stack: one matrix-matrix product."""
    return p.y - (p.phi.phi @ x.T).T


def _check_signal(x, p: SparseProblem) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != p.phi.n:
        raise ValueError(f"x has shape {x.shape} but matrix has {p.phi.n} columns")
    return x


def _power_lam_max(mat: np.ndarray) -> float:
    """Power-method estimate (100 iterations) of the largest eigenvalue of mat^T mat."""
    n = mat.shape[1]
    v = np.ones(n) / math.sqrt(n)
    lam = 0.0
    for _ in range(100):
        w = mat.T @ (mat @ v)
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 0.0
        v = w / lam
    return lam


def _lam_max(mm: MeasurementMatrix) -> float:
    """_power_lam_max(mm.phi), or 1.0 where that is not positive (phi = 0).

    Computed once per operator and reused while mm.phi is that array.
    """
    cached = mm._lam_max_cache
    if cached is None or cached[0] is not mm.phi:
        lam = _power_lam_max(mm.phi)
        cached = mm._lam_max_cache = (mm.phi, lam if lam > 0 else 1.0)
    return cached[1]


def _bcqp_linear_term(p: SparseProblem, w_z: np.ndarray) -> np.ndarray:
    """Linear term c = [-phi^T y; phi^T y] + rho * (1 - w_z) of the split subproblem."""
    pty = p.phi.phi.T @ p.y
    return np.concatenate([-pty, pty]) + p.rho * (1.0 - w_z)


def _unsplit(z: np.ndarray) -> np.ndarray:
    """x = u - v from the stacked split z = [u; v], row by row for a stack of splits."""
    n = z.shape[-1] // 2
    return z[..., :n] - z[..., n:]


def bcqp_gradient(z: np.ndarray, p: SparseProblem, w_z: np.ndarray) -> np.ndarray:
    """Gradient of the split-form quadratic subproblem at z = [u; v].

    With x = u - v, the gradient is [g; -g] + c where g = phi^T phi x and
    c = [-phi^T y; phi^T y] + rho * (1 - w_z), computed with matrix-vector
    products and never forming the 2n x 2n block quadratic.
    """
    n = p.phi.n
    z = np.asarray(z, dtype=float)
    w_z = np.asarray(w_z, dtype=float)
    if z.shape != (2 * n,) or w_z.shape != (2 * n,):
        raise ValueError(
            f"z and w_z must have length {2 * n}, got {z.size} and {w_z.size}"
        )
    phi = p.phi.phi
    g = phi.T @ (phi @ _unsplit(z))
    return np.concatenate([g, -g]) + _bcqp_linear_term(p, w_z)


def solve_bcqp_gp(p: SparseProblem, w_z: np.ndarray, z0: np.ndarray,
                  opts: SolverOptions | None = None, on_iterate=None):
    """Projected-gradient solver for min G(z) = 0.5 z^T B z + c^T z over z >= 0.

    Each step projects a Barzilai-Borwein gradient step onto the
    nonnegative orthant and then moves along the resulting direction with
    the exact minimizing fraction beta in (0, 1], so G never increases.
    The stop is on the (exactly known) predicted decrease of a step
    falling to opts.inner_tol * |G|: immediately when the very first step
    is already negligible (so a warm start at the solution returns the
    start point unchanged), otherwise after three consecutive negligible
    steps, which keeps the nonmonotone Barzilai-Borwein step pattern from
    triggering a premature stop.  Also stops on an exact projected-gradient
    fixed point or at opts.inner_max.

    Returns (z, inner_iterations).  `on_iterate(k, z, G, alpha)` is called
    after every accepted step.

    Ownership: the iterates ping-pong between two work buffers allocated
    once per call, so a later step overwrites the z handed to on_iterate,
    and a hook copies what it keeps.  The returned z belongs to the caller:
    no later call writes it, and it shares no memory with z0 or w_z.
    """
    opts = SolverOptions() if opts is None else opts
    tol = opts.inner_tol
    phi = p.phi.phi
    n = p.phi.n
    w_z = np.asarray(w_z, dtype=float)
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (2 * n,) or w_z.shape != (2 * n,):
        raise ValueError(
            f"z0 and w_z must have length {2 * n}, got {z0.size} and {w_z.size}"
        )
    if np.any(z0 < 0):
        raise ValueError("z0 must be elementwise nonnegative")

    c = _bcqp_linear_term(p, w_z)
    c_u, c_v = c[:n], c[n:]
    alpha = min(max(1.0 / _lam_max(p.phi), _ALPHA_MIN), _ALPHA_MAX)

    # Work buffers on 64-byte boundaries (aligned_empty), and the step
    # sizes as 0-d arrays refilled in place: a ufunc takes an array operand
    # faster than a Python float, and the array of zeros faster than the
    # scalar 0.0.  The loop's two products write into g and fd with
    # np.dot(out=).
    z, zh, d, grad = (aligned_empty(2 * n) for _ in range(4))
    dx, g = aligned_empty(n), aligned_empty(n)
    fx, fd = aligned_empty(p.phi.m), aligned_empty(p.phi.m)
    z[...] = z0
    zeros = np.zeros(2 * n)
    alpha_, beta_ = np.empty(()), np.empty(())
    grad_u, grad_v = grad[:n], grad[n:]
    d_u, d_v = d[:n], d[n:]
    phi_t, dot = phi.T, np.dot
    c_dot, fx_dot, fd_dot, grad_dot, d_dot = c.dot, fx.dot, fd.dot, grad.dot, d.dot

    fx[...] = phi @ _unsplit(z)
    # grad = [g; -g] + c with g = phi^T fx, bit for bit: c_v - g is
    # c_v + (-g) in IEEE arithmetic.
    dot(phi_t, fx, out=g)
    np.add(g, c_u, out=grad_u)
    np.subtract(c_v, g, out=grad_v)
    gval = 0.5 * float(fx_dot(fx)) + float(c_dot(z))
    if not math.isfinite(gval):
        raise NumericalFailure("non-finite objective at the start point", iteration=0)
    # From here on c and z are finite: a non-finite entry of either would
    # have made c @ z, and so gval, non-finite.

    inner = 0
    stall = 0
    for k in range(1, opts.inner_max + 1):
        alpha_[()] = alpha
        np.multiply(grad, alpha_, out=zh)
        np.subtract(z, zh, out=zh)
        np.maximum(zh, zeros, out=zh)
        np.subtract(zh, z, out=d)
        # No separate test for d == 0 (a projected-gradient fixed point):
        # the gradient is then finite, since an infinite or NaN entry of
        # phi^T fx moves zh in one of the two halves (short of g + c
        # overflowing), so gd == 0 and the descent test stops at that step.
        gd = float(grad_dot(d))
        if gd >= 0.0:
            break  # fixed point, or descent exhausted at floating-point resolution
        np.subtract(d_u, d_v, out=dx)
        dot(phi, dx, out=fd)
        dbd = float(fd_dot(fd))
        # beta = min(1.0, -gd / dbd), and below alpha = min(max(., _ALPHA_MIN),
        # _ALPHA_MAX), as comparisons that treat a NaN as min and max do.
        beta = -gd / dbd if dbd > 0.0 else 1.0
        if not beta < 1.0:
            beta = 1.0
        predicted = -(beta * gd + 0.5 * beta * beta * dbd)
        if predicted <= tol * max(abs(gval), 1e-12):
            stall += 1
            if k == 1 or stall >= 3:
                break  # negligible progress at this tolerance: stay put
        else:
            stall = 0
        if beta != 1.0:
            # zh becomes z + beta * d, already >= +0 with no clamp: z >= 0
            # and d = fl(zh - z) >= -z, so fl(beta * d) >= -z for beta < 1.
            beta_[()] = beta
            np.multiply(d, beta_, out=zh)
            np.add(z, zh, out=zh)
            np.multiply(fd, beta_, out=fd)
        z, zh = zh, z
        if k % 64 == 0:
            fx[...] = phi @ _unsplit(z)  # refresh incremental product against drift
        else:
            np.add(fx, fd, out=fx)
        dot(phi_t, fx, out=g)
        np.add(g, c_u, out=grad_u)
        np.subtract(c_v, g, out=grad_v)
        gnew = 0.5 * float(fx_dot(fx)) + float(c_dot(z))
        inner = k
        # c is finite, so a non-finite z also makes c @ z and gnew non-finite.
        if not math.isfinite(gnew):
            raise NumericalFailure("non-finite iterate in gradient projection", iteration=k)
        if on_iterate is not None:
            on_iterate(k, z, gnew, alpha)
        # BB step from the accepted move; beta cancels in the ratio.
        alpha = float(d_dot(d)) / dbd if dbd > 0.0 else _ALPHA_MAX
        if alpha < _ALPHA_MIN:
            alpha = _ALPHA_MIN
        elif alpha > _ALPHA_MAX:
            alpha = _ALPHA_MAX
        gval = gnew
    return z, inner


def _record(trace: SolverTrace, p: SparseProblem, x: np.ndarray, inner: int,
            outer_step: int, ground_truth) -> None:
    """Append the trace point of x, or one per row of a stack x, each with these counts."""
    r = _residual(x, p)
    points = 1 if x.ndim == 1 else len(x)
    trace.outer_objectives.extend(np.atleast_1d(objective_exact(x, p, residual=r)).tolist())
    trace.l1_objectives.extend(np.atleast_1d(objective_l1(x, p, residual=r)).tolist())
    trace.errors.extend([None] * points if ground_truth is None else
                        np.atleast_1d(normalized_sq_error(ground_truth, x)).tolist())
    trace.inner_counts.extend([inner] * points)
    trace.outer_steps.extend([outer_step] * points)


def _solve_prox(p: SparseProblem, opts: SolverOptions, on_iterate=None):
    """Proximal gradients for min 0.5 ||y - phi x||^2 + rho ||x||_1 from x = 0.

    The step is 1/L, L = _lam_max(p.phi).  Each step's phi x serves both
    its objective and the next gradient, so a step costs two
    matrix-vector products.  Stops when the relative objective decrease
    falls to opts.inner_tol, or at opts.inner_max.  Returns (x, inner
    iterations, stopped on tol); `on_iterate(x)` is called after each step.

    Ownership: every iterate is written into one work buffer allocated
    once per call, so the next step overwrites the x handed to on_iterate,
    and a hook copies what it keeps.  The returned x belongs to the caller:
    no later call writes it.
    """
    phi = p.phi.phi
    n = p.phi.n
    y, rho, tol = p.y, p.rho, opts.inner_tol
    pty, L, x = phi.T @ y, _lam_max(p.phi), np.zeros(n)
    a, mag, g = aligned_empty(n), aligned_empty(n), aligned_empty(n)
    fx, r = aligned_empty(p.phi.m), aligned_empty(p.phi.m)
    zeros = np.zeros(n)
    # L and rho / L as 0-d arrays, which ufuncs take faster than floats.
    L_, lam = np.array(L), np.array(rho / L)
    # The loop's two products write into g and fx, as in solve_bcqp_gp.
    phi_t, dot, r_dot, add_reduce = phi.T, np.dot, r.dot, np.add.reduce

    # f = 0.5 ||y - fx||^2 + rho ||x||_1, with mag holding |x|.
    fx[...] = phi @ x
    np.abs(x, out=mag)
    np.subtract(y, fx, out=r)
    f = 0.5 * float(r_dot(r)) + rho * float(add_reduce(mag))
    for j in range(1, opts.inner_max + 1):
        # x = sign(a) * max(|a| - rho / L, 0) with a = x - (phi^T fx - pty) / L,
        # in that order.
        dot(phi_t, fx, out=g)
        np.subtract(g, pty, out=g)
        np.divide(g, L_, out=g)
        np.subtract(x, g, out=a)
        np.abs(a, out=mag)
        np.subtract(mag, lam, out=mag)
        np.maximum(mag, zeros, out=mag)
        # mag is now |x| exactly, NaN and zeros included: |sign(a)| * mag.
        # x is a itself, which the next step reads before writing.
        x = np.multiply(np.sign(a, out=a), mag, out=a)
        dot(phi, x, out=fx)
        np.subtract(y, fx, out=r)
        f_new = 0.5 * float(r_dot(r)) + rho * float(add_reduce(mag))
        # No separate test of x: rho > 0, so a non-finite entry of x makes
        # rho ||x||_1, and so f_new, non-finite.
        if not math.isfinite(f_new):
            raise NumericalFailure("non-finite iterate in proximal gradient", iteration=j)
        if on_iterate is not None:
            on_iterate(x)
        done = abs(f - f_new) <= tol * max(abs(f_new), 1e-12)
        f = f_new
        if done:
            break
    return x, j, done


def dc_gpsr(p: SparseProblem, *, opts: SolverOptions | None = None,
            ground_truth: np.ndarray | None = None) -> ReconResult:
    """Exact-sparsity reconstruction by DC programming with a gradient-projection inner solver.

    Runs over the split z = [u; v] of x = u - v, from x = 0.  Step t solves
    the nonnegativity-constrained quadratic with linear term
    split_pos_neg(w) by solve_bcqp_gp, warm-started at the previous z, at
    the weight max(rho, _RHO_START * ||phi^T y||_inf * _RHO_DECAY**(t-1)).
    Steps above rho, and the first step at rho, are l1 solves (w = 0).
    Later steps, the DC steps, take w, the top-(k,1) subgradient at x (zero
    at x == 0, where it lies in the subdifferential).  A DC step whose w
    equals the previous DC step's repeats that subproblem and polishes it
    at _TOL_FLOOR; every other step solves at max(inner_tol, _TOL_FLOOR).
    It stops, converged, once a polish step moves z by at most _OUTER_TOL:
    w no longer changes, so x is a DC critical point.  Traces the start and
    every step, each at rho.
    """
    opts = SolverOptions() if opts is None else opts
    step_opts = replace(opts, inner_tol=max(opts.inner_tol, _TOL_FLOOR))
    polish_opts = replace(opts, inner_tol=_TOL_FLOOR)
    n = p.phi.n
    rho_start = _RHO_START * float(np.max(np.abs(p.phi.phi.T @ p.y)))
    z = np.zeros(2 * n)
    x = np.zeros(n)
    trace = SolverTrace()
    _record(trace, p, x, 0, 0, ground_truth)
    converged = False
    at_rho = False  # the steps after the first one at p.rho take the DC subgradient
    w_dc = None  # w of the previous step, if that was a DC step
    for t in range(1, opts.outer_max + 1):
        rho_t = max(p.rho, rho_start * _RHO_DECAY ** (t - 1))
        w = top_k1_subgradient(x, p.k).w if at_rho and x.any() else np.zeros(n)
        polish = w_dc is not None and np.array_equal(w, w_dc)
        z_new, inner = solve_bcqp_gp(replace(p, rho=rho_t), split_pos_neg(w), z,
                                     polish_opts if polish else step_opts)
        delta = float(np.linalg.norm(z_new - z))
        z = z_new
        x = _unsplit(z)
        _record(trace, p, x, inner, t, ground_truth)
        if polish and delta <= _OUTER_TOL:
            converged = True
            break
        if at_rho:
            w_dc = w
        at_rho = rho_t == p.rho
    return ReconResult(x_hat=x, trace=trace, converged=converged, outer_iters=t)


def _l1_baseline(p: SparseProblem, ground_truth, inner_trace: bool, solve) -> ReconResult:
    """Trace and result of one l1 inner solve from x = 0, as gpsr_baseline describes.

    solve(add) runs it, calling add(x) with a copy of the iterate's x after
    every step unless add is None, and returns (x, inner iterations,
    converged).  The copies are held, and every _TRACE_BATCH of them go to
    _record together, as one stack.  The newest is always held back: the
    end point is recorded from the returned x alone, for the full and the
    compact trace alike, and carries the inner iterations not yet traced.
    """
    trace = SolverTrace()
    _record(trace, p, np.zeros(p.phi.n), 0, 0, ground_truth)
    held = []

    def add(x):
        held.append(x)
        if len(held) > _TRACE_BATCH:
            _record(trace, p, np.array(held[:-1]), 1, 1, ground_truth)
            del held[:-1]

    x, inner, converged = solve(add if inner_trace else None)
    if len(held) > 1:
        _record(trace, p, np.array(held[:-1]), 1, 1, ground_truth)
    if inner:  # after the start point, each batched point took one iteration
        _record(trace, p, x, inner - (len(trace.inner_counts) - 1), 1, ground_truth)
    return ReconResult(x_hat=x, trace=trace, converged=converged, outer_iters=1)


def gpsr_baseline(p: SparseProblem, *, opts: SolverOptions | None = None,
                  ground_truth: np.ndarray | None = None,
                  inner_trace: bool = True) -> ReconResult:
    """Plain l1 sparse recovery: one solve_bcqp_gp pass from x = 0 with a zero subgradient.

    Minimizes 0.5 ||y - phi x||^2 + rho ||x||_1.  With inner_trace the
    trace records every inner iteration, so objective evolutions can be
    plotted against the DC solver's; the points between the start and the
    end are evaluated in stacks of _TRACE_BATCH and agree with one-point
    values to round-off.  Without it, only the start point and the end
    point, which carries the whole inner count (none after 0 iterations).
    Both give the same result and the same first and last trace points.
    """
    opts = SolverOptions() if opts is None else opts
    n = p.phi.n

    def solve(add):
        z, inner = solve_bcqp_gp(
            p, np.zeros(2 * n), np.zeros(2 * n), opts,
            on_iterate=None if add is None else lambda k, z, gval, alpha: add(_unsplit(z)))
        return _unsplit(z), inner, inner < opts.inner_max

    return _l1_baseline(p, ground_truth, inner_trace, solve)


def ista(p: SparseProblem, *, opts: SolverOptions | None = None,
         ground_truth: np.ndarray | None = None,
         inner_trace: bool = True) -> ReconResult:
    """Iterative shrinkage-thresholding for the l1 problem, from x = 0.

    One _solve_prox pass at fixed step 1/L, L a power-method estimate of
    ||phi^T phi||.  Traces every iteration, or
    with inner_trace=False only the start and end points, as gpsr_baseline.
    """
    opts = SolverOptions() if opts is None else opts
    return _l1_baseline(p, ground_truth, inner_trace, lambda add: _solve_prox(
        p, opts, on_iterate=None if add is None else lambda x: add(x.copy())))


def _require_finite(y: np.ndarray, phi: MeasurementMatrix) -> None:
    """Raises NumericalFailure unless y and phi are finite.

    Least squares on a NaN or inf returns NaNs or fails inside LAPACK.
    """
    if not (np.isfinite(y).all() and np.isfinite(phi.phi).all()):
        raise NumericalFailure("non-finite value in y or phi", iteration=0)


def omp(y: np.ndarray, phi: MeasurementMatrix, k: int) -> ReconResult:
    """Orthogonal matching pursuit: greedy support growth with least-squares refits.

    Each round picks the column most correlated (normalized) with the
    residual, refits on the grown support, and updates the residual; stops
    early once the residual is negligible.  converged says whether the
    explicit residual y - phi_S x_hat is negligible at the end, so a solve
    that used up its k rounds on a larger residual reports False.

    The refit grows a thin QR factorization of the selected columns by one
    column per round (Sturm & Christensen, EUSIPCO 2012): classical
    Gram-Schmidt against the earlier columns, run twice, appends a row of
    Q^T, a column of R and an entry of Q^T y, and the residual is
    y - Q (Q^T y).  The coefficients come from one back-substitution on R
    at the end.  Only matrix-vector products are used, no LAPACK routine.
    A column whose part orthogonal to the earlier ones has norm at most
    m * eps times its own norm (the factor of lstsq's default rank cutoff)
    raises NumericalFailure with that round as its iteration.  The column
    norms come from _column_norms, so beyond phi itself a solve holds
    vectors, Q^T's k x m rows and the k selected columns, no array of
    phi's size.
    """
    y = _checked_measurements(y, phi, k, min(phi.m, phi.n))
    _require_finite(y, phi)
    pm = phi.phi
    norms = _column_norms(pm)
    safe_norms = np.where(norms > 0, norms, np.inf)
    rank_tol = phi.m * np.finfo(float).eps

    support: list[int] = []
    q_t = np.empty((k, phi.m))  # row s: column s of Q
    r = np.zeros((k, k))
    q_ty = np.empty(k)
    resid = y
    resid_tol = 1e-14 * max(1.0, float(np.linalg.norm(y)))
    rounds = 0
    for step in range(1, k + 1):
        if float(np.linalg.norm(resid)) <= resid_tol:
            break
        scores = np.abs(pm.T @ resid) / safe_norms
        scores[support] = -np.inf
        j = int(np.argmax(scores))
        support.append(j)
        s = step - 1
        q_s = q_t[:s]
        v = np.array(pm[:, j])
        for _ in range(2):  # "twice is enough"
            c = q_s @ v
            v -= c @ q_s
            r[:s, s] += c
        r[s, s] = float(np.linalg.norm(v))
        if not r[s, s] > rank_tol * norms[j]:
            raise NumericalFailure("rank-deficient selected submatrix", iteration=step)
        q_t[s] = v / r[s, s]
        q_ty[s] = q_t[s] @ y
        resid = y - q_ty[:step] @ q_t[:step]
        rounds = step
    coef = np.empty(rounds)
    for i in range(rounds - 1, -1, -1):
        coef[i] = (q_ty[i] - r[i, i + 1:rounds] @ coef[i + 1:]) / r[i, i]
    x_hat = np.zeros(phi.n)
    x_hat[support] = coef
    return ReconResult(x_hat=x_hat, trace=SolverTrace(),
                       converged=float(np.linalg.norm(y - pm[:, support] @ coef)) <= resid_tol,
                       outer_iters=rounds)


def brute_force_l0(y: np.ndarray, phi: MeasurementMatrix, k: int) -> np.ndarray:
    """Exhaustive cardinality-constrained least squares over all supports of size <= k.

    Verification oracle for tiny instances.  Raises InstanceTooLarge when
    the enumeration would fit more than 1e6 supports.
    """
    y = _checked_measurements(y, phi, k, phi.n)
    supports = sum(math.comb(phi.n, size) for size in range(1, k + 1))
    if supports > 10**6:
        raise InstanceTooLarge(
            f"{supports} supports of size 1 to {k} among {phi.n} columns exceed the 1e6 guard"
        )
    _require_finite(y, phi)
    pm = phi.phi
    best_val = math.inf
    best_support: tuple[int, ...] = ()
    best_coef = np.zeros(0)
    for size in range(1, k + 1):
        for support in combinations(range(phi.n), size):
            sub = pm[:, support]
            coef, _, _, _ = np.linalg.lstsq(sub, y, rcond=None)
            r = y - sub @ coef
            val = float(r @ r)
            if val < best_val:
                best_val = val
                best_support = support
                best_coef = coef
    x = np.zeros(phi.n)
    x[list(best_support)] = best_coef
    return x
