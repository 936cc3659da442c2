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

The l1 baselines are gpsr_baseline, which is dc_gpsr's first step (a
zero subgradient), and ista, proximal-gradient iterations on the
unsplit l1 problem (_solve_prox).  They trace every inner iterate,
evaluated _TRACE_BATCH at a time (_InnerTrace), or with
inner_trace=False only the start and end points.  dc_gpsr can resume
from a gpsr_baseline result (l1_start) instead of solving that step
again.  omp and a brute-force cardinality-constrained least-squares
oracle round out the benchmark set.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .metrics import normalized_sq_error
from .sensing import MeasurementMatrix
from .sparsity import sparsity_gap, split_pos_neg, top_k1_subgradient

# Inner-solve tolerance schedule of dc_gpsr: outer step t solves its
# subproblem at max(inner_tol * _TOL_SHRINK**(t-1), _TOL_FLOOR), so early
# subproblems stop at the configured practical tolerance while late ones
# are polished to the floating-point floor.  The floor is expressed on the
# *predicted* per-step decrease of solve_bcqp_gp, which stays resolvable
# far below the ~1e-16 * |G| resolution of the objective values themselves.
_TOL_SHRINK = 1e-2
_TOL_FLOOR = 1e-26

# dc_gpsr stops once a step moves its split by at most _OUTER_TOL in 2-norm.
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


@dataclass
class SparseProblem:
    """One recovery instance: measurements, operator, sparsity bound, penalty weight."""

    y: np.ndarray
    phi: MeasurementMatrix
    k: int
    rho: float

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        if self.y.shape != (self.phi.m,):
            raise ValueError(
                f"y has length {self.y.size} but matrix has {self.phi.m} rows"
            )
        if not 1 <= self.k <= self.phi.n:
            raise ValueError(f"k must lie in [1, {self.phi.n}], got {self.k}")
        if not self.rho > 0:
            raise ValueError(f"rho must be > 0, got {self.rho}")


def default_rho(phi: MeasurementMatrix, y: np.ndarray, sigma: float = 0.0) -> float:
    """Data-driven penalty weight.

    Noiseless part, 5e-4 * ||phi^T y||_inf: small enough that the
    subproblems' shrinkage floor rho / ||phi_j||^2 sits below the weakest
    signal components one typically needs to detect.  When the noise
    standard deviation is known, the weight is raised to half the
    universal threshold, 0.5 * sigma * sqrt(2 log n) * mean ||phi_j||,
    which suppresses pure-noise coordinates while keeping weak signal
    components detectable; the top-k credit leaves the selected support
    unshrunk regardless.  Returns 1.0 for y == 0.
    """
    pm = phi.phi
    v = 5e-4 * float(np.max(np.abs(pm.T @ np.asarray(y, dtype=float))))
    if sigma > 0:
        col_scale = float(np.mean(np.linalg.norm(pm, axis=0)))
        v = max(v, 0.5 * sigma * math.sqrt(2.0 * math.log(phi.n)) * col_scale)
    return v if v > 0 else 1.0


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
        if not self.inner_tol > 0:
            raise ValueError(f"inner_tol must be > 0, got {self.inner_tol}")
        if self.outer_max < 1 or self.inner_max < 1:
            raise ValueError("iteration caps must be >= 1")


@dataclass
class SolverTrace:
    """Per-iteration history for convergence plots.

    One entry per recorded point: the exact-penalty objective, the l1
    objective, the normalized squared error when ground truth was given
    (else None), the inner iterations attributed to that point, and the
    outer step it belongs to.
    """

    outer_objectives: list = field(default_factory=list)
    l1_objectives: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    inner_counts: list = field(default_factory=list)
    outer_steps: list = field(default_factory=list)


@dataclass
class ReconResult:
    """Recovered vector plus convergence bookkeeping.

    split is the z = [u; v] that solve_bcqp_gp returned, with x_hat = u - v;
    only gpsr_baseline sets it, so dc_gpsr can resume from it (l1_start).
    """

    x_hat: np.ndarray
    trace: SolverTrace
    converged: bool
    outer_iters: int
    split: np.ndarray | None = None

    @property
    def inner_iters_total(self) -> int:
        return int(sum(self.trace.inner_counts))


def objective_exact(x: np.ndarray, p: SparseProblem, *,
                    residual: np.ndarray | None = None) -> float:
    """Least-squares data term plus the exact sparsity penalty rho * (||x||_1 - ||x||_{k,1}).

    `residual`, if given, must be y - phi @ x; it spares the product.
    """
    x = _check_signal(x, p)
    r = _residual(x, p) if residual is None else residual
    return 0.5 * float(r @ r) + p.rho * sparsity_gap(x, p.k)


def objective_l1(x: np.ndarray, p: SparseProblem, *,
                 residual: np.ndarray | None = None) -> float:
    """Least-squares data term plus the l1 penalty rho * ||x||_1.

    `residual`, if given, must be y - phi @ x; it spares the product.
    """
    x = _check_signal(x, p)
    r = _residual(x, p) if residual is None else residual
    return 0.5 * float(r @ r) + p.rho * float(np.abs(x).sum())


def _residual(x: np.ndarray, p: SparseProblem) -> np.ndarray:
    return p.y - p.phi.phi @ x


def _check_signal(x, p: SparseProblem) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (p.phi.n,):
        raise ValueError(f"x has length {x.size} but matrix has {p.phi.n} columns")
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
    """_power_lam_max(mm.phi), computed once per operator and reused while mm.phi is that array."""
    cached = mm._lam_max_cache
    if cached is None or cached[0] is not mm.phi:
        cached = mm._lam_max_cache = (mm.phi, _power_lam_max(mm.phi))
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
                  opts: SolverOptions | None = None, alpha0: float | None = None,
                  tol: float | None = None, on_iterate=None):
    """Projected-gradient solver for min G(z) = 0.5 z^T B z + c^T z over z >= 0.

    Each step projects a Barzilai-Borwein gradient step onto the
    nonnegative orthant and then moves along the resulting direction with
    the exact minimizing fraction beta in (0, 1], so G never increases.
    The stop is on the (exactly known) predicted decrease of a step
    falling to tol * |G|: immediately when the very first step is already
    negligible (so a warm start at the solution returns the start point
    unchanged), otherwise after three consecutive negligible steps, which
    keeps the nonmonotone Barzilai-Borwein step pattern from triggering a
    premature stop.  Also stops on an exact projected-gradient fixed
    point or at inner_max.

    Returns (z, inner_iterations).  `on_iterate(k, z, G, alpha)` is called
    after every accepted step.  `tol` overrides opts.inner_tol (used by
    the DC outer loop to tighten subproblems as it converges).

    Every iterate is a fresh array that is never written afterwards: the
    z handed to on_iterate and the returned z stay valid after later
    iterations and later calls, and share no memory with z0 or w_z.  The
    working vectors of an iteration live in buffers allocated once per call.
    """
    opts = SolverOptions() if opts is None else opts
    tol = opts.inner_tol if tol is None else tol
    phi = p.phi.phi
    n = p.phi.n
    w_z = np.asarray(w_z, dtype=float)
    z = np.asarray(z0, dtype=float).copy()
    if z.shape != (2 * n,) or w_z.shape != (2 * n,):
        raise ValueError(
            f"z0 and w_z must have length {2 * n}, got {z.size} and {w_z.size}"
        )
    if np.any(z < 0):
        raise ValueError("z0 must be elementwise nonnegative")

    c = _bcqp_linear_term(p, w_z)
    c_u, c_v = c[:n], c[n:]
    if alpha0 is None:
        lam = _lam_max(p.phi)
        alpha0 = 1.0 / lam if lam > 0 else 1.0
    alpha = min(max(float(alpha0), _ALPHA_MIN), _ALPHA_MAX)

    grad = np.empty(2 * n)
    zh = np.empty(2 * n)
    d = np.empty(2 * n)
    scratch = np.empty(2 * n)
    dx = np.empty(n)
    grad_u, grad_v = grad[:n], grad[n:]
    d_u, d_v = d[:n], d[n:]

    def set_grad(fx):
        # [g; -g] + c, bit for bit: c_v - g is c_v + (-g) in IEEE arithmetic.
        g = phi.T @ fx
        np.add(g, c_u, out=grad_u)
        np.subtract(c_v, g, out=grad_v)

    fx = phi @ _unsplit(z)
    set_grad(fx)
    gval = 0.5 * float(fx @ fx) + float(c @ z)
    if not math.isfinite(gval):
        raise NumericalFailure("non-finite objective at the start point", iteration=0)
    # From here on c and z are finite: a non-finite entry of either would
    # have made c @ z, and so gval, non-finite.

    inner = 0
    stall = 0
    for k in range(1, opts.inner_max + 1):
        np.multiply(grad, alpha, out=scratch)
        np.subtract(z, scratch, out=scratch)
        np.maximum(scratch, 0.0, out=zh)
        np.subtract(zh, z, out=d)
        # No separate test for d == 0 (a projected-gradient fixed point):
        # the gradient is then finite, since an infinite or NaN entry of
        # phi^T fx moves zh in one of the two halves (short of g + c
        # overflowing), so gd == 0 and the descent test stops at that step.
        gd = float(grad @ d)
        if gd >= 0.0:
            break  # fixed point, or descent exhausted at floating-point resolution
        np.subtract(d_u, d_v, out=dx)
        fd = phi @ dx
        dbd = float(fd @ fd)
        beta = 1.0 if dbd <= 0.0 else min(1.0, -gd / dbd)
        predicted = -(beta * gd + 0.5 * beta * beta * dbd)
        if predicted <= tol * max(abs(gval), 1e-12):
            stall += 1
            if k == 1 or stall >= 3:
                break  # negligible progress at this tolerance: stay put
        else:
            stall = 0
        if beta == 1.0:
            z, zh = zh, np.empty(2 * n)
        else:
            np.multiply(d, beta, out=scratch)
            np.add(z, scratch, out=scratch)
            z = np.maximum(scratch, 0.0)
            np.multiply(fd, beta, out=fd)
        if k % 64 == 0:
            fx = phi @ _unsplit(z)  # refresh incremental product against drift
        else:
            np.add(fx, fd, out=fx)
        set_grad(fx)
        gnew = 0.5 * float(fx @ fx) + float(c @ z)
        inner = k
        # c is finite, so a non-finite z also makes c @ z and gnew non-finite.
        if not math.isfinite(gnew):
            raise NumericalFailure("non-finite iterate in gradient projection", iteration=k)
        if on_iterate is not None:
            on_iterate(k, z, gnew, alpha)
        # BB step from the accepted move; beta cancels in the ratio.
        alpha = min(max(float(d @ d) / dbd, _ALPHA_MIN), _ALPHA_MAX) \
            if dbd > 0.0 else _ALPHA_MAX
        gval = gnew
    return z, inner


def _record(trace: SolverTrace, p: SparseProblem, x: np.ndarray, inner: int,
            outer_step: int, ground_truth) -> None:
    r = _residual(x, p)
    trace.outer_objectives.append(objective_exact(x, p, residual=r))
    trace.l1_objectives.append(objective_l1(x, p, residual=r))
    trace.errors.append(
        None if ground_truth is None else normalized_sq_error(ground_truth, x)
    )
    trace.inner_counts.append(inner)
    trace.outer_steps.append(outer_step)


def _record_batch(trace: SolverTrace, p: SparseProblem, x: np.ndarray,
                  ground_truth) -> None:
    """Append one inner trace point (inner count 1, outer step 1) per row of x.

    The quantities of _record, from one matrix-matrix product, row-wise
    sums and a row-wise sort (faster than a partition on rows full of
    exact zeros), so they agree with _record's to round-off, not bit for bit.
    """
    r = p.y - x @ p.phi.phi.T
    half_rr = 0.5 * np.einsum("ij,ij->i", r, r)
    mag = np.abs(x)
    l1 = mag.sum(axis=1)
    top = np.sort(mag, axis=1)[:, -p.k:].sum(axis=1)
    trace.outer_objectives.extend((half_rr + p.rho * (l1 - top)).tolist())
    trace.l1_objectives.extend((half_rr + p.rho * l1).tolist())
    if ground_truth is None:
        trace.errors.extend([None] * len(x))
    else:
        truth = np.asarray(ground_truth, dtype=float)
        d = truth - x
        trace.errors.extend((np.einsum("ij,ij->i", d, d) / float(truth @ truth)).tolist())
    trace.inner_counts.extend([1] * len(x))
    trace.outer_steps.extend([1] * len(x))


class _InnerTrace:
    """Full trace of an l1 baseline's inner iterates, x = to_x(iterate).

    add() keeps a reference to each iterate, which the inner solvers never
    write again, and every _TRACE_BATCH of them go to _record_batch
    together.  The newest iterate is always held back, so finish() records
    the final point through _record, bit-equal to the compact trace's end.
    """

    def __init__(self, trace: SolverTrace, p: SparseProblem, to_x, ground_truth):
        self.trace, self.p, self.to_x, self.ground_truth = trace, p, to_x, ground_truth
        self.held = []

    def add(self, iterate: np.ndarray) -> None:
        self.held.append(iterate)
        if len(self.held) > _TRACE_BATCH:
            self._evaluate(_TRACE_BATCH)

    def _evaluate(self, count: int) -> None:
        _record_batch(self.trace, self.p, self.to_x(np.array(self.held[:count])),
                      self.ground_truth)
        del self.held[:count]

    def finish(self) -> None:
        if len(self.held) > 1:
            self._evaluate(len(self.held) - 1)
        if self.held:
            _record(self.trace, self.p, self.to_x(self.held.pop()), 1, 1, self.ground_truth)


def _solve_prox(p: SparseProblem, pty: np.ndarray, x: np.ndarray, L: float,
                tol: float, inner_max: int, on_iterate=None):
    """Proximal gradients for min 0.5 ||y - phi x||^2 + rho ||x||_1, pty = phi^T y.

    Each step's phi x serves both its objective and the next gradient, so
    a step costs two matrix-vector products.  Stops when the relative
    objective decrease falls to tol, or at inner_max.  Returns (x, inner
    iterations, stopped on tol); `on_iterate(x)` is called after each step.

    Every iterate is a fresh array that is never written afterwards, so the
    x handed to on_iterate and the returned x stay valid after later
    iterations and later calls.  The working vectors of an iteration live
    in buffers allocated once per call.
    """
    phi = p.phi.phi
    lam = p.rho / L
    a = np.empty(p.phi.n)
    mag = np.empty(p.phi.n)
    r = np.empty(p.phi.m)

    def objective(fx_):  # mag must hold |x|
        np.subtract(p.y, fx_, out=r)
        return 0.5 * float(r @ r) + p.rho * float(mag.sum())

    fx = phi @ x
    np.abs(x, out=mag)
    f = objective(fx)
    for j in range(1, inner_max + 1):
        # x = soft_threshold(x - (phi^T fx - pty) / L, rho / L), in that order.
        g = phi.T @ fx
        np.subtract(g, pty, out=g)
        np.divide(g, L, out=g)
        np.subtract(x, g, out=a)
        np.abs(a, out=mag)
        np.subtract(mag, lam, out=mag)
        np.maximum(mag, 0.0, out=mag)
        # mag is now |x| exactly, NaN and zeros included: |sign(a)| * mag.
        x = np.sign(a, out=a) * mag
        fx = phi @ x
        f_new = objective(fx)
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


def dc_gpsr(p: SparseProblem, x0: np.ndarray | None = None,
            opts: SolverOptions | None = None,
            ground_truth: np.ndarray | None = None, *,
            l1_start: ReconResult | None = None) -> ReconResult:
    """Exact-sparsity reconstruction by DC programming with a gradient-projection inner solver.

    Runs over the split z = [u; v] of x = u - v.  Step t takes w, the
    top-(k,1) subgradient at x (zero at x == 0, where it lies in the
    subdifferential), and solves the nonnegativity-constrained quadratic
    with linear term split_pos_neg(w) by solve_bcqp_gp, warm-started at the
    previous z, with its tolerance tightening from inner_tol to _TOL_FLOOR.
    It stops once a step moves z by at most _OUTER_TOL, but only after a
    solve at _TOL_FLOOR: an earlier such step re-solves at the floor.
    Traces the start and every step.

    Step 1 starts from x = 0 with a zero subgradient, which is exactly
    gpsr_baseline's l1 solve.  l1_start, if given, must be
    gpsr_baseline(p, opts=opts) on the same p and opts (either inner_trace);
    its split and inner count then stand in for step 1, and the result is
    the same as without it.  When inner_tol lies below the floor that
    step 1 is clamped to, step 1 is solved anyway.
    """
    opts = SolverOptions() if opts is None else opts
    n = p.phi.n
    if l1_start is not None:
        if x0 is not None:
            raise ValueError("l1_start is the l1 solve from x = 0; it cannot come with x0")
        split = l1_start.split
        if split is None or np.shape(split) != (2 * n,):
            raise ValueError(f"l1_start must carry a split of length {2 * n} "
                             "(a gpsr_baseline result on the same problem)")
        if opts.inner_tol < _TOL_FLOOR:
            l1_start = None
    x0 = np.zeros(n) if x0 is None else _check_signal(x0, p)
    lam = _lam_max(p.phi)
    alpha0 = 1.0 / lam if lam > 0 else 1.0

    z = split_pos_neg(x0)
    x = _unsplit(z)
    trace = SolverTrace()
    _record(trace, p, x, 0, 0, ground_truth)
    converged = False
    at_floor = False
    for t in range(1, opts.outer_max + 1):
        tol_t = _TOL_FLOOR if at_floor else max(opts.inner_tol * _TOL_SHRINK ** (t - 1),
                                                _TOL_FLOOR)
        if t == 1 and l1_start is not None:
            z_new, inner = l1_start.split, l1_start.inner_iters_total
        else:
            w = top_k1_subgradient(x, p.k).w if x.any() else np.zeros(n)
            z_new, inner = solve_bcqp_gp(p, split_pos_neg(w), z, opts, alpha0=alpha0,
                                         tol=tol_t)
        delta = float(np.linalg.norm(z_new - z))
        z = z_new
        x = _unsplit(z)
        _record(trace, p, x, inner, t, ground_truth)
        if delta <= _OUTER_TOL:
            if at_floor or tol_t <= _TOL_FLOOR:
                converged = True
                break
            at_floor = True
    return ReconResult(x_hat=x, trace=trace, converged=converged, outer_iters=t)


def gpsr_baseline(p: SparseProblem, x0: np.ndarray | None = None,
                  opts: SolverOptions | None = None,
                  ground_truth: np.ndarray | None = None, *,
                  inner_trace: bool = True) -> ReconResult:
    """Plain l1 sparse recovery: one solve_bcqp_gp pass with a zero subgradient.

    Minimizes 0.5 ||y - phi x||^2 + rho ||x||_1.  With inner_trace the
    trace records every inner iteration, so objective evolutions can be
    plotted against the DC solver's; the points between the start and the
    end are evaluated in batches (_InnerTrace) and agree with _record's
    values to round-off.  Without it, only the start point and the end
    point, which carries the whole inner count (none after 0 iterations).
    Both give the same result and the same first and last trace points.
    """
    opts = SolverOptions() if opts is None else opts
    n = p.phi.n
    x0 = np.zeros(n) if x0 is None else _check_signal(x0, p)
    trace = SolverTrace()
    _record(trace, p, x0, 0, 0, ground_truth)
    points = _InnerTrace(trace, p, _unsplit, ground_truth) if inner_trace else None
    z, inner = solve_bcqp_gp(
        p, np.zeros(2 * n), split_pos_neg(x0), opts,
        on_iterate=None if points is None else lambda k, z, gval, alpha: points.add(z))
    x = _unsplit(z)
    if points is not None:
        points.finish()
    elif inner:
        _record(trace, p, x, inner, 1, ground_truth)
    return ReconResult(x_hat=x, trace=trace, converged=inner < opts.inner_max,
                       outer_iters=1, split=z)


def ista(p: SparseProblem, x0: np.ndarray | None = None,
         opts: SolverOptions | None = None,
         ground_truth: np.ndarray | None = None, *,
         inner_trace: bool = True) -> ReconResult:
    """Iterative shrinkage-thresholding for the l1 problem.

    One _solve_prox pass at fixed step 1/L, L a power-method estimate of
    ||phi^T phi||.  Traces every iteration, or
    with inner_trace=False only the start and end points, as gpsr_baseline.
    """
    opts = SolverOptions() if opts is None else opts
    n = p.phi.n
    x0 = np.zeros(n) if x0 is None else _check_signal(x0, p)
    phi = p.phi.phi
    lam = _lam_max(p.phi)
    trace = SolverTrace()
    _record(trace, p, x0, 0, 0, ground_truth)
    points = _InnerTrace(trace, p, np.asarray, ground_truth) if inner_trace else None
    x, inner, converged = _solve_prox(p, phi.T @ p.y, x0, lam if lam > 0 else 1.0,
                                      opts.inner_tol, opts.inner_max,
                                      on_iterate=None if points is None else points.add)
    if points is not None:
        points.finish()
    else:  # _solve_prox takes at least one step
        _record(trace, p, x, inner, 1, ground_truth)
    return ReconResult(x_hat=x, trace=trace, converged=converged, outer_iters=1)


def omp(y: np.ndarray, phi: MeasurementMatrix, k: int) -> ReconResult:
    """Orthogonal matching pursuit: greedy support growth with least-squares refits.

    Each round picks the column most correlated (normalized) with the
    residual, refits on the grown support, and updates the residual; stops
    early once the residual is negligible.  converged says whether the
    residual is negligible at the end, so a solve that used up its k
    rounds on a larger residual reports False.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (phi.m,):
        raise ValueError(f"y has length {y.size} but matrix has {phi.m} rows")
    if not 1 <= k <= min(phi.m, phi.n):
        raise ValueError(f"k must lie in [1, {min(phi.m, phi.n)}], got {k}")
    pm = phi.phi
    norms = np.linalg.norm(pm, axis=0)
    safe_norms = np.where(norms > 0, norms, np.inf)

    support: list[int] = []
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
    if support:
        x_hat[support] = coef
    return ReconResult(x_hat=x_hat, trace=SolverTrace(), converged=float(np.linalg.norm(resid)) <= resid_tol,
                       outer_iters=rounds)


def brute_force_l0(y: np.ndarray, phi: MeasurementMatrix, k: int) -> np.ndarray:
    """Exhaustive cardinality-constrained least squares over all supports of size <= k.

    Verification oracle for tiny instances; guarded so the enumeration
    cannot explode.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (phi.m,):
        raise ValueError(f"y has length {y.size} but matrix has {phi.m} rows")
    if not 1 <= k <= phi.n:
        raise ValueError(f"k must lie in [1, {phi.n}], got {k}")
    if math.comb(phi.n, k) > 10**6:
        raise InstanceTooLarge(
            f"C({phi.n}, {k}) = {math.comb(phi.n, k)} supports exceeds the 1e6 guard"
        )
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
