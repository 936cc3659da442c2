"""Traced run support: spans around dcsparse's public functions, matvec counting.

Spans are recorded from outside the program.  Each public function is
wrapped where the calling module binds it (``dcsparse.harness.dc_gpsr``,
``dcsparse.solvers.solve_bcqp_gp``, ``dcsparse.cli.load_matrix``, ...),
so the wrapper sees exactly the calls that module makes.  A span is
(name, start, end, parent); a layer's self time is its spans' durations
minus the part covered by their child spans.  The originals are put back
when the ``Tracer`` context exits.

Solvers additionally get an operator whose array counts its matmul
calls, and their ``ReconResult`` iteration counts are summed.  The
counting array hands plain views of the same memory to ``np.matmul``, so
every product, and therefore every iterate, is bit-identical to an
untraced solve.  File bytes are counted at ``pathlib.Path.write_text``
and ``read_text`` while a fileio span is the innermost open span.
"""

import copy
import functools
import pathlib
import time

import numpy as np

import dcsparse.cli
import dcsparse.harness
import dcsparse.solvers
from dcsparse.sensing import MeasurementMatrix
from dcsparse.solvers import SparseProblem

# Solver name in SOLVER_REGISTRY -> the function harness binds for it.
SOLVER_FUNCS = {"dc_gpsr": "dc_gpsr", "gpsr": "gpsr_baseline", "ista": "ista", "omp": "omp"}
SOLVERS = tuple(SOLVER_FUNCS)
_SOLVER_OF = {f: s for s, f in SOLVER_FUNCS.items()}

# Functions wrapped in each calling module.
PATCHED = {
    dcsparse.harness: ("run_noiseless_study", "run_snr_sweep", "sample_sparse_channel",
                       "gaussian_matrix", "measure", "add_noise", "default_rho",
                       "normalized_sq_error") + tuple(SOLVER_FUNCS.values()),
    dcsparse.solvers: ("solve_bcqp_gp", "top_k1_subgradient", "objective_exact",
                       "objective_l1", "normalized_sq_error"),
    dcsparse.cli: ("cli_main", "sample_sparse_channel", "gaussian_matrix", "measure",
                   "save_channel", "save_matrix", "save_vector_csv", "save_result",
                   "save_trace_csv", "load_matrix", "load_vector_csv", "default_rho",
                   "objective_exact", "objective_l1", "normalized_sq_error"),
}

_H, _S, _C = "dcsparse.harness.", "dcsparse.solvers.", "dcsparse.cli."
FILEIO_WRITE = tuple(_C + f for f in ("save_channel", "save_matrix", "save_vector_csv",
                                      "save_result", "save_trace_csv"))
FILEIO_READ = (_C + "load_matrix", _C + "load_vector_csv")

# Per-layer time metric -> the spans whose self time it sums.  Calls to
# objective_exact, objective_l1 and normalized_sq_error bound in solvers
# happen inside a solve (trace recording); the harness and cli bindings
# score a finished solve.
SELF_TIME_GROUPS = {
    "solvers.solve_bcqp_gp": (_S + "solve_bcqp_gp",),
    "solvers.trace": (_S + "objective_exact", _S + "objective_l1", _S + "normalized_sq_error"),
    **{f"solvers.{s}": (_H + f,) for s, f in SOLVER_FUNCS.items()},
    "sparsity.top_k1_subgradient": (_S + "top_k1_subgradient",),
    "solvers.default_rho": (_H + "default_rho", _C + "default_rho"),
    "solvers.objective": (_C + "objective_exact", _C + "objective_l1"),
    "metrics.normalized_sq_error": (_H + "normalized_sq_error", _C + "normalized_sq_error"),
    "channel.sample_sparse_channel": (_H + "sample_sparse_channel", _C + "sample_sparse_channel"),
    "sensing.gaussian_matrix": (_H + "gaussian_matrix", _C + "gaussian_matrix"),
    "sensing.measure": (_H + "measure", _C + "measure"),
    "sensing.add_noise": (_H + "add_noise",),
    "fileio.write": FILEIO_WRITE,
    "fileio.read": FILEIO_READ,
    "harness": (_H + "run_noiseless_study", _H + "run_snr_sweep"),
    "cli": (_C + "cli_main",),
}
CALL_COUNT_GROUPS = ("solvers.solve_bcqp_gp", "solvers.trace")
SOLVER_STATS = ("matvecs", "matvec_frac", "inner_iters", "outer_iters", "converged_frac")


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for group in SELF_TIME_GROUPS:
        units[f"{group}.self_s"] = "s"
        if group in CALL_COUNT_GROUPS:
            units[f"{group}.calls"] = "count"
    for solver in SOLVERS:
        for stat in SOLVER_STATS:
            units[f"solvers.{solver}.{stat}"] = "ratio" if stat.endswith("frac") else "count"
    units["solvers.matvec_pair_us"] = "us"
    units["fileio.write.bytes"] = "B"
    units["fileio.read.bytes"] = "B"
    units["trace_overhead_frac"] = "ratio"
    return units


class CountingArray(np.ndarray):
    """ndarray whose 2-D views count the matmul calls made through them."""

    def __array_finalize__(self, obj):
        self.counter = getattr(obj, "counter", None)

    def _count(self):
        if self.counter is not None and self.ndim == 2:
            self.counter[0] += 1

    def __matmul__(self, other):
        self._count()
        return np.matmul(np.asarray(self), np.asarray(other))

    def __rmatmul__(self, other):
        self._count()
        return np.matmul(np.asarray(other), np.asarray(self))


def _counting_operator(mm: MeasurementMatrix, counter) -> MeasurementMatrix:
    # copy.copy skips __post_init__, whose np.asarray would drop the subclass.
    counted = copy.copy(mm)
    counted.phi = mm.phi.view(CountingArray)
    counted.phi.counter = counter
    return counted


class _SolverStats:
    def __init__(self):
        self.solves = self.matvecs = self.inner = self.outer = self.converged = 0


class Tracer:
    """Context manager that wraps the PATCHED functions and records spans.

    A gpsr or ista solve records about 10^4 trace spans, so each span is
    folded into per-(parent, name) totals as it closes instead of being
    kept; ``table()`` returns those totals.
    """

    def __init__(self):
        self.stack = []  # open spans: [name, time covered by child spans]
        self.totals = {}  # (parent name, name) -> [calls, total_s, self_s]
        self.solver_stats = {s: _SolverStats() for s in SOLVERS}
        self.io_bytes = {"write": 0, "read": 0}
        self._saved = []

    def __enter__(self):
        for module, names in PATCHED.items():
            for name in names:
                original = getattr(module, name)
                wrapper = self._span(f"{module.__name__}.{name}", original)
                if module is dcsparse.harness and name in SOLVER_FUNCS.values():
                    wrapper = self._counting(self.solver_stats[_SOLVER_OF[name]], wrapper)
                self._saved.append((module, name, original))
                setattr(module, name, wrapper)
        for method, kind in (("write_text", "write"), ("read_text", "read")):
            original = getattr(pathlib.Path, method)
            self._saved.append((pathlib.Path, method, original))
            setattr(pathlib.Path, method, self._byte_counter(original, kind))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        return False

    def _span(self, name, fn):
        stack, totals = self.stack, self.totals
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                key = (parent[0] if parent else "", name)
                entry = totals.get(key)
                if entry is None:
                    entry = totals[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if parent:
                    parent[1] += duration
        return traced

    def _counting(self, stats, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counter = [0]
            args = list(args)
            for i, arg in enumerate(args):
                if isinstance(arg, SparseProblem):
                    args[i] = copy.copy(arg)
                    args[i].phi = _counting_operator(arg.phi, counter)
                elif isinstance(arg, MeasurementMatrix):
                    args[i] = _counting_operator(arg, counter)
            result = fn(*args, **kwargs)
            stats.solves += 1
            stats.matvecs += counter[0]
            stats.inner += result.inner_iters_total
            stats.outer += result.outer_iters
            stats.converged += bool(result.converged)
            return result
        return counted

    def _byte_counter(self, fn, kind):
        stack, io_bytes = self.stack, self.io_bytes
        fileio_spans = FILEIO_WRITE if kind == "write" else FILEIO_READ

        @functools.wraps(fn)
        def counted(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            if stack and stack[-1][0] in fileio_spans:
                text = args[0] if kind == "write" else result
                io_bytes[kind] += len(text.encode())
            return result
        return counted

    def table(self):
        """Span totals as rows: parent, name, calls, total_s, self_s."""
        return [{"parent": parent, "name": name, "calls": c, "total_s": tot, "self_s": own}
                for (parent, name), (c, tot, own) in sorted(self.totals.items())]

    def calls(self, name) -> int:
        return sum(c for (_, n), (c, _, _) in self.totals.items() if n == name)

    def metrics(self, pair_us: float, overhead_frac: float) -> dict:
        """Per-layer metric values from the span totals and counters."""
        self_s, total_s, calls = {}, {}, {}
        for (_, name), (c, tot, own) in self.totals.items():
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + tot
            calls[name] = calls.get(name, 0) + c

        out = {}
        for group, names in SELF_TIME_GROUPS.items():
            out[f"{group}.self_s"] = sum(self_s.get(n, 0.0) for n in names)
            if group in CALL_COUNT_GROUPS:
                out[f"{group}.calls"] = sum(calls.get(n, 0) for n in names)
        for solver, func in SOLVER_FUNCS.items():
            st = self.solver_stats[solver]
            busy = total_s.get(_H + func, 0.0)
            out[f"solvers.{solver}.matvecs"] = st.matvecs
            out[f"solvers.{solver}.matvec_frac"] = (
                st.matvecs * pair_us * 1e-6 / 2 / busy if busy > 0 else 0.0)
            out[f"solvers.{solver}.inner_iters"] = st.inner
            out[f"solvers.{solver}.outer_iters"] = st.outer
            out[f"solvers.{solver}.converged_frac"] = (
                st.converged / st.solves if st.solves else 0.0)
        out["solvers.matvec_pair_us"] = pair_us
        out["fileio.write.bytes"] = self.io_bytes["write"]
        out["fileio.read.bytes"] = self.io_bytes["read"]
        out["trace_overhead_frac"] = overhead_frac
        return out


def matvec_pair_us(m: int, n: int, reps: int = 400, rounds: int = 15) -> float:
    """Median time of one raw phi @ x plus phi.T @ r pair on an m x n matrix."""
    gen = np.random.default_rng(0)
    phi = gen.standard_normal((m, n))
    x, r = gen.standard_normal(n), gen.standard_normal(m)
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(reps):
            phi @ x
            phi.T @ r
        times.append((time.perf_counter() - start) / reps)
    return float(np.median(times)) * 1e6
