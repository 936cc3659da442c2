"""The benchmark's three seeded workloads and their correctness checks.

Each workload drives dcsparse only through its public entry points,
``harness.run_noiseless_study``, ``harness.run_snr_sweep`` and
``cli.cli_main``, looked up on the module at call time so that a traced
run sees the same calls.  A cell is one problem instance solved by every
solver of the workload; cells are timed around the entry-point calls, so
the benchmark's own checking is not counted.

The number of cells is fixed by ``--seconds`` and the workload's nominal
cell cost, never by the clock, so two runs with one seed do the same work
and every count (iterations, matvecs, recovery) repeats exactly.

Times are reported at reference speed.  On a shared machine the speed of
one core drifts by up to half within seconds (a fixed numpy kernel was
seen at 4.1 to 6.2 ms in 5-second windows), which swamps a 10% change.
So a fixed reference kernel that does the same kind of work as the
workload is timed right before and right after every cell, and the
cell's wall time is scaled by (kernel's nominal time) / (mean kernel
time).  The scaled value is the cell's wall time on a machine where the
kernel takes its nominal time; the report prints the times as measured
too.
"""

import io
import json
import math
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import dcsparse.cli
import dcsparse.harness
# Bound at import, before a traced run wraps the module attributes, so the
# checks below never show up in the spans.
from dcsparse.channel import sample_sparse_channel
from dcsparse.metrics import normalized_sq_error
from dcsparse.seeding import derive_seed
from dcsparse.sensing import gaussian_matrix, measure
from dcsparse.solvers import (SolverOptions, SparseProblem, default_rho, objective_exact,
                              objective_l1, omp)

SNR_GRID_DB = (5.0, 10.0, 15.0, 20.0, 25.0)
EXACT_NSE = 1e-20  # an NSE at or below this counts as exact recovery
MIN_EXACT_FRAC = 0.75  # noiseless dc_gpsr recovers about 92% of cells exactly

# Nominal times of the reference kernel's parts: their times on a 2-core
# x86-64 machine in its slower phases, so plans rarely overrun.
LOOP_REF_S = 0.003
TEXT_REF_S = 0.0045

# Problem sizes: antennas, complex sparsity, measurements; k = 2 * sparsity.
SIZES = {
    "default": (256, 16, 128),
    "small": (32, 2, 24),   # for the benchmark's own tests
    "tiny": (8, 1, 6),      # first-call warm-up
}
# The warm-up runs every code path once; it need not converge.
_TINY_OPTIONS = SolverOptions(outer_max=2, inner_max=10)


class ReferenceKernel:
    """Fixed work timed around every cell; uses no dcsparse code.

    The loop part is a projected-gradient loop on a 128 x 512 matrix: two
    matvecs and the same kind of short-vector numpy calls as a dc_gpsr
    inner iteration.  Over three minutes it took 2.4-3.8 ms while a
    dc_gpsr solve took 94-103 times as long.  The text part formats and
    parses 3000 floats, as the CLI's CSV files do; with it, six CLI runs
    whose cell medians ranged 0.11-0.18 s as measured agreed within 3%.
    """

    def __init__(self, text: bool):
        gen = np.random.default_rng(0)
        self.a = gen.standard_normal((128, 512))
        self.z0 = np.abs(gen.standard_normal(1024))
        self.c = gen.standard_normal(1024)
        self.floats = gen.standard_normal(3000) if text else None
        self.nominal_s = LOOP_REF_S + (TEXT_REF_S if text else 0.0)

    def _once(self):
        a, c, n = self.a, self.c, 512
        z = self.z0
        for _ in range(60):
            g = a.T @ (a @ (z[:n] - z[n:]))
            grad = np.concatenate([g, -g]) + c
            d = np.maximum(z - 1e-3 * grad, 0.0) - z
            dx = d[:n] - d[n:]
            float(grad @ d) + float(dx @ dx)
            z = np.maximum(z + 0.5 * d, 0.0)
        if self.floats is not None:
            text = ",".join(repr(float(v)) for v in self.floats)
            [float(v) for v in text.split(",")]

    def seconds(self, reps=3) -> float:
        """Median time of the kernel now."""
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            self._once()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


@dataclass
class Solve:
    """One solver run on one cell; wall_s is the harness's own timing at reference speed."""

    cell: int
    solver: str
    snr_db: float | None
    nse: float
    outer_iters: int
    inner_iters: int
    wall_s: float | None


@dataclass
class Outcome:
    kernel: ReferenceKernel
    cell_s: list = field(default_factory=list)  # each completed cell, at reference speed
    raw_cell_s: list = field(default_factory=list)  # the same, as measured
    _speed: float = 1.0  # nominal over measured kernel time around the current cell
    solves: list = field(default_factory=list)
    attempted: int = 0  # solves attempted
    failed: int = 0     # solves that raised, returned a non-finite result or failed a check
    checks: list = field(default_factory=list)  # (name, passed, detail)
    details: dict = field(default_factory=dict)  # name -> (value, unit, note)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)

    def fingerprint(self):
        """Everything a traced run must reproduce exactly."""
        return [(s.cell, s.solver, s.snr_db, s.nse, s.outer_iters, s.inner_iters)
                for s in self.solves]

    def run_cell(self, n_solves, call):
        """Time one entry-point call; count its solves as failed if it raises."""
        self.attempted += n_solves
        before = self.kernel.seconds()
        start = time.perf_counter()
        try:
            result = call()
        except Exception:  # a failed cell must not stop the run; report it and go on
            traceback.print_exc(file=sys.stderr)
            self.failed += n_solves
            return None
        wall = time.perf_counter() - start
        self._speed = self.kernel.nominal_s / ((before + self.kernel.seconds()) / 2)
        self.raw_cell_s.append(wall)
        self.cell_s.append(wall * self._speed)
        return result

    def add_records(self, cell, records, expected):
        if len(records) != expected:
            self.failed += expected
            return
        for r in records:
            self.solves.append(Solve(cell, r.solver_name, r.snr_db, r.nse, r.outer_iters,
                                     r.inner_iters_total, r.wall_time_seconds * self._speed))
            if not math.isfinite(r.nse):
                self.failed += 1


@dataclass(frozen=True)
class Plan:
    seed: int
    cells: int
    size: str
    workdir: Path

    def base_seeds(self, count):
        """Base seed of each cell (or sweep sample), derived from the run seed."""
        return [int(np.random.SeedSequence([self.seed, i]).generate_state(1, np.uint64)[0])
                for i in range(count)]


def _config(size, solvers, **kw):
    n, s, m = SIZES[size]
    if size == "tiny":
        kw["solver_options"] = _TINY_OPTIONS
    return dcsparse.harness.ExperimentConfig(
        n_antennas=n, sparsity=s, m_measurements=m, k_real=2 * s, rho_rule="auto",
        num_samples=1, solvers=solvers, **kw)


def _solve_times(out, solver):
    return [s.wall_s for s in out.solves if s.solver == solver]


def _add_solve_details(out, solvers):
    for solver in solvers:
        times = _solve_times(out, solver)
        if times:
            out.details[f"{solver}_solve_s_p50"] = (float(np.median(times)), "s", f"n={len(times)}")
    times = _solve_times(out, "dc_gpsr")
    if times:
        value, pct = tail(times)
        out.details["dc_gpsr_solve_s_tail"] = (value, "s", f"p{pct} n={len(times)}")


def tail(values):
    """Highest percentile with at least ten samples beyond it, and that percentile."""
    v = sorted(values)
    if len(v) <= 10:
        return v[-1], 100
    return v[-11], int(100 * (len(v) - 10) / len(v))


def run_noiseless(plan: Plan) -> Outcome:
    solvers = ("dc_gpsr", "gpsr", "omp")
    cfg = _config(plan.size, solvers)
    out = Outcome(ReferenceKernel(text=False))
    for cell, base in enumerate(plan.base_seeds(plan.cells)):
        result = out.run_cell(len(solvers), lambda: dcsparse.harness.run_noiseless_study(
            replace(cfg, base_seed=base)))
        if result is not None:
            out.add_records(cell, result[0], len(solvers))

    dc = [s for s in out.solves if s.solver == "dc_gpsr"]
    missed = [s for s in dc if not s.nse <= EXACT_NSE]
    exact_frac = 1.0 - len(missed) / len(dc) if dc else 0.0
    ok = exact_frac >= MIN_EXACT_FRAC
    out.checks.append(("dc_gpsr_exact_recovery", ok,
                       f"{len(dc) - len(missed)}/{len(dc)} solves with nse<={EXACT_NSE:g}, "
                       f"need {MIN_EXACT_FRAC:.0%}"))
    if not ok:
        out.failed += len(missed)
    out.details["exact_recovery_frac"] = (exact_frac, "ratio", f"n={len(dc)}")
    _add_solve_details(out, solvers)
    return out


def run_snr_sweep(plan: Plan) -> Outcome:
    """One run_snr_sweep call per cell on a one-point grid.

    Cell seeds are keyed by the SNR point, so these cells are exactly the
    cells of a full-grid sweep with the same base seed.
    """
    solvers = ("dc_gpsr", "gpsr", "ista", "omp")
    cfg = _config(plan.size, solvers)
    out = Outcome(ReferenceKernel(text=False))
    samples = max(1, round(plan.cells / len(SNR_GRID_DB)))
    cell = 0
    for base in plan.base_seeds(samples):
        for snr_db in SNR_GRID_DB:
            result = out.run_cell(len(solvers), lambda: dcsparse.harness.run_snr_sweep(
                replace(cfg, base_seed=base, snr_grid_db=(snr_db,))))
            if result is not None:
                out.add_records(cell, result[0], len(solvers))
            cell += 1

    nmse = {}
    for s in out.solves:
        nmse.setdefault((s.solver, s.snr_db), []).append(s.nse)
    nmse = {key: sum(v) / len(v) for key, v in nmse.items()}
    # The criterion-5 ranking holds on 100-sample means.  On a dozen samples
    # per point OMP, a least-squares fit on the true support whenever it
    # finds it, often edges out dc_gpsr, so only the l1 baselines are
    # checked here and the OMP comparison is reported.
    below_l1, below_omp = [], []
    for snr_db in SNR_GRID_DB:
        dc = nmse.get(("dc_gpsr", snr_db), math.inf)
        l1_ok = all(dc < nmse.get((b, snr_db), -math.inf) for b in ("gpsr", "ista"))
        below_l1.append(l1_ok)
        below_omp.append(dc < nmse.get(("omp", snr_db), -math.inf))
        if not l1_ok:
            out.failed += sum(1 for s in out.solves
                              if s.solver == "dc_gpsr" and s.snr_db == snr_db)
    out.checks.append(("dc_gpsr_below_l1_nmse", all(below_l1),
                       f"dc_gpsr NMSE below gpsr and ista at {sum(below_l1)}/"
                       f"{len(SNR_GRID_DB)} SNR points"))
    out.details["dc_gpsr_below_omp_points"] = (sum(below_omp), "count",
                                               f"of {len(SNR_GRID_DB)}, reported only")
    dc_db = [10 * math.log10(nmse[("dc_gpsr", snr)]) for snr in SNR_GRID_DB
             if ("dc_gpsr", snr) in nmse]
    if dc_db:
        out.details["dc_gpsr_nmse_db"] = (sum(dc_db) / len(dc_db), "dB",
                                          f"mean over {len(dc_db)} SNR points")
    _add_solve_details(out, solvers)
    return out


def _read_column(path):
    lines = Path(path).read_text().split("\n")[1:]
    return np.array([float(line) for line in lines if line])


def _cli_cell_matches(cell_dir, base, size, printed):
    """The files a cli cell wrote equal an in-memory generate and solve, bit for bit."""
    n, s, m = SIZES[size]
    sample = sample_sparse_channel(n, s, derive_seed(base, 0))
    phi = gaussian_matrix(m, 2 * n, derive_seed(base, 1))
    y = measure(phi, sample.x_real)
    problem = SparseProblem(y=y, phi=phi, k=2 * s, rho=default_rho(phi, y))
    result = omp(y, phi, 2 * s)
    expected = {
        "solver": "omp", "rho": problem.rho, "converged": result.converged,
        "outer_iters": result.outer_iters, "inner_iters": result.inner_iters_total,
        "objective": objective_exact(result.x_hat, problem),
        "objective_l1": objective_l1(result.x_hat, problem),
        "nse": normalized_sq_error(sample.x_real, result.x_hat),
    }
    run = cell_dir / "run"
    summary = json.loads((run / "solve_omp.json").read_text())
    same = (
        all(printed.get(key) == value for key, value in expected.items())
        and all(summary.get(key) == value for key, value in printed.items())
        and _read_column(run / "solve_omp_x_hat.csv").tobytes() == result.x_hat.tobytes()
        and _read_column(cell_dir / "x_true.csv").tobytes() == sample.x_real.tobytes()
    )
    return same, expected


def run_cli_roundtrip(plan: Plan) -> Outcome:
    n, s, m = SIZES[plan.size]
    out = Outcome(ReferenceKernel(text=True))
    mismatched = 0
    for cell, base in enumerate(plan.base_seeds(plan.cells)):
        cell_dir = plan.workdir / f"cell{cell}"
        generate = ["generate", "--n", str(n), "--sparsity", str(s), "--m", str(m),
                    "--seed", str(base), "--out", str(cell_dir)]
        solve = ["solve", "--phi", str(cell_dir / "phi.csv"), "--y", str(cell_dir / "y.csv"),
                 "--k", str(2 * s), "--solver", "omp", "--truth", str(cell_dir / "x_true.csv"),
                 "--out", str(cell_dir / "run"), "--format", "json"]
        printed = io.StringIO()

        def roundtrip():
            with redirect_stdout(io.StringIO()):
                code = dcsparse.cli.cli_main(generate)
            if code != 0:
                raise RuntimeError(f"generate exited with {code}")
            with redirect_stdout(printed):
                code = dcsparse.cli.cli_main(solve)
            if code != 0:
                raise RuntimeError(f"solve exited with {code}")
            return True

        if out.run_cell(1, roundtrip):
            try:
                same, expected = _cli_cell_matches(cell_dir, base, plan.size,
                                                   json.loads(printed.getvalue()))
            except (OSError, ValueError) as exc:
                print(f"cli cell {cell}: cannot read back outputs: {exc}", file=sys.stderr)
                same = False
            if same:
                out.solves.append(Solve(cell, "omp", None, expected["nse"],
                                        expected["outer_iters"], expected["inner_iters"], None))
            else:
                mismatched += 1
                out.failed += 1
        shutil.rmtree(cell_dir, ignore_errors=True)
    out.checks.append(("cli_roundtrip_bit_exact", mismatched == 0,
                       f"{len(out.solves)}/{plan.cells} cells read back equal to "
                       "an in-memory generate and solve"))
    exact = sum(1 for sv in out.solves if sv.nse <= EXACT_NSE)
    out.details["omp_exact_recovery_frac"] = (exact / len(out.solves) if out.solves else 0.0,
                                              "ratio", f"n={len(out.solves)}")
    return out


_HARNESS_CELL = tuple("dcsparse.harness." + f for f in (
    "sample_sparse_channel", "gaussian_matrix", "measure", "default_rho",
    "normalized_sq_error", "dc_gpsr", "gpsr_baseline", "omp")) + tuple(
    "dcsparse.solvers." + f for f in (
        "solve_bcqp_gp", "top_k1_subgradient", "objective_exact", "objective_l1",
        "normalized_sq_error"))

@dataclass(frozen=True)
class Workload:
    run: object         # Plan -> Outcome
    cell_s: float       # seconds per cell at reference speed and the default size
    text_kernel: bool   # whether the reference kernel includes the text part
    spans: tuple        # spans a traced run must see


WORKLOADS = {
    "noiseless": Workload(run_noiseless, 0.9, False,
                          ("dcsparse.harness.run_noiseless_study",) + _HARNESS_CELL),
    "snr_sweep": Workload(run_snr_sweep, 0.6, False,
                          ("dcsparse.harness.run_snr_sweep", "dcsparse.harness.add_noise",
                           "dcsparse.harness.ista") + _HARNESS_CELL),
    "cli_roundtrip": Workload(run_cli_roundtrip, 0.135, True, tuple("dcsparse.cli." + f for f in (
        "cli_main", "sample_sparse_channel", "gaussian_matrix", "measure", "save_channel",
        "save_matrix", "save_vector_csv", "save_result", "save_trace_csv", "load_matrix",
        "load_vector_csv", "default_rho", "objective_exact", "objective_l1",
        "normalized_sq_error")) + ("dcsparse.harness.omp",)),
}


def warm(name, workdir):
    """First-call set-up: one tiny cell through the workload's entry point."""
    WORKLOADS[name].run(Plan(seed=0, cells=1, size="tiny", workdir=Path(workdir)))
