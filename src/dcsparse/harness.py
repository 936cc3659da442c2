"""Experiment orchestration: configs, seeded benchmark runs, persisted results.

A benchmark cell is one (sample index, SNR point) pair.  Every cell gets
its own 64-bit seed derived from the base seed, the sample index, and the
SNR value (in millibels, so inserting grid points never reshuffles the
seeds of existing ones); channel, matrix, and noise draws use sub-seeds
of the cell seed.  Reruns with the same config are bit-identical except
for wall-clock columns.
"""

import time
from dataclasses import dataclass, field
from pathlib import Path

from .channel import sample_sparse_channel
from .fileio import (save_records_csv, save_records_json, save_summary_csv,
                     save_summary_json, save_trace_csv, save_vector_csv)
from .metrics import normalized_sq_error
from .seeding import derive_seed
from .sensing import add_noise, gaussian_matrix, measure, snr_to_sigma
from .solvers import (SolverOptions, SparseProblem, dc_gpsr, default_rho,
                      gpsr_baseline, ista, omp)

_NOISELESS_KEY = -1


class ConfigError(ValueError):
    """Invalid or unknown experiment configuration entry."""


def _solve_omp(problem, opts, ground_truth, inner_trace):
    return omp(problem.y, problem.phi, problem.k)


# Solver name -> solve(problem, opts, ground_truth, inner_trace).  inner_trace
# selects per-inner-iteration trace points for gpsr and ista; dc_gpsr traces
# once per outer step and omp not at all, so they ignore it.
# dc_gpsr also takes l1_start, the gpsr result on the same problem (see run_cell).
# The entries call through this module's globals, which bench/tracing.py wraps.
SOLVER_REGISTRY = {
    "dc_gpsr": lambda p, opts, truth, inner_trace, l1_start=None: dc_gpsr(
        p, opts=opts, ground_truth=truth, l1_start=l1_start),
    "gpsr": lambda p, opts, truth, inner_trace: gpsr_baseline(
        p, opts=opts, ground_truth=truth, inner_trace=inner_trace),
    "ista": lambda p, opts, truth, inner_trace: ista(
        p, opts=opts, ground_truth=truth, inner_trace=inner_trace),
    "omp": _solve_omp,
}


@dataclass
class ExperimentConfig:
    """Declarative description of one benchmark study."""

    n_antennas: int = 256
    sparsity: int = 16
    m_measurements: int = 128
    k_real: int | None = None  # defaults to 2 * sparsity
    rho_rule: float | str = "auto"
    snr_grid_db: tuple = ()
    num_samples: int = 100
    base_seed: int = 42
    solvers: tuple = ("dc_gpsr",)
    solver_options: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if self.k_real is None:
            self.k_real = 2 * self.sparsity
        if self.n_antennas < 1:
            raise ConfigError(f"n_antennas must be >= 1, got {self.n_antennas}")
        if not 1 <= self.sparsity <= self.n_antennas:
            raise ConfigError(
                f"sparsity must lie in [1, n_antennas={self.n_antennas}], got {self.sparsity}"
            )
        if not 1 <= self.m_measurements < 2 * self.n_antennas:
            raise ConfigError(
                f"m_measurements must lie in [1, 2*n_antennas), got {self.m_measurements}"
            )
        if not 1 <= self.k_real <= 2 * self.n_antennas:
            raise ConfigError(f"k_real must lie in [1, 2*n_antennas], got {self.k_real}")
        if self.num_samples < 1:
            raise ConfigError(f"num_samples must be >= 1, got {self.num_samples}")
        if isinstance(self.rho_rule, str) and self.rho_rule != "auto":
            raise ConfigError(f"rho_rule must be 'auto' or a positive number, got {self.rho_rule!r}")
        if not isinstance(self.rho_rule, str) and not self.rho_rule > 0:
            raise ConfigError(f"rho_rule must be > 0, got {self.rho_rule}")
        self.snr_grid_db = tuple(float(s) for s in self.snr_grid_db)
        self.solvers = tuple(self.solvers)
        for i, name in enumerate(self.solvers):
            if name not in SOLVER_REGISTRY:
                raise ConfigError(
                    f"unknown solver {name!r}; choose from {sorted(SOLVER_REGISTRY)}"
                )
            if name in self.solvers[:i]:
                raise ConfigError(f"duplicate solver {name!r} in solvers")
        if not self.solvers:
            raise ConfigError("solvers must name at least one solver")


@dataclass
class ResultRecord:
    """One solver run on one benchmark cell."""

    solver_name: str
    sample_index: int
    seed: int
    snr_db: float | None
    nse: float
    outer_iters: int
    inner_iters_total: int
    converged: bool
    wall_time_seconds: float


_CONFIG_KEYS = ("n_antennas", "sparsity", "m", "k", "rho", "snr_grid",
                "samples", "seed", "solvers")


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat key=value lines; blank lines and # comments allowed.

    Unknown keys are rejected so config typos cannot silently fall back
    to defaults.
    """
    values = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}; valid keys: {', '.join(_CONFIG_KEYS)}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value

    kwargs = {}
    try:
        if "n_antennas" in values:
            kwargs["n_antennas"] = int(values["n_antennas"])
        if "sparsity" in values:
            kwargs["sparsity"] = int(values["sparsity"])
        if "m" in values:
            kwargs["m_measurements"] = int(values["m"])
        if "k" in values:
            kwargs["k_real"] = int(values["k"])
        if "rho" in values:
            kwargs["rho_rule"] = "auto" if values["rho"] == "auto" else float(values["rho"])
        if "snr_grid" in values:
            raw_grid = values["snr_grid"]
            kwargs["snr_grid_db"] = tuple(float(s) for s in raw_grid.split(",")) if raw_grid else ()
        if "samples" in values:
            kwargs["num_samples"] = int(values["samples"])
        if "seed" in values:
            kwargs["base_seed"] = int(values["seed"])
        if "solvers" in values:
            kwargs["solvers"] = tuple(s.strip() for s in values["solvers"].split(",") if s.strip())
    except ValueError as exc:
        raise ConfigError(f"could not parse config value: {exc}") from exc
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text())


def cell_seed(base_seed: int, sample_index: int, snr_db: float | None) -> int:
    """Seed of one benchmark cell; SNR enters in millibels so grid edits are local."""
    key = _NOISELESS_KEY if snr_db is None else int(round(snr_db * 1000))
    return derive_seed(base_seed, sample_index, key)


def run_cell(cfg: ExperimentConfig, sample_index: int, snr_db: float | None, *,
             inner_trace: bool = True):
    """Run all configured solvers on one cell.

    Returns (records, results_by_solver, x_true) with results in the
    config's solver order.  inner_trace=False keeps only the start and end
    trace points of gpsr and ista; records and x_hat are the same either way.

    gpsr's l1 solve is dc_gpsr's first DC step, so when both are configured
    gpsr runs first and dc_gpsr resumes from its result.  dc_gpsr's wall
    time then includes gpsr's, so it still stands for a standalone solve.
    """
    seed = cell_seed(cfg.base_seed, sample_index, snr_db)
    sample = sample_sparse_channel(cfg.n_antennas, cfg.sparsity, derive_seed(seed, 0))
    phi = gaussian_matrix(cfg.m_measurements, 2 * cfg.n_antennas, derive_seed(seed, 1))
    y = measure(phi, sample.x_real)
    sigma = 0.0
    if snr_db is not None:
        sigma = snr_to_sigma(sample.x_real, cfg.m_measurements, snr_db)
        y = add_noise(y, sigma, derive_seed(seed, 2))
    rho = default_rho(phi, y, sigma) if cfg.rho_rule == "auto" else float(cfg.rho_rule)
    problem = SparseProblem(y=y, phi=phi, k=cfg.k_real, rho=rho)

    share = "gpsr" in cfg.solvers and "dc_gpsr" in cfg.solvers
    order = sorted(cfg.solvers, key=lambda name: name != "gpsr") if share else cfg.solvers
    results = {}
    walls = {}
    for name in order:
        extra = {"l1_start": results["gpsr"]} if share and name == "dc_gpsr" else {}
        start = time.perf_counter()
        results[name] = SOLVER_REGISTRY[name](problem, cfg.solver_options, sample.x_real,
                                              inner_trace=inner_trace, **extra)
        walls[name] = time.perf_counter() - start
    if share:
        walls["dc_gpsr"] += walls["gpsr"]
    records = [ResultRecord(
        solver_name=name,
        sample_index=sample_index,
        seed=seed,
        snr_db=snr_db,
        nse=normalized_sq_error(sample.x_real, results[name].x_hat),
        outer_iters=results[name].outer_iters,
        inner_iters_total=results[name].inner_iters_total,
        converged=results[name].converged,
        wall_time_seconds=walls[name],
    ) for name in cfg.solvers]
    return records, {name: results[name] for name in cfg.solvers}, sample.x_real


def _sort_records(records):
    return sorted(records, key=lambda r: (r.solver_name, r.snr_db if r.snr_db is not None else -1e9,
                                          r.sample_index))


def run_noiseless_study(cfg: ExperimentConfig, out_dir=None, fmt: str = "csv"):
    """Noiseless convergence study.

    Runs every configured solver on num_samples fresh instances and, when
    out_dir is given, writes records plus per-run iteration traces and the
    x_true / x_hat vectors needed to replot objective curves, error
    curves, and reconstruction overlays.

    Returns (records, traces) with traces keyed by (solver, sample_index).
    With out_dir, gpsr and ista trace every inner iteration, as written.
    Without it nothing is written, so they keep only their start and end
    points (run_cell's inner_trace=False), as in the sweep; dc_gpsr traces
    each outer step and omp records none either way.
    The records are the same with and without out_dir.
    """
    if cfg.snr_grid_db:
        raise ConfigError("noiseless study requires an empty snr_grid")
    records = []
    traces = {}
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(cfg.num_samples):
        cell_records, results, x_true = run_cell(cfg, i, None,
                                                 inner_trace=out_dir is not None)
        records.extend(cell_records)
        for name, result in results.items():
            traces[(name, i)] = result.trace
        if out_dir is not None:
            save_vector_csv(out_dir / f"x_true_s{i}.csv", "x_true", x_true)
            for name, result in results.items():
                save_vector_csv(out_dir / f"x_hat_{name}_s{i}.csv", "x_hat", result.x_hat)
                save_trace_csv(out_dir / f"trace_{name}_s{i}.csv", result.trace)
    records = _sort_records(records)
    if out_dir is not None:
        save_records_csv(out_dir / "records.csv", records)
        if fmt == "json":
            save_records_json(out_dir / "records.json", records)
    return records, traces


def run_snr_sweep(cfg: ExperimentConfig, out_dir=None, fmt: str = "csv"):
    """Noisy benchmark over the configured SNR grid.

    Returns (records, summary) where summary rows are
    (solver, snr_db, nmse-over-samples); the NMSE is the mean of the
    per-sample normalized squared errors.  The sweep returns no traces, so
    gpsr and ista record only their start and end trace points
    (run_cell's inner_trace=False); the records are the same as with
    per-iteration traces.
    """
    if not cfg.snr_grid_db:
        raise ConfigError("snr sweep requires a nonempty snr_grid")
    records = []
    for snr_db in cfg.snr_grid_db:
        for i in range(cfg.num_samples):
            cell_records, _, _ = run_cell(cfg, i, snr_db, inner_trace=False)
            records.extend(cell_records)
    records = _sort_records(records)
    summary = []
    for name in sorted(cfg.solvers):
        for snr_db in cfg.snr_grid_db:
            cell = [r.nse for r in records if r.solver_name == name and r.snr_db == snr_db]
            summary.append((name, snr_db, sum(cell) / len(cell)))
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_records_csv(out_dir / "records.csv", records)
        save_summary_csv(out_dir / "summary.csv", summary)
        if fmt == "json":
            save_records_json(out_dir / "records.json", records)
            save_summary_json(out_dir / "summary.json", summary)
    return records, summary
