"""Experiment orchestration: configs, seeded benchmark runs, persisted results.

A benchmark cell is one (sample index, SNR point) pair.  Every cell gets
its own 64-bit seed derived from the base seed, the sample index, and the
SNR value (in millibels, so inserting grid points never reshuffles the
seeds of existing ones); channel, matrix, and noise draws use sub-seeds
of the cell seed.  Reruns with the same config are bit-identical except
for wall-clock columns.
"""

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from .channel import sample_sparse_channel
from .fileio import SUMMARY_COLUMNS, save_records, save_trace_csv, save_vector_csv, write_table
from .metrics import normalized_sq_error
from .seeding import derive_seed
from .sensing import add_noise, gaussian_matrix, measure, snr_to_sigma
from .solvers import (SolverOptions, SparseProblem, dc_gpsr, default_rho,
                      gpsr_baseline, ista, omp)

_NOISELESS_KEY = -1


def _snr_key(snr_db: float) -> int:
    """The SNR in whole millibels, as cell seeds take it.

    Raises ConfigError for an SNR that has no key of its own: one whose
    millibel value overflows (1e306 dB) and one whose key is the noiseless
    study's (-0.001 dB), which would draw that study's cells.
    """
    millibels = snr_db * 1000
    if not math.isfinite(millibels):
        raise ConfigError(f"SNR {snr_db:g} dB has no finite millibel seed key")
    key = int(round(millibels))
    if key == _NOISELESS_KEY:
        raise ConfigError(f"SNR {snr_db:g} dB would take the noiseless study's seed key "
                          f"({key} millibels)")
    return key


class ConfigError(ValueError):
    """Invalid or unknown experiment configuration entry."""


def _solve_omp(problem, opts, ground_truth, inner_trace):
    return omp(problem.y, problem.phi, problem.k)


# Solver name -> solve(problem, opts, ground_truth, inner_trace).  inner_trace
# selects per-inner-iteration trace points for gpsr and ista; dc_gpsr traces
# once per outer step and omp not at all, so they ignore it.
# The entries call through this module's globals, which bench/tracing.py wraps.
SOLVER_REGISTRY = {
    "dc_gpsr": lambda p, opts, truth, inner_trace: dc_gpsr(
        p, opts=opts, ground_truth=truth),
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
        if not isinstance(self.rho_rule, str) and not 0 < self.rho_rule < math.inf:
            raise ConfigError(f"rho_rule must be finite and > 0, got {self.rho_rule}")
        self.snr_grid_db = tuple(float(s) for s in self.snr_grid_db)
        seen = {}  # millibel key -> grid point
        for snr_db in self.snr_grid_db:
            if not math.isfinite(snr_db):
                raise ConfigError(f"snr_grid points must be finite, got {snr_db}")
            key = _snr_key(snr_db)
            if key in seen:
                raise ConfigError(f"duplicate point {snr_db:g} in snr_grid: its cells would "
                                  f"take the seeds of {seen[key]:g} ({key} millibels)")
            seen[key] = snr_db
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
        if "omp" in self.solvers and self.k_real > self.m_measurements:
            raise ConfigError(f"k={self.k_real} exceeds m={self.m_measurements}: omp selects "
                              "at most m columns")


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


# Config key -> (ExperimentConfig field, value parser), in the order errors list them.
_CONFIG_KEYS = {
    "n_antennas": ("n_antennas", int),
    "sparsity": ("sparsity", int),
    "m": ("m_measurements", int),
    "k": ("k_real", int),
    "rho": ("rho_rule", lambda v: "auto" if v == "auto" else float(v)),
    "snr_grid": ("snr_grid_db", lambda v: tuple(float(s) for s in v.split(",")) if v else ()),
    "samples": ("num_samples", int),
    "seed": ("base_seed", int),
    "solvers": ("solvers", lambda v: tuple(s.strip() for s in v.split(",") if s.strip())),
}


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
        for key, (name, parse) in _CONFIG_KEYS.items():
            if key in values:
                kwargs[name] = parse(values[key])
    except ValueError as exc:
        raise ConfigError(f"could not parse config value: {exc}") from exc
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def cell_seed(base_seed: int, sample_index: int, snr_db: float | None) -> int:
    """Seed of one benchmark cell; SNR enters in millibels so grid edits are local.

    An SNR without a millibel key of its own raises ConfigError, a ValueError.
    """
    key = _NOISELESS_KEY if snr_db is None else _snr_key(snr_db)
    return derive_seed(base_seed, sample_index, key)


def run_cell(cfg: ExperimentConfig, sample_index: int, snr_db: float | None, *,
             inner_trace: bool = True):
    """Run all configured solvers on one cell.

    Returns (records, results_by_solver, x_true).  The solvers run one
    after another in the config's order, each on its own, and each record's
    wall time is that solver's solve.  inner_trace=False keeps only the
    start and end trace points of gpsr and ista; records and x_hat are the
    same either way.
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

    records = []
    results = {}
    for name in cfg.solvers:
        start = time.perf_counter()
        result = results[name] = SOLVER_REGISTRY[name](problem, cfg.solver_options,
                                                       sample.x_real, inner_trace=inner_trace)
        wall = time.perf_counter() - start
        records.append(ResultRecord(
            solver_name=name,
            sample_index=sample_index,
            seed=seed,
            snr_db=snr_db,
            nse=normalized_sq_error(sample.x_real, result.x_hat),
            outer_iters=result.outer_iters,
            inner_iters_total=result.inner_iters_total,
            converged=result.converged,
            wall_time_seconds=wall,
        ))
    return records, results, sample.x_real


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
        save_records(out_dir / "records.csv", records, fmt)
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
        save_records(out_dir / "records.csv", records, fmt)
        write_table(out_dir / "summary.csv", SUMMARY_COLUMNS, summary, fmt)
    return records, summary
