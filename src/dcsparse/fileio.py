"""CSV and JSON persistence for channels, matrices, traces, and benchmark records.

All floats are written with repr (shortest round-trip form) so that
re-reading a file reproduces the exact binary values and reruns diff
cleanly.
"""

import json
from pathlib import Path

import numpy as np

from .channel import ChannelSample
from .sensing import MeasurementMatrix
from .solvers import SolverTrace


def _fmt(v) -> str:
    return repr(float(v))


def save_vector_csv(path, name: str, values: np.ndarray) -> None:
    """One value per line; complex vectors as two columns re,im; header names the field."""
    values = np.asarray(values)
    lines = []
    if np.iscomplexobj(values):
        lines.append(f"{name}_re,{name}_im")
        for v in values:
            lines.append(f"{_fmt(v.real)},{_fmt(v.imag)}")
    else:
        lines.append(name)
        for v in values:
            lines.append(_fmt(v))
    Path(path).write_text("\n".join(lines) + "\n")


def load_vector_csv(path):
    """Returns (field_name, vector); two data columns are read back as complex.

    Raises ValueError, naming the line, unless every data row has one
    column or every row has two.
    """
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0]
    rows = [line.split(",") for line in lines[1:]]
    width = len(rows[0]) if rows else 1
    for lineno, row in enumerate(rows, start=2):
        if len(row) != width or width > 2:
            raise ValueError(f"{path} line {lineno}: {len(row)} columns; a vector CSV "
                             "has one column (real) or two (re,im) in every row")
    if width == 2:
        name = header.split(",")[0].removesuffix("_re")
        return name, np.array([float(a) + 1j * float(b) for a, b in rows])
    name = header
    return name, np.array([float(r[0]) for r in rows])


def save_channel(sample: ChannelSample, out_dir, stem: str = "channel") -> None:
    """Writes one vector CSV per field plus a JSON record of n, sparsity, seed."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_vector_csv(out_dir / f"{stem}_h_spatial.csv", "h_spatial", sample.h_spatial)
    save_vector_csv(out_dir / f"{stem}_h_angular.csv", "h_angular", sample.h_angular)
    save_vector_csv(out_dir / f"{stem}_x_real.csv", "x_real", sample.x_real)
    meta = {"n": int(sample.h_angular.size), "sparsity": int(sample.sparsity),
            "seed": sample.seed}
    (out_dir / f"{stem}.json").write_text(json.dumps(meta, indent=2) + "\n")


def save_matrix(path, matrix: MeasurementMatrix) -> None:
    """Row-major CSV, one row per line, no header; JSON sidecar with m, n, seed."""
    path = Path(path)
    lines = [",".join(_fmt(v) for v in row) for row in matrix.phi]
    path.write_text("\n".join(lines) + "\n")
    sidecar = {"m": matrix.m, "n": matrix.n, "seed": matrix.seed}
    path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_matrix(path) -> MeasurementMatrix:
    path = Path(path)
    rows = [[float(v) for v in line.split(",")]
            for line in path.read_text().strip().split("\n")]
    phi = np.array(rows)
    sidecar_path = path.with_suffix(".json")
    seed = None
    if sidecar_path.exists():
        seed = json.loads(sidecar_path.read_text()).get("seed")
    return MeasurementMatrix(phi=phi, m=phi.shape[0], n=phi.shape[1], seed=seed)


TRACE_HEADER = "outer_iter,inner_iter_cumulative,F,l1_objective,normalized_sq_error"


def save_trace_csv(path, trace: SolverTrace) -> None:
    lines = [TRACE_HEADER]
    cumulative = 0
    for i in range(len(trace.outer_objectives)):
        cumulative += trace.inner_counts[i]
        err = "" if trace.errors[i] is None else _fmt(trace.errors[i])
        lines.append(
            f"{trace.outer_steps[i]},{cumulative},{_fmt(trace.outer_objectives[i])},"
            f"{_fmt(trace.l1_objectives[i])},{err}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


RECORDS_HEADER = "solver,sample,seed,snr_db,nse,outer_iters,inner_iters,converged,wall_s"


def _record_row(rec) -> str:
    snr = "" if rec.snr_db is None else _fmt(rec.snr_db)
    return (f"{rec.solver_name},{rec.sample_index},{rec.seed},{snr},{_fmt(rec.nse)},"
            f"{rec.outer_iters},{rec.inner_iters_total},{str(rec.converged).lower()},"
            f"{_fmt(rec.wall_time_seconds)}")


def save_records_csv(path, records) -> None:
    lines = [RECORDS_HEADER] + [_record_row(r) for r in records]
    Path(path).write_text("\n".join(lines) + "\n")


def save_records_json(path, records) -> None:
    payload = [
        {"solver": r.solver_name, "sample": r.sample_index, "seed": r.seed,
         "snr_db": r.snr_db, "nse": r.nse, "outer_iters": r.outer_iters,
         "inner_iters": r.inner_iters_total, "converged": r.converged,
         "wall_s": r.wall_time_seconds}
        for r in records
    ]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


SUMMARY_HEADER = "solver,snr_db,nmse"


def save_summary_csv(path, rows) -> None:
    lines = [SUMMARY_HEADER]
    for solver, snr_db, value in rows:
        snr = "" if snr_db is None else _fmt(snr_db)
        lines.append(f"{solver},{snr},{_fmt(value)}")
    Path(path).write_text("\n".join(lines) + "\n")


def save_summary_json(path, rows) -> None:
    payload = [{"solver": s, "snr_db": snr, "nmse": v} for s, snr, v in rows]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def save_result(out_dir, stem: str, x_hat: np.ndarray, metrics: dict) -> None:
    """x_hat as a one-column CSV plus `metrics` as a JSON summary."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_vector_csv(out_dir / f"{stem}_x_hat.csv", "x_hat", x_hat)
    (out_dir / f"{stem}.json").write_text(json.dumps(metrics, indent=2) + "\n")
