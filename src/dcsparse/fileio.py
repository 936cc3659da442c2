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


def _csv_cell(v) -> str:
    """None as empty, a bool as true/false, a float by repr, anything else by str."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    return _fmt(v) if isinstance(v, (float, np.floating)) else str(v)


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


def save_channel(sample: ChannelSample, out_dir) -> None:
    """Writes channel_<field>.csv per field plus channel.json with n, sparsity, seed."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_vector_csv(out_dir / "channel_h_spatial.csv", "h_spatial", sample.h_spatial)
    save_vector_csv(out_dir / "channel_h_angular.csv", "h_angular", sample.h_angular)
    save_vector_csv(out_dir / "channel_x_real.csv", "x_real", sample.x_real)
    meta = {"n": int(sample.h_angular.size), "sparsity": int(sample.sparsity),
            "seed": sample.seed}
    (out_dir / "channel.json").write_text(json.dumps(meta, indent=2) + "\n")


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
    return MeasurementMatrix(phi, seed=seed)


TRACE_HEADER = "outer_iter,inner_iter_cumulative,F,l1_objective,normalized_sq_error"


def save_trace_csv(path, trace: SolverTrace) -> None:
    lines = [TRACE_HEADER]
    cumulative = 0
    for i in range(len(trace.outer_objectives)):
        cumulative += trace.inner_counts[i]
        lines.append(
            f"{trace.outer_steps[i]},{cumulative},{_fmt(trace.outer_objectives[i])},"
            f"{_fmt(trace.l1_objectives[i])},{_csv_cell(trace.errors[i])}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


# Records file column -> ResultRecord attribute, in column order.
_RECORD_COLUMNS = (("solver", "solver_name"), ("sample", "sample_index"), ("seed", "seed"),
                   ("snr_db", "snr_db"), ("nse", "nse"), ("outer_iters", "outer_iters"),
                   ("inner_iters", "inner_iters_total"), ("converged", "converged"),
                   ("wall_s", "wall_time_seconds"))
RECORDS_HEADER = ",".join(column for column, _ in _RECORD_COLUMNS)


def save_records_csv(path, records) -> None:
    rows = [",".join(_csv_cell(getattr(r, attr)) for _, attr in _RECORD_COLUMNS) for r in records]
    Path(path).write_text("\n".join([RECORDS_HEADER] + rows) + "\n")


def save_records_json(path, records) -> None:
    payload = [{column: getattr(r, attr) for column, attr in _RECORD_COLUMNS}
               for r in records]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


# Summary file columns, in the order of a (solver, snr_db, nmse) summary row.
SUMMARY_HEADER = "solver,snr_db,nmse"
_SUMMARY_COLUMNS = tuple(SUMMARY_HEADER.split(","))


def save_summary_csv(path, rows) -> None:
    lines = [",".join(_csv_cell(v) for v in row) for row in rows]
    Path(path).write_text("\n".join([SUMMARY_HEADER] + lines) + "\n")


def save_summary_json(path, rows) -> None:
    payload = [dict(zip(_SUMMARY_COLUMNS, row)) for row in rows]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def save_result(out_dir, stem: str, x_hat: np.ndarray, metrics: dict) -> None:
    """x_hat as a one-column CSV plus `metrics` as a JSON summary."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_vector_csv(out_dir / f"{stem}_x_hat.csv", "x_hat", x_hat)
    (out_dir / f"{stem}.json").write_text(json.dumps(metrics, indent=2) + "\n")
