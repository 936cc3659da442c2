"""CSV and JSON persistence for channels, matrices, traces, and benchmark records.

All floats are written with repr (shortest round-trip form) so that
re-reading a file reproduces the exact binary values and reruns diff
cleanly.

Every file with a header row goes through one writer, `write_table`.
`save_matrix` keeps its own join: its ~65k cells are all floats, so it
reprs each row's `tolist()` with no per-cell type test, which is the cost
of repr itself (a `repr(float(v))` call per cell took about a sixth longer).

Both readers read a file in blocks of whole lines, about _BLOCK_CHARS of
text each (`_line_blocks`), and hand each block to `_parse_rows`: one
`np.loadtxt` call per block, which converts each cell as float() does,
and float() per cell where that call fails or would skip a blank line,
so they accept, reject and report exactly what float() does.  The
parsed blocks go into one 64-byte-aligned array, so a reader holds about
twice the values' bytes and one block of text, never the whole file.
Each reader reads its file once: `load_vector_csv` takes its header from
the first block and hands the rest to `load_matrix`'s path, so both report
the first bad cell or ragged row in file order.  A re,im file comes back as
a complex view of that array: every part, inf and -0.0 included, as written.
"""

import json
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from .channel import ChannelSample
from .sensing import MeasurementMatrix, aligned_empty
from .solvers import SolverTrace


def _csv_cell(v) -> str:
    """None as empty, a bool as true/false, a float by repr, anything else by str."""
    if isinstance(v, (float, np.floating)):  # first: nearly every cell is one
        return repr(float(v))
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    return "" if v is None else str(v)


def write_table(path, columns, rows, fmt: str = "csv") -> None:
    """A header line of `columns`, then one line of cells per row.

    fmt="json" also writes the rows as objects to the .json beside path.
    """
    rows = list(rows)
    lines = [",".join(columns)] + [",".join(map(_csv_cell, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")
    if fmt == "json":
        payload = [dict(zip(columns, row)) for row in rows]
        Path(path).with_suffix(".json").write_text(json.dumps(payload, indent=2) + "\n")


# Characters of text the readers take from a file at a time.
_BLOCK_CHARS = 1 << 16


def _line_blocks(path):
    """(line number of lines[0], lines) for runs of whole lines of path's text, in order.

    Together the runs are the lines of the whole text with its leading and
    trailing whitespace stripped, so there is at least one line and blank
    lines inside the text stay, but each line keeps its number in the
    file: leading blank lines count.  A run holds about _BLOCK_CHARS of text.
    """
    lineno = 1
    with open(path) as f:
        text = ""
        while not text and (chunk := f.read(_BLOCK_CHARS)):
            text = chunk.lstrip()
            lineno += chunk.count("\n", 0, len(chunk) - len(text))
        while chunk := f.read(_BLOCK_CHARS):
            text += chunk
            # Whitespace after the last other character may end the file; keep it back.
            cut = text.rfind("\n", 0, len(text.rstrip()))
            if cut >= 0:
                lines = text[:cut].split("\n")
                yield lineno, lines
                lineno += len(lines)
                text = text[cut + 1:]
    yield lineno, text.rstrip().split("\n")


def _parse_rows(path, lines, lineno: int, first: tuple) -> np.ndarray:
    """The comma-separated cells of `lines` as a 2-D float array, each read as float() reads it.

    `lines[0]` is line `lineno`, and `first` is (line number, column
    count) of the file's first data row.  Raises ValueError, naming path
    and the line, at the first cell float() rejects or the first row
    whose column count differs from that row's.
    """
    first_lineno, width = first
    # loadtxt converts a cell as float() does, but skips an empty line, which
    # float() rejects, so a block with one goes to float() alone.
    if "" not in lines:
        try:
            values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            if values.shape == (len(lines), width):
                return values
        except ValueError:
            pass
    rows = []
    for lineno, line in enumerate(lines, start=lineno):
        try:
            rows.append([float(v) for v in line.split(",")])
            if len(rows[-1]) != width:
                raise ValueError(f"{len(rows[-1])} columns, line {first_lineno} has {width}")
        except ValueError as exc:
            raise ValueError(f"{path} line {lineno}: {exc}") from None
    return np.array(rows)


def _read_rows(path, blocks) -> np.ndarray:
    """The rows of (lineno, lines) `blocks` as one 2-D array on a 64-byte boundary.

    Blocks with no lines are skipped; none at all give shape (0, 1).
    """
    first, parsed = None, []
    for lineno, lines in blocks:
        if lines:
            first = first or (lineno, lines[0].count(",") + 1)
            parsed.append(_parse_rows(path, lines, lineno, first))
    out = aligned_empty((sum(map(len, parsed)), first[1] if first else 1))
    return np.concatenate(parsed, out=out) if parsed else out


def save_vector_csv(path, name: str, values: np.ndarray) -> None:
    """One value per line; complex vectors as two columns re,im; header names the field."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        write_table(path, (f"{name}_re", f"{name}_im"),
                    zip(values.real.tolist(), values.imag.tolist()))
    else:  # as float, so that integer input still writes 1.0
        write_table(path, (name,), zip(values.astype(float).tolist()))


def load_vector_csv(path):
    """Returns (field_name, vector); two data columns are read back as complex.

    Raises ValueError, naming the line, at the first cell that is not a
    number or row whose column count differs from the first data row's,
    in file order, and once all rows are read, if that row has over two.
    """
    blocks = _line_blocks(path)
    lineno, (header, *lines) = next(blocks)
    values = _read_rows(path, chain([(lineno + 1, lines)], blocks))
    if values.shape[1] > 2:
        raise ValueError(f"{path} line {lineno + 1}: {values.shape[1]} columns; a vector CSV "
                         "has one column (real) or two (re,im) in every row")
    if values.shape[1] == 2:
        return header.split(",")[0].removesuffix("_re"), values.view(complex).ravel()
    return header, values.ravel()


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
    """Row-major CSV, one row per line, no header; a JSON sidecar of m, n, seed, never read."""
    path = Path(path)
    with path.open("w") as f:  # one row's text at a time
        f.writelines(",".join(map(repr, row.tolist())) + "\n" for row in matrix.phi)
    sidecar = {"m": matrix.m, "n": matrix.n, "seed": matrix.seed}
    path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_matrix(path) -> MeasurementMatrix:
    """Reads path alone, seed None; raises ValueError naming a bad cell's or ragged row's line."""
    return MeasurementMatrix(_read_rows(path, _line_blocks(path)))


TRACE_COLUMNS = ("outer_iter", "inner_iter_cumulative", "F", "l1_objective", "normalized_sq_error")


def save_trace_csv(path, trace: SolverTrace) -> None:
    write_table(path, TRACE_COLUMNS, zip(trace.outer_steps, accumulate(trace.inner_counts),
                                         trace.outer_objectives, trace.l1_objectives,
                                         trace.errors))


# Records file column -> ResultRecord attribute, in column order.
_RECORD_COLUMNS = (("solver", "solver_name"), ("sample", "sample_index"), ("seed", "seed"),
                   ("snr_db", "snr_db"), ("nse", "nse"), ("outer_iters", "outer_iters"),
                   ("inner_iters", "inner_iters_total"), ("converged", "converged"),
                   ("wall_s", "wall_time_seconds"))
# Summary file columns, in the order of a (solver, snr_db, nmse) summary row.
SUMMARY_COLUMNS = ("solver", "snr_db", "nmse")


def save_records(path, records, fmt: str = "csv") -> None:
    write_table(path, [column for column, _ in _RECORD_COLUMNS],
                ([getattr(r, attr) for _, attr in _RECORD_COLUMNS] for r in records), fmt)


def save_result(out_dir, stem: str, x_hat: np.ndarray, metrics: dict) -> None:
    """x_hat as a one-column CSV plus `metrics` as a JSON summary."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_vector_csv(out_dir / f"{stem}_x_hat.csv", "x_hat", x_hat)
    (out_dir / f"{stem}.json").write_text(json.dumps(metrics, indent=2) + "\n")
