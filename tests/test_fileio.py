import json
import warnings

import numpy as np
import pytest

import dcsparse.fileio
from dcsparse.channel import sample_sparse_channel
from dcsparse.fileio import (SUMMARY_COLUMNS, load_matrix, load_vector_csv, save_channel,
                             save_matrix, save_records, save_result, save_trace_csv,
                             save_vector_csv, write_table)
from dcsparse.harness import ResultRecord
from dcsparse.seeding import make_rng
from dcsparse.sensing import MeasurementMatrix, gaussian_matrix
from dcsparse.solvers import SolverTrace


def test_real_vector_round_trip_bit_exact(tmp_path):
    v = make_rng(0).standard_normal(17)
    path = tmp_path / "v.csv"
    save_vector_csv(path, "signal", v)
    name, back = load_vector_csv(path)
    assert name == "signal"
    assert np.array_equal(back, v)


def test_complex_vector_round_trip_bit_exact(tmp_path):
    rng = make_rng(1)
    path = tmp_path / "c.csv"
    # The second vector's parts are ones that a per-row a + 1j * b would change.
    for v in (rng.standard_normal(9) + 1j * rng.standard_normal(9),
              np.array([complex(1, np.inf), complex(2, -0.0), complex(-0.0, 3.0),
                        complex(-0.0, -0.0)])):
        save_vector_csv(path, "h", v)
        name, back = load_vector_csv(path)
        assert name == "h"
        assert back.dtype == v.dtype and back.tobytes() == v.tobytes()
    header = path.read_text().split("\n")[0]
    assert header == "h_re,h_im"


def test_integer_vector_writes_floats(tmp_path):
    path = tmp_path / "v.csv"
    save_vector_csv(path, "v", np.array([1, -2]))
    assert path.read_text() == "v\n1.0\n-2.0\n"


def test_channel_round_trip(tmp_path):
    s = sample_sparse_channel(32, 4, 77)
    save_channel(s, tmp_path)
    for field in ("h_spatial", "h_angular", "x_real"):
        name, back = load_vector_csv(tmp_path / f"channel_{field}.csv")
        assert name == field
        assert np.array_equal(back, getattr(s, field))
    meta = json.loads((tmp_path / "channel.json").read_text())
    assert meta == {"n": 32, "sparsity": 4, "seed": 77}


def test_save_channel_has_no_stem(tmp_path):
    with pytest.raises(TypeError):
        save_channel(sample_sparse_channel(8, 2, 1), tmp_path, stem="other")


def test_matrix_round_trip_with_sidecar(tmp_path):
    m = gaussian_matrix(5, 7, 13)
    path = tmp_path / "phi.csv"
    save_matrix(path, m)
    back = load_matrix(path)
    assert np.array_equal(back.phi, m.phi)
    assert (back.m, back.n, back.seed) == (5, 7, None)
    assert json.loads((tmp_path / "phi.json").read_text()) == {"m": 5, "n": 7, "seed": 13}
    assert not path.read_text().split("\n")[0][0].isalpha()  # no header line


# Sidecar texts valid and malformed alike; None: no phi.json at all.
@pytest.mark.parametrize("sidecar", [
    '{"seed": null}', "{}", '{"m": 2, "seed": 9}', "[1, 2]", "3", '"seed"', '{"seed": 1.5}',
    '{"seed": "7"}', '{"seed": true}', '{"seed": [7]}', '{"seed": 1', None])
def test_load_matrix_never_reads_the_sidecar(tmp_path, sidecar):
    path, matrix = tmp_path / "phi.csv", gaussian_matrix(2, 3, 1)
    save_matrix(path, matrix)
    (tmp_path / "phi.json").unlink()
    if sidecar is not None:
        (tmp_path / "phi.json").write_text(sidecar)
    back = load_matrix(path)
    assert back.phi.tobytes() == matrix.phi.tobytes() and back.seed is None


def test_trace_csv_layout(tmp_path):
    trace = SolverTrace(outer_objectives=[3.0, 1.0], l1_objectives=[3.5, 1.2],
                        errors=[None, 0.25], inner_counts=[0, 7], outer_steps=[0, 1])
    path = tmp_path / "trace.csv"
    save_trace_csv(path, trace)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "outer_iter,inner_iter_cumulative,F,l1_objective,normalized_sq_error"
    assert lines[1] == "0,0,3.0,3.5,"
    assert lines[2] == "1,7,1.0,1.2,0.25"


def test_records_csv_layout(tmp_path):
    recs = [ResultRecord(solver_name="dc_gpsr", sample_index=0, seed=42, snr_db=None,
                         nse=0.5, outer_iters=3, inner_iters_total=10, converged=True,
                         wall_time_seconds=0.125),
            ResultRecord(solver_name="ista", sample_index=1, seed=7, snr_db=25.0,
                         nse=0.25, outer_iters=1, inner_iters_total=4000, converged=False,
                         wall_time_seconds=0.5)]
    path = tmp_path / "records.csv"
    save_records(path, recs, "json")
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "solver,sample,seed,snr_db,nse,outer_iters,inner_iters,converged,wall_s"
    assert lines[0].split(",")[-2:] == ["converged", "wall_s"]
    assert lines[1] == "dc_gpsr,0,42,,0.5,3,10,true,0.125"
    assert lines[2] == "ista,1,7,25.0,0.25,1,4000,false,0.5"
    payload = json.loads((tmp_path / "records.json").read_text())
    assert [r["converged"] for r in payload] == [True, False]
    assert list(payload[0])[-2:] == ["converged", "wall_s"]


@pytest.mark.parametrize("text, bad_line", [
    ("y\n1.0,5,7\n2.0,5,7\n", 2),
    ("y_re,y_im\n1.0,2.0\n3.0\n", 3),
    ("y\n1.0\n2.0\n3.0,4.0\n", 4),
], ids=["three_columns", "two_then_one_column", "one_then_two_columns"])
def test_vector_csv_rejects_ragged_or_wide_rows(tmp_path, text, bad_line):
    path = tmp_path / "y.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"line {bad_line}: "):
        load_vector_csv(path)


def test_summary_csv_layout(tmp_path):
    path = tmp_path / "summary.csv"
    write_table(path, SUMMARY_COLUMNS, [("dc_gpsr", 25.0, 1e-5)])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "solver,snr_db,nmse"
    assert lines[1] == "dc_gpsr,25.0,1e-05"


def test_save_result_files(tmp_path):
    x_hat = np.array([0.0, 1.5, 0.0])
    metrics = {"solver": "dc_gpsr", "converged": True, "inner_iters": 2, "nse": 0.01}
    save_result(tmp_path, "run", x_hat, metrics)
    _, x = load_vector_csv(tmp_path / "run_x_hat.csv")
    assert np.array_equal(x, x_hat)
    text = (tmp_path / "run.json").read_text()
    assert list(json.loads(text).items()) == list(metrics.items())


@pytest.mark.parametrize("rows", [
    [[-0.0, 5e-324, 1e16, 1e-5, 0.1], [-1.5e300, 2.0, -3.25, 1e-300, 123456789.0]],
    [[-0.0, np.nan, np.inf, -np.inf], [5e-324, 1e16, 1e-5, 0.1]],
], ids=["finite", "non_finite"])
def test_save_matrix_writes_each_value_by_repr_and_reads_back_bit_exact(tmp_path, rows):
    phi = np.array(rows)
    path = tmp_path / "phi.csv"
    save_matrix(path, MeasurementMatrix(phi, seed=3))
    assert path.read_text() == "".join(",".join(repr(float(v)) for v in row) + "\n" for row in phi)
    back = load_matrix(path).phi
    assert back.shape == phi.shape and back.tobytes() == phi.tobytes()


# What float() makes of each cell, the value or its message after "line N: ".
# np.loadtxt converts a cell as float() does, except that it rejects 1_0
# and the Arabic-Indic digit, which float() then reads, and skips a blank
# line, which float() rejects.
_MATRIX_PARITY = [
    ("underscore", "1_0,2.0\n3.0,4.0\n", [[10.0, 2.0], [3.0, 4.0]]),
    ("hex", "1.0,2.0\n0x10,4.0\n", "line 2: could not convert string to float: '0x10'"),
    ("fortran_exponent", "1.0,2.0\n1d5,4.0\n", "line 2: could not convert string to float: '1d5'"),
    ("empty_cell", "1.0,,2.0\n3.0,4.0,5.0\n", "line 1: could not convert string to float: ''"),
    ("trailing_comma", "1.0,2.0,\n3.0,4.0,\n", "line 1: could not convert string to float: ''"),
    ("space_inside", "1 2,3.0\n", "line 1: could not convert string to float: '1 2'"),
    ("crlf", "1.0,2.0\r\n3.0,4.0\r\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("blank_line", "1.0,2.0\n\n3.0,4.0\n", "line 2: could not convert string to float: ''"),
    ("blank_cell", "1.0, \n3.0,4.0\n", "line 1: could not convert string to float: ' '"),
    ("nan_payload", "1.0,nan(1)\n", "line 1: could not convert string to float: 'nan(1)'"),
    ("negative_nan", "-nan,1.0\n", [[float("-nan"), 1.0]]),
    ("leading_blank_lines", "\n\n1.0,2.0\n3.0,x\n",
     "line 4: could not convert string to float: 'x'"),
    ("nul_byte", "1.0,2.0\x00\n", "line 1: could not convert string to float: '2.0\\x00'"),
    ("arabic_indic_digit", "\u0661,2.0\n", [[1.0, 2.0]]),
    ("hash", "1.0#x,2.0\n", "line 1: could not convert string to float: '1.0#x'"),
    ("padded_cell", "1.0, 2.0 \n3.0,4.0\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("tab", "1.0,\t2.0\n3.0,4.0\n", [[1.0, 2.0], [3.0, 4.0]]),
]
_VECTOR_PARITY = [
    ("underscore", "y\n1_0\n2.0\n", [10.0, 2.0]),
    ("hex", "y\n1.0\n0x10\n", "line 3: could not convert string to float: '0x10'"),
    ("fortran_exponent", "y\n1d5\n", "line 2: could not convert string to float: '1d5'"),
    ("empty_cell", "y_re,y_im\n1.0,\n2.0,3.0\n", "line 2: could not convert string to float: ''"),
    ("trailing_comma", "y\n1.0,\n2.0,\n", "line 2: could not convert string to float: ''"),
    ("space_inside", "y\n1 2\n", "line 2: could not convert string to float: '1 2'"),
    ("crlf", "y\r\n1.0\r\n2.0\r\n", [1.0, 2.0]),
    ("blank_line", "y\n1.0\n\n2.0\n", "line 3: could not convert string to float: ''"),
    ("blank_cell", "y\n \n1.0\n", "line 2: could not convert string to float: ' '"),
    ("nan_payload", "y\nnan(1)\n", "line 2: could not convert string to float: 'nan(1)'"),
    ("negative_nan", "y\n-nan\n", [float("-nan")]),
    ("leading_blank_lines", "\ny\n1.0\nx\n", "line 4: could not convert string to float: 'x'"),
    ("nul_byte", "y\n1.0\x00\n", "line 2: could not convert string to float: '1.0\\x00'"),
    ("arabic_indic_digit", "y\n\u0661\n2.0\n", [1.0, 2.0]),
    ("hash", "y\n1.0#x\n", "line 2: could not convert string to float: '1.0#x'"),
    ("padded_cell", "y\n 1.0 \n2.0\n", [1.0, 2.0]),
    ("tab", "y\n\t1.0\n2.0\n", [1.0, 2.0]),
]


def _vector_named_y(path):
    """The values of a vector CSV whose header must read back as `y`, CRLF files included."""
    name, values = load_vector_csv(path)
    assert name == "y"
    return values


@pytest.mark.parametrize("read, text, expected", [
    pytest.param(lambda path: load_matrix(path).phi, text, expected, id=f"matrix-{case}")
    for case, text, expected in _MATRIX_PARITY
] + [
    pytest.param(_vector_named_y, text, expected, id=f"vector-{case}")
    for case, text, expected in _VECTOR_PARITY
])
def test_readers_accept_and_reject_what_float_does(tmp_path, read, text, expected):
    path = tmp_path / "in.csv"
    path.write_text(text)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as excinfo:
            read(path)
        assert str(excinfo.value) == f"{path} {expected}"
    else:
        values = read(path)
        assert values.shape == np.shape(expected)
        assert values.tobytes() == np.array(expected).tobytes()


def test_save_matrix_holds_about_one_row_of_text(tmp_path, traced_peak):
    phi = gaussian_matrix(128, 512, 5)
    save_matrix(tmp_path / "phi.csv", phi)  # first-call set-up outside the trace
    assert traced_peak(lambda: save_matrix(tmp_path / "phi.csv", phi)) <= 0.25 * phi.phi.nbytes


def test_load_matrix_holds_no_whole_text_copy(tmp_path, traced_peak):
    phi = gaussian_matrix(128, 512, 5)
    save_matrix(tmp_path / "phi.csv", phi)
    load_matrix(tmp_path / "phi.csv")
    assert traced_peak(lambda: load_matrix(tmp_path / "phi.csv")) <= 3 * phi.phi.nbytes


def _small_blocks(monkeypatch, path):
    """Readers take ~97 characters at a time; asserts path then spans many blocks."""
    monkeypatch.setattr(dcsparse.fileio, "_BLOCK_CHARS", 97)
    assert len(list(dcsparse.fileio._line_blocks(path))) >= 10


def test_readers_give_the_one_block_values_across_many_blocks(tmp_path, monkeypatch):
    rng = make_rng(8)
    save_matrix(tmp_path / "phi.csv", gaussian_matrix(40, 7, 2))
    save_vector_csv(tmp_path / "h.csv", "h", rng.standard_normal(60) + 1j * rng.standard_normal(60))
    save_vector_csv(tmp_path / "x.csv", "x", rng.standard_normal(60))
    whole = [load_matrix(tmp_path / "phi.csv").phi] + [
        load_vector_csv(tmp_path / name)[1] for name in ("h.csv", "x.csv")]
    _small_blocks(monkeypatch, tmp_path / "phi.csv")
    _small_blocks(monkeypatch, tmp_path / "h.csv")
    blocks = [load_matrix(tmp_path / "phi.csv").phi] + [
        load_vector_csv(tmp_path / name)[1] for name in ("h.csv", "x.csv")]
    for a, b in zip(whole, blocks):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _matrix_text():
    """Two blank lines, then 40 rows of 7 cells: row i is on line i + 3."""
    phi = gaussian_matrix(40, 7, 2).phi
    return ["", ""] + [",".join(map(repr, row.tolist())) for row in phi]


def _vector_text():
    """A header, then 60 rows re,im: row i is on line i + 2."""
    rng = make_rng(8)
    return ["h_re,h_im"] + [f"{a!r},{b!r}" for a, b in rng.standard_normal((60, 2)).tolist()]


def _bad_cell(lines, lineno):
    lines[lineno - 1] = "x," + lines[lineno - 1].split(",", 1)[1]


def _wide_row(lines, lineno):
    lines[lineno - 1] += ",1.0"


@pytest.mark.parametrize("make, edits, read, expected", [
    (_matrix_text, [(_bad_cell, 33)], load_matrix,
     "line 33: could not convert string to float: 'x'"),
    (_matrix_text, [(_wide_row, 38)], load_matrix, "line 38: 8 columns, line 3 has 7"),
    (_vector_text, [(_bad_cell, 41)], load_vector_csv,
     "line 41: could not convert string to float: 'x'"),
    (_vector_text, [(_wide_row, 50)], load_vector_csv, "line 50: 3 columns, line 2 has 2"),
    # One pass reports the first error in the file, whichever kind it is.
    (_vector_text, [(_bad_cell, 5), (_wide_row, 50)], load_vector_csv,
     "line 5: could not convert string to float: 'x'"),
    (_vector_text, [(_wide_row, 5), (_bad_cell, 50)], load_vector_csv,
     "line 5: 3 columns, line 2 has 2"),
], ids=["matrix_bad_cell", "matrix_ragged_row", "vector_bad_cell", "vector_wide_row",
        "vector_wide_row_after_bad_cell", "vector_bad_cell_after_wide_row"])
def test_error_in_a_later_block_names_its_line(tmp_path, monkeypatch, make, edits, read,
                                               expected):
    lines = make()
    for edit, lineno in edits:
        edit(lines, lineno)
    path = tmp_path / "in.csv"
    path.write_text("\n".join(lines) + "\n")
    _small_blocks(monkeypatch, path)
    with pytest.raises(ValueError) as excinfo:
        read(path)
    assert str(excinfo.value) == f"{path} {expected}"


def _read_or_message(read, path):
    try:
        return read(path).tobytes()
    except ValueError as exc:
        return str(exc)


# Texts with no blank line, so every block reaches np.loadtxt.
@pytest.mark.parametrize("read, text, expected", [
    (lambda path: load_matrix(path).phi, "1.0,2.0\n3.0,4.0\n",
     np.array([[1.0, 2.0], [3.0, 4.0]]).tobytes()),
    (lambda path: load_matrix(path).phi, "1.0,2.0\n3.0,1-2\n",
     "line 2: could not convert string to float: '1-2'"),
    (lambda path: load_vector_csv(path)[1], "y\n1.0\n1e\n2.0\n",
     "line 3: could not convert string to float: '1e'"),
    (lambda path: load_vector_csv(path)[1], "y_re,y_im\n1.0,2.0\n3.0,--4\n",
     "line 3: could not convert string to float: '--4'"),
], ids=["matrix_values", "matrix_bad_cell", "vector_bad_cell", "complex_bad_cell"])
def test_loadtxt_reads_each_block_and_float_names_a_bad_cell(tmp_path, monkeypatch, read, text,
                                                             expected):
    path = tmp_path / "in.csv"
    path.write_text(text)
    calls, loadtxt = [], np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kw: calls.append(args) or loadtxt(*args, **kw))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _read_or_message(read, path)
    assert calls and caught == []
    assert got == (expected if isinstance(expected, bytes) else f"{path} {expected}")


def test_a_block_of_blank_lines_is_read_by_float(tmp_path, monkeypatch):
    # The second block's text ends inside the first data line, so the first
    # data block is the blank lines alone; np.loadtxt would skip them all
    # and warn that its input contained no data.
    path = tmp_path / "y.csv"
    path.write_text("y" + "\n" * (2 * 97 - 2)
                    + "".join(f"{v!r}\n" for v in make_rng(9).standard_normal(60)))
    _small_blocks(monkeypatch, path)
    assert set(next(dcsparse.fileio._line_blocks(path))[1][1:]) == {""}  # after the header
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as excinfo:
            load_vector_csv(path)
    assert str(excinfo.value) == f"{path} line 2: could not convert string to float: ''"
