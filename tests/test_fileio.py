import json

import numpy as np
import pytest

from dcsparse.channel import sample_sparse_channel
from dcsparse.fileio import (RECORDS_HEADER, SUMMARY_HEADER, TRACE_HEADER,
                             load_matrix, load_vector_csv, save_channel,
                             save_matrix, save_records_csv,
                             save_records_json, save_result,
                             save_summary_csv, save_trace_csv, save_vector_csv)
from dcsparse.harness import ResultRecord
from dcsparse.seeding import make_rng
from dcsparse.sensing import gaussian_matrix
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
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    path = tmp_path / "c.csv"
    save_vector_csv(path, "h", v)
    name, back = load_vector_csv(path)
    assert name == "h"
    assert np.array_equal(back, v)
    header = path.read_text().split("\n")[0]
    assert header == "h_re,h_im"


def test_channel_round_trip(tmp_path):
    s = sample_sparse_channel(32, 4, 77)
    save_channel(s, tmp_path)
    for field in ("h_spatial", "h_angular", "x_real"):
        name, back = load_vector_csv(tmp_path / f"channel_{field}.csv")
        assert name == field
        assert np.array_equal(back, getattr(s, field))
    meta = json.loads((tmp_path / "channel.json").read_text())
    assert meta == {"n": 32, "sparsity": 4, "seed": 77}


def test_matrix_round_trip_with_sidecar(tmp_path):
    m = gaussian_matrix(5, 7, 13)
    path = tmp_path / "phi.csv"
    save_matrix(path, m)
    back = load_matrix(path)
    assert np.array_equal(back.phi, m.phi)
    assert (back.m, back.n, back.seed) == (5, 7, 13)
    assert not path.read_text().split("\n")[0][0].isalpha()  # no header line


def test_trace_csv_layout(tmp_path):
    trace = SolverTrace(outer_objectives=[3.0, 1.0], l1_objectives=[3.5, 1.2],
                        errors=[None, 0.25], inner_counts=[0, 7], outer_steps=[0, 1])
    path = tmp_path / "trace.csv"
    save_trace_csv(path, trace)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == TRACE_HEADER
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
    save_records_csv(path, recs)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == RECORDS_HEADER
    assert lines[0].split(",")[-2:] == ["converged", "wall_s"]
    assert lines[1] == "dc_gpsr,0,42,,0.5,3,10,true,0.125"
    assert lines[2] == "ista,1,7,25.0,0.25,1,4000,false,0.5"
    save_records_json(tmp_path / "records.json", recs)
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
    save_summary_csv(path, [("dc_gpsr", 25.0, 1e-5)])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == SUMMARY_HEADER
    assert lines[1] == "dc_gpsr,25.0,1e-05"


def test_save_result_files(tmp_path):
    x_hat = np.array([0.0, 1.5, 0.0])
    metrics = {"solver": "dc_gpsr", "converged": True, "inner_iters": 2, "nse": 0.01}
    save_result(tmp_path, "run", x_hat, metrics)
    _, x = load_vector_csv(tmp_path / "run_x_hat.csv")
    assert np.array_equal(x, x_hat)
    text = (tmp_path / "run.json").read_text()
    assert list(json.loads(text).items()) == list(metrics.items())
