import json

import numpy as np
import pytest

import dcsparse.cli
import dcsparse.harness
import dcsparse.solvers
from dcsparse.cli import cli_main
from dcsparse.fileio import load_vector_csv, save_vector_csv


@pytest.fixture()
def instance_dir(tmp_path):
    code = cli_main(["generate", "--n", "16", "--sparsity", "2", "--m", "12",
                     "--seed", "11", "--out", str(tmp_path)])
    assert code == 0
    return tmp_path


def test_generate_writes_files(instance_dir):
    for name in ("channel.json", "channel_h_angular.csv", "phi.csv", "phi.json",
                 "y.csv", "x_true.csv"):
        assert (instance_dir / name).exists()
    meta = json.loads((instance_dir / "channel.json").read_text())
    assert meta["n"] == 16 and meta["sparsity"] == 2


def test_solve_happy_path(instance_dir, capsys):
    code = cli_main(["solve", "--phi", str(instance_dir / "phi.csv"),
                     "--y", str(instance_dir / "y.csv"), "--k", "4",
                     "--truth", str(instance_dir / "x_true.csv"),
                     "--out", str(instance_dir / "run"), "--format", "json"])
    assert code == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["solver"] == "dc_gpsr"
    assert metrics["nse"] <= 1e-10
    assert (instance_dir / "run" / "solve_dc_gpsr_x_hat.csv").exists()
    assert (instance_dir / "run" / "trace_dc_gpsr.csv").exists()


def test_solve_evaluates_full_trace_only_with_out(instance_dir, capsys, monkeypatch):
    # solve writes the trace only under --out; without it no batch of
    # inner trace points is evaluated, and the printed metrics are the same.
    args = ["solve", "--phi", str(instance_dir / "phi.csv"),
            "--y", str(instance_dir / "y.csv"), "--k", "4", "--solver", "gpsr",
            "--truth", str(instance_dir / "x_true.csv"), "--format", "json"]
    assert cli_main(args + ["--out", str(instance_dir / "run")]) == 0
    written = json.loads(capsys.readouterr().out)
    lines = (instance_dir / "run" / "trace_gpsr.csv").read_text().splitlines()
    # One data row per inner iteration plus the start; over 65, so --out evaluated a batch.
    assert len(lines) - 1 == written["inner_iters"] + 1 > 65

    def refuse(*a, **k):
        raise AssertionError("a full inner trace was evaluated")

    monkeypatch.setattr(dcsparse.solvers, "_record_batch", refuse)
    assert cli_main(args) == 0
    assert json.loads(capsys.readouterr().out) == written


def test_solve_text_output(instance_dir, capsys):
    code = cli_main(["solve", "--phi", str(instance_dir / "phi.csv"),
                     "--y", str(instance_dir / "y.csv"), "--k", "4",
                     "--solver", "omp"])
    assert code == 0
    out = capsys.readouterr().out
    assert "solver=omp" in out
    assert "objective_l1=" in out


def test_solve_dimension_mismatch_names_both(instance_dir, capsys):
    _, y = load_vector_csv(instance_dir / "y.csv")
    save_vector_csv(instance_dir / "y_short.csv", "y", y[:-2].real)
    code = cli_main(["solve", "--phi", str(instance_dir / "phi.csv"),
                     "--y", str(instance_dir / "y_short.csv"), "--k", "4"])
    assert code == 1
    err = capsys.readouterr().err
    assert "10" in err and "12" in err


def test_solve_rejects_dc_proximal(instance_dir, capsys):
    # dc_proximal is not a solver; the usage line lists the four there are.
    code = cli_main(["solve", "--phi", str(instance_dir / "phi.csv"),
                     "--y", str(instance_dir / "y.csv"), "--k", "4",
                     "--solver", "dc_proximal"])
    assert code == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'dc_proximal'" in err
    assert "{dc_gpsr,gpsr,ista,omp}" in err


def test_solve_numerical_failure_exit_2(instance_dir, capsys):
    _, y = load_vector_csv(instance_dir / "y.csv")
    y = y.real.copy()
    y[0] = np.nan
    save_vector_csv(instance_dir / "y_nan.csv", "y", y)
    code = cli_main(["solve", "--phi", str(instance_dir / "phi.csv"),
                     "--y", str(instance_dir / "y_nan.csv"), "--k", "4",
                     "--rho", "0.5"])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command, complex_arg", [
    ("solve", "--y"), ("solve", "--truth"), ("oracle", "--truth")])
def test_complex_vector_rejected(instance_dir, capsys, command, complex_arg):
    files = {"--y": "y.csv", "--truth": "x_true.csv"}
    name, values = load_vector_csv(instance_dir / files[complex_arg])
    save_vector_csv(instance_dir / "complex.csv", name, values + 1j)
    paths = {arg: str(instance_dir / f) for arg, f in files.items()}
    paths[complex_arg] = str(instance_dir / "complex.csv")
    code = cli_main([command, "--phi", str(instance_dir / "phi.csv"), "--k", "4",
                     "--y", paths["--y"], "--truth", paths["--truth"]])
    assert code == 1
    err = capsys.readouterr().err
    assert "complex.csv" in err and "complex vector" in err


def test_solve_rejects_extra_csv_columns(instance_dir, capsys):
    # Every data row of y.csv gets two extra columns: the reader must not
    # quietly keep the first column and drop the rest.
    lines = (instance_dir / "y.csv").read_text().strip().split("\n")
    (instance_dir / "y_wide.csv").write_text(
        "\n".join([lines[0]] + [line + ",5,7" for line in lines[1:]]) + "\n")
    code = cli_main(["solve", "--phi", str(instance_dir / "phi.csv"),
                     "--y", str(instance_dir / "y_wide.csv"), "--k", "4", "--solver", "omp"])
    assert code == 1
    err = capsys.readouterr().err
    assert "y_wide.csv line 2: 3 columns" in err


def test_traced_benchmark_spans_are_called(tmp_path, capsys, count_calls):
    # The spans that bench/run.py --trace 1 requires on its cli_roundtrip
    # workload: generate, then solve --solver omp --truth --out.
    cli_calls = count_calls(dcsparse.cli, (
        "cli_main", "sample_sparse_channel", "gaussian_matrix", "measure", "save_channel",
        "save_matrix", "save_vector_csv", "save_result", "save_trace_csv", "load_matrix",
        "load_vector_csv", "default_rho", "objective_exact", "objective_l1",
        "normalized_sq_error"))
    harness_calls = count_calls(dcsparse.harness, ("omp",))
    assert dcsparse.cli.cli_main(["generate", "--n", "16", "--sparsity", "2", "--m", "12",
                                  "--seed", "11", "--out", str(tmp_path)]) == 0
    assert dcsparse.cli.cli_main(["solve", "--phi", str(tmp_path / "phi.csv"),
                                  "--y", str(tmp_path / "y.csv"), "--k", "4",
                                  "--solver", "omp", "--truth", str(tmp_path / "x_true.csv"),
                                  "--out", str(tmp_path / "run"), "--format", "json"]) == 0
    assert all(cli_calls.values()), cli_calls
    assert all(harness_calls.values()), harness_calls


def test_oracle_subcommand(instance_dir, capsys):
    code = cli_main(["oracle", "--phi", str(instance_dir / "phi.csv"),
                     "--y", str(instance_dir / "y.csv"), "--k", "4",
                     "--truth", str(instance_dir / "x_true.csv"),
                     "--format", "json"])
    assert code == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["nse"] <= 1e-10
    assert metrics["residual_sq"] <= 1e-12


def test_bench_noiseless(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_antennas=16\nsparsity=2\nm=12\nk=4\nsamples=2\nseed=5\n"
                   "solvers=omp\n")
    out = tmp_path / "out"
    code = cli_main(["bench", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "records.csv").exists()
    assert (out / "trace_omp_s0.csv").exists()


def test_bench_snr_sweep_with_json(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_antennas=16\nsparsity=2\nm=12\nk=4\nsamples=2\nseed=5\n"
                   "snr_grid=10,20\nsolvers=omp\n")
    out = tmp_path / "out"
    code = cli_main(["bench", "--config", str(cfg), "--out", str(out),
                     "--format", "json"])
    assert code == 0
    for name in ("records.csv", "summary.csv", "records.json", "summary.json"):
        assert (out / name).exists()
    assert "nmse" in capsys.readouterr().out


def test_bench_seed_override_changes_records(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_antennas=16\nsparsity=2\nm=12\nk=4\nsamples=1\nseed=5\nsolvers=omp\n")
    cli_main(["bench", "--config", str(cfg), "--out", str(tmp_path / "a")])
    cli_main(["bench", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "6"])
    rec_a = (tmp_path / "a" / "records.csv").read_text()
    rec_b = (tmp_path / "b" / "records.csv").read_text()
    assert rec_a.split("\n")[1].split(",")[2] != rec_b.split("\n")[1].split(",")[2]


def test_bench_missing_config(tmp_path, capsys):
    code = cli_main(["bench", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)])
    assert code == 1
    assert "nope.cfg" in capsys.readouterr().err


def test_bench_bad_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("antennas=16\n")
    code = cli_main(["bench", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    assert "antennas" in capsys.readouterr().err


def test_unknown_flag_exits_1(capsys):
    code = cli_main(["generate", "--frobnicate", "--out", "x"])
    assert code == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_subcommand_exits_1(capsys):
    assert cli_main([]) == 1


def test_unknown_subcommand_exits_1(capsys):
    assert cli_main(["frobnicate"]) == 1


def test_help_exits_0(capsys):
    assert cli_main(["--help"]) == 0
    assert "generate" in capsys.readouterr().out
