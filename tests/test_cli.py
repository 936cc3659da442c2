import json
from pathlib import Path

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
    # solve writes the trace only under --out; without it no stack of
    # inner trace points is evaluated, and the printed metrics are the same.
    args = ["solve", "--phi", str(instance_dir / "phi.csv"),
            "--y", str(instance_dir / "y.csv"), "--k", "4", "--solver", "gpsr",
            "--truth", str(instance_dir / "x_true.csv"), "--format", "json"]
    assert cli_main(args + ["--out", str(instance_dir / "run")]) == 0
    written = json.loads(capsys.readouterr().out)
    lines = (instance_dir / "run" / "trace_gpsr.csv").read_text().splitlines()
    # One data row per inner iteration plus the start; over 65, so --out evaluated a batch.
    assert len(lines) - 1 == written["inner_iters"] + 1 > 65

    record, recorded = dcsparse.solvers._record, []

    def one_point_only(trace, p, x, *args):
        if x.ndim != 1:
            raise AssertionError("a full inner trace was evaluated")
        recorded.append(x)
        record(trace, p, x, *args)

    monkeypatch.setattr(dcsparse.solvers, "_record", one_point_only)
    assert cli_main(args) == 0
    assert json.loads(capsys.readouterr().out) == written
    assert len(recorded) == 2  # the start and end points


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
    files = ["--phi", str(instance_dir / "phi.csv"), "--y", str(instance_dir / "y_nan.csv"),
             "--k", "4"]
    for command in [["solve", "--solver", name, "--rho", "0.5"]
                    for name in dcsparse.harness.SOLVER_REGISTRY] + [["oracle"]]:
        assert cli_main(command + files) == 2, command
        assert "numerical failure" in capsys.readouterr().err


def test_nan_in_phi_exits_2_without_a_lapack_message(instance_dir, capfd):
    # LAPACK writes its complaint straight to file descriptor 2, hence capfd.
    lines = (instance_dir / "phi.csv").read_text().split("\n")
    lines[0] = "nan," + lines[0].split(",", 1)[1]
    (instance_dir / "phi_nan.csv").write_text("\n".join(lines))
    files = ["--phi", str(instance_dir / "phi_nan.csv"), "--y", str(instance_dir / "y.csv"),
             "--k", "4"]
    for command in [["solve", "--solver", name]
                    for name in dcsparse.harness.SOLVER_REGISTRY] + [["oracle"]]:
        assert cli_main(command + files) == 2, command
        err = capfd.readouterr().err
        assert "numerical failure" in err and "On entry to" not in err, err


@pytest.mark.parametrize("bad_row, message", [
    (lambda row: row + ",1.0", "33 columns, line 1 has 32"),
    (lambda row: "", "could not convert string to float"),
], ids=["ragged_row", "blank_row"])
def test_solve_names_the_bad_matrix_line(instance_dir, capsys, bad_row, message):
    lines = (instance_dir / "phi.csv").read_text().split("\n")
    lines[1] = bad_row(lines[1])
    (instance_dir / "bad").mkdir()
    (instance_dir / "bad" / "phi.csv").write_text("\n".join(lines))
    code = cli_main(["solve", "--phi", str(instance_dir / "bad" / "phi.csv"),
                     "--y", str(instance_dir / "y.csv"), "--k", "4"])
    assert code == 1
    assert f"phi.csv line 2: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("solver", ["dc_gpsr", "omp"])
@pytest.mark.parametrize("rho", ["inf", "1e400"])
def test_solve_rejects_non_finite_rho(instance_dir, capsys, solver, rho):
    code = cli_main(["solve", "--phi", str(instance_dir / "phi.csv"),
                     "--y", str(instance_dir / "y.csv"), "--k", "4", "--solver", solver,
                     "--rho", rho])
    assert code == 1
    assert f"--rho must be finite, got {rho}" in capsys.readouterr().err


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


@pytest.mark.parametrize("command,flag", [("solve", "--phi"), ("solve", "--y"),
                                          ("solve", "--truth"), ("oracle", "--truth")])
def test_missing_csv_exits_1_naming_its_path(instance_dir, capsys, command, flag):
    paths = {"--phi": str(instance_dir / "phi.csv"), "--y": str(instance_dir / "y.csv"),
             "--truth": str(instance_dir / "x_true.csv")}
    paths[flag] = str(instance_dir / "missing.csv")
    code = cli_main([command, "--k", "4"] + [arg for pair in paths.items() for arg in pair])
    assert code == 1
    assert paths[flag] in capsys.readouterr().err


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
    err = capsys.readouterr().err
    assert "nope.cfg" in err and "No such file or directory" in err


def test_bench_bad_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("antennas=16\n")
    code = cli_main(["bench", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    assert "antennas" in capsys.readouterr().err


def test_bench_non_finite_snr_point_exits_1(tmp_path, capsys):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("n_antennas=16\nsparsity=2\nm=12\nk=4\nsamples=1\n"
                   "snr_grid=10,inf\nsolvers=omp\n")
    code = cli_main(["bench", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "snr_grid points must be finite, got inf" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bench_k_above_m_with_omp_exits_1_before_any_cell(tmp_path, capsys):
    cfg = tmp_path / "k.cfg"
    cfg.write_text("n_antennas=16\nsparsity=8\nm=12\nsamples=1\nsolvers=dc_gpsr,omp\n")
    code = cli_main(["bench", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "k=16 exceeds m=12: omp" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("point, message", [("1e306", "no finite millibel seed key"),
                                            ("-0.001", "noiseless study's seed key")])
def test_bench_snr_point_without_its_own_seed_key_exits_1(tmp_path, capsys, point, message):
    cfg = tmp_path / "key.cfg"
    cfg.write_text("n_antennas=16\nsparsity=2\nm=12\nk=4\nsamples=1\n"
                   f"snr_grid=10,{point}\nsolvers=omp\n")
    code = cli_main(["bench", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_truth_length_is_checked_before_any_solve(instance_dir, capsys, monkeypatch, command):
    _, x_true = load_vector_csv(instance_dir / "x_true.csv")
    short = instance_dir / "x_short.csv"
    save_vector_csv(short, "x_true", x_true[:6].real)

    def refuse(*a, **k):
        raise AssertionError("a solver ran")

    monkeypatch.setitem(dcsparse.cli.SOLVER_REGISTRY, "dc_gpsr", refuse)
    monkeypatch.setattr(dcsparse.cli, "brute_force_l0", refuse)
    code = cli_main([command, "--phi", str(instance_dir / "phi.csv"),
                     "--y", str(instance_dir / "y.csv"), "--k", "4", "--truth", str(short)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {short} has length 6 but phi has 32 columns\n"


def test_solve_ignores_a_sidecar_that_is_not_an_object(instance_dir, capsys):
    args = ["solve", "--phi", str(instance_dir / "phi.csv"), "--y", str(instance_dir / "y.csv"),
            "--k", "4"]
    assert cli_main(args) == 0
    expected = capsys.readouterr()
    (instance_dir / "phi.json").write_text("[1, 2]\n")
    assert cli_main(args) == 0
    assert capsys.readouterr() == expected


def test_solve_reads_each_input_file_once(instance_dir, capsys, monkeypatch):
    reads, real_open, real_read_text = [], open, Path.read_text

    def spy_open(file, *args, **kwargs):
        reads.append(file)
        return real_open(file, *args, **kwargs)

    def spy_read_text(self, *args, **kwargs):
        reads.append(self)
        return real_read_text(self, *args, **kwargs)

    monkeypatch.setattr("builtins.open", spy_open)
    monkeypatch.setattr(Path, "read_text", spy_read_text)
    code = cli_main(["solve", "--phi", str(instance_dir / "phi.csv"),
                     "--y", str(instance_dir / "y.csv"), "--k", "4",
                     "--truth", str(instance_dir / "x_true.csv"), "--solver", "omp"])
    assert code == 0
    assert [Path(str(f)).name for f in reads if Path(str(f)).parent == instance_dir] == [
        "phi.csv", "y.csv", "x_true.csv"]
