import json
from dataclasses import replace

import numpy as np
import pytest

import dcsparse.harness
import dcsparse.solvers
from dcsparse.fileio import load_vector_csv, save_trace_csv
from dcsparse.harness import (ConfigError, ExperimentConfig, cell_seed,
                              parse_config, run_cell, run_noiseless_study,
                              run_snr_sweep)
from dcsparse.metrics import normalized_sq_error
from dcsparse.solvers import SolverOptions


def tiny_config(**overrides):
    base = dict(
        n_antennas=16, sparsity=2, m_measurements=12, k_real=4,
        snr_grid_db=(), num_samples=2, base_seed=7,
        solvers=("dc_gpsr", "omp"),
        solver_options=SolverOptions(inner_max=400, outer_max=25),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


SPEC_CONFIG_TEXT = """\
# benchmark setup
n_antennas=256
sparsity=16
m=128
k=32
rho=auto
snr_grid=5,10,15,20,25
samples=100
seed=42
solvers=dc_gpsr,gpsr,ista,omp
"""


def test_parse_config_full_example():
    cfg = parse_config(SPEC_CONFIG_TEXT)
    assert cfg.n_antennas == 256 and cfg.sparsity == 16
    assert cfg.m_measurements == 128 and cfg.k_real == 32
    assert cfg.rho_rule == "auto"
    assert cfg.snr_grid_db == (5.0, 10.0, 15.0, 20.0, 25.0)
    assert cfg.num_samples == 100 and cfg.base_seed == 42
    assert cfg.solvers == ("dc_gpsr", "gpsr", "ista", "omp")


def test_parse_config_defaults_and_fixed_rho():
    cfg = parse_config("rho=0.25\n")
    assert cfg.rho_rule == 0.25
    assert cfg.k_real == 2 * cfg.sparsity


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="snr_gird"):
        parse_config("snr_gird=5\n")


def test_parse_config_rejects_duplicates_and_garbage():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("seed=1\nseed=2\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config("whatever\n")
    with pytest.raises(ConfigError):
        parse_config("samples=many\n")
    with pytest.raises(ConfigError, match="duplicate solver 'gpsr'"):
        parse_config("solvers=gpsr,dc_gpsr,gpsr\n")


@pytest.mark.parametrize("grid, message", [("5,5", "duplicate point 5 in snr_grid"),
                                           ("0,-0", "duplicate point -0 in snr_grid"),
                                           ("5,5.0004", "duplicate point 5.0004 in snr_grid"),
                                           ("nan", "finite, got nan"),
                                           ("10,inf", "finite, got inf"),
                                           ("-inf", "finite, got -inf"),
                                           ("10,1e306", "no finite millibel seed key"),
                                           ("10,-0.001", "noiseless study's seed key"),
                                           ("10,-0.0006", "noiseless study's seed key")])
def test_parse_config_rejects_duplicate_and_non_finite_snr_points(grid, message):
    # A duplicate point would solve its cells twice, and points in one
    # millibel would share their cell seeds; a non-finite one has no cell
    # seed, nor has one whose millibel key overflows or is the noiseless
    # study's (-1), whose cells it would draw.
    with pytest.raises(ConfigError, match=message):
        parse_config(f"snr_grid={grid}\n")


def test_parse_config_rejects_dc_proximal():
    with pytest.raises(ConfigError, match=r"unknown solver 'dc_proximal'; choose from "
                                          r"\['dc_gpsr', 'gpsr', 'ista', 'omp'\]$"):
        parse_config("solvers=dc_proximal\n")


def test_config_validation_field_names():
    with pytest.raises(ConfigError, match="m_measurements"):
        tiny_config(m_measurements=40)  # >= 2 * n_antennas
    with pytest.raises(ConfigError, match="sparsity"):
        tiny_config(sparsity=40)
    with pytest.raises(ConfigError, match="solver"):
        tiny_config(solvers=("nope",))
    with pytest.raises(ConfigError, match="duplicate solver 'omp'"):
        tiny_config(solvers=("omp", "dc_gpsr", "omp"))
    with pytest.raises(ConfigError, match="rho"):
        tiny_config(rho_rule=-1.0)
    for rho in ("inf", "1e400"):
        with pytest.raises(ConfigError, match="rho_rule must be finite"):
            parse_config(f"rho={rho}\n")


def test_config_rejects_k_above_m_with_omp():
    # omp adds one column per round, so it cannot take more than m rounds.
    with pytest.raises(ConfigError, match="k=16 exceeds m=12: omp"):
        parse_config("n_antennas=16\nsparsity=8\nm=12\nsolvers=dc_gpsr,omp\n")
    assert parse_config("n_antennas=16\nsparsity=8\nm=12\nsolvers=dc_gpsr\n").k_real == 16


def test_k_real_defaults_to_twice_sparsity():
    cfg = ExperimentConfig(n_antennas=16, sparsity=3, m_measurements=12)
    assert cfg.k_real == 6


def test_noiseless_study_cardinality_and_traces(tmp_path, monkeypatch):
    # Written traces hold every inner iteration of gpsr and ista.  Without
    # out_dir nothing is written, so no stack of inner points is evaluated:
    # the returned gpsr/ista traces are the written files' first and last
    # rows, and every record and other trace is the same.
    solvers = ("dc_gpsr", "gpsr", "ista", "omp")
    cfg = tiny_config(solvers=solvers)
    written, written_traces = run_noiseless_study(cfg, out_dir=tmp_path / "out")

    record = dcsparse.solvers._record

    def one_point_only(trace, p, x, *args):
        if x.ndim != 1:
            raise AssertionError("a full inner trace was evaluated")
        record(trace, p, x, *args)

    monkeypatch.setattr(dcsparse.solvers, "_record", one_point_only)
    records, traces = run_noiseless_study(cfg)
    assert len(records) == 8  # 2 samples x 4 solvers
    assert set(traces) == {(name, i) for name in solvers for i in range(2)}
    assert [replace(r, wall_time_seconds=0.0) for r in records] == \
        [replace(r, wall_time_seconds=0.0) for r in written]
    for r in records:
        key = (r.solver_name, r.sample_index)
        if r.solver_name in ("dc_gpsr", "omp"):
            assert repr(traces[key]) == repr(written_traces[key])
            continue
        assert r.inner_iters_total > 0
        lines = (tmp_path / "out" / f"trace_{key[0]}_s{key[1]}.csv").read_text().splitlines()
        assert len(lines) == 1 + r.inner_iters_total + 1  # header, start, one per iteration
        assert len(traces[key].outer_objectives) == 2
        save_trace_csv(tmp_path / "compact.csv", traces[key])
        assert (tmp_path / "compact.csv").read_text().splitlines() == \
            [lines[0], lines[1], lines[-1]]


def test_noiseless_study_rejects_snr_grid():
    with pytest.raises(ConfigError):
        run_noiseless_study(tiny_config(snr_grid_db=(10.0,)))


def test_snr_sweep_cardinality():
    cfg = tiny_config(snr_grid_db=tuple(float(s) for s in (5, 10, 15, 20, 25)),
                      num_samples=2, solvers=("omp", "dc_gpsr"))
    records, summary = run_snr_sweep(cfg)
    assert len(records) == 20  # 5 snr x 2 samples x 2 solvers
    assert len(summary) == 10  # 5 snr x 2 solvers
    for name, snr_db, value in summary:
        nses = [r.nse for r in records if r.solver_name == name and r.snr_db == snr_db]
        assert len(nses) == 2
        assert value == sum(nses) / 2
        assert np.isfinite(value)


def test_snr_sweep_json_tables_hold_the_returned_rows(tmp_path):
    cfg = tiny_config(snr_grid_db=(5.0, 25.0), num_samples=1)
    records, summary = run_snr_sweep(cfg, out_dir=tmp_path, fmt="json")
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert [list(row) for row in payload] == [["solver", "snr_db", "nmse"]] * len(summary)
    assert payload == [{"solver": s, "snr_db": d, "nmse": v} for s, d, v in summary]
    payload = json.loads((tmp_path / "records.json").read_text())
    assert [(r["solver"], r["nse"]) for r in payload] == [(r.solver_name, r.nse) for r in records]


def test_traced_benchmark_spans_are_called(count_calls):
    # The spans that bench/run.py --trace 1 requires on its noiseless
    # workload and on its snr_sweep workload, with the sweep's
    # start-and-end-only traces of gpsr and ista.
    cell = ("sample_sparse_channel", "gaussian_matrix", "measure", "default_rho",
            "normalized_sq_error", "dc_gpsr", "gpsr_baseline", "omp")
    calls = count_calls(dcsparse.harness, cell + (
        "run_noiseless_study", "run_snr_sweep", "add_noise", "ista"))
    solver_calls = count_calls(dcsparse.solvers, (
        "solve_bcqp_gp", "top_k1_subgradient", "objective_exact", "objective_l1",
        "normalized_sq_error"))
    dcsparse.harness.run_noiseless_study(tiny_config(num_samples=1,
                                                     solvers=("dc_gpsr", "gpsr", "omp")))
    assert all(calls[name] for name in cell + ("run_noiseless_study",)), calls
    assert all(solver_calls.values()), solver_calls
    for counts in (calls, solver_calls):
        counts.update(dict.fromkeys(counts, 0))
    cfg = tiny_config(snr_grid_db=(15.0,), num_samples=1,
                      solvers=("dc_gpsr", "gpsr", "ista", "omp"))
    dcsparse.harness.run_snr_sweep(cfg)
    assert all(calls[name] for name in calls if name != "run_noiseless_study"), calls
    assert all(solver_calls.values()), solver_calls


def test_run_cell_runs_each_solver_alone_in_config_order(count_calls, monkeypatch):
    # Every record, x_hat and trace equals the solver run alone, the
    # solvers run in the config's order, and no inner solve is shared.
    solvers = ("omp", "dc_gpsr", "ista", "gpsr")
    cfg = tiny_config(solvers=solvers)
    order = []
    for name, solve in list(dcsparse.harness.SOLVER_REGISTRY.items()):
        def logged(*args, _name=name, _solve=solve, **kwargs):
            order.append(_name)
            return _solve(*args, **kwargs)
        monkeypatch.setitem(dcsparse.harness.SOLVER_REGISTRY, name, logged)
    calls = count_calls(dcsparse.solvers, ("solve_bcqp_gp",))
    for snr_db, inner_trace in ((None, True), (15.0, False)):
        for i in range(cfg.num_samples):
            order.clear()
            calls["solve_bcqp_gp"] = 0
            records, results, _ = run_cell(cfg, i, snr_db, inner_trace=inner_trace)
            together = calls["solve_bcqp_gp"]
            assert order == list(results) == [r.solver_name for r in records] == list(solvers)
            calls["solve_bcqp_gp"] = 0
            for name, record in zip(solvers, records):
                alone, alone_results, _ = run_cell(replace(cfg, solvers=(name,)), i, snr_db,
                                                   inner_trace=inner_trace)
                assert replace(alone[0], wall_time_seconds=0.0) == \
                    replace(record, wall_time_seconds=0.0)
                a, b = alone_results[name], results[name]
                assert a.x_hat.tobytes() == b.x_hat.tobytes()
                assert repr(a.trace) == repr(b.trace)
            assert together == calls["solve_bcqp_gp"]


def test_snr_sweep_records_equal_full_trace_cells(count_calls):
    # The sweep keeps only the start and end trace points of gpsr and ista;
    # its records must not depend on that.  With these caps dc_gpsr
    # converges while gpsr, ista and the noisy omp solves do not.
    solvers = ("dc_gpsr", "gpsr", "ista", "omp")
    cfg = tiny_config(snr_grid_db=(5.0, 25.0), num_samples=2, solvers=solvers,
                      solver_options=SolverOptions(inner_max=60))
    calls = count_calls(dcsparse.solvers, ("objective_exact",))
    records, _ = run_snr_sweep(cfg)

    def trace_points(r):  # one objective_exact call each
        if r.solver_name == "omp":
            return 0
        if r.solver_name in ("gpsr", "ista"):  # the start, and the end after any iteration
            return 1 + (r.inner_iters_total > 0)
        return 1 + r.outer_iters

    assert calls["objective_exact"] == sum(trace_points(r) for r in records)
    expected = []
    for snr_db in cfg.snr_grid_db:
        for i in range(cfg.num_samples):
            cell_records, results, _ = run_cell(cfg, i, snr_db, inner_trace=True)
            for r in cell_records:
                assert r.converged == results[r.solver_name].converged
            expected.extend(cell_records)
    assert len(records) == len(expected) == 16
    assert {r.converged for r in records} == {True, False}
    key = lambda r: (r.solver_name, r.snr_db, r.sample_index)  # noqa: E731
    for a, b in zip(records, sorted(expected, key=key)):
        assert replace(a, wall_time_seconds=0.0) == replace(b, wall_time_seconds=0.0)


def test_snr_sweep_requires_grid():
    with pytest.raises(ConfigError):
        run_snr_sweep(tiny_config())


def test_determinism_rerun_identical():
    cfg = tiny_config()
    rec1, _ = run_noiseless_study(cfg)
    rec2, _ = run_noiseless_study(cfg)
    for a, b in zip(rec1, rec2):
        assert a.solver_name == b.solver_name
        assert a.seed == b.seed
        assert a.nse == b.nse  # bit-identical
        assert a.outer_iters == b.outer_iters
        assert a.inner_iters_total == b.inner_iters_total


def test_adding_snr_points_preserves_existing_cells():
    cfg_a = tiny_config(snr_grid_db=(10.0,), solvers=("omp",))
    cfg_b = tiny_config(snr_grid_db=(5.0, 10.0, 25.0), solvers=("omp",))
    rec_a, _ = run_snr_sweep(cfg_a)
    rec_b, _ = run_snr_sweep(cfg_b)
    at_10_a = {(r.sample_index): r.nse for r in rec_a if r.snr_db == 10.0}
    at_10_b = {(r.sample_index): r.nse for r in rec_b if r.snr_db == 10.0}
    assert at_10_a == at_10_b


def test_cell_seed_distinct_for_noiseless_and_snr():
    assert cell_seed(1, 0, None) != cell_seed(1, 0, 10.0)
    assert cell_seed(1, 0, 10.0) != cell_seed(1, 0, 10.001)
    # Points a millibel apart have their own seeds, so a grid may hold both.
    assert parse_config("snr_grid=5,5.001\n").snr_grid_db == (5.0, 5.001)


@pytest.mark.parametrize("snr_db, message", [(-0.001, "noiseless study's seed key"),
                                             (-0.0014, "noiseless study's seed key"),
                                             (-1e306, "no finite millibel seed key")])
def test_cell_seed_rejects_an_snr_without_its_own_key(snr_db, message):
    with pytest.raises(ValueError, match=message):
        cell_seed(42, 0, snr_db)


def test_cell_seeds_next_to_the_rejected_keys_are_unchanged():
    assert cell_seed(42, 0, None) == 16812319771013374243
    assert cell_seed(42, 0, -0.002) == 17920742538596736756
    assert cell_seed(42, 0, -0.0005) == 6168158941143839527
    assert cell_seed(42, 3, 25.0) == 12205281700788877967


def test_records_csv_byte_identical_except_wall(tmp_path):
    cfg = tiny_config()
    run_noiseless_study(cfg, out_dir=tmp_path / "a")
    run_noiseless_study(cfg, out_dir=tmp_path / "b")

    def strip_wall(path):
        lines = path.read_text().strip().split("\n")
        return ["," .join(line.split(",")[:-1]) for line in lines]

    assert strip_wall(tmp_path / "a" / "records.csv") == strip_wall(tmp_path / "b" / "records.csv")


def test_nse_recomputable_from_persisted_vectors(tmp_path):
    cfg = tiny_config(num_samples=1, solvers=("dc_gpsr",))
    records, _ = run_noiseless_study(cfg, out_dir=tmp_path)
    _, x_true = load_vector_csv(tmp_path / "x_true_s0.csv")
    _, x_hat = load_vector_csv(tmp_path / "x_hat_dc_gpsr_s0.csv")
    assert normalized_sq_error(x_true, x_hat) == records[0].nse
    assert (tmp_path / "trace_dc_gpsr_s0.csv").exists()


def test_run_cell_noiseless_equals_sweep_pathway():
    # A cell with snr_db=None is exactly the noiseless pathway.
    cfg = tiny_config(solvers=("omp",))
    records, _ = run_noiseless_study(cfg)
    cell_records, _, _ = run_cell(cfg, 0, None)
    match = [r for r in records if r.sample_index == 0][0]
    assert cell_records[0].nse == match.nse
    assert cell_records[0].seed == match.seed


def test_benchmark_scale_outer_iterations():
    cfg = ExperimentConfig(n_antennas=256, sparsity=16, m_measurements=128,
                           k_real=32, num_samples=1, solvers=("dc_gpsr",),
                           base_seed=3)
    records, traces = run_noiseless_study(cfg)
    assert records[0].outer_iters <= 20
    assert records[0].nse <= 1e-20


def test_dc_gpsr_recovers_the_harness_seed_stream():
    # The first 200 noiseless cells of base seed 42 at benchmark scale.  The
    # bound is the count before the polish rule replaced the tolerance
    # ladder: 196 exact, all converged.  The 4 misses (samples 0, 4, 25 and
    # 52) are each the weak half of a complex bin whose other half the
    # top-(k,1) subgradient selects (ROADMAP item 1).
    cfg = ExperimentConfig(num_samples=200, solvers=("dc_gpsr",), base_seed=42)
    records, _ = run_noiseless_study(cfg)
    assert sum(r.nse <= 1e-20 for r in records) >= 196
    assert all(r.converged for r in records)
