import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import dcsparse
import dcsparse.channel
from dcsparse.channel import concat_real, dft_matrix, sample_sparse_channel
from dcsparse.cli import cli_main
from dcsparse.seeding import make_rng

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_with_blas_threads(code, threads):
    """Run `code` in a child Python whose BLAS uses `threads` threads; return its stdout.

    With several threads OpenBLAS splits a matrix-vector product's rows
    at points set by the thread count, and rows next to a split get other
    last bits, so a result built on a BLAS product can vary with the
    thread count.  The count is read once, when numpy loads BLAS, so only
    a new process can set it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_dft_matrix_degenerate():
    assert np.allclose(dft_matrix(1), np.array([[1.0]]))


@pytest.mark.parametrize("n", [1, 2, 4, 8, 64])
def test_dft_matrix_unitary(n):
    u = dft_matrix(n)
    err = np.max(np.abs(u @ u.conj().T - np.eye(n)))
    assert err <= 1e-12


def test_dft_matrix_rows_unit_norm():
    u = dft_matrix(4)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0)


def test_dft_matrix_rejects_zero():
    with pytest.raises(ValueError):
        dft_matrix(0)


def test_concat_real_basic():
    assert np.array_equal(concat_real(np.array([1 + 2j])), np.array([1.0, 2.0]))


def test_concat_real_zero():
    assert np.array_equal(concat_real(np.zeros(2, dtype=complex)), np.zeros(4))


def test_concat_real_mixed():
    out = concat_real(np.array([3 - 1j, 5 + 0j]))
    assert np.array_equal(out, np.array([3.0, 5.0, -1.0, 0.0]))


def test_concat_real_round_trip_bit_exact():
    rng = make_rng(7)
    h = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    x = concat_real(h)
    assert np.array_equal(x[:12] + 1j * x[12:], h)


def test_sample_sparse_channel_nonzero_count():
    # 16 complex nonzeros stack to exactly 32 real nonzeros.
    s = sample_sparse_channel(256, 16, 12345)
    assert np.count_nonzero(s.x_real) == 32
    assert np.count_nonzero(s.h_angular) == 16


def test_sample_sparse_channel_deterministic():
    a = sample_sparse_channel(64, 4, 99)
    b = sample_sparse_channel(64, 4, 99)
    assert np.array_equal(a.h_angular, b.h_angular)
    assert np.array_equal(a.h_spatial, b.h_spatial)
    assert np.array_equal(a.x_real, b.x_real)
    assert a.seed == b.seed == 99


def _path_sum(u, h):
    """U^H h written as the sum of the rows of conj(U) at h's nonzero bins, each times its gain."""
    bins = np.flatnonzero(h)
    return (np.conj(u[bins]) * h[bins, None]).sum(axis=0)


def test_sample_sparse_channel_builds_the_dft_matrix_only_for_h_spatial(count_calls):
    calls = count_calls(dcsparse.channel, ("_dft_rows",))
    s = sample_sparse_channel(130, 4, 5)
    assert calls["_dft_rows"] == 0
    h = s.h_spatial
    assert calls["_dft_rows"] == 1
    assert s.h_spatial.tobytes() == h.tobytes()
    assert calls["_dft_rows"] == 2
    assert h.tobytes() == _path_sum(dft_matrix(130), s.h_angular).tobytes()


@pytest.mark.parametrize("n", [1, 31, 64])
def test_dft_matrix_and_h_spatial_are_the_reference_expressions_bit_for_bit(n):
    phis = (np.arange(1, n + 1) - (n + 1) / 2) / n
    reference = np.exp(2j * np.pi * np.outer(phis, np.arange(n))) / np.sqrt(n)
    assert dft_matrix(n).tobytes() == reference.tobytes()
    s = sample_sparse_channel(n, min(n, 4), n)
    # Bit for bit the sum of the path responses; to rounding the whole product.
    assert s.h_spatial.tobytes() == _path_sum(reference, s.h_angular).tobytes()
    whole = reference.conj().T @ s.h_angular
    assert np.linalg.norm(s.h_spatial - whole) <= 1e-14 * np.linalg.norm(whole)


def test_h_spatial_matches_the_whole_dft_product():
    for n in [*range(1, 300), 1023, 1024, 1025, 2048]:
        u = dft_matrix(n)
        for sparsity in {1, min(n, 16), n} if n < 300 else {16}:
            s = sample_sparse_channel(n, sparsity, n)
            whole = np.conj(np.conj(s.h_angular) @ u)  # conj(u).T @ h without a copy of u
            assert np.linalg.norm(s.h_spatial - whole) <= 1e-14 * np.linalg.norm(whole), (n, sparsity)


def test_h_spatial_bytes_do_not_depend_on_the_blas_thread_count():
    # A BLAS product's last bits vary with the thread count (see
    # _run_with_blas_threads); the sum over paths makes no BLAS call.
    code = """
        import hashlib
        from dcsparse.channel import sample_sparse_channel
        digest = hashlib.sha256()
        for n in [*range(1, 301), 1023, 1024, 1025]:
            digest.update(sample_sparse_channel(n, min(n, 16), n).h_spatial.tobytes())
        print(digest.hexdigest())
    """
    assert _run_with_blas_threads(code, 1) == _run_with_blas_threads(code, 2)


@pytest.mark.parametrize("n, bins", [(1, [0]), (7, [2, 3, 4]), (130, [0, 64, 129]), (256, range(256))],
                         ids=["1-single", "7-adjacent", "130-spread", "256-all"])
def test_dft_rows_are_the_dft_matrix_rows(n, bins):
    bins = np.array(bins)
    rows = dcsparse.channel._dft_rows(n, bins)
    assert rows.flags.c_contiguous
    assert rows.tobytes() == dft_matrix(n)[bins].tobytes()


def test_h_spatial_holds_one_block_of_rows_at_its_peak(traced_peak):
    # U is 16 MiB at n = 1024; the s = 16 rows of U at the support are 256 KiB.
    n, sparsity = 1024, 16
    s = sample_sparse_channel(n, sparsity, 3)
    assert traced_peak(lambda: s.h_spatial) <= 2 * sparsity * n * 16


def test_sample_sparse_channel_full_density_boundary():
    s = sample_sparse_channel(4, 4, 3)
    assert np.count_nonzero(s.h_angular) == 4


def test_sample_sparse_channel_energy_conservation():
    s = sample_sparse_channel(128, 8, 17)
    assert np.linalg.norm(s.h_angular) == pytest.approx(
        np.linalg.norm(s.h_spatial), rel=1e-12)


def test_sample_sparse_channel_concat_consistency():
    s = sample_sparse_channel(32, 3, 21)
    assert np.array_equal(s.x_real, concat_real(s.h_angular))


def test_sample_sparse_channel_support_size_across_seeds():
    for seed in range(10):
        s = sample_sparse_channel(40, 7, seed)
        assert np.count_nonzero(s.h_angular) == 7
        assert np.count_nonzero(s.x_real) == 14


def test_sample_sparse_channel_rejects_bad_sparsity():
    with pytest.raises(ValueError):
        sample_sparse_channel(8, 9, 0)
    with pytest.raises(ValueError):
        sample_sparse_channel(8, 0, 0)


@pytest.mark.parametrize("n", [0, -3])
def test_sample_sparse_channel_names_a_bad_antenna_count_before_sparsity(n):
    with pytest.raises(ValueError, match=f"^antenna count must be >= 1, got {n}$"):
        sample_sparse_channel(n, 1, 0)


def test_generate_exits_1_naming_a_negative_antenna_count(tmp_path, capsys):
    code = cli_main(["generate", "--n", "-3", "--sparsity", "1", "--out", str(tmp_path / "inst")])
    assert code == 1
    assert capsys.readouterr().err == "error: antenna count must be >= 1, got -3\n"


def test_sample_sparse_channel_rejects_generator():
    # Seeds are integers; a ready Generator is not an accepted input.
    with pytest.raises(TypeError):
        sample_sparse_channel(16, 2, make_rng(5))


@pytest.mark.parametrize("name", ["PathSpec", "steering_vector", "spatial_channel",
                                  "to_angular", "split_complex"])
def test_off_grid_channel_model_is_gone(name):
    # The generator draws on the DFT grid; the off-grid multipath model is not shipped.
    assert name not in dcsparse.__all__
    assert not hasattr(dcsparse, name) and not hasattr(dcsparse.channel, name)
