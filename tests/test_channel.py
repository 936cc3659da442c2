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
from dcsparse.seeding import make_rng

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_with_one_blas_thread(code):
    """Run `code` in a child Python whose BLAS uses one thread; return its stdout.

    With several threads OpenBLAS splits a matrix-vector product's rows
    at points set by the thread count, and rows next to a split get other
    last bits.  The whole product's own bytes then vary with the thread
    count, so comparing h_spatial with it bit for bit needs one thread,
    as bench/run.py and CI pin.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
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


def test_sample_sparse_channel_builds_the_dft_matrix_only_for_h_spatial(count_calls):
    calls = count_calls(dcsparse.channel, ("_dft_columns",))
    s = sample_sparse_channel(130, 4, 5)
    assert calls["_dft_columns"] == 0
    h = s.h_spatial
    # Blocks of 64, 64 and 2 columns.
    assert calls["_dft_columns"] == 3
    # The same products from dft_matrix's own columns: the same BLAS calls,
    # so equal at any thread count.  The whole product is checked below.
    u = dft_matrix(130)
    blocks = [np.conj(u[:, a:b]).T @ s.h_angular for a, b in [(0, 64), (64, 128), (128, 130)]]
    assert np.array_equal(h, np.concatenate(blocks))


@pytest.mark.parametrize("n", [1, 31, 64])
def test_dft_matrix_and_h_spatial_are_the_reference_expressions_bit_for_bit(n):
    phis = (np.arange(1, n + 1) - (n + 1) / 2) / n
    reference = np.exp(2j * np.pi * np.outer(phis, np.arange(n))) / np.sqrt(n)
    assert dft_matrix(n).tobytes() == reference.tobytes()
    s = sample_sparse_channel(n, min(n, 4), n)
    assert s.h_spatial.tobytes() == (reference.conj().T @ s.h_angular).tobytes()


def test_h_spatial_is_the_whole_dft_product_bit_for_bit():
    # A lone last column would go through numpy's dot routine, whose last
    # bits differ: n = 1 (mod 64) is where that would show.
    differ = _run_with_one_blas_thread("""
        import numpy as np
        from dcsparse.channel import dft_matrix, sample_sparse_channel
        differ = []
        for n in [*range(1, 301), 1023, 1024, 1025]:
            s = sample_sparse_channel(n, min(n, 16), n)
            if s.h_spatial.tobytes() != (np.conj(dft_matrix(n)).T @ s.h_angular).tobytes():
                differ.append(n)
        print(differ)
    """)
    assert differ.strip() == "[]"
    # At this process's own BLAS thread count the two agree to rounding.
    for n in [65, 130, 1025]:
        s = sample_sparse_channel(n, 16, n)
        whole = np.conj(dft_matrix(n)).T @ s.h_angular
        assert np.linalg.norm(s.h_spatial - whole) <= 1e-15 * np.linalg.norm(whole)


@pytest.mark.parametrize("n, start, stop", [(1, 0, 1), (7, 2, 5), (130, 64, 130), (256, 0, 256)])
def test_dft_columns_are_the_dft_matrix_columns(n, start, stop):
    block = dcsparse.channel._dft_columns(n, start, stop)
    assert block.flags.c_contiguous
    assert block.tobytes() == np.ascontiguousarray(dft_matrix(n)[:, start:stop]).tobytes()


def test_h_spatial_holds_one_column_block_at_its_peak(traced_peak):
    # U is 16 MiB at n = 1024; a 64-column block is 1 MiB.
    s = sample_sparse_channel(1024, 16, 3)
    assert traced_peak(lambda: s.h_spatial) <= 2 * 2**20


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
