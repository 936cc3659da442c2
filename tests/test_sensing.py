import numpy as np
import pytest

from dcsparse.seeding import make_rng
from dcsparse.sensing import (MeasurementMatrix, add_noise, gaussian_matrix,
                              measure, snr_to_sigma)


def test_gaussian_matrix_deterministic():
    a = gaussian_matrix(8, 16, 42)
    b = gaussian_matrix(8, 16, 42)
    assert np.array_equal(a.phi, b.phi)


def test_gaussian_matrix_statistics():
    m = gaussian_matrix(128, 512, 7)
    entries = m.phi.ravel()
    assert abs(entries.mean()) <= 0.02
    assert abs(entries.var() - 1.0) <= 0.05


def test_gaussian_matrix_single_entry():
    m = gaussian_matrix(1, 1, 3)
    assert m.phi.shape == (1, 1)
    assert np.isfinite(m.phi[0, 0])


def test_gaussian_matrix_rejects_zero_dims():
    with pytest.raises(ValueError):
        gaussian_matrix(0, 4, 1)
    with pytest.raises(ValueError):
        gaussian_matrix(4, 0, 1)


def test_measurement_matrix_validates_shape():
    for phi in (np.ones(3), np.ones((2, 3, 1)), np.ones((0, 3)), np.ones((3, 0)), 1.0):
        with pytest.raises(ValueError, match="nonempty 2-D"):
            MeasurementMatrix(phi)


def test_measurement_matrix_dimensions_are_phi_shape():
    mm = MeasurementMatrix(np.eye(3, 5))
    assert (mm.m, mm.n) == (3, 5)
    # phi is the one constructor argument: a positional dimension is not taken.
    with pytest.raises(TypeError):
        MeasurementMatrix(np.eye(3, 5), 3)
    with pytest.raises(AttributeError):
        mm.m = 4
    mm.phi = np.eye(2, 4)
    assert (mm.m, mm.n) == (2, 4)


def test_generators_reject_a_ready_generator():
    with pytest.raises(TypeError):
        gaussian_matrix(3, 4, make_rng(1))
    with pytest.raises(TypeError):
        add_noise(np.zeros(3), 0.5, make_rng(1))


def test_measurement_matrix_storage_is_cache_aligned():
    raw = gaussian_matrix(5, 7, 2).phi.copy()
    buf = np.empty(raw.size + 1)
    strided = np.empty((5, 14))[:, ::2]
    # Whatever the input's layout, phi is stored as an aligned C array of its values.
    for layout in (buf[:raw.size].reshape(5, 7), buf[1:].reshape(5, 7),
                   np.asfortranarray(raw), strided):
        layout[...] = raw
        mm = MeasurementMatrix(layout)
        assert mm.phi.flags.c_contiguous and mm.phi.ctypes.data % 64 == 0
        assert np.array_equal(mm.phi, raw)


def test_gaussian_matrix_draws_straight_into_its_storage(traced_peak):
    for seed in range(8):
        ref = make_rng(seed).standard_normal((128, 512))
        holder = []
        peak = traced_peak(lambda: holder.append(gaussian_matrix(128, 512, seed)))
        phi = holder[0].phi
        assert phi.tobytes() == ref.tobytes()
        # No copy: the draw is already aligned C storage, kept as it is.
        assert peak < 1.25 * phi.nbytes
        assert MeasurementMatrix(phi).phi is phi


def test_measure_identity():
    phi = MeasurementMatrix(np.eye(5))
    x = np.arange(5.0)
    assert np.array_equal(measure(phi, x), x)


def test_measure_zero():
    phi = gaussian_matrix(4, 6, 1)
    assert np.array_equal(measure(phi, np.zeros(6)), np.zeros(4))


def test_measure_linearity():
    phi = gaussian_matrix(5, 9, 2)
    rng = make_rng(3)
    x1, x2 = rng.standard_normal(9), rng.standard_normal(9)
    lhs = measure(phi, 2.5 * x1 - 1.5 * x2)
    rhs = 2.5 * measure(phi, x1) - 1.5 * measure(phi, x2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_measure_dimension_mismatch():
    phi = gaussian_matrix(4, 6, 1)
    with pytest.raises(ValueError, match="6"):
        measure(phi, np.zeros(5))


def test_measure_names_the_shape_of_a_column_signal():
    with pytest.raises(ValueError, match=r"^signal has shape \(6, 1\), expected \(6,\)$"):
        measure(gaussian_matrix(4, 6, 1), np.zeros((6, 1)))


def test_snr_to_sigma_zero_db():
    x = np.array([2.0, 0.0])  # energy 4
    assert snr_to_sigma(x, 2, 0.0) == pytest.approx(np.sqrt(2.0))


def test_snr_to_sigma_high_snr_limit():
    x = np.ones(4)
    assert snr_to_sigma(x, 4, 200.0) < 1e-9
    assert snr_to_sigma(x, 4, 40.0) < snr_to_sigma(x, 4, 20.0)


def test_snr_to_sigma_20db():
    assert snr_to_sigma(np.array([1.0]), 1, 20.0) == pytest.approx(0.1)


def test_snr_to_sigma_rejects_zero_signal():
    with pytest.raises(ValueError):
        snr_to_sigma(np.zeros(3), 2, 10.0)


@pytest.mark.parametrize("snr_db", [np.nan, np.inf, -np.inf, 1e305, -1e305, -3200])
def test_snr_to_sigma_rejects_an_snr_whose_ratio_is_not_a_positive_float(snr_db):
    # 1e305 overflows 10^(snr_db/10) and -1e305 underflows it to 0; at -3200
    # the ratio is a subnormal 1e-320 and ||x||^2 / (m * ratio) overflows.
    with pytest.raises(ValueError, match="snr_db must be finite"):
        snr_to_sigma(np.ones(4), 4, snr_db)


def test_snr_to_sigma_keeps_the_formula_bit_for_bit():
    x = make_rng(4).standard_normal(32)
    energy = float(x @ x)
    for snr_db in (-3000.0, -300.0, -10.5, 0.0, 5.0, 25.0, 300.0, 3000.0, np.float64(12.5)):
        assert snr_to_sigma(x, 24, snr_db) == float(np.sqrt(energy / (24 * 10.0 ** (snr_db / 10.0))))


def test_add_noise_noiseless_passthrough():
    y = np.arange(4.0)
    out = add_noise(y, 0.0, 1)
    assert np.array_equal(out, y)
    assert not np.shares_memory(out, y)


def test_add_noise_deterministic():
    y = np.zeros(16)
    a = add_noise(y, 0.3, 11)
    b = add_noise(y, 0.3, 11)
    assert np.array_equal(a, b)


def test_add_noise_sample_variance():
    y = np.zeros(10_000)
    noisy = add_noise(y, 1.0, 5)
    assert abs((noisy - y).var() - 1.0) <= 0.05


def test_add_noise_rejects_negative_sigma():
    with pytest.raises(ValueError):
        add_noise(np.zeros(3), -0.1, 1)


@pytest.mark.parametrize("sigma", [np.nan, np.inf])
def test_add_noise_rejects_a_sigma_that_is_not_finite(sigma):
    with pytest.raises(ValueError, match="sigma must be finite"):
        add_noise(np.zeros(3), sigma, 1)


def test_empirical_snr_matches_request():
    rng = make_rng(9)
    x = rng.standard_normal(512)
    m = 10_000
    snr_db = 15.0
    sigma = snr_to_sigma(x, m, snr_db)
    noise = add_noise(np.zeros(m), sigma, 23)
    measured = 10.0 * np.log10((x @ x) / (m * noise.var()))
    assert abs(measured - snr_db) <= 0.5
