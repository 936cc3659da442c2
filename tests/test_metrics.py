import numpy as np
import pytest

from dcsparse.metrics import normalized_sq_error
from dcsparse.seeding import make_rng


def test_perfect_reconstruction():
    x = np.array([1.0, -2.0, 3.0])
    assert normalized_sq_error(x, x) == 0.0


def test_zero_estimator():
    x = np.array([1.0, 2.0])
    assert normalized_sq_error(x, np.zeros(2)) == pytest.approx(1.0)


def test_double_estimator():
    x = np.array([3.0, -4.0])
    assert normalized_sq_error(x, 2 * x) == pytest.approx(1.0)


def test_rejects_zero_truth():
    with pytest.raises(ValueError):
        normalized_sq_error(np.zeros(3), np.ones(3))


def test_rejects_length_mismatch():
    with pytest.raises(ValueError):
        normalized_sq_error(np.ones(3), np.ones(4))


def test_scale_equivariance():
    rng = make_rng(0)
    x = rng.standard_normal(20)
    xh = x + rng.standard_normal(20)
    base = normalized_sq_error(x, xh)
    for c in (0.5, 2.0, -3.0):
        scaled = normalized_sq_error(x, x + c * (xh - x))
        assert scaled == pytest.approx(c * c * base, rel=1e-12)
