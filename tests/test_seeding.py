import numpy as np
import pytest

import dcsparse
import dcsparse.seeding
from dcsparse.seeding import derive_seed, make_rng


def test_derive_seed_deterministic():
    assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)


def test_derive_seed_distinguishes_parts():
    seen = {derive_seed(42, i, s) for i in range(50) for s in (-1, 5000, 25000)}
    assert len(seen) == 150


def test_derive_seed_order_sensitive():
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)


def test_derive_seed_negative_parts_ok():
    assert derive_seed(3, -1) != derive_seed(3, 1)


def test_make_rng_reproducible():
    a = make_rng(123).standard_normal(5)
    b = make_rng(123).standard_normal(5)
    assert np.array_equal(a, b)


def test_make_rng_accepts_numpy_integers():
    gen = make_rng(np.int64(99))
    assert isinstance(gen, np.random.Generator)
    assert np.array_equal(gen.standard_normal(3), make_rng(99).standard_normal(3))


def test_make_rng_rejects_non_integer_seeds():
    for seed in ("42", 4.0, None, make_rng(1)):
        with pytest.raises(TypeError):
            make_rng(seed)


def test_as_generator_is_gone():
    assert "as_generator" not in dcsparse.__all__
    assert not hasattr(dcsparse, "as_generator")
    assert not hasattr(dcsparse.seeding, "as_generator")
