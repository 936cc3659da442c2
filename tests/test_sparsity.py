from itertools import product

import numpy as np
import pytest

import dcsparse
import dcsparse.sparsity
from dcsparse.seeding import make_rng
from dcsparse.sparsity import (project_nonneg, sparsity_gap, split_pos_neg,
                               top_k1_norm, top_k1_subgradient)


def test_top_k1_norm_basic():
    assert top_k1_norm(np.array([3.0, -1.0, 2.0]), 2) == 5.0


def test_top_k1_norm_full_length_is_l1():
    x = np.array([1.0, -4.0, 2.5])
    assert top_k1_norm(x, 3) == pytest.approx(np.abs(x).sum())


def test_top_k1_norm_zero_vector():
    assert top_k1_norm(np.zeros(3), 1) == 0.0


def test_top_k1_norm_k_range():
    with pytest.raises(ValueError):
        top_k1_norm(np.ones(3), 0)
    with pytest.raises(ValueError):
        top_k1_norm(np.ones(3), 4)


def test_top_k1_identities_random():
    rng = make_rng(1)
    for _ in range(30):
        x = rng.standard_normal(rng.integers(1, 20))
        assert top_k1_norm(x, 1) == pytest.approx(np.max(np.abs(x)))
        assert top_k1_norm(x, x.size) == pytest.approx(np.abs(x).sum())


def test_top_k1_monotone_in_k():
    rng = make_rng(2)
    x = rng.standard_normal(12)
    values = [top_k1_norm(x, k) for k in range(1, 13)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_sparsity_gap_basic():
    assert sparsity_gap(np.array([3.0, -1.0, 2.0]), 2) == pytest.approx(1.0)


def test_sparsity_gap_sparse_vector_is_zero():
    assert sparsity_gap(np.array([0.0, 5.0, 0.0, -2.0]), 2) == 0.0


def test_sparsity_gap_one_excess():
    assert sparsity_gap(np.ones(4), 3) == pytest.approx(1.0)


def test_sparsity_gap_is_exactly_zero_on_vectors_with_at_most_k_nonzeros():
    # Taken as ||x||_1 minus the top-k sum, the gap rounded to about 1e-15
    # on a third of these vectors; as the sum of the n - k smallest it is 0.
    rng = make_rng(5)
    x = np.zeros((2000, 512))
    for row in x:
        support = rng.choice(512, rng.integers(0, 33), replace=False)
        row[support] = rng.standard_normal(support.size) * 10.0 ** rng.uniform(-3, 3, support.size)
    assert not sparsity_gap(x, 32).any()
    assert all(sparsity_gap(row, 32) == 0.0 for row in x)


def test_top_k1_norm_and_gap_act_on_the_last_axis():
    x = np.array([[3.0, -1.0, 2.0], [0.0, 0.0, 0.0], [1.0, -1.0, 1.0]])
    assert top_k1_norm(x, 2).tolist() == [5.0, 0.0, 2.0]
    assert sparsity_gap(x, 2).tolist() == [1.0, 0.0, 1.0]
    assert sparsity_gap(x[None], 3).shape == (1, 3)
    assert type(top_k1_norm(x[0], 2)) is float and type(sparsity_gap(x[0], 2)) is float


def test_sparsity_gap_l0_equivalence_exhaustive():
    # Gap == 0 exactly characterizes "at most k nonzeros" on all of {-1,0,1}^6.
    for entries in product((-1.0, 0.0, 1.0), repeat=6):
        x = np.array(entries)
        nnz = np.count_nonzero(x)
        for k in range(1, 7):
            gap = sparsity_gap(x, k)
            assert (gap == 0.0) == (nnz <= k)


def test_subgradient_basic():
    assert np.array_equal(top_k1_subgradient(np.array([3.0, -1.0, 2.0]), 2).w,
                          np.array([1.0, 0.0, 1.0]))


def test_subgradient_single_negative():
    assert np.array_equal(top_k1_subgradient(np.array([-5.0]), 1).w, np.array([-1.0]))


def test_subgradient_tie_breaks_to_lowest_index():
    assert np.array_equal(top_k1_subgradient(np.array([2.0, -2.0, 1.0]), 1).w,
                          np.array([1.0, 0.0, 0.0]))


def test_subgradient_mass_and_inner_product():
    rng = make_rng(3)
    for _ in range(50):
        x = rng.standard_normal(rng.integers(1, 16))
        k = int(rng.integers(1, x.size + 1))
        sub = top_k1_subgradient(x, k)
        assert np.abs(sub.w).sum() == k
        assert x @ sub.w == pytest.approx(top_k1_norm(x, k), abs=1e-12)


def test_subgradient_zero_entries_selected_get_plus_one():
    w = top_k1_subgradient(np.zeros(4), 2).w
    assert np.abs(w).sum() == 2
    assert set(w) <= {0.0, 1.0}


def test_subgradient_brute_force_optimality():
    # The returned w attains max <x, w> over all w with entries in {-1,0,1}
    # and sum |w_i| == k (the extreme points of the feasible set).
    rng = make_rng(4)
    for n in (3, 5, 8):
        x = rng.standard_normal(n)
        for k in range(1, n + 1):
            best = max(float(x @ np.array(w)) for w in product((-1, 0, 1), repeat=n)
                       if sum(abs(e) for e in w) == k)
            assert x @ top_k1_subgradient(x, k).w == pytest.approx(best, abs=1e-12)


def test_split_pos_neg_basic():
    s = split_pos_neg(np.array([1.0, -2.0, 0.0]))
    assert np.array_equal(s, np.array([1.0, 0.0, 0.0, 0.0, 2.0, 0.0]))


def test_split_pos_neg_nonnegative_input():
    x = np.array([0.5, 2.0, 0.0])
    s = split_pos_neg(x)
    assert np.array_equal(s[:3], x)
    assert np.array_equal(s[3:], np.zeros(3))


def test_split_merge_round_trip_bit_exact():
    rng = make_rng(5)
    x = rng.standard_normal(40)
    s = split_pos_neg(x)
    assert np.array_equal(s[:40] - s[40:], x)


def test_split_complementarity():
    rng = make_rng(6)
    s = split_pos_neg(rng.standard_normal(25))
    assert np.all(s >= 0.0)
    assert np.all(s[:25] * s[25:] == 0.0)


def test_project_nonneg_basic():
    assert np.array_equal(project_nonneg(np.array([-1.0, 2.0])), np.array([0.0, 2.0]))


def test_project_nonneg_fixed_point_and_idempotent():
    z = np.array([0.0, 3.0, 1.5])
    assert np.array_equal(project_nonneg(z), z)
    w = np.array([-2.0, 0.1, -0.3])
    assert np.array_equal(project_nonneg(project_nonneg(w)), project_nonneg(w))


def test_project_nonneg_nonexpansive():
    rng = make_rng(7)
    for _ in range(50):
        a, b = rng.standard_normal(10), rng.standard_normal(10)
        assert (np.linalg.norm(project_nonneg(a) - project_nonneg(b))
                <= np.linalg.norm(a - b) + 1e-15)



def test_soft_threshold_is_not_exported():
    # ista's proximal loop inlines the shrinkage; there is no public helper.
    assert "soft_threshold" not in dcsparse.__all__
    assert not hasattr(dcsparse, "soft_threshold")
    assert not hasattr(dcsparse.sparsity, "soft_threshold")
