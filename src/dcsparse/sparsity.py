"""Primitive sparsity operators shared by all solvers.

The central object is the top-(k,1) norm: the sum of the k largest
magnitudes of a vector.  ||x||_1 - ||x||_{k,1} vanishes exactly when x has
at most k nonzeros, which is what lets the solvers penalize cardinality
without a combinatorial search.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class SubgradientVector:
    """A subgradient of the top-(k,1) norm: entries in {-1, 0, +1}, sum of |w| equals k."""

    w: np.ndarray


def _check_k(x: np.ndarray, k: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not 1 <= k <= x.size:
        raise ValueError(f"k must lie in [1, {x.size}], got {k}")
    return x


def _top_k_indices(magnitudes: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values; ties at the boundary go to the lowest index."""
    return np.argsort(-magnitudes, kind="stable")[:k]


def _top_k_sum(magnitudes: np.ndarray, k: int) -> float:
    """Sum of the k largest values of a 1-D array."""
    n = magnitudes.size
    if k == n:
        return float(magnitudes.sum())
    return float(np.partition(magnitudes, n - k)[n - k:].sum())


def top_k1_norm(x: np.ndarray, k: int) -> float:
    """Sum of the k largest absolute entries of x."""
    x = _check_k(x, k)
    return _top_k_sum(np.abs(x), k)


def sparsity_gap(x: np.ndarray, k: int) -> float:
    """||x||_1 minus the top-(k,1) norm; zero exactly when x has at most k nonzeros."""
    a = np.abs(_check_k(x, k))
    return float(a.sum()) - _top_k_sum(a, k)


def top_k1_subgradient(x: np.ndarray, k: int) -> SubgradientVector:
    """Subgradient of the top-(k,1) norm at x.

    Signs of the k largest-magnitude entries, zero elsewhere; boundary
    ties break toward the lowest index, and selected zero entries carry
    +1 so that sum(|w|) == k always holds.
    """
    x = _check_k(x, k)
    sel = _top_k_indices(np.abs(x), k)
    w = np.zeros(x.size)
    signs = np.sign(x[sel])
    signs[signs == 0] = 1.0
    w[sel] = signs
    return SubgradientVector(w=w)


def split_pos_neg(x: np.ndarray) -> np.ndarray:
    """Stacked positive and negative parts [u; v], u = max(x, 0), v = max(-x, 0).

    u - v reconstructs x bit for bit.
    """
    x = np.asarray(x, dtype=float)
    return np.concatenate([np.maximum(x, 0.0), np.maximum(-x, 0.0)])


def project_nonneg(z: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the nonnegative orthant."""
    return np.maximum(np.asarray(z, dtype=float), 0.0)

