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
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not 1 <= k <= x.shape[-1]:
        raise ValueError(f"k must lie in [1, {x.shape[-1]}], got {k}")
    return x


def _sorted_magnitudes(x: np.ndarray, k: int):
    """|x| in ascending order along the last axis, and n - k, where its k largest start."""
    a = np.sort(np.abs(_check_k(x, k)), axis=-1)
    return a, a.shape[-1] - k


def top_k1_norm(x: np.ndarray, k: int) -> float | np.ndarray:
    """Sum of the k largest absolute entries of x: a float, or one per row of a stack."""
    a, n_k = _sorted_magnitudes(x, k)
    v = a[..., n_k:].sum(axis=-1)
    return float(v) if v.ndim == 0 else v


def sparsity_gap(x: np.ndarray, k: int) -> float | np.ndarray:
    """||x||_1 minus the top-(k,1) norm, per point as top_k1_norm.

    Summed as the n - k smallest magnitudes, so exactly 0 when x has at most k nonzeros.
    """
    a, n_k = _sorted_magnitudes(x, k)
    v = a[..., :n_k].sum(axis=-1)
    return float(v) if v.ndim == 0 else v


def top_k1_subgradient(x: np.ndarray, k: int) -> SubgradientVector:
    """Subgradient of the top-(k,1) norm at x.

    Signs of the k largest-magnitude entries, zero elsewhere; boundary
    ties break toward the lowest index, and selected zero entries carry
    +1 so that sum(|w|) == k always holds.
    """
    x = _check_k(x, k)
    sel = np.argsort(-np.abs(x), kind="stable")[:k]
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

