"""Reconstruction error measures."""

import numpy as np


def sq_norms(v: np.ndarray) -> np.ndarray:
    """Squared l2 norm along the last axis, each by the BLAS dot that v @ v takes on a vector."""
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def normalized_sq_error(x_true: np.ndarray, x_hat: np.ndarray) -> float | np.ndarray:
    """Squared l2 error of x_hat relative to the squared norm of x_true.

    A float for one x_hat, one value per row for a stack of them.
    """
    x_true = np.asarray(x_true, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if x_true.ndim == 0 or x_true.shape[-1:] != x_hat.shape[-1:]:
        raise ValueError(f"vector lengths differ: {x_true.shape} vs {x_hat.shape}")
    energy = sq_norms(x_true)
    if np.any(energy == 0.0):
        raise ValueError("ground truth has zero norm; normalized error is undefined")
    v = sq_norms(x_true - x_hat) / energy
    return float(v) if v.ndim == 0 else v
