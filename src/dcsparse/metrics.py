"""Reconstruction error measures."""

import numpy as np


def normalized_sq_error(x_true: np.ndarray, x_hat: np.ndarray) -> float:
    """Squared l2 error of x_hat relative to the squared norm of x_true."""
    x_true = np.asarray(x_true, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if x_true.shape != x_hat.shape:
        raise ValueError(f"vector lengths differ: {x_true.shape} vs {x_hat.shape}")
    energy = float(x_true @ x_true)
    if energy == 0.0:
        raise ValueError("ground truth has zero norm; normalized error is undefined")
    diff = x_true - x_hat
    return float(diff @ diff) / energy
