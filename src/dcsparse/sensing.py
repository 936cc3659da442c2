"""Gaussian measurement matrices, compression, and calibrated noise."""

from dataclasses import dataclass, field

import numpy as np

from .seeding import make_rng


# Byte boundary the operator's storage starts on.  With AVX-512 OpenBLAS
# kernels a 128 x 512 matrix-vector pair took 18.5 us on a 64-byte-aligned
# matrix and 26-29 us at every other offset, with bit-identical results;
# malloc only guarantees 16 bytes.
_ALIGN = 64


def aligned_empty(shape) -> np.ndarray:
    """An uninitialized C-ordered float array whose data starts on an _ALIGN-byte boundary.

    The solvers' work vectors come from here as well as phi: where plain
    np.empty puts them follows the heap, and their offset moved solve
    times by about 10% with no change to the results.
    """
    nbytes = int(np.prod(shape)) * np.dtype(float).itemsize
    buf = np.empty(nbytes + _ALIGN, dtype=np.uint8)
    start = -buf.ctypes.data % _ALIGN
    return buf[start:start + nbytes].view(float).reshape(shape)


@dataclass(eq=False)
class MeasurementMatrix:
    """Dense real measurement operator with its draw seed.

    m and n read phi's shape, which must be 2-D and nonempty.  phi is
    stored C-ordered, starting on a 64-byte boundary, and any other phi is
    copied into such an array; the solvers' matrix-vector products are
    fastest on it.  A solve therefore depends only on phi's values, not on
    how the caller laid them out.

    The solvers keep their power-method estimate of ||phi^T phi|| as
    (phi, value) in _lam_max_cache and reuse it only while phi is that
    same array object; write to a fresh array, not into phi in place.
    """

    phi: np.ndarray
    seed: int | None = field(default=None, kw_only=True)
    _lam_max_cache: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        if self.phi.ndim != 2 or self.phi.size == 0:
            raise ValueError(f"phi must be a nonempty 2-D array, got shape {self.phi.shape}")
        if not self.phi.flags.c_contiguous or self.phi.ctypes.data % _ALIGN:
            aligned = aligned_empty(self.phi.shape)
            aligned[...] = self.phi
            self.phi = aligned

    @property
    def m(self) -> int:
        return self.phi.shape[0]

    @property
    def n(self) -> int:
        return self.phi.shape[1]


def gaussian_matrix(m: int, n: int, seed: int) -> MeasurementMatrix:
    """Draw an m x n matrix with i.i.d. standard normal entries from an integer seed."""
    if m < 1 or n < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {m}x{n}")
    return MeasurementMatrix(make_rng(seed).standard_normal(out=aligned_empty((m, n))), seed=int(seed))


def measure(phi: MeasurementMatrix, x: np.ndarray) -> np.ndarray:
    """Compress a signal: y = phi @ x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (phi.n,):
        raise ValueError(f"signal has length {x.shape[0] if x.ndim else 0} but matrix has {phi.n} columns")
    return phi.phi @ x


def snr_to_sigma(x: np.ndarray, m: int, snr_db: float) -> float:
    """Noise standard deviation hitting a target SNR.

    Inverts SNR = ||x||^2 / (m * sigma^2) with the SNR given in dB.
    """
    if m < 1:
        raise ValueError(f"measurement count must be >= 1, got {m}")
    energy = float(np.asarray(x, dtype=float) @ np.asarray(x, dtype=float))
    if energy == 0.0:
        raise ValueError("signal energy is zero; SNR is undefined")
    return float(np.sqrt(energy / (m * 10.0 ** (snr_db / 10.0))))


def add_noise(y: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """y plus i.i.d. N(0, sigma^2) noise drawn from an integer seed, as a new array.

    sigma == 0 returns a copy of y.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    y = np.asarray(y, dtype=float)
    if sigma == 0:
        return y.copy()
    return y + sigma * make_rng(seed).standard_normal(y.size)
