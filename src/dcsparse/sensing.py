"""Gaussian measurement matrices, compression, and calibrated noise."""

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


class MeasurementMatrix:
    """Dense real measurement operator.

    m and n read phi's shape, which must be 2-D and nonempty.  The
    constructor and every assignment store phi C-ordered from a 64-byte
    boundary, copying any other layout, so the solvers' products run at
    their fastest and a solve depends only on phi's values.  Assigning phi
    also resets the solvers' cached power-method estimate of ||phi^T phi||;
    write a new phi by assigning it, never into phi in place.
    """

    def __init__(self, phi):
        self.phi = phi

    @property
    def phi(self) -> np.ndarray:
        return self._phi

    @phi.setter
    def phi(self, phi):
        phi = np.asanyarray(phi, dtype=float)
        if phi.ndim != 2 or phi.size == 0:
            raise ValueError(f"phi must be a nonempty 2-D array, got shape {phi.shape}")
        if not phi.flags.c_contiguous or phi.ctypes.data % _ALIGN:
            aligned = aligned_empty(phi.shape)
            aligned[...] = phi
            phi = aligned
        self._phi = phi
        self._lam_max_cache = None

    def __repr__(self):
        return f"MeasurementMatrix(phi={self.phi!r})"

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
    return MeasurementMatrix(make_rng(seed).standard_normal(out=aligned_empty((m, n))))


def measure(phi: MeasurementMatrix, x: np.ndarray) -> np.ndarray:
    """Compress a signal: y = phi @ x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (phi.n,):
        raise ValueError(f"signal has shape {x.shape}, expected ({phi.n},)")
    return phi.phi @ x


def snr_to_sigma(x: np.ndarray, m: int, snr_db: float) -> float:
    """Noise standard deviation hitting a target SNR.

    Inverts SNR = ||x||^2 / (m * sigma^2) with the SNR given in dB; raises
    ValueError unless 10^(snr_db/10) is a positive finite float and the
    noise power ||x||^2 / (m * 10^(snr_db/10)) is finite.
    """
    if m < 1:
        raise ValueError(f"measurement count must be >= 1, got {m}")
    energy = float(np.asarray(x, dtype=float) @ np.asarray(x, dtype=float))
    if energy == 0.0:
        raise ValueError("signal energy is zero; SNR is undefined")
    try:
        ratio = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        ratio = np.inf
    if not 0.0 < ratio < np.inf:
        raise ValueError(f"snr_db must be finite with 10^(snr_db/10) in the float range, got {snr_db}")
    power = energy / (m * ratio)
    if power == np.inf:
        raise ValueError("snr_db must be finite with ||x||^2 / (m * 10^(snr_db/10)) in the "
                         f"float range, got {snr_db}")
    return float(np.sqrt(power))


def add_noise(y: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """y plus i.i.d. N(0, sigma^2) noise drawn from an integer seed, as a new array.

    sigma == 0 returns a copy of y.
    """
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    y = np.asarray(y, dtype=float)
    if sigma == 0:
        return y.copy()
    return y + sigma * make_rng(seed).standard_normal(y.size)
