"""Massive-MIMO angular-domain channel generation on the DFT grid.

A uniform linear array with half-wavelength spacing sees each propagation
path as a complex sinusoid across its elements.  The unitary DFT matrix
built from the array's orthogonal steering directions maps the spatial
channel to the angular domain, where scattering is concentrated in a few
bins.  sample_sparse_channel draws such a sparse angular channel on that
grid and stacks its real and imaginary parts into the real sparse vector
the solvers work on.  ChannelSample.h_spatial maps it back to the array as
the sum of the sparse paths' array responses, one per nonzero bin.
"""

from dataclasses import dataclass

import numpy as np

from .seeding import make_rng

@dataclass(eq=False)
class ChannelSample:
    """One channel realization; treat as read-only after construction.

    x_real stacks [Re(h_angular); Im(h_angular)] and is what the solvers
    reconstruct.
    """

    h_angular: np.ndarray
    x_real: np.ndarray

    @property
    def h_spatial(self) -> np.ndarray:
        """The spatial channel U^H h_angular, as the sum of its paths' array responses.

        Only the s rows of U at the s nonzero angular bins contribute, so an
        access builds those rows, conjugates them in place, scales each by
        its gain and sums them: one s x n complex block, never the n x n U.
        The sum is a numpy reduction with no BLAS call, so its bytes do not
        depend on the BLAS thread count.  It matches
        conj(dft_matrix(n)).T @ h_angular to rounding, not bit for bit.
        """
        n = self.h_angular.size
        bins = np.flatnonzero(self.h_angular)
        rows = _dft_rows(n, bins)
        np.conj(rows, out=rows)
        rows *= self.h_angular[bins, None]
        return rows.sum(axis=0)


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix whose rows are conjugated array responses.

    Row i (1-based) holds exp(2j*pi*phi_i*l) / sqrt(n), l = 0..n-1: the
    conjugate of the half-wavelength array's response to direction
    phi_i = (i - (n+1)/2) / n, the grid of an n-element array.  Satisfies
    U @ U^H = I.  It is _dft_rows(n, np.arange(n)), so the rows that
    h_spatial builds hold the same bytes.
    """
    if n < 1:
        raise ValueError(f"antenna count must be >= 1, got {n}")
    return _dft_rows(n, np.arange(n))


def _dft_rows(n: int, bins: np.ndarray) -> np.ndarray:
    """Rows `bins` of dft_matrix(n), as a C-ordered len(bins) x n array.

    Each step writes into the one complex result, with the ufuncs and
    operand order of exp(2j*pi*outer(phis, l)) / sqrt(n), so the values
    are bit for bit that expression's.  The outer product goes into u.real
    row by row, so no ufunc buffer casts it to complex or gathers strides.
    """
    phis = (np.arange(1, n + 1) - (n + 1) / 2) / n
    l = np.arange(n, dtype=float)
    u = np.zeros((len(bins), n), dtype=complex)
    for row, phi in zip(u.real, phis[bins]):
        np.multiply(phi, l, out=row)
    np.multiply(2j * np.pi, u, out=u)
    np.exp(u, out=u)
    return np.divide(u, np.sqrt(n), out=u)


def concat_real(h_angular: np.ndarray) -> np.ndarray:
    """Stack real parts over imaginary parts: length doubles."""
    h = np.asarray(h_angular, dtype=complex)
    return np.concatenate([h.real, h.imag])


def sample_sparse_channel(n: int, sparsity: int, seed: int) -> ChannelSample:
    """Draw a synthetic K-sparse angular channel.

    The support is a uniform random choice of `sparsity` distinct bins and
    the nonzero gains are circularly-symmetric complex standard normal.
    Components that come out exactly 0.0 are redrawn so the stacked real
    vector always has exactly 2 * sparsity nonzeros.  Deterministic in the
    integer `seed`.
    """
    if n < 1:
        raise ValueError(f"antenna count must be >= 1, got {n}")
    if not 1 <= sparsity <= n:
        raise ValueError(f"sparsity must lie in [1, {n}], got {sparsity}")
    gen = make_rng(seed)
    support = np.sort(gen.choice(n, size=sparsity, replace=False))
    re = gen.standard_normal(sparsity)
    im = gen.standard_normal(sparsity)
    bad = (re == 0.0) | (im == 0.0)
    while bad.any():
        re[bad] = gen.standard_normal(int(bad.sum()))
        im[bad] = gen.standard_normal(int(bad.sum()))
        bad = (re == 0.0) | (im == 0.0)
    h_angular = np.zeros(n, dtype=complex)
    h_angular[support] = (re + 1j * im) / np.sqrt(2.0)
    return ChannelSample(h_angular=h_angular, x_real=concat_real(h_angular))
