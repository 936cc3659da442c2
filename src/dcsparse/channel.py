"""Massive-MIMO angular-domain channel generation on the DFT grid.

A uniform linear array with half-wavelength spacing sees each propagation
path as a complex sinusoid across its elements.  The unitary DFT matrix
built from the array's orthogonal steering directions maps the spatial
channel to the angular domain, where scattering is concentrated in a few
bins.  sample_sparse_channel draws such a sparse angular channel on that
grid and stacks its real and imaginary parts into the real sparse vector
the solvers work on; ChannelSample.h_spatial maps it back to the array.
"""

from dataclasses import dataclass

import numpy as np

from .seeding import make_rng

# Columns of U that ChannelSample.h_spatial builds and multiplies at a time:
# a 1 MiB block at n = 1024, where U is 16 MiB.
_DFT_BLOCK = 64


@dataclass(eq=False)
class ChannelSample:
    """One channel realization; treat as read-only after construction.

    x_real stacks [Re(h_angular); Im(h_angular)] and is what the solvers
    reconstruct.  `sparsity` counts nonzero complex angular entries; seed
    is the integer seed the sample was drawn from.
    """

    h_angular: np.ndarray
    x_real: np.ndarray
    sparsity: int
    seed: int

    @property
    def h_spatial(self) -> np.ndarray:
        """The spatial channel U^H h_angular, computed _DFT_BLOCK columns of U at a time.

        Each block of columns is built, conjugated in place and multiplied
        by h_angular before the next one, so an access holds one n x
        _DFT_BLOCK complex block at its peak, never the n x n U.  The
        result is bit for bit conj(dft_matrix(n)).T @ h_angular: a block
        holds the bytes of U's columns, and BLAS gives each row of the
        product the same bits at any block width but one.  A one-column
        block goes through numpy's dot routine instead, whose last bits
        differ, so the blocks start short of the last column and it joins
        the block before it.  That holds with one BLAS thread; with more,
        BLAS splits each product's rows at points set by the thread count,
        so the whole product's own last bits vary with it, and so do these.
        """
        n = self.h_angular.size
        edges = [*range(0, max(n - 1, 1), _DFT_BLOCK), n]
        out = np.empty(n, dtype=complex)
        for start, stop in zip(edges, edges[1:]):
            u = _dft_columns(n, start, stop)
            out[start:stop] = np.conj(u, out=u).T @ self.h_angular
            del u  # free this block before the next one is built
        return out


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix whose rows are conjugated array responses.

    Row i (1-based) holds exp(2j*pi*phi_i*l) / sqrt(n), l = 0..n-1: the
    conjugate of the half-wavelength array's response to direction
    phi_i = (i - (n+1)/2) / n, the grid of an n-element array.  Satisfies
    U @ U^H = I.  It is _dft_columns(n, 0, n), so any block of its
    columns that h_spatial builds holds the same bytes.
    """
    if n < 1:
        raise ValueError(f"antenna count must be >= 1, got {n}")
    return _dft_columns(n, 0, n)


def _dft_columns(n: int, start: int, stop: int) -> np.ndarray:
    """Columns [start, stop) of dft_matrix(n), as a C-ordered n x (stop - start) array.

    Each step writes into the one complex result, with the ufuncs and
    operand order of exp(2j*pi*outer(phis, l)) / sqrt(n), so the values
    are bit for bit that expression's.
    """
    phis = (np.arange(1, n + 1) - (n + 1) / 2) / n
    u = np.multiply.outer(phis, np.arange(start, stop), out=np.empty((n, stop - start), dtype=complex))
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
    return ChannelSample(
        h_angular=h_angular,
        x_real=concat_real(h_angular),
        sparsity=sparsity,
        seed=int(seed),
    )
