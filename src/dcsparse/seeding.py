"""Deterministic random number generation.

Every stochastic operation in this package draws from numpy's PCG64
generator and takes an integer seed for it as an explicit argument;
nothing touches global RNG state.  Sub-seeds for independent benchmark
cells are derived with splitmix64 mixing so that adding cells to an
experiment never perturbs existing ones.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(v: int) -> int:
    """splitmix64 finalizer: avalanche a 64-bit value."""
    v &= _MASK64
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & _MASK64
    return v ^ (v >> 31)


def derive_seed(base_seed: int, *parts: int) -> int:
    """Fold integer identifiers into a fresh 64-bit sub-seed.

    Deterministic in (base_seed, parts); distinct part tuples give
    independent streams for all practical purposes.
    """
    h = _mix64(int(base_seed))
    for p in parts:
        h = _mix64((h + _GOLDEN) ^ _mix64(int(p)))
    return h


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator for a 64-bit integer seed; any other type raises TypeError."""
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    return np.random.Generator(np.random.PCG64(int(seed) & _MASK64))
