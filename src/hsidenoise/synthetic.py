"""Deterministic synthetic ground truth for benchmarks and tests.

Builds cubes that satisfy the factor model exactly: smooth, low-rank
abundance slices composed with random orthonormal signatures whose leading
column is near-constant, so the cube looks like a bright smooth background
with weaker oscillating structure, roughly on a [0, 1] reflectance scale.
"""

from numbers import Integral

import numpy as np

from .errors import ShapeError
from .factorization import MvtfFactors, compose, fix_column_signs


def _bump(n, center, width):
    t = np.linspace(0.0, 1.0, n)
    return np.exp(-((t - center) ** 2) / (2.0 * width**2))


def smooth_lowrank_factors(dims, r, slice_rank=3, seed=0):
    """Random factors with smooth abundance slices of rank <= ``slice_rank``.

    Each slice is a sum of separable products of 1-D Gaussian bumps riding
    on a positive floor; the signatures come from a QR factorization biased
    toward a positive leading column.  ``dims`` is (I, J, K), three
    positive sizes; ``r`` must lie in [1, K], since the K x r signature
    matrix has orthonormal columns, and ``slice_rank`` must be at least 1.
    Any other value is a ``ValueError`` that names the argument.
    """
    if len(dims) != 3 or not all(isinstance(n, Integral) and n >= 1 for n in dims):
        raise ShapeError(f"dims must be three positive sizes (I, J, K), got {dims!r}")
    i, j, k = dims
    if not 1 <= r <= k:
        raise ShapeError(f"r must be in [1, {k}] for a cube of {k} bands, got {r}")
    if slice_rank < 1:
        raise ValueError(f"slice_rank must be at least 1, got {slice_rank}")
    rng = np.random.Generator(np.random.Philox(seed))
    g = np.zeros((r, i, j))
    for slot in range(r):
        # the leading slice dominates so the composed cube stays nearly
        # nonnegative after scaling, like a bright smooth background
        amp_lo, amp_hi = (5.0, 7.5) if slot == 0 else (0.5, 1.0)
        for _ in range(min(slice_rank, min(i, j))):
            row = _bump(i, rng.uniform(0.2, 0.8), rng.uniform(0.1, 0.3)) + 0.2
            col = _bump(j, rng.uniform(0.2, 0.8), rng.uniform(0.1, 0.3)) + 0.2
            g[slot] += rng.uniform(amp_lo, amp_hi) * np.outer(row, col)
    raw = np.ones((k, r)) + 0.4 * rng.standard_normal((k, r))
    c = fix_column_signs(np.linalg.qr(raw)[0])
    return MvtfFactors(g=g, c=c)


def smooth_lowrank_cube(dims, r, slice_rank=3, seed=0, peak=1.0):
    """Compose factors and rescale so the cube's largest magnitude is ``peak``.

    Rescaling only the abundances keeps the cube exactly inside the factor
    model.  Returns (cube, factors) with the factors already rescaled.
    """
    factors = smooth_lowrank_factors(dims, r, slice_rank=slice_rank, seed=seed)
    cube = compose(factors)
    scale = peak / np.max(np.abs(cube))
    factors = MvtfFactors(g=factors.g * scale, c=factors.c)
    return cube * scale, factors
