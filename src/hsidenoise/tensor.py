"""Dense third-order tensor primitives.

A hyperspectral cube with I rows, J columns and K spectral bands is kept as
a real floating-point numpy array of shape (K, I, J): band-sequential
layout, each band one contiguous I x J plane.  Entry (i, j, k) of the cube
lives at ``a[k, i, j]``.  The spectral (mode-3) unfolding places entry
(i, j, k) at row k, column i*J + j, which for this layout is a plain
reshape.  The same convention extends to factor stacks: anything indexed
"per band" or "per slice" puts that index on axis 0.

Passes over a whole cube (the solver's band-local steps and TV objective,
SSIM's local statistics) run over the band blocks of :func:`band_blocks`.

Files and metrics work in float64, the solver in float32 (see
:func:`hsidenoise.solver.solve`); the primitives here compute in the dtype
of their inputs.
"""

import numpy as np

from .errors import ShapeError

# bytes of a cube that one band block spans: a block's share of every array
# a pass reads then stays in cache from one operation to the next
_BLOCK_BYTES = 512 * 1024


def band_blocks(cube):
    """Slices of consecutive bands of ``cube``, each spanning about ``_BLOCK_BYTES`` of it.

    Each holds at least one band; a stack of no bands has no blocks.
    """
    k = cube.shape[0]
    # cube[:1] holds no band, and no bytes, when k is 0
    per_block = max(1, _BLOCK_BYTES // max(1, cube[:1].nbytes))
    return [slice(lo, min(lo + per_block, k)) for lo in range(0, k, per_block)]


def frob_norm_sq(a):
    """Squared Frobenius norm, accumulated directly (no sqrt round trip)."""
    flat = a.ravel()
    return float(np.dot(flat, flat))


def mode3_product(a, u):
    """Contract the spectral mode of ``a`` with the rows of ``u``.

    ``a`` has shape (n3, I, J) and ``u`` shape (p, n3); the result's entry
    [q, i, j] is sum_r u[q, r] * a[r, i, j], i.e. u times the spectral
    unfolding, in the common dtype of ``a`` and ``u``.
    """
    if a.ndim != 3:
        raise ShapeError(f"expected a third-order array, got {a.ndim} dimensions")
    if u.ndim != 2 or u.shape[1] != a.shape[0]:
        raise ShapeError(
            f"matrix of shape {u.shape} cannot contract mode of length {a.shape[0]}"
        )
    return np.matmul(u, a.reshape(a.shape[0], -1)).reshape((u.shape[0],) + a.shape[1:])
