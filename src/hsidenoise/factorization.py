"""Low-rank spectral factor model of the clean cube.

The clean signal is modeled as the spectral-mode product of an abundance
stack ``g`` of shape (R, I, J) with a matrix ``c`` of shape (K, R) whose
columns are orthonormal spectral signatures: entry (k, i, j) of the model
is sum_r c[k, r] * g[r, i, j].  Each abundance slice g[r] is additionally
pushed toward low matrix rank by singular value shrinkage, which is where
the spatial low-rank prior enters.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .prox import svt
from .tensor import mode3_product


@dataclass
class MvtfFactors:
    """Abundance stack ``g`` (R, I, J) and orthonormal signatures ``c`` (K, R)."""

    g: np.ndarray
    c: np.ndarray


def fix_column_signs(u):
    """Flip each column so its largest-magnitude entry is nonnegative (LAPACK-sign free)."""
    cols = np.arange(u.shape[1])
    flip = np.sign(u[np.argmax(np.abs(u), axis=0), cols])
    flip[flip == 0] = 1.0
    return u * flip


def init_factors(y, r):
    """Spectral-subspace initialization from the observation.

    ``c`` takes the ``r`` leading left singular vectors of the band-by-pixel
    unfolding of ``y`` (signs fixed per column); ``g`` is the projection of
    ``y`` onto that subspace, so compose(init_factors(y, r)) is the best
    rank-r spectral approximation of ``y``.  The vectors come from the
    eigendecomposition of the K x K Gram matrix of the unfolding, whose
    eigenvalues ``eigh`` returns in ascending order.
    """
    k, i, j = y.shape
    if not 1 <= r <= min(k, i * j):
        raise ShapeError(
            f"rank {r} outside [1, {min(k, i * j)}] for a cube of {k} bands "
            f"and {i}x{j} = {i * j} pixels per band"
        )
    mat = y.reshape(k, -1)
    u = np.linalg.eigh(mat @ mat.T)[1]
    c = fix_column_signs(u[:, ::-1][:, :r])
    g = (c.T @ mat).reshape(r, y.shape[1], y.shape[2])
    return MvtfFactors(g=g, c=c)


def update_g(x, u4, c, lambda_g, beta4):
    """Shrink each abundance slice of the back-projected target.

    The target is (x + u4) contracted against the current signatures, for
    the estimate x and the scaled factor multiplier u4 = lambda4/beta4.  It
    is formed as c'x + c'u4, two products of the size of g, so x + u4 is
    never formed as a cube; in floating point it differs from c'(x + u4)
    by rounding.  Every slice of the target passes through singular value
    thresholding at lambda_g/beta4.
    """
    target = mode3_product(x, c.T)
    target += mode3_product(u4, c.T)
    return svt(target, lambda_g / beta4)


def procrustes_target(g, x, u4):
    """R x K matrix whose trace product the signature update maximizes.

    It is g (x + u4)' over the unfoldings, formed as g x' + g u4' like
    :func:`update_g`'s target.  The signature subproblem's matrix is beta4
    times this one; a positive factor moves neither its singular vectors nor
    the ratios of its singular values.
    """
    r, k = g.shape[0], x.shape[0]
    flat = g.reshape(r, -1)
    m = flat @ x.reshape(k, -1).T
    m += flat @ u4.reshape(k, -1).T
    return m


def orthonormal_from_target(m):
    """Maximizer of trace(m @ c) over matrices with orthonormal columns.

    Returns (c, s) where c = V U' from the SVD m = U S V' and s are the
    singular values; trace(m @ c) then equals their sum, which no feasible
    c can exceed.  A rank-deficient m still yields a valid orthonormal c,
    just not a unique one.
    """
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return vt.T @ u.T, s


def compose(factors):
    """Assemble the modeled cube of shape (K, I, J) from the factors."""
    if factors.c.ndim != 2 or factors.c.shape[1] != factors.g.shape[0]:
        raise ShapeError(
            f"signatures {factors.c.shape} do not match {factors.g.shape[0]} abundance slices"
        )
    return mode3_product(factors.g, factors.c)
