"""Proximal operators used by the solver sweeps."""

import numpy as np

from .errors import NumericError


def soft_threshold(x, tau):
    """Entrywise shrinkage sgn(x) * max(|x| - tau, 0).

    Minimizes tau*|g| + 0.5*(g - x)^2 per entry.  Works on arrays of any
    shape, difference fields included.
    """
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    shrunk = np.maximum(np.abs(x) - tau, 0.0)
    shrunk *= np.sign(x)  # in place: one cube-sized temporary fewer
    return shrunk


def svt(m, tau):
    """Singular value thresholding of a matrix, or of each matrix of a stack (..., m, n).

    Returns U * max(S - tau, 0) * V' from an exact SVD, the minimizer of
    tau*||G||_* + 0.5*||G - m||_F^2.
    """
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    if not np.all(np.isfinite(m)):
        raise NumericError("singular value thresholding requires finite input")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return (u * np.maximum(s - tau, 0.0)[..., None, :]) @ vt


def nuclear_norm(m):
    """Sum of singular values of a matrix."""
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))
