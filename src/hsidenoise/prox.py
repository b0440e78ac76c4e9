"""Proximal operators used by the solver sweeps."""

import numpy as np

from .errors import NumericError


def soft_threshold(x, tau, out=None):
    """Entrywise shrinkage sgn(x) * max(|x| - tau, 0), computed as x - clip(x, -tau, tau).

    Minimizes tau*|g| + 0.5*(g - x)^2 per entry.  Works on arrays of any
    shape, difference fields included.  The two forms agree exactly, except
    that an entry inside the threshold gives +0.0 whatever its sign.  The
    result goes to ``out`` when given, which must not overlap ``x``.
    """
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    if out is not None and np.may_share_memory(x, out):
        raise ValueError("out must not overlap the input")
    out = np.clip(x, -tau, tau, out=out)
    return np.subtract(x, out, out=out)


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
