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

    Returns U * max(S - tau, 0) * V', the minimizer of
    tau*||G||_* + 0.5*||G - m||_F^2, in m's dtype.  It is formed as m W (or
    W m) with W = V diag(max(1 - tau/s, 0)) V', where s are m's singular
    values and V its singular vectors on its shorter side, from the
    eigendecomposition of that side's Gram matrix (m'm or m m') in float64.
    A singular value at or below tau, zero included, gets weight 0 without
    a division.
    """
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    if not np.all(np.isfinite(m)):
        raise NumericError("singular value thresholding requires finite input")
    m64 = m.astype(np.float64)
    rows_shorter = m.shape[-2] < m.shape[-1]
    side = m64 if rows_shorter else m64.swapaxes(-1, -2)
    lam, v = np.linalg.eigh(side @ side.swapaxes(-1, -2))
    s = np.sqrt(np.maximum(lam, 0.0))
    weight = 1.0 - np.divide(tau, s, out=np.ones_like(s), where=s > tau)
    w = (v * weight[..., None, :]) @ v.swapaxes(-1, -2)
    return (w @ m64 if rows_shorter else m64 @ w).astype(m.dtype, copy=False)
