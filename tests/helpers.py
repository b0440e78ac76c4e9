"""Helpers shared by the test modules, with the one reference of each TV operator."""

import numpy as np

from hsidenoise.diffops import diff_axis_adjoint


def in_the_range_of_d(d):
    """A copy of the (3, K, I, J) field ``d`` with each plane's last sample
    along its axis set to 0, as D leaves it: D's range, where D' is D's adjoint."""
    d = d.copy()
    d[0][:, -1, :] = 0.0
    d[1][:, :, -1] = 0.0
    d[2][-1] = 0.0
    return d


def diff_adjoint(d, before=None):
    """D' of a difference field: :func:`diff_axis_adjoint` of each plane, summed."""
    return sum(
        diff_axis_adjoint(plane, c, out=np.empty_like(plane), before=before) for c, plane in enumerate(d)
    )


# loop oracles with explicit, non-modular indexing: a neighbour past the
# cube's edge does not exist, and reads as 0 in the adjoint


def loop_diff_forward(x):
    k, i, j = x.shape
    out = np.zeros((3, k, i, j))
    for kk in range(k):
        for ii in range(i):
            for jj in range(j):
                if ii + 1 < i:
                    out[0, kk, ii, jj] = x[kk, ii + 1, jj] - x[kk, ii, jj]
                if jj + 1 < j:
                    out[1, kk, ii, jj] = x[kk, ii, jj + 1] - x[kk, ii, jj]
                if kk + 1 < k:
                    out[2, kk, ii, jj] = x[kk + 1, ii, jj] - x[kk, ii, jj]
    return out


def loop_diff_adjoint(d):
    _, k, i, j = d.shape
    out = np.zeros((k, i, j))
    for kk in range(k):
        for ii in range(i):
            for jj in range(j):
                out[kk, ii, jj] = (
                    (d[0, kk, ii - 1, jj] if ii > 0 else 0.0)
                    - d[0, kk, ii, jj]
                    + (d[1, kk, ii, jj - 1] if jj > 0 else 0.0)
                    - d[1, kk, ii, jj]
                    + (d[2, kk - 1, ii, jj] if kk > 0 else 0.0)
                    - d[2, kk, ii, jj]
                )
    return out


def dense_x_matrix(shape, screen, beta3):
    """screen*I + beta3*D'D on the flat cube, column by column from the loop oracles."""
    size = int(np.prod(shape))
    a = np.zeros((size, size))
    for col in range(size):
        basis = np.zeros(size)
        basis[col] = 1.0
        cube = basis.reshape(shape)
        a[:, col] = (screen * cube + beta3 * loop_diff_adjoint(loop_diff_forward(cube))).ravel()
    return a
