"""Neumann 3-D forward differences, their adjoint, and the exact solve of
the screened TV normal equations.

A difference field stacks the three directional difference cubes of a
(K, I, J) cube into one array of shape (3, K, I, J); planes 0, 1 and 2 hold
differences along rows, columns and bands.  The solver keeps the TV
multiplier in this form.  Each plane has its own difference and adjoint,
so a caller can work on one plane at a time: D stacks the three
differences, and D' of a field is the sum of the three adjoints.

Differences do not wrap: each plane's last sample along its axis is 0 (a
Neumann boundary; Ng, Chan & Tang 1999, SIAM J. Sci. Comput. 21(3)), and
D' is D's adjoint on D's range, the fields that are 0 there.  Along each
axis D'D is then a second difference with 1 in place of 2 at both ends,
which the orthonormal DCT-II diagonalises (Strang 1999, SIAM Rev. 41(1)).
So (screen*I + beta3*D'D) u = m is solved exactly by one real matrix
product per spatial axis, a tridiagonal solve along bands at each spatial
frequency by the LU recursion (the Thomas algorithm), and two products
back.  The spatial products act on each band alone, so they run one band
block at a time.  Neither a dense product nor the recursion has slow
lengths, so a prime band count such as 191 costs no more than a composite
one.

Only the band plane reaches beyond a block of bands, so its difference and
adjoint each take one optional halo band, ``None`` where the cube has no
band there; a block with the cube's neighbouring bands as halos gets
exactly the whole cube's values on its bands.  Every function computes in
the real dtype of its input.  D and D' of one plane write into the ``out``
their caller must pass, and the x solve overwrites its right-hand side
through one band block of scratch; only :func:`diff_forward` allocates a
result.  None checks its arguments:
each states what it needs, and :func:`hsidenoise.solver.solve` sets it up.
"""

import math
from typing import NamedTuple

import numpy as np

from .tensor import band_blocks

# axes of a (K, I, J) array along which the three field planes differentiate
_FIELD_AXES = (1, 2, 0)  # rows, columns, bands


def diff_axis(x, c, out, after=None):
    """Forward difference of a cube along the axis of field plane ``c``, into ``out``.

    The result, written to ``out`` (the (K, I, J) cube x's shape and dtype)
    and returned, is x shifted one step along rows (c = 0), columns (1) or
    bands (2) minus x; its last sample along that axis is 0.  ``after``, one
    (I, J) band read only by plane 2, is the band that follows x's last,
    ``None`` if there is none.  x and ``out`` are C-ordered: the main pass
    runs on their flat views.
    """
    ax = _FIELD_AXES[c]
    step = math.prod(x.shape[ax + 1 :])
    # one flat pass; what it pairs across a row or band end lies in the
    # last slice along the axis, which is set after it
    flat, o = x.reshape(-1), out.reshape(-1)
    np.subtract(flat[step:], flat[:-step], out=o[:-step])
    last = out.swapaxes(0, ax)[-1]
    if ax or after is None:
        last.fill(0)
    else:
        np.subtract(after, x[-1], out=last)
    return out


def diff_axis_adjoint(d, c, out, before=None):
    """Adjoint of :func:`diff_axis` for field plane ``c``: a backward difference, into ``out``.

    The result, written to ``out`` (d's shape and dtype, not overlapping d)
    and returned, is d shifted one step back along plane c's axis minus d,
    with -d[0] as its first sample.  <diff_axis(x, c), d> == <x,
    diff_axis_adjoint(d, c)> for every d whose last sample along the axis
    is 0, as every field the solver hands it is (see
    :func:`hsidenoise.solver.update_l`).  ``before``, read only by plane 2,
    is the band that precedes d's first, ``None`` if there is none.  d and
    ``out`` are C-ordered.
    """
    ax = _FIELD_AXES[c]
    step = math.prod(d.shape[ax + 1 :])
    # as in diff_axis, with the first slice set after the pass
    flat, o = d.reshape(-1), out.reshape(-1)
    np.subtract(flat[:-step], flat[step:], out=o[step:])
    # 0 - d, not np.negative: numpy 2.4's negative mis-writes some strided
    # views, such as a float32 slice whose entries are 16 bytes apart
    halo = 0.0 if ax or before is None else before
    np.subtract(halo, d.swapaxes(0, ax)[0], out=out.swapaxes(0, ax)[0])
    return out


def diff_forward(x, after=None):
    """A new (3, K, I, J) field, :func:`diff_axis` of each plane; ``after`` as there."""
    out = np.empty((3,) + x.shape, x.dtype)
    for c, plane in enumerate(out):
        diff_axis(x, c, out=plane, after=after)
    return out


class TvKernelFactors(NamedTuple):
    """screen*I + beta3*D'D for (K, I, J) cubes, factored in one real dtype.

    ``rows`` (I x I) and ``cols`` (J x J) hold one orthonormal DCT-II basis
    vector per column, B[a, f] = sqrt(2/n)*cos(pi*f*(2a + 1)/(2n)) (sqrt(1/n)
    at f = 0), so B' is B's inverse, and ``back`` is cols' / beta3, stored
    C-ordered like every factor.  At spatial frequency (a, b) of those
    bases the operator is tridiagonal along bands: beta3 times
    tridiag(-1, sigma + {1, 2, ..., 2, 1}, -1), with
    sigma = spatial/beta3, spatial = screen + beta3*(e_I[a] + e_J[b]) and
    e_n[f] = 4*sin(pi*f/(2n))^2 (a single band has 0 for {1, ..., 1}).  Its
    LU factors are unit lower bidiagonal with -1/pivot below the diagonal,
    and upper bidiagonal with the pivots on it and -1 above.  Band k's
    inverse pivots are ``pivots[plane[k]]``, one (I, J) plane per distinct
    value: the pivots converge along bands, so a few head planes, one
    shared by the interior and the last band's own plane stand for K.  At
    beta3 = 0, or a beta3 too small to move a rounded entry, the operator
    is screen*I: ``plane`` is empty, ``pivots`` holds 1/screen and the
    bases are None.
    """

    rows: np.ndarray
    cols: np.ndarray
    back: np.ndarray
    pivots: np.ndarray
    plane: tuple

    def astype(self, dtype):
        """These factors in ``dtype``; themselves if they are in it already."""
        if self.pivots.dtype == dtype:
            return self
        cast = (None if f is None else f.astype(dtype) for f in self[:4])
        return TvKernelFactors(*cast, self.plane)


def tv_kernel_spectrum(shape, screen, beta3, dtype=np.float64):
    """The factors of screen*I + beta3*D'D for cubes of ``shape``, in ``dtype``.

    See :class:`TvKernelFactors`.  ``shape`` is (K, I, J) with every size
    at least 1, screen > 0 and beta3 >= 0.  The solver's x system screens
    with beta1 + beta4.  Compute it once per (shape, screen, beta3) triple.
    The pivots come from a float64 recursion and are rounded to ``dtype``
    once, so the interior bands share one plane.
    """
    k, i, j = shape
    # D'D's norm is below 12, so a beta3 under eps/24 of the screen moves
    # the solution by less than half a rounding
    if 24.0 * beta3 <= np.finfo(dtype).eps * screen:
        return TvKernelFactors(None, None, None, np.full((1, 1, 1), 1.0 / screen, dtype), ())
    rows, cols = (4.0 * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2 for n in (i, j))
    sigma = screen / beta3 + rows[:, None] + cols[None, :]
    planes = []

    def keep(inverse):
        # the plane's index, the last kept one if it rounds to the same values
        inverse = inverse.astype(dtype)
        if not planes or not np.array_equal(inverse, planes[-1]):
            planes.append(inverse)
        return len(planes) - 1

    # e_k = sigma + e_{k-1}/(1 + e_{k-1}) from e_0 = sigma, a sum of positive
    # terms, is band k's pivot less 1 and the last band's pivot itself.  It
    # converges, so it stops once a step moves it by a few float64 roundings:
    # the bands from there to the last but one share a plane, and the last
    # band's pivot is the limit
    plane, e = [], sigma
    for band in range(k - 1):
        plane.append(keep(1.0 / (1.0 + e)))
        e, previous = sigma + e / (1.0 + e), e
        if np.allclose(e, previous, rtol=4 * np.finfo(float).eps, atol=0):
            plane += [plane[-1]] * (k - 2 - band)
            break
    plane.append(keep(1.0 / e))
    basis = _dct_basis(j)
    factors = (_dct_basis(i), basis, basis.T / beta3, np.stack(planes))
    # C-ordered, back too: OpenBLAS rounds a product with an F-ordered
    # right factor differently for a block of a few bands than for the cube
    return TvKernelFactors(*(f.astype(dtype, order="C") for f in factors), tuple(plane))


def _dct_basis(n):
    # (2a + 1)*f is reduced mod 4n first, so every phase is one of 4n exact ones
    phase = np.pi / (2 * n) * (np.outer(2 * np.arange(n) + 1, np.arange(n)) % (4 * n))
    basis = np.cos(phase) * np.sqrt(2.0 / n)
    basis[:, 0] = np.sqrt(1.0 / n)
    return basis


def solve_z_system(m, spectrum):
    """Solve (screen*I + beta3*D'D) u = m exactly for u, in place: u overwrites
    m, which is returned.  ``spectrum`` holds the factors from
    :func:`tv_kernel_spectrum`, cast to m's dtype if they are in another.

    The solver's x step calls it on the x system; the name is kept because
    perfbench keys a per-layer metric on it.

    m goes to the spatial DCT-II basis by two real matrix products, one
    band block of :func:`.tensor.band_blocks` at a time through one
    block-sized temporary of m's dtype: one over the columns of the block's
    rows, then one over the rows of each band, written back into the block.
    There each spatial frequency's band system is solved in place by the
    recursion of its LU factors (Thomas' algorithm), forward elimination
    and then back substitution over the band planes, which leaves beta3*u;
    the same two products back, block by block, divide by beta3 on the
    columns.  Each band's products are the same whatever its block, so the
    block size moves no value.  m has the spectrum's shape and is
    C-ordered: the products read reshaped views.
    """
    rows, cols, back, pivots, plane = spectrum.astype(m.dtype)
    if not plane:
        return np.multiply(m, pivots, out=m)
    j = m.shape[2]
    blocks = band_blocks(m)
    temp = np.empty_like(m[blocks[0]])
    parts = [(m[block], temp[: block.stop - block.start]) for block in blocks]
    for part, t in parts:
        np.matmul(part.reshape(-1, j), cols, out=t.reshape(-1, j))
        np.matmul(rows.T, t, out=part)
    # the recursion runs inline, one call per band plane and operation
    inverse = [pivots[p] for p in plane]
    step = temp[0]
    for before, band, pivot in zip(m, m[1:], inverse):
        band += np.multiply(pivot, before, out=step)
    m[-1] *= inverse[-1]
    for band, after, pivot in zip(m[-2::-1], m[:0:-1], inverse[-2::-1]):
        band += after
        band *= pivot
    for part, t in parts:
        np.matmul(rows, part, out=t)
        np.matmul(t.reshape(-1, j), back, out=part.reshape(-1, j))
    return m
