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
product per axis, a division by the eigenvalues and three products back.
A dense product has no slow lengths, so a prime band count such as 191
costs no more than a composite one.

Only the band plane reaches beyond a block of bands, so its difference and
adjoint each take one optional halo band, ``None`` where the cube has no
band there; a block with the cube's neighbouring bands as halos gets
exactly the whole cube's values on its bands.  Every function computes in
the real dtype of its input.  D and D' of one plane write into the ``out``
their caller must pass, and the x solve overwrites its right-hand side;
only :func:`diff_forward` allocates its result.  None checks its arguments:
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
    """DCT-II bases and eigenvalues of screen*I + beta3*D'D for (K, I, J) cubes.

    ``rows`` (I x I), ``cols`` (J x J) and ``bands`` (K x K) hold one
    orthonormal DCT-II basis vector per column, B[a, f] = sqrt(2/n)*
    cos(pi*f*(2a + 1)/(2n)) (sqrt(1/n) at f = 0), so B' is B's inverse.
    In those bases the operator is ``spatial[a, b] + band[f]``, with
    spatial = screen + beta3*(e_I[a] + e_J[b]), band = beta3*e_K[f] and
    e_n[f] = 4*sin(pi*f/(2n))^2.
    """

    rows: np.ndarray
    cols: np.ndarray
    bands: np.ndarray
    spatial: np.ndarray
    band: np.ndarray


def tv_kernel_spectrum(shape, screen, beta3):
    """DCT-II bases and eigenvalues of screen*I + beta3*D'D for cubes of ``shape``.

    See :class:`TvKernelFactors`.  ``shape`` is (K, I, J) with every size
    at least 1, screen > 0 and beta3 >= 0.  The solver's x system screens
    with beta1 + beta4.  Compute it once per (shape, screen, beta3) triple.
    """
    k, i, j = shape
    rows, cols, band = (4.0 * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2 for n in (i, j, k))
    spatial = screen + beta3 * (rows[:, None] + cols[None, :])
    return TvKernelFactors(_dct_basis(i), _dct_basis(j), _dct_basis(k), spatial, beta3 * band)


def _dct_basis(n):
    # (2a + 1)*f is reduced mod 4n first, so every phase is one of 4n exact ones
    phase = np.pi / (2 * n) * (np.outer(2 * np.arange(n) + 1, np.arange(n)) % (4 * n))
    basis = np.cos(phase) * np.sqrt(2.0 / n)
    basis[:, 0] = np.sqrt(1.0 / n)
    return basis


def solve_z_system(m, spectrum):
    """Solve (screen*I + beta3*D'D) u = m exactly for u, in place: u overwrites
    m, which is returned.  ``spectrum`` holds the factors from
    :func:`tv_kernel_spectrum`.

    The solver's x step calls it on the x system; the name is kept because
    perfbench keys a per-layer metric on it.

    m goes to the 3-D DCT-II basis by three whole-cube real matrix
    products, through one scratch cube of m's dtype and m itself.  Each
    product contracts the first axis of a 2-D view of its input with that
    axis's basis, so the axes rotate by one: (K, I, J) to (I, J, K) to
    (J, K, I) and back to (K, I, J).  There each band block of
    :func:`.tensor.band_blocks` is divided by its eigenvalues, formed in m,
    and three products with the transposed bases map it back.  Every factor
    is cast to m's dtype.  m has the spectrum's shape and is C-ordered: the
    products read reshaped views.
    """
    rows, cols, bands, spatial, band = (f.astype(m.dtype, copy=False) for f in spectrum)
    scratch = np.empty(m.shape, m.dtype)
    for src, basis, dst in ((m, bands, scratch), (scratch, rows, m), (m, cols, scratch)):
        np.matmul(src.reshape(len(basis), -1).T, basis, out=dst.reshape(-1, len(basis)))
    # m is free until the products back, so it holds each block's eigenvalues
    for block in band_blocks(scratch):
        scratch[block] /= np.add(spatial, band[block, None, None], out=m[block])
    for src, basis, dst in ((scratch, bands, m), (m, rows, scratch), (scratch, cols, m)):
        np.matmul(src.reshape(len(basis), -1).T, basis.T, out=dst.reshape(-1, len(basis)))
    return m
