"""Periodic 3-D forward differences, their adjoint, and the exact solve of
the screened TV normal equations.

A difference field stacks the three directional difference cubes of a
(K, I, J) cube into one array of shape (3, K, I, J); planes 0, 1 and 2 hold
differences along rows, columns and bands.  The solver keeps both the TV
auxiliary variable and its multiplier in this form, so soft thresholding
and linear arithmetic apply to the whole stack at once.

Differences are circular (the last sample wraps to the first), so D'D is
the sum of three symmetric circulant second differences, one along each
axis.  The discrete
Hartley transform, a real, symmetric and orthonormal matrix, diagonalises
every symmetric circulant matrix (Bracewell 1983, J. Opt. Soc. Am. 73(12)),
so the 3-D Hartley transform diagonalises screen*I + beta3*D'D for any
screen weight.  (screen*I + beta3*D'D) u = m is therefore solved exactly by
one real matrix product along each axis, a division by the eigenvalues,
and the same three products again, since the Hartley matrix is its own
inverse.  A dense product has no slow lengths, so the band axis, whose
length (191 for the paper's cubes) may be prime, takes one like the other
two.

D and D' reach one band beyond their input only along bands, so each takes
one optional halo band.  Called on a block of consecutive bands with the
cube's neighbouring band as halo, either operator returns exactly the whole
cube's values on that block.

Every function here computes in the real dtype of its input and allocates
what it returns or needs as scratch in that dtype, so float32 and float64
cubes each stay in their precision.
"""

from typing import NamedTuple

import numpy as np

from .errors import ShapeError

# axes of a (K, I, J) array along which the three field planes differentiate
_FIELD_AXES = (1, 2, 0)  # rows, columns, bands


def diff_forward(x, after=None):
    """Circular forward differences of a cube along rows, columns and bands.

    Plane c of the result, a new (3, K, I, J) field, is x shifted one step
    along its axis minus x, so a constant cube maps to zero exactly.

    ``after`` is the (I, J) band that follows x's last band.  It defaults to
    x's first band, the circular wrap of a whole cube; a block of bands cut
    from a cube passes the cube's next band, so its field equals the whole
    cube's field on those bands.
    """
    if x.ndim != 3:
        raise ShapeError(f"expected a third-order array, got {x.ndim} dimensions")
    _check_halo(after, x.shape[1:])
    out = np.empty((3,) + x.shape, x.dtype)
    for c, ax in enumerate(_FIELD_AXES):
        a, o = x.swapaxes(0, ax), out[c].swapaxes(0, ax)
        np.subtract(a[1:], a[:-1], out=o[:-1])
        # the last sample wraps to the first, or along bands to the halo
        np.subtract(a[:1] if ax or after is None else after, a[-1:], out=o[-1:])
    return out


def diff_adjoint(d, out=None, before=None):
    """Adjoint of :func:`diff_forward` on a difference field.

    Satisfies <diff_forward(x), d> == <x, diff_adjoint(d)> exactly (circular
    boundary), which the tests verify against a loop-built dense operator.
    The cube is written to ``out`` when given (shape (K, I, J), not
    overlapping ``d``).  Each plane's backward difference is formed whole
    and added in plane order; planes after the first are formed in one
    (K, I, J) scratch cube the call allocates.

    ``before`` is the (I, J) band of plane 2 (the band differences) that
    precedes d's first band.  It defaults to plane 2's last band, the
    circular wrap of a whole field; a block of bands cut from a field passes
    the field's previous band of plane 2, so its cube equals the whole
    field's cube on those bands.
    """
    if d.ndim != 4 or d.shape[0] != 3:
        raise ShapeError(f"expected a difference field of shape (3, K, I, J), got {d.shape}")
    _check_halo(before, d.shape[2:])
    if out is None:
        out = np.empty(d.shape[1:], d.dtype)
    scratch = np.empty(d.shape[1:], d.dtype)
    for c, ax in enumerate(_FIELD_AXES):
        a, o = d[c].swapaxes(0, ax), (scratch if c else out).swapaxes(0, ax)
        np.subtract(a[:-1], a[1:], out=o[1:])
        # the first sample wraps to the last, or along bands to the halo
        np.subtract(a[-1:] if ax or before is None else before, a[:1], out=o[:1])
        if c:
            out += scratch
    return out


def _check_halo(plane, shape):
    if plane is not None and plane.shape != shape:
        raise ShapeError(f"expected a halo band of shape {shape}, got {plane.shape}")


class TvKernelFactors(NamedTuple):
    """Hartley bases and eigenvalues of screen*I + beta3*D'D for (K, I, J) cubes.

    ``rows`` (I x I), ``cols`` (J x J) and ``bands`` (K x K) are the
    orthonormal Hartley matrices H[a, b] = (cos(2*pi*a*b/n) +
    sin(2*pi*a*b/n))/sqrt(n), each symmetric and its own inverse.  Taken
    along all three axes they map a cube to its frequencies (f, a, b), where
    the operator is the scalar ``spatial[a, b] + band[f]``: ``spatial`` (I, J)
    holds screen + beta3*(4*sin(pi*a/I)^2 + 4*sin(pi*b/J)^2) and ``band`` (K,)
    holds beta3*4*sin(pi*f/K)^2.
    """

    rows: np.ndarray
    cols: np.ndarray
    bands: np.ndarray
    spatial: np.ndarray
    band: np.ndarray


def tv_kernel_spectrum(shape, screen, beta3):
    """Hartley bases and eigenvalues of screen*I + beta3*D'D for cubes of ``shape``.

    Each circular forward difference along an axis of length n contributes
    4*sin(pi*f/n)^2 at frequency index f, which the Hartley basis indexes
    like the DFT (see :class:`TvKernelFactors`).  With beta3 = 0 every
    eigenvalue is the screen weight.  The solver's x system screens with
    beta1 + beta4.  Compute it once per (shape, screen, beta3) triple.
    """
    if len(shape) != 3 or any(s < 1 for s in shape):
        raise ShapeError(f"need a (K, I, J) shape of positive sizes, got {shape}")
    if screen <= 0:
        raise ValueError(f"screen must be positive, got {screen}")
    if beta3 < 0:
        raise ValueError(f"beta3 must be nonnegative, got {beta3}")
    k, i, j = shape
    rows, cols, band = (4.0 * np.sin(np.pi * np.arange(n) / n) ** 2 for n in (i, j, k))
    spatial = screen + beta3 * (rows[:, None] + cols[None, :])
    return TvKernelFactors(_hartley(i), _hartley(j), _hartley(k), spatial, beta3 * band)


def _hartley(n):
    # a*b is reduced mod n first, so every phase is one of the n exact ones
    phase = 2.0 * np.pi / n * (np.outer(np.arange(n), np.arange(n)) % n)
    return (np.cos(phase) + np.sin(phase)) / np.sqrt(n)


def solve_z_system(m, spectrum, out=None):
    """Solve (screen*I + beta3*D'D) u = m exactly for u, with the factors
    ``spectrum`` from :func:`tv_kernel_spectrum`.

    The solver's x step calls it on the x system; the name is kept because
    perfbench keys a per-layer metric on it.

    m goes to the 3-D Hartley basis by three whole-cube real matrix
    products, through ``out`` and one scratch cube of m's dtype.  Each
    product contracts the first axis of a 2-D view of its input with that
    axis's Hartley matrix, read transposed, so the axes rotate by one:
    (K, I, J) to (I, J, K) to (J, K, I) and back to (K, I, J).  There each
    band is divided by its eigenvalues, formed in one reused (I, J) plane,
    and the same three products map the result back.  Every factor is cast
    to m's dtype.  The solution goes to ``out`` when given (shape (K, I,
    J), m's dtype; it may be ``m``).
    """
    rows, cols, bands, spatial, band = (f.astype(m.dtype, copy=False) for f in spectrum)
    shape = (len(bands), len(rows), len(cols))
    if m.shape != shape:
        raise ShapeError(f"right-hand side shape {m.shape} does not match spectrum shape {shape}")
    if out is None:
        out = np.empty(m.shape, m.dtype)
    scratch = np.empty(m.shape, m.dtype)
    for src, basis, dst in ((m, bands, scratch), (scratch, rows, out), (out, cols, scratch)):
        np.matmul(src.reshape(len(basis), -1).T, basis, out=dst.reshape(-1, len(basis)))
    plane = np.empty(shape[1:], m.dtype)
    for freq, eig in zip(scratch, band):
        freq /= np.add(spatial, eig, out=plane)
    for src, basis, dst in ((scratch, bands, out), (out, rows, scratch), (scratch, cols, out)):
        np.matmul(src.reshape(len(basis), -1).T, basis, out=dst.reshape(-1, len(basis)))
    return out
