"""Periodic 3-D forward differences, their adjoint, and the exact solve of
the screened TV normal equations.

A difference field stacks the three directional difference cubes of a
(K, I, J) cube into one array of shape (3, K, I, J); planes 0, 1 and 2 hold
differences along rows, columns and bands.  The solver keeps both the TV
auxiliary variable and its multiplier in this form, so soft thresholding
and linear arithmetic apply to the whole stack at once.

Differences are circular (the last sample wraps to the first), so the
spatial part of D'D is a symmetric circulant operator on each band.  The
discrete Hartley transform, a real, symmetric and orthonormal matrix,
diagonalises every symmetric circulant matrix (Bracewell 1983, J. Opt. Soc.
Am. 73(12)), so the 2-D Hartley transform of each band diagonalises the
spatial part, and what is left at each spatial frequency is a cyclic
tridiagonal system along bands with constant coefficients.
(beta2*I + beta3*D'D) z = m is therefore solved exactly by two real matrix
products per band, one causal and one anticausal circular first-order
recursion along bands at each spatial frequency, and the same two products
again, since the Hartley matrix is its own inverse.  No transform runs along
the band axis, whose length (191 for the paper's cubes) may be prime.

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
    """Hartley bases and band-solve factors of beta2*I + beta3*D'D for cubes of ``shape``.

    ``rows`` (I x I) and ``cols`` (J x J) are the orthonormal Hartley
    matrices H[a, b] = (cos(2*pi*a*b/n) + sin(2*pi*a*b/n))/sqrt(n), each
    symmetric and its own inverse.  H_I x H_J of a band holds its spatial
    frequency (a, b), where the operator restricted to the band axis is
    t + beta3*(2 - S - S^-1), with S the cyclic band shift and
    t = beta2 + beta3*(4*sin(pi*a/I)^2 + 4*sin(pi*b/J)^2).  It factors as
    s*(1 - r*S)*(1 - r*S^-1) with s = (t + 2*beta3 + sqrt(t*(t + 4*beta3)))/2
    and r = beta3/s in [0, 1).  ``r``, ``wrap`` = 1/(1 - r^K) and ``inv_s`` =
    1/s have shape (I, J).  ``shape`` is the cube shape they serve, as the
    arrays alone do not determine K.
    """

    shape: tuple
    r: np.ndarray
    wrap: np.ndarray
    inv_s: np.ndarray
    rows: np.ndarray
    cols: np.ndarray


def tv_kernel_spectrum(shape, beta2, beta3):
    """Factors of the band solve of beta2*I + beta3*D'D for cubes of ``shape``.

    Each circular forward difference along a spatial axis of length n
    contributes 4*sin(pi*f/n)^2 at frequency index f; the band axis is
    factored as :class:`TvKernelFactors` describes.  With beta3 = 0, r is 0
    and s is beta2.  Compute it once per (shape, beta2, beta3) triple.
    """
    if len(shape) != 3 or any(s < 1 for s in shape):
        raise ShapeError(f"need a (K, I, J) shape of positive sizes, got {shape}")
    if beta2 <= 0:
        raise ValueError(f"beta2 must be positive, got {beta2}")
    if beta3 < 0:
        raise ValueError(f"beta3 must be nonnegative, got {beta3}")
    k, i, j = shape
    rows = 4.0 * np.sin(np.pi * np.arange(i) / i) ** 2
    cols = 4.0 * np.sin(np.pi * np.arange(j) / j) ** 2
    a = beta2 + beta3 * (rows[:, None] + cols[None, :])
    s = (a + 2.0 * beta3 + np.sqrt(a * (a + 4.0 * beta3))) / 2.0
    r = beta3 / s
    return TvKernelFactors(tuple(shape), r, 1.0 / (1.0 - r**k), 1.0 / s, _hartley(i), _hartley(j))


def _hartley(n):
    # a*b is reduced mod n first, so every phase is one of the n exact ones
    phase = 2.0 * np.pi / n * (np.outer(np.arange(n), np.arange(n)) % n)
    return (np.cos(phase) + np.sin(phase)) / np.sqrt(n)


def solve_z_system(m, spectrum, out=None):
    """Solve (beta2*I + beta3*D'D) z = m exactly, for the factors ``spectrum``
    from :func:`tv_kernel_spectrum`.

    Each band goes to H_I m H_J by two real matrix products, the column
    side as one product over all rows of the cube and the row side band by
    band, into ``out`` through one scratch cube of m's dtype.  There,
    s*(1 - r*S)*(1 - r*S^-1) is inverted along bands by a causal and an
    anticausal circular recursion and a scale by 1/s, and the same two
    products map the result back.  Every factor is cast to m's dtype.  The
    solution goes to ``out`` when given (shape (K, I, J), m's dtype; it may
    be ``m``).
    """
    if m.shape != spectrum.shape:
        raise ShapeError(
            f"right-hand side shape {m.shape} does not match spectrum shape {spectrum.shape}"
        )
    k, i, j = m.shape
    if out is None:
        out = np.empty(m.shape, m.dtype)
    r, wrap, inv_s, rows, cols = (f.astype(m.dtype, copy=False) for f in spectrum[1:])
    scratch = np.empty(m.shape, m.dtype)
    np.matmul(m.reshape(k * i, j), cols, out=scratch.reshape(k * i, j))
    np.matmul(rows, scratch, out=out)
    # each recursion x[k] = b[k] + r*x[k-1] runs in place over the bands,
    # started from its circular final state: a start from zero ends at
    # sum_k r^(K-1-k)*b[k], and the wrap adds r^K times the final state
    acc, tmp = np.empty((i, j), m.dtype), np.empty((i, j), m.dtype)
    for bands in (out, out[::-1]):  # 1/(1 - r*S), then 1/(1 - r*S^-1)
        np.copyto(acc, bands[0])
        for b in bands[1:]:
            acc *= r
            acc += b
        acc *= wrap
        prev = acc
        for b in bands:
            b += np.multiply(prev, r, out=tmp)
            prev = b
    out *= inv_s
    np.matmul(out.reshape(k * i, j), cols, out=scratch.reshape(k * i, j))
    return np.matmul(rows, scratch, out=out)
