"""Periodic 3-D forward differences, their adjoint, and the Fourier-domain
solve for the screened TV normal equations.

A difference field stacks the three directional difference cubes of a
(K, I, J) cube into one array of shape (3, K, I, J); planes 0, 1 and 2 hold
differences along rows, columns and bands.  The solver keeps both the TV
auxiliary variable and its multiplier in this form, so soft thresholding
and linear arithmetic apply to the whole stack at once.

Differences are circular (the last sample wraps to the first).  That makes
the composite operator D'D diagonal in the 3-D DFT basis, so
(beta2*I + beta3*D'D) z = m is solved exactly by one real-FFT round trip.
The spectrum is real and even, so a real right-hand side gives a real
solution by construction, with no imaginary residue to check or drop.
"""

import numpy as np

from .errors import ShapeError

# axes of a (K, I, J) array along which the three field planes differentiate
_FIELD_AXES = (1, 2, 0)  # rows, columns, bands


def diff_forward(x, out=None):
    """Circular forward differences of a cube along rows, columns and bands.

    Plane c of the result is x shifted one step along its axis minus x, so a
    constant cube maps to zero exactly.  The field is written to ``out``
    when given (shape (3, K, I, J), not overlapping ``x``).
    """
    if x.ndim != 3:
        raise ShapeError(f"expected a third-order array, got {x.ndim} dimensions")
    if out is None:
        out = np.empty((3,) + x.shape)
    for c, ax in enumerate(_FIELD_AXES):
        a, o = x.swapaxes(0, ax), out[c].swapaxes(0, ax)
        np.subtract(a[1:], a[:-1], out=o[:-1])
        np.subtract(a[:1], a[-1:], out=o[-1:])  # the last sample wraps to the first
    return out


def diff_adjoint(d, out=None, scratch=None):
    """Adjoint of :func:`diff_forward` on a difference field.

    Satisfies <diff_forward(x), d> == <x, diff_adjoint(d)> exactly (circular
    boundary), which the tests verify against a loop-built dense operator.
    The cube is written to ``out`` when given (shape (K, I, J), not
    overlapping ``d``).  Each plane's backward difference is formed whole
    and added in plane order; planes after the first are formed in
    ``scratch``, a (K, I, J) array distinct from ``out``, allocated when not
    given.
    """
    if d.ndim != 4 or d.shape[0] != 3:
        raise ShapeError(f"expected a difference field of shape (3, K, I, J), got {d.shape}")
    if out is None:
        out = np.empty(d.shape[1:])
    if scratch is None:
        scratch = np.empty(d.shape[1:])
    for c, ax in enumerate(_FIELD_AXES):
        a, o = d[c].swapaxes(0, ax), (scratch if c else out).swapaxes(0, ax)
        np.subtract(a[:-1], a[1:], out=o[1:])
        np.subtract(a[-1:], a[:1], out=o[:1])  # the first sample wraps to the last
        if c:
            out += scratch
    return out


def tv_kernel_spectrum(shape, beta2, beta3):
    """Eigenvalues of beta2*I + beta3*D'D on the 3-D DFT grid of cubes of ``shape``.

    Each circular forward difference along an axis of length n contributes
    4*sin(pi*f/n)^2 at frequency index f, and the three axes add.  The
    result is real with shape (K, I, J), bounded below by beta2, and is the
    pointwise denominator of the Fourier-domain solve.  It is kept on the
    full grid so its shape names the cube size exactly; the real-FFT solve
    reads its first J//2 + 1 columns, a view.  Compute it once per
    (shape, beta2, beta3) triple.
    """
    if len(shape) != 3 or any(s < 1 for s in shape):
        raise ShapeError(f"need a (K, I, J) shape of positive sizes, got {shape}")
    if beta2 <= 0:
        raise ValueError(f"beta2 must be positive, got {beta2}")
    if beta3 < 0:
        raise ValueError(f"beta3 must be nonnegative, got {beta3}")
    total = np.zeros(shape)
    for ax, n in enumerate(shape):
        eig = 4.0 * np.sin(np.pi * np.arange(n) / n) ** 2
        profile = [1, 1, 1]
        profile[ax] = n
        total += eig.reshape(profile)
    total *= beta3
    total += beta2
    return total


def solve_z_system(m, denom):
    """Solve (beta2*I + beta3*D'D) z = m by pointwise division in the DFT basis.

    The half-spectrum of the real input ``m`` is divided by the matching
    half of ``denom`` (from :func:`tv_kernel_spectrum`) and transformed back
    to a real cube.
    """
    if m.shape != denom.shape:
        raise ShapeError(
            f"right-hand side shape {m.shape} does not match spectrum shape {denom.shape}"
        )
    spectrum = np.fft.rfftn(m)
    spectrum /= denom[..., : m.shape[2] // 2 + 1]
    return np.fft.irfftn(spectrum, s=m.shape, axes=(0, 1, 2))
