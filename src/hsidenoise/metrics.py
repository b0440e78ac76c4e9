"""Reconstruction quality metrics.

Per-band PSNR and SSIM with their spectral means (MPSNR, MSSIM), and the
global relative synthesis error ERGAS in two conventions: one built on each
band's total squared error ("sse") and the usual remote-sensing definition
with the 100 scale and per-pixel MSE ("standard").  Identical inputs give
the PSNR cap, SSIM 1 and ERGAS 0.  A band whose squared error or SSIM is
not finite (SSIM's statistics overflow from values of about 1e77), or whose
peak^2 / MSE underflows to 0, gives a :class:`MetricError` that names it.
Every metric computes in float64 whatever its inputs' dtype: squared
errors, band means and SSIM's local means are formed from float64
widenings of one band block (:func:`.tensor.band_blocks`, sized in
float64) at a time, so a float32 cube scores exactly as its float64
widening does and no pass copies a whole cube.  SSIM filters each band
by two banded matrix products.  A
peak or dynamic range must be positive, from about 7.3e-80 to 6.6e78, so
that SSIM's constants are finite and nonzero.

Band numbering in reports and error messages is 1-based.
"""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import MetricError, ShapeError, as_float
from .tensor import band_blocks

PSNR_CAP_DB = 100.0

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03


def _check_pair(ref, test, ndims=(2, 3)):
    """Reject operands of different shapes, or whose rank is not in ``ndims``."""
    if ref.shape != test.shape:
        raise ShapeError(f"shape mismatch: {ref.shape} vs {test.shape}")
    if ref.ndim not in ndims:
        expected = " or ".join({2: "an (I, J) band", 3: "a (K, I, J) cube"}[n] for n in ndims)
        raise ShapeError(f"expected {expected}, got {ref.ndim} dimensions")


def _band_sse(ref, test):
    """Total squared error of each band of an (I, J) band or a (K, I, J) stack.

    Returns a float64 array with one entry per band, each the band's
    float64 difference squared and summed one band block at a time through
    one block-sized buffer.  A non-finite entry makes every metric built on
    it undefined, so it is an error naming the first such band.
    """
    _check_pair(ref, test)
    if ref.ndim == 2:
        ref, test = ref[np.newaxis], test[np.newaxis]
    sse = np.empty(ref.shape[0])
    # an error past float64's range is inf, which the check below names
    with np.errstate(over="ignore"):
        for block, sq in _float64_blocks(ref):
            np.subtract(ref[block], test[block], out=sq, dtype=np.float64)
            np.square(sq, out=sq)
            sse[block] = np.sum(sq, axis=(-2, -1))
    bad = np.flatnonzero(~np.isfinite(sse))
    if bad.size:
        raise MetricError(f"band {bad[0] + 1} has a non-finite squared error")
    return sse


def _float64_blocks(cube):
    """(block, buffer) pairs: each band block of ``cube`` and a float64 buffer of its shape.

    The buffers are views of one array of the first block's size, so a pass
    through them allocates one block, not a cube.
    """
    blocks = band_blocks(cube, np.float64)
    buffer = np.empty((blocks[0].stop if blocks else 0,) + cube.shape[1:])
    return [(block, buffer[: block.stop - block.start]) for block in blocks]


def psnr_band(ref, test, peak=1.0):
    """Peak signal-to-noise ratio in dB, capped at 100, of a band (I, J) or a stack (K, I, J).

    Returns a float for a band and a list of floats, one per band, for a
    stack.
    """
    _check_positive("peak", peak)
    psnr = _psnr(_band_sse(ref, test), ref.shape, peak)
    return psnr if ref.ndim == 3 else psnr[0]


def _check_positive(name, value):
    """A peak or dynamic range L must be positive, and L^2, SSIM's constants
    (0.01*L)^2 and (0.03*L)^2 and their product finite and nonzero in float64."""
    peak = as_float(value) if value > 0 else 0.0
    c1, c2 = (_SSIM_K1 * peak) * (_SSIM_K1 * peak), (_SSIM_K2 * peak) * (_SSIM_K2 * peak)
    # as L leaves its range, the product is the first of the four to overflow or vanish
    if not 0.0 < c1 * c2 < math.inf:
        raise ValueError(
            f"{name} must be positive and finite, got {value}; its range is about 7.3e-80 to 6.6e78"
        )


def _psnr(sse, shape, peak):
    """Per-band PSNR list from each band's squared error, bands of ``shape[-2:]``."""
    mse = sse / (shape[-2] * shape[-1])
    ratio = [math.inf if m == 0.0 else peak * peak / m for m in mse.tolist()]
    if 0.0 in ratio:
        raise MetricError(f"band {ratio.index(0.0) + 1} has a PSNR below float64's range")
    return [min(PSNR_CAP_DB, 10.0 * math.log10(r)) for r in ratio]


def ssim_band(ref, test, dynamic_range=1.0):
    """Mean structural similarity of one band (I, J), or of each band of a stack (K, I, J).

    Local statistics come from an 11x11 Gaussian window (sigma 1.5) over
    the valid interior, with stability constants (0.01*L)^2 and (0.03*L)^2;
    this is the reference formulation of the index.  The window is
    separable, so each of the five local means (of both images, their
    squares and their product) is one banded matrix product along columns
    and one along rows, never across bands, over the solver's band blocks
    (:func:`.tensor.band_blocks` of ``ref``, sized in float64, the dtype
    they are computed in).  Both images must be at least
    11 pixels along each side.  Returns a float for a band and a list of
    floats for a stack.
    """
    _check_pair(ref, test)
    _check_positive("dynamic_range", dynamic_range)
    i, j = ref.shape[-2:]
    if min(i, j) < _SSIM_WINDOW:
        raise ShapeError(
            f"band of shape {(i, j)} is smaller than the {_SSIM_WINDOW}x{_SSIM_WINDOW} window"
        )
    stack = ref.ndim == 3
    ref = ref.reshape(-1, i, j)
    test = test.reshape(-1, i, j)
    along_rows, along_cols = _window_matrix(i), _window_matrix(j)
    c1 = (_SSIM_K1 * dynamic_range) ** 2
    c2 = (_SSIM_K2 * dynamic_range) ** 2
    ssim = []
    # past about 1e77 the local statistics overflow and a band's SSIM is inf
    # or NaN, which the check after the loop names; numpy's warnings would
    # only repeat it
    with np.errstate(all="ignore"):
        for block in band_blocks(ref, np.float64):
            stats = np.empty((5, block.stop - block.start, i, j))
            stats[0] = ref[block]
            stats[1] = test[block]
            np.multiply(stats[0], stats[0], out=stats[2])
            np.multiply(stats[1], stats[1], out=stats[3])
            np.multiply(stats[0], stats[1], out=stats[4])
            # one product per band and statistic, so a band's SSIM is the same in
            # any block: one (5*b*I, J) product over b bands may round by its row count
            mu1, mu2, var1, var2, cov = along_rows @ (stats @ along_cols.T)
            var1 -= mu1 * mu1
            var2 -= mu2 * mu2
            cov -= mu1 * mu2
            num = (2.0 * mu1 * mu2 + c1) * (2.0 * cov + c2)
            den = (mu1 * mu1 + mu2 * mu2 + c1) * (var1 + var2 + c2)
            ssim.extend(np.mean(num / den, axis=(-2, -1)).tolist())
    bad = np.flatnonzero(~np.isfinite(ssim))
    if bad.size:
        raise MetricError(f"band {bad[0] + 1} has a non-finite SSIM; its statistics overflow")
    return ssim if stack else ssim[0]


def _window_matrix(n):
    """(n - 10, n) float64 matrix whose row q holds the normalized window at columns q..q+10.

    Multiplying an axis of length n by it filters that axis with the
    11-tap, sigma-1.5 Gaussian and keeps only the valid interior.
    """
    r = _SSIM_WINDOW // 2
    taps = np.exp(-0.5 / _SSIM_SIGMA**2 * np.arange(-r, r + 1) ** 2)
    taps /= taps.sum()
    rows = np.arange(n - 2 * r)[:, None]
    matrix = np.zeros((n - 2 * r, n))
    matrix[rows, rows + np.arange(_SSIM_WINDOW)] = taps
    return matrix


def ergas(ref, test, variant="sse"):
    """Relative global synthesis error between two cubes.

    ``variant="sse"`` is sqrt of the band-mean of ||test_k - ref_k||_F^2
    over the squared band mean of the reference; ``variant="standard"``
    replaces the total squared error with the per-pixel MSE and scales by
    100.  An empty stack, or a reference band whose mean is too small (0
    included) for a finite ratio or sum of ratios, is a :class:`MetricError`.
    """
    _check_pair(ref, test, ndims=(3,))
    if variant not in ("sse", "standard"):
        raise ValueError(f"variant must be 'sse' or 'standard', got {variant!r}")
    return _ergas(_band_sse(ref, test), ref)[variant == "standard"]


def _ergas(sse, ref):
    """ERGAS, ``(sse, standard)``, from each band's squared error and the reference."""
    k, i, j = ref.shape
    # a stack of no bands has no band mean; ergas and evaluate both reach this
    if k == 0:
        raise MetricError(f"ERGAS needs at least one band, got shape {ref.shape}")
    # each band's mean of its float64 widening, a block at a time: numpy's
    # mean with dtype=float64 sums a float32 band through small cast buffers,
    # which can round differently in the last bit
    mu = np.empty(k)
    for block, wide in _float64_blocks(ref):
        wide[...] = ref[block]
        mu[block] = np.mean(wide, axis=(1, 2))
    square = mu * mu
    # summed band by band from the first, as a running total would; builtin
    # sum() of floats is compensated from Python 3.12, np.sum pairwise.  A
    # square that is 0 or subnormal (a zero mean, or one below about 1e-154)
    # or too small beside its band's error makes that band's ratio, and the
    # total from there on, inf or NaN, which the check below names
    with np.errstate(all="ignore"):
        sse_total, mse_total = (np.cumsum(e / square) for e in (sse, sse / (i * j)))
    bad = np.flatnonzero(~np.isfinite(sse_total))
    if bad.size:
        raise MetricError(f"band {bad[0] + 1} of the reference has zero mean, or one whose square "
                          "underflows or is too small beside the squared error; ERGAS is undefined")
    return math.sqrt(sse_total[-1] / k), 100.0 * math.sqrt(mse_total[-1] / k)


@dataclass
class MetricsReport:
    """Per-band traces and scalar summaries of one reference/test pair."""

    psnr: list
    ssim: list
    mpsnr: float
    mssim: float
    ergas_sse: float
    ergas_standard: float

    def to_dict(self):
        return asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self):
        """One row per band plus a summary row; ERGAS lives on the summary."""
        lines = ["band,psnr_db,ssim,ergas_sse,ergas_standard"]
        for band, (p, s) in enumerate(zip(self.psnr, self.ssim), start=1):
            lines.append(f"{band},{p!r},{s!r},,")
        lines.append(
            f"mean,{self.mpsnr!r},{self.mssim!r},{self.ergas_sse!r},{self.ergas_standard!r}"
        )
        return "\n".join(lines) + "\n"

    def summary_line(self):
        return (
            f"MPSNR={self.mpsnr:.4f} dB  MSSIM={self.mssim:.6f}  "
            f"ERGAS(sse)={self.ergas_sse:.6f}  ERGAS(standard)={self.ergas_standard:.4f}"
        )


def evaluate(ref, test, peak=1.0):
    """Full metric sweep of a test cube against its reference.

    Each band's squared error is computed once and shared by PSNR and both
    ERGAS variants, which share the reference band means.
    """
    _check_pair(ref, test, ndims=(3,))
    _check_positive("peak", peak)
    sse = _band_sse(ref, test)
    psnr = _psnr(sse, ref.shape, peak)
    ssim = ssim_band(ref, test, dynamic_range=peak)
    ergas_sse, ergas_standard = _ergas(sse, ref)
    return MetricsReport(
        psnr=psnr,
        ssim=ssim,
        mpsnr=float(np.mean(psnr)),
        mssim=float(np.mean(ssim)),
        ergas_sse=ergas_sse,
        ergas_standard=ergas_standard,
    )
