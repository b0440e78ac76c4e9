"""Reconstruction quality metrics.

Per-band PSNR and SSIM with their spectral means (MPSNR, MSSIM), and the
global relative synthesis error ERGAS in two conventions: one built on each
band's total squared error ("sse") and the usual remote-sensing definition
with the 100 scale and per-pixel MSE ("standard").  Identical inputs give
the PSNR cap, SSIM 1 and ERGAS 0.

Band numbering in reports and error messages is 1-based.
"""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import MetricError, ShapeError

PSNR_CAP_DB = 100.0

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03


def psnr_band(ref, test, peak=1.0):
    """Peak signal-to-noise ratio of one band in dB, capped at 100."""
    if ref.shape != test.shape:
        raise ShapeError(f"shape mismatch: {ref.shape} vs {test.shape}")
    if peak <= 0:
        raise ValueError(f"peak must be positive, got {peak}")
    mse = float(np.mean((ref - test) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * math.log10(peak * peak / mse))


def ssim_band(ref, test, dynamic_range=1.0):
    """Mean structural similarity of one band (I, J), or of each band of a stack (K, I, J).

    Local statistics come from an 11x11 Gaussian window (sigma 1.5) over
    the valid interior, with stability constants (0.01*L)^2 and (0.03*L)^2;
    this is the reference formulation of the index.  The window is
    separable, so each local mean is one Gaussian filter along rows and
    columns, never across bands.  Both images must be at least 11 pixels
    along each side.  Returns a float for a band and a list of floats for a
    stack.
    """
    if ref.shape != test.shape:
        raise ShapeError(f"shape mismatch: {ref.shape} vs {test.shape}")
    if ref.ndim not in (2, 3):
        raise ShapeError(
            f"expected an (I, J) band or a (K, I, J) stack, got {ref.ndim} dimensions"
        )
    band_shape = ref.shape[-2:]
    if min(band_shape) < _SSIM_WINDOW:
        raise ShapeError(
            f"band of shape {band_shape} is smaller than the {_SSIM_WINDOW}x{_SSIM_WINDOW} window"
        )
    ref = np.asarray(ref, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    r = _SSIM_WINDOW // 2
    buf = np.empty(ref.shape)  # every filter output, and the products filtered in place

    def window_mean(a):
        gaussian_filter(a, _SSIM_SIGMA, radius=r, axes=(-2, -1), output=buf)
        return buf[..., r:-r, r:-r].copy()

    mu1 = window_mean(ref)
    mu2 = window_mean(test)
    var1 = window_mean(np.multiply(ref, ref, out=buf))
    var1 -= mu1 * mu1
    var2 = window_mean(np.multiply(test, test, out=buf))
    var2 -= mu2 * mu2
    cov = window_mean(np.multiply(ref, test, out=buf))
    cov -= mu1 * mu2
    c1 = (_SSIM_K1 * dynamic_range) ** 2
    c2 = (_SSIM_K2 * dynamic_range) ** 2
    # num = (2*mu1*mu2 + c1) * (2*cov + c2) and
    # den = (mu1*mu1 + mu2*mu2 + c1) * (var1 + var2 + c2), formed in place
    num = 2.0 * mu1
    num *= mu2
    num += c1
    cov *= 2.0
    cov += c2
    num *= cov
    den = np.multiply(mu1, mu1, out=mu1)
    den += np.multiply(mu2, mu2, out=mu2)
    den += c1
    var1 += var2
    var1 += c2
    den *= var1
    num /= den
    return np.mean(num, axis=(-2, -1)).tolist()


def ergas(ref, test, variant="sse"):
    """Relative global synthesis error between two cubes.

    ``variant="sse"`` is sqrt of the band-mean of ||test_k - ref_k||_F^2
    over the squared band mean of the reference; ``variant="standard"``
    replaces the total squared error with the per-pixel MSE and scales by
    100.  A reference band with zero mean makes the metric undefined.
    """
    if ref.shape != test.shape:
        raise ShapeError(f"shape mismatch: {ref.shape} vs {test.shape}")
    if ref.ndim != 3:
        raise ShapeError(f"expected (K, I, J) cubes, got {ref.ndim} dimensions")
    if variant not in ("sse", "standard"):
        raise ValueError(f"variant must be 'sse' or 'standard', got {variant!r}")
    k = ref.shape[0]
    acc = 0.0
    for band in range(k):
        mu = float(np.mean(ref[band]))
        if mu == 0.0:
            raise MetricError(
                f"band {band + 1} of the reference has zero mean; ERGAS is undefined"
            )
        diff = test[band] - ref[band]
        energy = float(np.sum(diff * diff))
        if variant == "standard":
            energy /= diff.size
        acc += energy / (mu * mu)
    root = math.sqrt(acc / k)
    return root if variant == "sse" else 100.0 * root


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
    """Full metric sweep of a test cube against its reference."""
    if ref.shape != test.shape:
        raise ShapeError(f"shape mismatch: {ref.shape} vs {test.shape}")
    if ref.ndim != 3:
        raise ShapeError(f"expected (K, I, J) cubes, got {ref.ndim} dimensions")
    psnr = [psnr_band(ref[b], test[b], peak=peak) for b in range(ref.shape[0])]
    ssim = ssim_band(ref, test, dynamic_range=peak)
    return MetricsReport(
        psnr=psnr,
        ssim=ssim,
        mpsnr=float(np.mean(psnr)),
        mssim=float(np.mean(ssim)),
        ergas_sse=ergas(ref, test, "sse"),
        ergas_standard=ergas(ref, test, "standard"),
    )
