"""Quality metrics: closed-form fixtures, loop and scipy-filter oracles, an optional library check."""

import math
import re
import warnings

import numpy as np
import pytest

from hsidenoise import tensor
from hsidenoise.errors import MetricError, ShapeError
from hsidenoise.metrics import (
    PSNR_CAP_DB,
    MetricsReport,
    ergas,
    evaluate,
    psnr_band,
    ssim_band,
)


def test_psnr_offset_fixture():
    # constant 0.1 error: mse = 0.01, psnr = 10*log10(1/0.01) = 20 dB
    ref = np.zeros((16, 16))
    test = np.full((16, 16), 0.1)
    assert psnr_band(ref, test) == pytest.approx(20.0, abs=1e-3)


def test_psnr_perfect_match_hits_cap():
    band = np.random.default_rng(0).random((12, 12))
    assert psnr_band(band, band) == PSNR_CAP_DB


def test_psnr_peak_rescaling():
    ref = np.zeros((8, 8))
    test = np.full((8, 8), 25.5)
    # peak 255: psnr = 10*log10(255^2 / 25.5^2) = 20 dB
    assert psnr_band(ref, test, peak=255.0) == pytest.approx(20.0, abs=1e-3)


def test_psnr_decreases_with_error(rng):
    ref = rng.random((16, 16))
    small = psnr_band(ref, ref + 0.01)
    large = psnr_band(ref, ref + 0.1)
    assert small > large


def test_psnr_stack_matches_per_band_calls(rng):
    ref = rng.random((7, 13, 11))
    test = ref + 0.05 * rng.standard_normal(ref.shape)
    test[3] = ref[3]  # one band at the cap
    stack = psnr_band(ref, test, peak=2.0)
    assert isinstance(stack, list)
    assert stack == [psnr_band(ref[b], test[b], peak=2.0) for b in range(7)]
    # and equal to the one-band formula, band by band
    oracle = []
    for b in range(7):
        mse = float(np.mean((ref[b] - test[b]) ** 2))
        oracle.append(PSNR_CAP_DB if mse == 0.0 else min(PSNR_CAP_DB, 10 * math.log10(4.0 / mse)))
    assert stack == oracle
    assert stack[3] == PSNR_CAP_DB


# 1e200's squared error overflows: the same named error, with no warning
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200])
@pytest.mark.parametrize("side", ["ref", "test"])
def test_non_finite_band_is_a_metric_error(rng, value, side):
    cubes = {"ref": rng.random((3, 16, 16)) + 0.1, "test": rng.random((3, 16, 16)) + 0.1}
    cubes[side][1, 2, 3] = value
    for score in (evaluate, psnr_band, ergas):
        with pytest.raises(MetricError, match="band 2"):
            score(cubes["ref"], cubes["test"])


def test_ssim_past_float64_range_is_a_metric_error(rng):
    # from about 1e77 SSIM's local statistics overflow: a named error, not
    # MSSIM = nan after overflow warnings, which the suite turns into errors
    ref, test = rng.random((2, 12, 12)), rng.random((2, 12, 12))
    ref[1] *= 1e78
    test[1] *= 1e78
    for score in (evaluate, ssim_band):
        with pytest.raises(MetricError, match="^band 2 has a non-finite SSIM"):
            score(ref, test)


def test_psnr_below_float64_range_is_a_metric_error(rng):
    # peak^2 / MSE underflows to 0 in band 2, whose log has no value
    ref, test = rng.random((2, 12, 12)), rng.random((2, 12, 12))
    test[1] *= 1e100
    for score in (evaluate, psnr_band):
        with pytest.raises(MetricError, match="^band 2 has a PSNR below float64's range"):
            score(ref, test, peak=1e-79)


def test_ssim_identical_is_one(rng):
    band = rng.random((24, 24))
    assert ssim_band(band, band) == pytest.approx(1.0, abs=1e-9)


def test_ssim_is_symmetric(rng):
    a = rng.random((20, 20))
    b = np.clip(a + 0.1 * rng.standard_normal((20, 20)), 0, 1)
    assert ssim_band(a, b) == pytest.approx(ssim_band(b, a), abs=1e-12)


def test_ssim_inverted_checkerboard_is_negative():
    i, j = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
    board = ((i + j) % 2).astype(float)
    assert ssim_band(board, 1.0 - board) < 0.0


def test_ssim_degrades_with_noise(rng):
    ref = rng.random((32, 32))
    mild = np.clip(ref + 0.02 * rng.standard_normal(ref.shape), 0, 1)
    harsh = np.clip(ref + 0.3 * rng.standard_normal(ref.shape), 0, 1)
    assert ssim_band(ref, mild) > ssim_band(ref, harsh)


def loop_ssim(ref, test, dynamic_range=1.0):
    """Mean SSIM by direct summation over every valid 11x11 window.

    Weights are the normalized sigma-1.5 Gaussian; moments are weighted
    means of centered products, with constants (0.01L)^2 and (0.03L)^2.
    """
    t = np.arange(11) - 5.0
    g = np.exp(-(t**2) / (2.0 * 1.5**2))
    w = np.outer(g, g) / np.outer(g, g).sum()
    c1, c2 = (0.01 * dynamic_range) ** 2, (0.03 * dynamic_range) ** 2
    rows, cols = ref.shape[0] - 10, ref.shape[1] - 10
    total = 0.0
    for i in range(rows):
        for j in range(cols):
            a = ref[i : i + 11, j : j + 11]
            b = test[i : i + 11, j : j + 11]
            mu_a, mu_b = np.sum(w * a), np.sum(w * b)
            var_a = np.sum(w * (a - mu_a) ** 2)
            var_b = np.sum(w * (b - mu_b) ** 2)
            cov = np.sum(w * (a - mu_a) * (b - mu_b))
            total += ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
                (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
            )
    return total / (rows * cols)


def test_ssim_matches_window_loop_oracle(rng):
    for shape in ((11, 11), (16, 23), (28, 33)):
        ref = rng.random(shape)
        test = np.clip(ref + 0.1 * rng.standard_normal(shape), 0, 1)
        assert ssim_band(ref, test) == pytest.approx(loop_ssim(ref, test), abs=1e-12)
    ref = 255.0 * rng.random((14, 12))
    test = np.clip(ref + 20.0 * rng.standard_normal(ref.shape), 0, 255)
    assert ssim_band(ref, test, dynamic_range=255.0) == pytest.approx(
        loop_ssim(ref, test, dynamic_range=255.0), abs=1e-12
    )


def test_ssim_matches_reference_library(rng):
    skimage_metrics = pytest.importorskip("skimage.metrics")
    for trial in range(5):
        ref = rng.random((28, 33))
        test = np.clip(ref + 0.1 * rng.standard_normal(ref.shape), 0, 1)
        ours = ssim_band(ref, test)
        theirs = skimage_metrics.structural_similarity(
            ref,
            test,
            gaussian_weights=True,
            sigma=1.5,
            use_sample_covariance=False,
            data_range=1.0,
        )
        assert ours == pytest.approx(theirs, abs=5e-4)


def scipy_ssim(ref, test, dynamic_range=1.0):
    """Per-band mean SSIM from scipy's whole-band Gaussian filter, cropped to the valid interior."""
    from scipy.ndimage import gaussian_filter

    def window_mean(a):
        return gaussian_filter(a, 1.5, radius=5, axes=(-2, -1))[..., 5:-5, 5:-5]

    ref = np.asarray(ref, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    mu1, mu2 = window_mean(ref), window_mean(test)
    var1 = window_mean(ref * ref) - mu1 * mu1
    var2 = window_mean(test * test) - mu2 * mu2
    cov = window_mean(ref * test) - mu1 * mu2
    c1, c2 = (0.01 * dynamic_range) ** 2, (0.03 * dynamic_range) ** 2
    index = ((2 * mu1 * mu2 + c1) * (2 * cov + c2)) / (
        (mu1 * mu1 + mu2 * mu2 + c1) * (var1 + var2 + c2)
    )
    return np.atleast_1d(np.mean(index, axis=(-2, -1)))


def assert_ssim_near_scipy(ref, test, dynamic_range=1.0):
    ours = np.atleast_1d(ssim_band(ref, test, dynamic_range=dynamic_range))
    theirs = scipy_ssim(ref, test, dynamic_range=dynamic_range)
    assert ours.shape == theirs.shape
    assert np.max(np.abs(ours - theirs)) <= 1e-14


def test_ssim_matches_scipy_filter_band_by_band(rng):
    # 11x11 bands hold a single window; I != J both ways round
    for shape in ((11, 11), (3, 11, 11), (16, 23), (3, 29, 17), (2, 12, 40)):
        ref = rng.random(shape)
        test = np.clip(ref + 0.1 * rng.standard_normal(shape), 0, 1)
        assert_ssim_near_scipy(ref, test)
    ref = 255.0 * rng.random((3, 21, 14))
    test = np.clip(ref + 20.0 * rng.standard_normal(ref.shape), 0, 255)
    assert_ssim_near_scipy(ref, test, dynamic_range=255.0)


@pytest.mark.parametrize("band_shape", [(11, 11), (24, 40)])
def test_ssim_stack_over_several_chunks(rng, band_shape):
    # two full band blocks of the float64 reference and a partial third, at
    # the shipped block size
    per_chunk = tensor._BLOCK_BYTES // (8 * band_shape[0] * band_shape[1])
    k = 2 * per_chunk + per_chunk // 3 + 1
    assert per_chunk > 1 and k % per_chunk
    ref = rng.random((k,) + band_shape)
    test = np.clip(ref + 0.1 * rng.standard_normal(ref.shape), 0, 1).astype(np.float32)
    assert_ssim_near_scipy(ref, test)
    stack = ssim_band(ref, test)
    assert stack == [ssim_band(ref[b], test[b]) for b in range(k)]
    assert ssim_band(ref, test) == stack


# past 1e154 or below 1e-162 the peak's square overflows or vanishes in
# float64, and past 6.7e78 or below 7.2e-80 the product of SSIM's constants
# does, so each of the last five values is outside the range
@pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf, 0.0, -1.0, 1e200, 1e80, 6.7e78, 7.2e-80, 1e-170]
)
def test_peak_and_dynamic_range_must_be_positive_and_finite(rng, value):
    ref = rng.random((2, 12, 12))
    test = ref + 0.01
    range_ = "its range is about 7.3e-80 to 6.6e78"
    named = re.escape(f"must be positive and finite, got {value}; {range_}")
    for score in (evaluate, psnr_band):
        with pytest.raises(ValueError, match="peak " + named):
            score(ref, test, peak=value)
    with pytest.raises(ValueError, match="dynamic_range " + named):
        ssim_band(ref, test, dynamic_range=value)


@pytest.mark.parametrize("value", [7.3e-80, 6.6e78])
def test_peak_at_the_ends_of_its_range_scores(rng, value):
    # SSIM's constants stay finite and nonzero, so both scores are finite
    # and raise no warning, which the suite turns into errors
    ref = rng.random((2, 12, 12))
    test = ref + 0.01
    report = evaluate(ref, test, peak=value)
    assert all(math.isfinite(v) for v in report.psnr + report.ssim)
    assert 0.0 < report.mssim <= 1.0


def test_ssim_rejects_tiny_bands():
    small = np.zeros((10, 32))
    with pytest.raises(ShapeError):
        ssim_band(small, small)


def test_ssim_stack_matches_per_band_calls(rng):
    ref = rng.random((4, 16, 13))
    test = np.clip(ref + 0.1 * rng.standard_normal(ref.shape), 0, 1)
    assert ssim_band(ref, test) == [ssim_band(ref[k], test[k]) for k in range(4)]
    empty = np.zeros((0, 16, 13))
    assert ssim_band(empty, empty) == []


@pytest.mark.parametrize("shape", [(16,), (2, 3, 16, 16)])
def test_ssim_rejects_other_ranks(shape):
    with pytest.raises(ShapeError):
        ssim_band(np.zeros(shape), np.zeros(shape))


def test_ergas_single_band_fixture():
    # ref mean 0.5, constant error 0.1 on a 4x4 band:
    #   sse:      sqrt(sum(diff^2)/mean^2 / K) = sqrt(16*0.01/0.25) = 0.8
    #   standard: 100*sqrt(mse/mean^2 / K)     = 100*sqrt(0.01/0.25) = 20
    ref = np.full((1, 4, 4), 0.5)
    test = np.full((1, 4, 4), 0.6)
    assert ergas(ref, test, variant="sse") == pytest.approx(0.8, abs=1e-9)
    assert ergas(ref, test, variant="standard") == pytest.approx(20.0, abs=1e-9)


def test_ergas_matches_loop_oracle(rng):
    ref = rng.random((6, 10, 10)) + 0.5
    test = ref + 0.05 * rng.standard_normal(ref.shape)
    k = ref.shape[0]

    acc_sse = 0.0
    acc_std = 0.0
    for band in range(k):
        diff = test[band] - ref[band]
        mu = ref[band].mean()
        acc_sse += (diff**2).sum() / mu**2
        acc_std += (diff**2).mean() / mu**2
    assert ergas(ref, test, variant="sse") == pytest.approx(np.sqrt(acc_sse / k), rel=1e-12)
    assert ergas(ref, test, variant="standard") == pytest.approx(
        100.0 * np.sqrt(acc_std / k), rel=1e-12
    )


def test_ergas_adds_its_bands_left_to_right():
    # band 1's energy is 1 and each of the other ten about 1e-16, less than
    # half an ulp of 1: added from the first they leave 1.0, while a
    # compensated sum (math.fsum, or builtin sum() from Python 3.12) gives
    # 1 + 1e-15
    ref = np.ones((11, 1, 1))
    test = ref + 1e-8
    test[0] = 2.0
    energy = ((test - ref) ** 2).ravel().tolist()
    assert math.fsum(energy) != 1.0
    assert ergas(ref, test) == math.sqrt(1.0 / 11)
    assert ergas(ref, test, variant="standard") == 100.0 * math.sqrt(1.0 / 11)


def test_ergas_band_permutation_invariance(rng):
    ref = rng.random((5, 8, 8)) + 0.5
    test = ref + 0.1 * rng.standard_normal(ref.shape)
    perm = rng.permutation(5)
    assert ergas(ref, test) == pytest.approx(ergas(ref[perm], test[perm]), rel=1e-12)


def test_ergas_zero_mean_band_is_an_error():
    ref = np.ones((3, 4, 4))
    ref[1] = 0.0
    test = ref + 0.1
    with pytest.raises(MetricError, match="band 2"):
        ergas(ref, test)


def test_ergas_reference_mean_whose_square_underflows_is_an_error(rng):
    # from about 1e-154 a band mean's square underflows to 0: the zero-mean
    # error naming the band, not a 0/0 RuntimeWarning (an error in this
    # suite) and a NaN ERGAS
    ref, test = rng.random((2, 12, 12)), rng.random((2, 12, 12))
    for score in (evaluate, ergas):
        with pytest.raises(MetricError, match="^band 1 of the reference has zero mean, or one whose square underflows"):
            score(ref * 1e-170, test * 1e-170)


def test_ergas_ratio_past_the_float64_range_is_an_error(rng):
    # at 1e-160 a band mean's square is subnormal, not 0, so sse / mean^2
    # overflows; two finite ratios near the float64 maximum (1.44e308 each)
    # overflow their running sum at band 2.  Each is the zero-mean error
    # naming the band, with no RuntimeWarning and no inf ERGAS
    ref, test = rng.random((2, 12, 12)), rng.random((2, 12, 12))
    big_ref, big_test = np.full((2, 12, 12), 1e-4), np.full((2, 12, 12), 1e149)
    prefix = "of the reference has zero mean, or one whose square underflows"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for score in (evaluate, ergas):
            with pytest.raises(MetricError, match=f"^band 1 {prefix}"):
                score(ref * 1e-160, test)
            with pytest.raises(MetricError, match=f"^band 2 {prefix}"):
                score(big_ref, big_test)


def test_ergas_needs_a_band():
    # the rule evaluate reaches too: an empty stack has no band mean
    empty = np.zeros((0, 12, 12))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MetricError, match="at least one band"):
            ergas(empty, empty)


def test_evaluate_needs_a_band():
    # an empty stack has no mean PSNR or ERGAS: a named error, raised before
    # any metric warns of an empty mean or divides by the band count
    empty = np.zeros((0, 16, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MetricError, match="at least one band"):
            evaluate(empty, empty)


def test_evaluate_report_structure(rng):
    ref = rng.random((4, 16, 16)) * 0.8 + 0.1
    test = np.clip(ref + 0.05 * rng.standard_normal(ref.shape), 0, 1)
    report = evaluate(ref, test)
    assert len(report.psnr) == 4 and len(report.ssim) == 4
    assert report.mpsnr == pytest.approx(float(np.mean(report.psnr)), rel=1e-12)
    assert report.mssim == pytest.approx(float(np.mean(report.ssim)), rel=1e-12)
    assert report.ergas_sse == pytest.approx(ergas(ref, test, variant="sse"), rel=1e-12)
    assert report.ergas_standard == pytest.approx(ergas(ref, test, variant="standard"), rel=1e-12)


def test_evaluate_equals_the_per_metric_calls(rng):
    # the shared squared error and band means change no value, bit for bit
    ref = rng.random((5, 16, 16)) * 0.8 + 0.1
    test = ref + 0.05 * rng.standard_normal(ref.shape)
    for peak in (1.0, 2.5):
        report = evaluate(ref, test, peak=peak)
        assert report.psnr == psnr_band(ref, test, peak=peak)
        assert report.ssim == ssim_band(ref, test, dynamic_range=peak)
        assert report.ergas_sse == ergas(ref, test, variant="sse")
        assert report.ergas_standard == ergas(ref, test, variant="standard")
    with pytest.raises(ValueError, match="peak must be positive"):
        evaluate(ref, test, peak=0.0)


def test_evaluate_perfect_reconstruction(rng):
    ref = rng.random((3, 16, 16)) + 0.2
    report = evaluate(ref, ref.copy())
    assert report.mpsnr == PSNR_CAP_DB
    assert report.mssim == pytest.approx(1.0, abs=1e-9)
    assert report.ergas_sse == 0.0 and report.ergas_standard == 0.0


def test_report_csv_layout(rng):
    ref = rng.random((4, 16, 16)) * 0.8 + 0.1
    test = np.clip(ref + 0.05 * rng.standard_normal(ref.shape), 0, 1)
    report = evaluate(ref, test)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "band,psnr_db,ssim,ergas_sse,ergas_standard"
    assert len(lines) == 1 + 4 + 1  # header, one row per band, summary
    for band, line in enumerate(lines[1:5]):
        cells = line.split(",")
        assert cells[0] == str(band + 1)
        assert float(cells[1]) == pytest.approx(report.psnr[band], rel=1e-9)
        assert float(cells[2]) == pytest.approx(report.ssim[band], rel=1e-9)
        assert cells[3] == "" and cells[4] == ""
    summary = lines[-1].split(",")
    assert summary[0] == "mean"
    assert float(summary[3]) == pytest.approx(report.ergas_sse, rel=1e-9)
    assert float(summary[4]) == pytest.approx(report.ergas_standard, rel=1e-9)


def test_report_summary_line(rng):
    ref = rng.random((3, 16, 16)) * 0.8 + 0.1
    report = evaluate(ref, ref + 0.01)
    line = report.summary_line()
    assert "MPSNR=" in line and "MSSIM=" in line
    assert "ERGAS(sse)=" in line and "ERGAS(standard)=" in line


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        evaluate(np.zeros((3, 16, 16)), np.zeros((3, 16, 17)))
    with pytest.raises(ShapeError):
        psnr_band(np.zeros((8, 8)), np.zeros((8, 9)))
