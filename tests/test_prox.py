"""Proximal operators: enumerated fixtures, shrinkage laws, optimality."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hsidenoise.errors import NumericError
from hsidenoise.prox import soft_threshold, svt


def test_soft_threshold_scalar_fixtures():
    x = np.array([3.0, -3.0, 0.5, -0.5, 0.0, 2.0])
    out = soft_threshold(x, 2.0)
    np.testing.assert_array_equal(out, [1.0, -1.0, 0.0, 0.0, 0.0, 0.0])


def test_soft_threshold_zero_tau_is_identity(rng):
    x = rng.standard_normal((3, 2, 4))
    np.testing.assert_array_equal(soft_threshold(x, 0.0), x)


def test_soft_threshold_on_difference_fields(rng):
    # shape-agnostic: a (3, K, I, J) stack shrinks entrywise like anything
    # else, exactly as the sign-times-excess formula, edge values included
    # (the two forms differ only in the sign of a zero)
    tau = 0.3
    d = rng.standard_normal((3, 2, 4, 4))
    d.flat[:9] = [tau, -tau, 0.0, -0.0, np.inf, -np.inf, np.nan, tau / 2, -tau / 2]
    expected = np.sign(d) * np.maximum(np.abs(d) - tau, 0.0)
    np.testing.assert_array_equal(soft_threshold(d, tau), expected)
    out = np.full_like(d, 7.0)
    assert soft_threshold(d, tau, out=out) is out
    np.testing.assert_array_equal(out, expected)
    with pytest.raises(ValueError):
        soft_threshold(d, tau, out=d)


@given(
    tau=st.floats(min_value=0.0, max_value=5.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_soft_threshold_is_a_contraction(tau, seed):
    # |Thr(x) - Thr(y)| <= |x - y| entrywise
    gen = np.random.default_rng(seed)
    x = gen.standard_normal(20)
    y = gen.standard_normal(20)
    gap = np.abs(soft_threshold(x, tau) - soft_threshold(y, tau))
    assert np.all(gap <= np.abs(x - y) + 1e-12)


@given(tau=st.floats(min_value=0.0, max_value=5.0), value=st.floats(-10, 10))
def test_soft_threshold_shrinks_toward_zero(tau, value):
    out = float(soft_threshold(np.array([value]), tau)[0])
    assert abs(out) <= abs(value)
    assert out * value >= 0.0  # never flips sign


def test_soft_threshold_rejects_negative_tau():
    with pytest.raises(ValueError):
        soft_threshold(np.ones(3), -0.1)


def test_svt_diagonal_fixture():
    out = svt(np.diag([3.0, 1.0]), 2.0)
    np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_svt_zero_tau_reproduces_input(rng):
    m = rng.standard_normal((5, 4))
    np.testing.assert_allclose(svt(m, 0.0), m, rtol=0, atol=1e-12)


def test_svt_large_tau_gives_zero(rng):
    m = rng.standard_normal((4, 4))
    smax = np.linalg.svd(m, compute_uv=False)[0]
    assert np.all(svt(m, smax + 1e-9) == 0.0)


def test_svt_singular_values_are_shrunk(rng):
    m = rng.standard_normal((6, 4))
    tau = 0.7
    s_in = np.linalg.svd(m, compute_uv=False)
    s_out = np.linalg.svd(svt(m, tau), compute_uv=False)
    np.testing.assert_allclose(s_out, np.maximum(s_in - tau, 0.0), atol=1e-10)
    # a stack shrinks each matrix exactly as a call on that matrix alone
    stack = rng.standard_normal((3, 6, 4))
    expected = np.stack([svt(slice_, tau) for slice_ in stack])
    np.testing.assert_array_equal(svt(stack, tau), expected)


@pytest.mark.parametrize("shape", [(3, 32, 32), (3, 20, 32), (3, 32, 20)])
def test_float32_svt_matches_a_float64_svd(rng, shape):
    # a float32 stack whose singular values straddle tau, against the
    # thresholded float64 SVD of the same values: the Gram matrix of the
    # shorter side is formed and decomposed in float64, so little more than
    # the result's float32 rounding remains: over 50 seeds at most 0.44
    # float32 eps of max |m|, against 2.5 for a float32 SVD
    tau = 1.0
    _, rows, cols = shape
    side = min(rows, cols)
    u = np.linalg.qr(rng.standard_normal((3, rows, side)))[0]
    v = np.linalg.qr(rng.standard_normal((3, cols, side)))[0]
    sv = np.geomspace(5.0, 0.05, side) * np.array([[1.0], [0.5], [2.0]])
    m = ((u * sv[:, None, :]) @ v.swapaxes(-1, -2)).astype(np.float32)
    uu, ss, vt = np.linalg.svd(m.astype(np.float64), full_matrices=False)
    assert np.all(ss[:, 0] > tau) and np.all(ss[:, -1] < tau)
    expected = (uu * np.maximum(ss - tau, 0.0)[..., None, :]) @ vt
    out = svt(m, tau)
    assert out.dtype == np.float32
    err = np.abs(out - expected).max() / np.abs(m).max()
    assert err <= 8 * np.finfo(np.float32).eps, err / np.finfo(np.float32).eps


def test_svt_minimizes_its_objective_against_sampling(rng):
    # tau*||G||_* + 0.5*||G - m||_F^2 at the output beats 1000 random
    # perturbations at several scales
    m = rng.standard_normal((5, 5))
    tau = 0.5
    out = svt(m, tau)

    def objective(g):
        return tau * np.linalg.norm(g, "nuc") + 0.5 * np.sum((g - m) ** 2)

    base = objective(out)
    for trial in range(1000):
        scale = (1e-3, 1e-2, 1e-1)[trial % 3]
        perturbed = out + scale * rng.standard_normal(out.shape)
        assert base <= objective(perturbed) + 1e-12


def test_svt_non_finite_input_is_a_numeric_error():
    m = np.ones((3, 3))
    m[1, 1] = np.nan
    with pytest.raises(NumericError):
        svt(m, 0.1)
