"""Factor model: initialization, both block updates, and composition."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hsidenoise.errors import ShapeError
from hsidenoise.factorization import (
    MvtfFactors,
    compose,
    init_factors,
    orthonormal_from_target,
    procrustes_target,
    update_g,
)
from hsidenoise.prox import svt
from hsidenoise.tensor import mode3_product


def random_orthonormal(k, r, gen):
    return np.linalg.qr(gen.standard_normal((k, r)))[0]


def test_init_returns_orthonormal_columns(rng):
    y = rng.standard_normal((6, 5, 4))
    f = init_factors(y, 3)
    np.testing.assert_allclose(f.c.T @ f.c, np.eye(3), atol=1e-12)
    assert f.g.shape == (3, 5, 4)


def test_init_sign_convention():
    # each column's largest-magnitude entry comes out nonnegative
    y = np.random.default_rng(3).standard_normal((7, 4, 4))
    c = init_factors(y, 4).c
    for col in range(c.shape[1]):
        assert c[np.argmax(np.abs(c[:, col])), col] >= 0.0


def test_init_rank_one_cube_is_reproduced(rng):
    spectrum = rng.standard_normal(5)
    plane = rng.standard_normal((4, 3))
    y = spectrum.reshape(5, 1, 1) * plane
    f = init_factors(y, 1)
    np.testing.assert_allclose(compose(f), y, rtol=1e-10, atol=1e-12)


def test_init_full_rank_reproduces_exactly(rng):
    y = rng.standard_normal((4, 3, 3))
    f = init_factors(y, 4)
    np.testing.assert_allclose(compose(f), y, rtol=1e-10, atol=1e-12)


def test_init_rejects_bad_rank(rng):
    for shape, rank, limit in [
        ((4, 3, 3), 5, r"outside \[1, 4\]"),
        ((4, 3, 3), 0, r"outside \[1, 4\]"),
        # more bands than pixels: the pixel count is the binding limit
        ((5, 1, 1), 2, r"outside \[1, 1\] for a cube of 5 bands and 1x1 = 1 pixels"),
    ]:
        with pytest.raises(ShapeError, match=limit):
            init_factors(rng.standard_normal(shape), rank)


def test_init_projection_identity(rng):
    # g is exactly the contraction of y against c
    y = rng.standard_normal((6, 4, 5))
    f = init_factors(y, 2)
    np.testing.assert_allclose(f.g, mode3_product(y, f.c.T), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(
    "shape, rank",
    [
        ((6, 4, 5), 2),
        ((5, 3, 3), 5),  # rank == K
        ((9, 2, 3), 4),  # fewer pixels than bands
        ((7, 2, 2), 4),  # rank == pixel count < K
    ],
)
def test_init_subspace_matches_the_svd(rng, shape, rank):
    # the Gram eigenvectors span the SVD's leading left singular subspace
    y = rng.standard_normal(shape)
    u = np.linalg.svd(y.reshape(shape[0], -1), full_matrices=False)[0][:, :rank]
    c = init_factors(y, rank).c
    np.testing.assert_allclose(c @ c.T, u @ u.T, rtol=0, atol=1e-10)


def test_update_g_zero_shrinkage_is_pure_projection(rng):
    x = rng.standard_normal((5, 4, 4))
    lam4 = rng.standard_normal((5, 4, 4))
    c = random_orthonormal(5, 2, rng)
    g = update_g(x, lam4 / 0.1, c, lambda_g=0.0, beta4=0.1)
    np.testing.assert_allclose(g, mode3_product(x + lam4 / 0.1, c.T), rtol=1e-10, atol=1e-12)


def test_update_g_full_shrinkage_gives_zero(rng):
    x = rng.standard_normal((5, 4, 4))
    lam4 = np.zeros_like(x)
    c = random_orthonormal(5, 2, rng)
    target = mode3_product(x, c.T)
    huge = max(np.linalg.svd(target[r], compute_uv=False)[0] for r in range(2))
    g = update_g(x, lam4 / 0.1, c, lambda_g=(huge + 1.0) * 0.1, beta4=0.1)
    assert np.all(g == 0.0)


def test_update_g_matches_per_slice_svt_oracle(rng):
    # each slice independently: SVD of the back-projected slice, shrink,
    # reassemble
    x = rng.standard_normal((6, 5, 4))
    lam4 = rng.standard_normal(x.shape)
    c = random_orthonormal(6, 3, rng)
    lambda_g, beta4 = 0.25, 0.4
    g = update_g(x, lam4 / beta4, c, lambda_g, beta4)
    target = mode3_product(x + lam4 / beta4, c.T)
    for r in range(3):
        u, s, vt = np.linalg.svd(target[r], full_matrices=False)
        expected = (u * np.maximum(s - lambda_g / beta4, 0.0)) @ vt
        np.testing.assert_allclose(g[r], expected, rtol=1e-10, atol=1e-12)


def test_update_g_decreases_its_subobjective(rng):
    # the update minimizes lambda_g * sum ||G_r||_* + beta4/2 ||target - G||^2
    x = rng.standard_normal((5, 6, 6))
    lam4 = rng.standard_normal(x.shape)
    c = random_orthonormal(5, 3, rng)
    lambda_g, beta4 = 0.3, 0.2
    target = mode3_product(x + lam4 / beta4, c.T)

    def objective(g):
        nuc = np.linalg.norm(g, "nuc", axis=(1, 2)).sum()
        return lambda_g * nuc + 0.5 * beta4 * np.sum((target - g) ** 2)

    new = update_g(x, lam4 / beta4, c, lambda_g, beta4)
    old = rng.standard_normal(new.shape)
    assert objective(new) <= objective(old) + 1e-10


@pytest.mark.parametrize(
    "dtype, rtol",
    # float32: over 200 random inputs of this shape the gap reached 2.0 eps
    # for the abundances and 1.3 eps for the signature target; the bound
    # is 16 eps
    [(np.float64, 1e-12), (np.float32, 16 * np.finfo(np.float32).eps)],
    ids=["float64", "float32"],
)
def test_factor_targets_match_the_summed_cube(rng, dtype, rtol):
    # both updates form c'x + c'u4 and g x' + g u4' in place of the products
    # with x + u4, which differ by rounding only.  Singular value
    # thresholding moves no pair of targets further apart, so the bound is
    # on the Frobenius norm, relative to the one-cube form
    x = rng.standard_normal((31, 12, 10)).astype(dtype)
    u4 = rng.standard_normal(x.shape).astype(dtype)
    c = random_orthonormal(31, 3, rng).astype(dtype)
    g = rng.standard_normal((3, 12, 10)).astype(dtype)
    shifted = x + u4
    lambda_g, beta4 = 0.25, 0.4
    pairs = [
        (update_g(x, u4, c, lambda_g, beta4), svt(mode3_product(shifted, c.T), lambda_g / beta4)),
        (procrustes_target(g, x, u4), g.reshape(3, -1) @ shifted.reshape(31, -1).T),
    ]
    for new, old in pairs:
        assert new.dtype == dtype
        gap = np.linalg.norm((new - old).ravel()) / np.linalg.norm(old.ravel())
        assert gap <= rtol, gap


def test_update_c_orthonormal_and_shaped(rng):
    g = rng.standard_normal((3, 4, 5))
    x = rng.standard_normal((7, 4, 5))
    lam4 = rng.standard_normal(x.shape)
    c = orthonormal_from_target(procrustes_target(g, x, lam4 / 0.5))[0]
    assert c.shape == (7, 3)
    np.testing.assert_allclose(c.T @ c, np.eye(3), atol=1e-12)


def test_update_c_recovers_aligned_signatures(rng):
    # when x composes exactly from (g, c0) and the multiplier is zero, the
    # update returns c0 itself
    c0 = random_orthonormal(6, 2, rng)
    g = rng.standard_normal((2, 5, 5))
    x = mode3_product(g, c0)
    c = orthonormal_from_target(procrustes_target(g, x, np.zeros_like(x)))[0]
    np.testing.assert_allclose(c, c0, rtol=1e-8, atol=1e-10)


def test_update_c_beats_10000_random_orthonormal_samples(rng):
    # trace(M @ c) at the update's output is the global maximum over
    # orthonormal c; no random sample may exceed it
    g = rng.standard_normal((2, 6, 5))
    x = rng.standard_normal((5, 6, 5))
    lam4 = rng.standard_normal(x.shape)
    beta4 = 0.3
    m = procrustes_target(g, x, lam4 / beta4)
    c_star = orthonormal_from_target(m)[0]
    best = np.trace(m @ c_star)
    samples = np.linalg.qr(rng.standard_normal((10000, 5, 2)))[0]
    values = np.einsum("rk,nkr->n", m, samples)
    assert best >= values.max() - 1e-9 * max(abs(best), 1.0)


def test_update_c_trace_equals_singular_sum(rng):
    g = rng.standard_normal((3, 4, 4))
    x = rng.standard_normal((6, 4, 4))
    lam4 = rng.standard_normal(x.shape)
    m = procrustes_target(g, x, lam4 / 0.9)
    c, s = orthonormal_from_target(m)
    assert np.trace(m @ c) == pytest.approx(float(np.sum(s)), rel=1e-10)


def test_update_c_degenerate_target_still_orthonormal():
    # rank-deficient target: one abundance slice is zero
    g = np.zeros((2, 3, 3))
    g[0] = 1.0
    x = np.random.default_rng(5).standard_normal((4, 3, 3))
    c = orthonormal_from_target(procrustes_target(g, x, np.zeros_like(x)))[0]
    np.testing.assert_allclose(c.T @ c, np.eye(2), atol=1e-10)


@given(seed=st.integers(min_value=0, max_value=2**16))
def test_update_c_always_orthonormal(seed):
    gen = np.random.default_rng(seed)
    r = int(gen.integers(1, 4))
    k = int(gen.integers(r, 7))
    g = gen.standard_normal((r, 3, 4))
    x = gen.standard_normal((k, 3, 4))
    lam4 = gen.standard_normal(x.shape)
    c = orthonormal_from_target(procrustes_target(g, x, lam4 / 0.4))[0]
    np.testing.assert_allclose(c.T @ c, np.eye(r), atol=1e-10)


def test_compose_matches_outer_sum_oracle(rng):
    g = rng.standard_normal((2, 3, 4))
    c = random_orthonormal(5, 2, rng)
    expected = np.zeros((5, 3, 4))
    for k in range(5):
        for r in range(2):
            expected[k] += c[k, r] * g[r]
    np.testing.assert_allclose(compose(MvtfFactors(g=g, c=c)), expected, rtol=1e-12, atol=1e-14)


def test_compose_rejects_mismatched_factors(rng):
    with pytest.raises(ShapeError):
        compose(MvtfFactors(g=np.zeros((2, 3, 3)), c=np.zeros((5, 3))))
