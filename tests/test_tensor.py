"""Tensor primitives against loop-built oracles and enumerated fixtures."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hsidenoise import tensor
from hsidenoise.tensor import band_blocks, frob_norm_sq, mode3_product

dims_st = st.tuples(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
)


def make_cube(dims, seed=0):
    i, j, k = dims
    return np.random.default_rng(seed).standard_normal((k, i, j))


# independent elementwise-loop oracles


def loop_inner(a, b):
    total = 0.0
    k, i, j = a.shape
    for kk in range(k):
        for ii in range(i):
            for jj in range(j):
                total += a[kk, ii, jj] * b[kk, ii, jj]
    return total


def loop_unfold(a):
    k, i, j = a.shape
    out = np.zeros((k, i * j))
    for kk in range(k):
        for ii in range(i):
            for jj in range(j):
                out[kk, ii * j + jj] = a[kk, ii, jj]
    return out


def loop_mode3(a, u):
    r, i, j = a.shape
    p = u.shape[0]
    out = np.zeros((p, i, j))
    for q in range(p):
        for ii in range(i):
            for jj in range(j):
                out[q, ii, jj] = sum(u[q, rr] * a[rr, ii, jj] for rr in range(r))
    return out


@pytest.mark.parametrize(
    "k, dtype, block_bytes, sizes",
    [
        pytest.param(0, np.float64, 4096, [], id="zero-bands"),
        pytest.param(3, np.float64, 4096, [3], id="fewer-bands-than-a-block"),
        pytest.param(16, np.float64, 4096, [8, 8], id="exact-multiple"),
        pytest.param(19, np.float64, 4096, [8, 8, 3], id="remainder"),
        pytest.param(19, np.float32, 4096, [16, 3], id="float32"),
        pytest.param(2, np.float64, 1, [1, 1], id="bands-larger-than-a-block"),
    ],
)
def test_band_blocks_tile_the_bands(monkeypatch, k, dtype, block_bytes, sizes):
    # a band of 8x8 entries is 512 bytes in float64, 256 in float32
    monkeypatch.setattr(tensor, "_BLOCK_BYTES", block_bytes)
    blocks = band_blocks(np.zeros((k, 8, 8), dtype))
    assert [b.stop - b.start for b in blocks] == sizes
    assert [b.start for b in blocks] == [sum(sizes[:n]) for n in range(len(sizes))]


def test_norms_against_loops(rng):
    a = rng.standard_normal((3, 4, 2))
    assert frob_norm_sq(a) == pytest.approx(loop_inner(a, a), rel=1e-12)


def test_norm_trivials():
    zeros = np.zeros((2, 2, 2))
    assert frob_norm_sq(zeros) == 0.0
    ones = np.ones((2, 3, 4))
    assert frob_norm_sq(ones) == 24.0


def test_unfold_enumerated_fixture():
    # a[i, j, k] = 4k + 2j + i on a 2x2x2 cube; row k of the unfolding must
    # read [4k, 4k+2, 4k+1, 4k+3] under the row-major pixel scan
    a = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                a[k, i, j] = 4 * k + 2 * j + i
    m = a.reshape(2, -1)
    assert m.shape == (2, 4)
    expected = np.array([[0.0, 2.0, 1.0, 3.0], [4.0, 6.0, 5.0, 7.0]])
    np.testing.assert_array_equal(m, expected)


def test_unfold_matches_loop_oracle(rng):
    a = rng.standard_normal((3, 2, 4))
    np.testing.assert_array_equal(a.reshape(a.shape[0], -1), loop_unfold(a))


def test_mode3_product_identity(rng):
    a = rng.standard_normal((3, 4, 2))
    np.testing.assert_allclose(mode3_product(a, np.eye(3)), a, rtol=0, atol=0)


def test_mode3_product_matches_loop_oracle(rng):
    a = rng.standard_normal((3, 2, 3))
    u = rng.standard_normal((4, 3))
    np.testing.assert_allclose(mode3_product(a, u), loop_mode3(a, u), rtol=1e-12, atol=1e-14)


def test_mode3_product_matches_unfold_route(rng):
    a = rng.standard_normal((4, 3, 2))
    u = rng.standard_normal((2, 4))
    i, j = a.shape[1], a.shape[2]
    via_unfold = (u @ loop_unfold(a)).reshape(u.shape[0], i, j)
    np.testing.assert_allclose(mode3_product(a, u), via_unfold, rtol=1e-12, atol=1e-14)


def test_mode3_product_stays_in_float32(rng):
    # float32 operands give a float32 result, and the contraction allocates
    # nothing cube-sized besides it; a float64 result would be twice this
    # array
    a = rng.standard_normal((191, 64, 64)).astype(np.float32)
    u = rng.standard_normal((3, 191)).astype(np.float32)
    tracemalloc.start()
    try:
        out = mode3_product(a, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.dtype == np.float32
    assert peak < 1.05 * out.nbytes, peak / out.nbytes


@given(dims=dims_st, seed=st.integers(min_value=0, max_value=2**16))
def test_mode3_contraction_is_linear(dims, seed):
    a = make_cube(dims, seed)
    b = make_cube(dims, seed + 1)
    k = a.shape[0]
    u = np.random.default_rng(seed + 2).standard_normal((2, k))
    lhs = mode3_product(a + 3.0 * b, u)
    rhs = mode3_product(a, u) + 3.0 * mode3_product(b, u)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)
