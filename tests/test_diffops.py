"""Difference operators against loop oracles and a dense assembled solve."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given
from hypothesis import strategies as st

from hsidenoise.diffops import (
    diff_axis,
    diff_axis_adjoint,
    diff_forward,
    solve_z_system,
    tv_kernel_spectrum,
)

from helpers import dense_x_matrix, diff_adjoint, in_the_range_of_d, loop_diff_adjoint, loop_diff_forward

dims_st = st.tuples(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
)


def test_constant_cube_has_zero_differences():
    d = diff_forward(np.full((3, 4, 5), 7.25))
    assert np.all(d == 0.0)


def test_forward_matches_loop_oracle(rng):
    x = rng.standard_normal((3, 4, 2))
    np.testing.assert_allclose(diff_forward(x), loop_diff_forward(x), rtol=0, atol=1e-14)
    # with a size-1 axis
    x = rng.standard_normal((5, 1, 3))
    np.testing.assert_array_equal(diff_forward(x), loop_diff_forward(x))


def test_single_axis_ramp_ends_in_zero():
    # x[k, i, j] = i on 4 rows: interior differences 1, and the last row has
    # no next row, so its difference is 0, not a wrap to the first row
    x = np.tile(np.arange(4.0).reshape(1, 4, 1), (2, 1, 3))
    d = diff_forward(x)
    assert np.all(d[1] == 0.0) and np.all(d[2] == 0.0)
    np.testing.assert_array_equal(d[0, 0, :, 0], [1.0, 1.0, 1.0, 0.0])
    # and D' sends the first row's difference back with its sign flipped
    np.testing.assert_array_equal(diff_adjoint(d)[0, :, 0], [-1.0, 0.0, 0.0, 1.0])


def test_adjoint_matches_loop_oracle(rng):
    d = rng.standard_normal((3, 2, 3, 4))
    np.testing.assert_allclose(diff_adjoint(d), loop_diff_adjoint(d), rtol=0, atol=1e-14)
    # each plane into a given array, with a size-1 axis
    d = rng.standard_normal((3, 5, 1, 4))
    total = np.zeros(d.shape[1:])
    for c, plane in enumerate(d):
        out = np.full(d.shape[1:], np.nan)
        assert diff_axis_adjoint(plane, c, out=out) is out
        total += out
    np.testing.assert_allclose(total, loop_diff_adjoint(d), rtol=0, atol=1e-14)


@given(dims=dims_st, seed=st.integers(min_value=0, max_value=2**16))
def test_adjoint_identity(dims, seed):
    # <D_c x, d> == <x, D_c' d> for random pairs, plane by plane, with d in
    # D_c's range (its last sample along the axis 0), where D_c' is D_c's
    # adjoint; every field the solver hands D' is one
    i, j, k = dims
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((k, i, j))
    d = in_the_range_of_d(gen.standard_normal((3, k, i, j)))
    for c in range(3):
        lhs = np.vdot(diff_axis(x, c, out=np.empty_like(x)), d[c])
        rhs = np.vdot(x, diff_axis_adjoint(d[c], c, out=np.empty_like(x)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "shape, per_block",
    [
        ((6, 3, 4), 1),  # one-band blocks
        ((7, 4, 3), 3),  # 3 + 3 + 1: an uneven last block, prime K
        ((11, 2, 5), 4),  # prime K, 4 + 4 + 3
        ((1, 3, 4), 1),  # K = 1: no halo on either side
        ((5, 4, 1), 2),  # J = 1
        ((5, 3, 2), 5),  # one block: no halo on either side
    ],
)
def test_blocks_with_halos_equal_the_whole_cube(rng, shape, per_block):
    # each block of bands, with the cube's next band (forward) or plane 2's
    # previous band (adjoint) as halo, gives the whole cube's values there;
    # the block that holds the last (first) band passes no halo, and its
    # last (first) band is the whole cube's boundary
    k = shape[0]
    x = rng.standard_normal(shape)
    d = rng.standard_normal((3,) + shape)
    forward, adjoint = [], []
    for lo in range(0, k, per_block):
        hi = min(lo + per_block, k)
        forward.append(diff_forward(x[lo:hi], after=x[hi] if hi < k else None))
        adjoint.append(diff_adjoint(d[:, lo:hi], before=d[2, lo - 1] if lo > 0 else None))
    assert np.array_equal(np.concatenate(forward, axis=1), diff_forward(x))
    assert np.array_equal(np.concatenate(adjoint, axis=0), diff_adjoint(d))
    np.testing.assert_allclose(diff_forward(x), loop_diff_forward(x), rtol=0, atol=1e-14)
    np.testing.assert_allclose(diff_adjoint(d), loop_diff_adjoint(d), rtol=0, atol=1e-14)


def full_grid_spectrum(shape, screen, beta3):
    """Eigenvalues of screen*I + beta3*D'D on the 3-D DCT-II grid, shape (K, I, J).

    A Neumann forward difference along an axis of length n contributes
    4*sin(pi*f/(2n))^2 at frequency index f, and the three axes add.
    """
    total = np.zeros(shape)
    for ax, n in enumerate(shape):
        eig = 4.0 * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2
        profile = [1, 1, 1]
        profile[ax] = n
        total += eig.reshape(profile)
    return screen + beta3 * total


def dct_solve(m, screen, beta3):
    """The 3-D solve through scipy.fft: orthonormal DCT-II, division by the eigenvalues, inverse."""
    spectrum = scipy.fft.dctn(m, type=2, norm="ortho")
    return scipy.fft.idctn(spectrum / full_grid_spectrum(m.shape, screen, beta3), type=2, norm="ortho")


def test_spectrum_fixed_entries():
    spec = full_grid_spectrum((2, 2, 2), screen=0.3, beta3=0.7)
    # zero frequency sees only the screening term
    assert spec[0, 0, 0] == pytest.approx(0.3, abs=0)
    # on 2 points D'D is [[1, -1], [-1, 1]], whose other eigenvalue is 2
    assert spec[1, 1, 1] == pytest.approx(0.3 + 6 * 0.7, rel=1e-12)


def test_spectrum_real_and_bounded_below(rng):
    spec = full_grid_spectrum((5, 4, 3), screen=0.1, beta3=0.1)
    assert spec.shape == (5, 4, 3)
    assert np.isrealobj(spec)
    assert np.all(spec >= 0.1 - 1e-15)


def test_spectrum_consistent_with_operators(rng):
    # beta3 * D'D x must equal the inverse DCT-II of the non-screening part
    # of the spectrum times the DCT-II of x
    screen, beta3 = 0.4, 0.9
    x = rng.standard_normal((4, 3, 5))
    spec = full_grid_spectrum(x.shape, screen, beta3)
    via_ops = beta3 * loop_diff_adjoint(loop_diff_forward(x))
    via_dct = scipy.fft.idctn((spec - screen) * scipy.fft.dctn(x, norm="ortho"), norm="ortho")
    np.testing.assert_allclose(via_ops, via_dct, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "shape, screen, beta3",
    [
        ((7, 5, 3), 0.3, 0.8),
        ((191, 4, 6), 0.1, 0.1),
        ((1, 3, 4), 0.2, 0.5),
        ((2, 1, 1), 0.2, 0.5),
        ((3, 2, 5), 0.1, 0.0),
        ((5, 3, 2), 1e-4, 1.0),  # beta3/screen = 1e4: r near 1
    ],
)
def test_factors_reproduce_the_full_grid_spectrum(shape, screen, beta3):
    # the eigenvalue at band frequency f and spatial frequency (a, b) is
    # spatial[a, b] + band[f], indexed like scipy's DCT-II on all three axes
    k, i, j = shape
    f = tv_kernel_spectrum(shape, screen, beta3)
    assert (f.bands.shape, f.rows.shape, f.cols.shape) == ((k, k), (i, i), (j, j))
    assert f.spatial.shape == (i, j) and f.band.shape == (k,)
    eig = f.spatial[None] + f.band[:, None, None]
    np.testing.assert_allclose(eig, full_grid_spectrum(shape, screen, beta3), rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 96, 145, 191])
def test_dct_bases_diagonalise_the_neumann_second_difference(n):
    # B is orthonormal, B' (D'D) B = diag(4 sin^2(pi f/(2n))) for the
    # Neumann difference D along an axis of length n, and B' is scipy's
    # orthonormal DCT-II matrix; the spectrum of an (n, n, n) cube carries
    # it as its row, column and band basis
    f = tv_kernel_spectrum((n, n, n), 0.1, 0.1)
    np.testing.assert_array_equal(f.rows, f.cols)
    np.testing.assert_array_equal(f.rows, f.bands)
    b = f.rows
    assert b.shape == (n, n) and b.dtype == np.float64
    np.testing.assert_allclose(b.T @ b, np.eye(n), rtol=0, atol=1e-13)
    np.testing.assert_allclose(b.T, scipy.fft.dct(np.eye(n), norm="ortho", axis=0), rtol=0, atol=1e-14)
    # D'D along the axis, column by column from the loop oracles on an
    # (n, 1, 1) cube, whose only non-zero plane is the band plane
    second = np.stack(
        [loop_diff_adjoint(loop_diff_forward(e.reshape(n, 1, 1))).ravel() for e in np.eye(n)], axis=1
    )
    diag = np.diag(4.0 * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2)
    np.testing.assert_allclose(b.T @ second @ b, diag, rtol=0, atol=1e-12)


def test_solve_with_zero_beta3_divides_by_the_screen_weight(rng):
    m = rng.standard_normal((3, 3, 2))
    spec = tv_kernel_spectrum(m.shape, screen=0.5, beta3=0.0)
    np.testing.assert_allclose(solve_z_system(m.copy(), spec), m / 0.5, rtol=1e-12, atol=1e-14)


def dense_solve(m, screen, beta3):
    return np.linalg.solve(dense_x_matrix(m.shape, screen, beta3), m.ravel()).reshape(m.shape)


def test_solve_matches_dense_assembled_system(rng):
    screen, beta3 = 0.2, 0.6
    shape = (2, 4, 3)  # K, I, J
    m = rng.standard_normal(shape)
    dense = dense_solve(m, screen, beta3)
    solution = solve_z_system(m, tv_kernel_spectrum(shape, screen, beta3))
    resid = np.linalg.norm(solution - dense) / np.linalg.norm(dense)
    # measured 1.5e-15
    assert resid < 1e-13


@given(dims=dims_st, seed=st.integers(min_value=0, max_value=2**16))
def test_solve_residual_is_small(dims, seed):
    # plugging the solution back through the operators reproduces the
    # right-hand side
    i, j, k = dims
    gen = np.random.default_rng(seed)
    m = gen.standard_normal((k, i, j))
    screen, beta3 = 0.3, 0.8
    z = solve_z_system(m.copy(), tv_kernel_spectrum(m.shape, screen, beta3))
    back = screen * z + beta3 * diff_adjoint(diff_forward(z))
    assert np.linalg.norm(back - m) <= 1e-8 * max(np.linalg.norm(m), 1e-30)


@given(
    dims=dims_st,
    ratio=st.sampled_from([0.0, 0.5, 2.0, 1e4]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(dims=(1, 1, 1), ratio=1.0, seed=0)
@example(dims=(5, 7, 1), ratio=1e4, seed=1)  # K = 1
@example(dims=(3, 5, 2), ratio=1e4, seed=2)  # K = 2
@example(dims=(1, 6, 5), ratio=0.5, seed=3)  # I = 1
@example(dims=(7, 1, 3), ratio=2.0, seed=4)  # J = 1
@example(dims=(5, 3, 7), ratio=0.0, seed=5)  # prime sizes, beta3 = 0
@example(dims=(6, 5, 4), ratio=1e4, seed=6)
def test_solve_matches_the_3d_fft_solve(dims, ratio, seed):
    # the oracle is scipy.fft's orthonormal 3-D DCT-II
    i, j, k = dims
    gen = np.random.default_rng(seed)
    m = gen.standard_normal((k, i, j))
    screen = 0.3
    expected = dct_solve(m, screen, ratio * screen)
    z = solve_z_system(m, tv_kernel_spectrum(m.shape, screen, ratio * screen))
    np.testing.assert_allclose(z, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_solve_overwrites_its_right_hand_side_with_the_solution(rng):
    # the solve has one form: the solution goes into m, which it returns
    screen, beta3 = 0.2, 0.7
    m = rng.standard_normal((3, 5, 4))
    dense = dense_solve(m, screen, beta3)
    rhs = m.copy()
    assert solve_z_system(rhs, tv_kernel_spectrum(m.shape, screen, beta3)) is rhs
    resid = np.linalg.norm(rhs - dense) / np.linalg.norm(dense)
    assert resid < 1e-13


@pytest.mark.parametrize("ratio", [0.0, 0.5, 1.0, 2.0])
def test_float32_solve_satisfies_its_normal_equations(rng, ratio):
    # in float32 the solution, put back through the operators in float64,
    # reproduces the right-hand side to a few float32 roundoffs.  At these
    # ratios screen*I + beta3*D'D has a condition number of at most 25.  The
    # DCT-II products round more as the axes grow, so the check runs on
    # 191 bands and on 96x96 and 145x145 bands.  Over 5 seeds the relative
    # residual measured at most 3.9, 4.0 and 5.1 float32 eps on these three
    # shapes
    screen = 0.1
    for shape in ((191, 24, 20), (8, 96, 96), (4, 145, 145)):
        m = rng.standard_normal(shape).astype(np.float32)
        z = solve_z_system(m.copy(), tv_kernel_spectrum(m.shape, screen, ratio * screen))
        assert z.dtype == np.float32
        wide = z.astype(np.float64)
        back = screen * wide + ratio * screen * diff_adjoint(diff_forward(wide))
        resid = np.linalg.norm(back - m) / np.linalg.norm(m)
        assert resid <= 16 * np.finfo(np.float32).eps, (shape, resid / np.finfo(np.float32).eps)


def test_float32_operators_stay_in_float32(rng):
    # float32 input gives float32 output, and given the arrays it writes, an
    # operator allocates only its own scratch: D the field it returns on the
    # block of bands it runs on with a halo, one plane's difference and its
    # adjoint nothing, the z solve one float32 scratch cube for its DCT-II
    # products (measured 1.064 cubes).  Beyond that come numpy's fixed-size
    # ufunc buffers and the z solve's float32 factors, the (K, K) band
    # matrix the largest, about 6% of this cube; the eigenvalues of each
    # band block are formed in the right-hand side it overwrites.  A float64
    # temporary of the block would be 2.2 cubes
    shape = (191, 64, 64)
    k = shape[0]
    x = rng.standard_normal(shape).astype(np.float32)
    d = rng.standard_normal((3,) + shape).astype(np.float32)
    spectrum = tv_kernel_spectrum(shape, 0.1, 0.1)
    lo, hi = 60, 130
    calls = [
        (lambda out: diff_forward(x[lo:hi], after=x[hi]), None, 3 * (hi - lo) / k),
        (lambda out: diff_axis(x[lo:hi], 2, after=x[hi], out=out), np.empty_like(x[lo:hi]), 0),
        (
            lambda out: diff_axis_adjoint(d[2, lo:hi], 2, before=d[2, lo - 1], out=out),
            np.empty_like(x[lo:hi]),
            0,
        ),
        (lambda out: solve_z_system(out, spectrum), x.copy(), 1),
    ]
    for call, out, own in calls:
        out = call(out)
        assert out.dtype == np.float32
        tracemalloc.start()
        try:
            call(out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (own + 0.1) * x.nbytes, peak / x.nbytes
