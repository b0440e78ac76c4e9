"""Difference operators against loop oracles and a dense assembled solve."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hsidenoise.diffops import (
    diff_adjoint,
    diff_forward,
    solve_z_system,
    tv_kernel_spectrum,
)
from hsidenoise.errors import ShapeError

dims_st = st.tuples(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
)


# loop oracles with explicit modular indexing


def loop_diff_forward(x):
    k, i, j = x.shape
    out = np.zeros((3, k, i, j))
    for kk in range(k):
        for ii in range(i):
            for jj in range(j):
                out[0, kk, ii, jj] = x[kk, (ii + 1) % i, jj] - x[kk, ii, jj]
                out[1, kk, ii, jj] = x[kk, ii, (jj + 1) % j] - x[kk, ii, jj]
                out[2, kk, ii, jj] = x[(kk + 1) % k, ii, jj] - x[kk, ii, jj]
    return out


def loop_diff_adjoint(d):
    _, k, i, j = d.shape
    out = np.zeros((k, i, j))
    for kk in range(k):
        for ii in range(i):
            for jj in range(j):
                out[kk, ii, jj] = (
                    d[0, kk, (ii - 1) % i, jj]
                    - d[0, kk, ii, jj]
                    + d[1, kk, ii, (jj - 1) % j]
                    - d[1, kk, ii, jj]
                    + d[2, (kk - 1) % k, ii, jj]
                    - d[2, kk, ii, jj]
                )
    return out


def test_constant_cube_has_zero_differences():
    d = diff_forward(np.full((3, 4, 5), 7.25))
    assert np.all(d == 0.0)


def test_forward_matches_loop_oracle(rng):
    x = rng.standard_normal((3, 4, 2))
    np.testing.assert_allclose(diff_forward(x), loop_diff_forward(x), rtol=0, atol=1e-14)
    # into a given array, with a size-1 axis
    x = rng.standard_normal((5, 1, 3))
    out = np.full((3,) + x.shape, np.nan)
    assert diff_forward(x, out=out) is out
    np.testing.assert_array_equal(out, loop_diff_forward(x))


def test_single_axis_ramp_wraps():
    # x[k, i, j] = i on 4 rows: interior differences 1, the last row wraps
    # to the first with -3
    x = np.tile(np.arange(4.0).reshape(1, 4, 1), (2, 1, 3))
    d = diff_forward(x)
    assert np.all(d[1] == 0.0) and np.all(d[2] == 0.0)
    np.testing.assert_array_equal(d[0, 0, :, 0], [1.0, 1.0, 1.0, -3.0])


def test_adjoint_matches_loop_oracle(rng):
    d = rng.standard_normal((3, 2, 3, 4))
    np.testing.assert_allclose(diff_adjoint(d), loop_diff_adjoint(d), rtol=0, atol=1e-14)
    # into given arrays, with a size-1 axis
    d = rng.standard_normal((3, 5, 1, 4))
    out, scratch = np.full(d.shape[1:], np.nan), np.full(d.shape[1:], np.nan)
    assert diff_adjoint(d, out=out, scratch=scratch) is out
    np.testing.assert_allclose(out, loop_diff_adjoint(d), rtol=0, atol=1e-14)


@given(dims=dims_st, seed=st.integers(min_value=0, max_value=2**16))
def test_adjoint_identity(dims, seed):
    # <D x, d> == <x, D* d> for random pairs
    i, j, k = dims
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((k, i, j))
    d = gen.standard_normal((3, k, i, j))
    lhs = np.vdot(diff_forward(x), d)
    rhs = np.vdot(x, diff_adjoint(d))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_shape_validation():
    with pytest.raises(ShapeError):
        diff_forward(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        diff_adjoint(np.zeros((2, 3, 3, 3)))


def test_spectrum_fixed_entries():
    spec = tv_kernel_spectrum((2, 2, 2), beta2=0.3, beta3=0.7)
    # zero frequency sees only the screening term
    assert spec[0, 0, 0] == pytest.approx(0.3, abs=0)
    # at the Nyquist corner of a 2-point grid each axis contributes 4
    assert spec[1, 1, 1] == pytest.approx(0.3 + 12 * 0.7, rel=1e-12)


def test_spectrum_real_and_bounded_below(rng):
    spec = tv_kernel_spectrum((5, 4, 3), beta2=0.1, beta3=0.1)
    assert spec.shape == (5, 4, 3)
    assert np.isrealobj(spec)
    assert np.all(spec >= 0.1 - 1e-15)


def test_spectrum_consistent_with_operators(rng):
    # beta3 * D'D x must equal the inverse transform of the non-screening
    # part of the spectrum times the transform of x
    beta2, beta3 = 0.4, 0.9
    x = rng.standard_normal((4, 3, 5))
    spec = tv_kernel_spectrum(x.shape, beta2, beta3)
    via_ops = beta3 * diff_adjoint(diff_forward(x))
    via_fft = np.fft.ifftn((spec - beta2) * np.fft.fftn(x)).real
    np.testing.assert_allclose(via_ops, via_fft, rtol=0, atol=1e-10)


def test_solve_with_zero_beta3_divides_by_beta2(rng):
    m = rng.standard_normal((3, 3, 2))
    spec = tv_kernel_spectrum(m.shape, beta2=0.5, beta3=0.0)
    np.testing.assert_allclose(solve_z_system(m, spec), m / 0.5, rtol=1e-12, atol=1e-14)


def test_solve_matches_dense_assembled_system(rng):
    # assemble beta2*I + beta3*D'D column by column through the operators
    # themselves applied to basis vectors, then solve densely
    beta2, beta3 = 0.2, 0.6
    shape = (2, 4, 3)  # K, I, J
    size = int(np.prod(shape))
    a = np.zeros((size, size))
    for col in range(size):
        basis = np.zeros(size)
        basis[col] = 1.0
        cube = basis.reshape(shape)
        a[:, col] = (beta2 * cube + beta3 * loop_diff_adjoint(loop_diff_forward(cube))).ravel()
    m = rng.standard_normal(shape)
    dense = np.linalg.solve(a, m.ravel()).reshape(shape)
    fft_solution = solve_z_system(m, tv_kernel_spectrum(shape, beta2, beta3))
    resid = np.linalg.norm(fft_solution - dense) / np.linalg.norm(dense)
    assert resid < 1e-8


@given(dims=dims_st, seed=st.integers(min_value=0, max_value=2**16))
def test_solve_residual_is_small(dims, seed):
    # plugging the solution back through the operators reproduces the
    # right-hand side
    i, j, k = dims
    gen = np.random.default_rng(seed)
    m = gen.standard_normal((k, i, j))
    beta2, beta3 = 0.3, 0.8
    z = solve_z_system(m, tv_kernel_spectrum(m.shape, beta2, beta3))
    back = beta2 * z + beta3 * diff_adjoint(diff_forward(z))
    assert np.linalg.norm(back - m) <= 1e-8 * max(np.linalg.norm(m), 1e-30)


def test_solve_shape_mismatch():
    spec = tv_kernel_spectrum((2, 2, 2), 0.1, 0.1)
    with pytest.raises(ShapeError):
        solve_z_system(np.zeros((2, 2, 3)), spec)


def test_spectrum_parameter_validation():
    with pytest.raises(ValueError):
        tv_kernel_spectrum((2, 2, 2), beta2=0.0, beta3=0.1)
    with pytest.raises(ValueError):
        tv_kernel_spectrum((2, 2, 2), beta2=0.1, beta3=-0.1)
    with pytest.raises(ShapeError):
        tv_kernel_spectrum((2, 2), beta2=0.1, beta3=0.1)
