"""Solver sweeps against formula oracles and an independent reference loop."""

import copy
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from hsidenoise import solver, tensor
from hsidenoise.errors import NumericError, ShapeError
from hsidenoise.factorization import MvtfFactors, orthonormal_from_target, update_g
from hsidenoise.solver import (
    SolverParams,
    SolverState,
    initialize_state,
    objective_terms,
    solve,
    update_l,
    update_multipliers,
    update_n,
    update_s,
    update_x,
)
from hsidenoise.diffops import diff_forward, solve_z_system, tv_kernel_spectrum
from hsidenoise.noise import apply_case
from hsidenoise.synthetic import smooth_lowrank_cube

from helpers import dense_x_matrix, in_the_range_of_d, loop_diff_adjoint, loop_diff_forward


def random_state(shape, r, gen):
    """A random state, but for u3, which is 0 where D's last sample is, as every sweep leaves it."""
    k = shape[0]
    c = np.linalg.qr(gen.standard_normal((k, r)))[0]
    u3 = in_the_range_of_d(gen.standard_normal((3,) + shape))
    return SolverState(
        x=gen.standard_normal(shape),
        x_prev=gen.standard_normal(shape),
        s=gen.standard_normal(shape),
        n=gen.standard_normal(shape),
        u3=u3,
        factors=MvtfFactors(g=gen.standard_normal((r,) + shape[1:]), c=c),
        u4=gen.standard_normal(shape),
    )


def unscaled(st, p):
    """The multipliers lambda_i that the unscaled formulas read.

    lambda3 and lambda4 are beta3 * u3 and beta4 * u4; the state fixes
    lambda1 as 2*lambda_n*n.
    """
    return 2 * p.lambda_n * st.n, p.beta3 * st.u3, p.beta4 * st.u4


def l_step(st, p):
    """The ADMM l step on ``st.x`` from the state's lambda3: l and the new lambda3.

    l = shrink(D(x) - lambda3/beta3, tau) and lambda3 += beta3*(l - D(x)).
    """
    lam3, dx = unscaled(st, p)[1], loop_diff_forward(st.x)
    l = ref_soft(dx - lam3 / p.beta3, p.lambda_tv / p.beta3)
    return l, lam3 + p.beta3 * (l - dx)


# ---- independent scalar-formula oracles for the closed-form steps ----


def einsum_compose(g, c):
    return np.einsum("kr,rij->kij", c, g)


def x_system_rhs(st, y, p):
    """beta1*(y - s - n) + lambda1 + beta4*model - lambda4 + D'(beta3*l + lambda3).

    l and lambda3 are the l step's on ``st.x``, as the reference loop
    forms the next sweep's right-hand side after its l step.
    """
    lam1, _, lam4 = unscaled(st, p)
    l, lam3 = l_step(st, p)
    return (
        p.beta1 * (y - st.s - st.n)
        + lam1
        + p.beta4 * einsum_compose(st.factors.g, st.factors.c)
        - lam4
        + loop_diff_adjoint(p.beta3 * l + lam3)
    )


def tail_rhs(st, y, p):
    """``st.x_prev`` as the sweep's tail leaves it on a one-block cube.

    update_l writes the TV share, with no halo on either side, and then
    the split's share beta1*(y - s - n + u1) is added, here by its formula.
    Moves u3.
    """
    update_l(st, p)
    st.x_prev += p.beta1 * (y - st.s - st.n) + unscaled(st, p)[0]
    return st.x_prev


def test_update_x_matches_formula_oracle(rng):
    shape = (4, 5, 3)
    st = random_state(shape, 2, rng)
    y = rng.standard_normal(shape)
    p = SolverParams(lambda_tv=0.3, beta1=0.3, beta3=0.5, beta4=0.7, rank=2)
    expected = x_system_rhs(st, y, p)
    rest = tail_rhs(st, y, p).copy()
    got = update_x(st, p)
    assert got is st.x_prev
    tol = dict(rtol=1e-12, atol=1e-14)
    # the step adds the model term to what the tail left, and the two make
    # up the whole right-hand side
    model = einsum_compose(st.factors.g, st.factors.c)
    np.testing.assert_allclose(got - rest, p.beta4 * (model - st.u4), **tol)
    np.testing.assert_allclose(got, expected, **tol)


def test_update_x_consensus_fixed_point(rng):
    # all multipliers zero, s = n = 0, y = compose(factors) = x and, without
    # TV, l = D(y): every target of the x system agrees, and x comes back as
    # y itself
    shape = (4, 4, 4)
    c = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    g = rng.standard_normal((2, 4, 4))
    y = einsum_compose(g, c)
    st = random_state(shape, 2, rng)
    st.x = y.copy()
    st.s = np.zeros(shape)
    st.n = np.zeros(shape)
    st.u3 = np.zeros((3,) + shape)
    st.factors = MvtfFactors(g=g, c=c)
    st.u4 = np.zeros(shape)
    p = SolverParams(lambda_tv=0.0, rank=2)
    spectrum = tv_kernel_spectrum(shape, p.beta1 + p.beta4, p.beta3)
    tail_rhs(st, y, p)
    x = solve_z_system(update_x(st, p), spectrum)
    np.testing.assert_allclose(x, y, rtol=1e-12, atol=1e-13)
    assert np.all(st.u3 == 0.0)


def test_update_x_is_linear_across_states_sharing_signatures(rng):
    # without TV, u3 becomes zero and l + u3 = D(x) - u3_old, so the
    # right-hand side the l and x steps form is linear in the state
    shape = (3, 4, 4)
    p = SolverParams(lambda_tv=0.0, rank=2)
    sa = random_state(shape, 2, rng)
    sb = random_state(shape, 2, rng)
    sb.factors = MvtfFactors(g=rng.standard_normal((2, 4, 4)), c=sa.factors.c)
    ya = rng.standard_normal(shape)
    yb = rng.standard_normal(shape)
    summed = SolverState(
        x=sa.x + sb.x,
        x_prev=np.empty(shape),
        s=sa.s + sb.s,
        n=sa.n + sb.n,
        u3=sa.u3 + sb.u3,
        factors=MvtfFactors(g=sa.factors.g + sb.factors.g, c=sa.factors.c),
        u4=sa.u4 + sb.u4,
    )

    def rhs(st, y):
        tail_rhs(st, y, p)
        return update_x(st, p)

    np.testing.assert_allclose(rhs(summed, ya + yb), rhs(sa, ya) + rhs(sb, yb), rtol=1e-11, atol=1e-12)


def test_update_l_matches_formula_oracle(rng):
    # run on three band blocks in order, as the sweep's tail does: each
    # passes its last band's l + u3 on as the next block's halo, the middle
    # block reads both halos, and the first and last blocks each have no
    # halo on their outer side.  u3, the TV share of the next right-hand
    # side and the residual must be the reference loop's l = shrink(D(x) -
    # lambda3/beta3), lambda3 += beta3*(l - D(x)) and D'(beta3*l + lambda3).
    # tau = 0.75 leaves unit-normal entries on both sides of the threshold
    shape = (7, 4, 4)
    k = shape[0]
    st = random_state(shape, 2, rng)
    p = SolverParams(lambda_tv=0.3, beta3=0.4, rank=2)
    l, lam3 = l_step(st, p)
    share = loop_diff_adjoint(p.beta3 * l + lam3)
    before = None
    res_sq = 0.0
    for block in (slice(0, 2), slice(2, 5), slice(5, 7)):
        after = st.x[block.stop] if block.stop < k else None
        value, before = update_l(st.bands(block), p, after, before)
        res_sq += value
        np.testing.assert_allclose(before, (l + lam3 / p.beta3)[2, block.stop - 1], rtol=1e-12, atol=1e-14)
    # the last band's l + u3 is 0, as D's last band is
    assert np.all(before == 0.0)
    tol = dict(rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(unscaled(st, p)[1], lam3, **tol)
    np.testing.assert_allclose(st.x_prev, share, **tol)
    dx = loop_diff_forward(st.x)
    assert res_sq == pytest.approx(np.sum((l - dx) ** 2), rel=1e-12)


def test_update_l_zero_tv_weight_is_identity_shift(rng):
    # without TV, u3 starts and stays zero and l is D(x) itself: the step
    # leaves u3 at zero, its residual is zero, and the TV share is
    # beta3*D'D(x)
    shape = (3, 4, 4)
    st = random_state(shape, 2, rng)
    st.u3 = np.zeros((3,) + shape)
    p = SolverParams(lambda_tv=0.0, beta3=0.4, rank=2)
    res_sq, _ = update_l(st, p)
    assert np.all(st.u3 == 0.0) and res_sq == 0.0
    np.testing.assert_allclose(
        st.x_prev, p.beta3 * loop_diff_adjoint(loop_diff_forward(st.x)), rtol=1e-12, atol=1e-14
    )


def test_update_s_matches_formula_oracle(rng):
    shape = (3, 3, 4)
    st = random_state(shape, 2, rng)
    y = rng.standard_normal(shape)
    p = SolverParams(lambda_s=0.09, beta1=0.3, rank=2)
    lam1 = unscaled(st, p)[0]
    raw = y - st.x - st.n + lam1 / p.beta1
    expected = np.sign(raw) * np.maximum(np.abs(raw) - p.lambda_s / p.beta1, 0.0)
    np.testing.assert_allclose(update_s(st, y - st.x, p), expected, rtol=1e-12, atol=1e-14)


def test_update_n_matches_formula_oracle(rng):
    shape = (3, 3, 4)
    st = random_state(shape, 2, rng)
    y = rng.standard_normal(shape)
    p = SolverParams(lambda_n=0.25, beta1=0.4, rank=2)
    lam1 = unscaled(st, p)[0]
    expected = (p.beta1 * (y - st.x - st.s) + lam1) / (p.beta1 + 2 * p.lambda_n)
    np.testing.assert_allclose(update_n(st, y - st.x - st.s, p), expected, rtol=1e-12, atol=1e-14)


def test_update_n_shrinks_as_weight_grows(rng):
    # from n = 0, where lambda1 = 2*lambda_n*n is zero too, the ridge weight
    # divides the residual: doubling lambda_n with beta1 fixed can only
    # shrink every entry
    shape = (2, 3, 3)
    st = random_state(shape, 1, rng)
    st.n = np.zeros(shape)
    y = rng.standard_normal(shape)
    small = update_n(copy.deepcopy(st), y - st.x - st.s, SolverParams(lambda_n=0.1, rank=1))
    large = update_n(copy.deepcopy(st), y - st.x - st.s, SolverParams(lambda_n=0.2, rank=1))
    assert np.all(np.abs(large) <= np.abs(small) + 1e-15)


def test_update_multipliers_match_formula_oracle(rng):
    shape = (3, 4, 3)
    st = random_state(shape, 2, rng)
    y = rng.standard_normal(shape)
    p = SolverParams(beta1=0.2, beta3=0.4, beta4=0.5, rank=2)
    # the step updates u4 in place, so it runs on a copy and the oracles
    # read the untouched original
    after = copy.deepcopy(st)
    norms_sq = update_multipliers(after, y - st.x - st.s)
    lam4, l4 = unscaled(st, p)[2], unscaled(after, p)[2]
    np.testing.assert_allclose(
        l4,
        lam4 + 0.5 * (st.x - einsum_compose(st.factors.g, st.factors.c)),
        rtol=1e-12,
    )
    # n and u3, which fix lambda1 and lambda3, are the n and l steps' to move
    assert np.array_equal(after.n, st.n) and np.array_equal(after.u3, st.u3)
    # the returned squared norms are those of the observation split's and
    # the factor model's residuals
    residuals = (
        y - st.x - st.s - st.n,
        st.x - einsum_compose(st.factors.g, st.factors.c),
    )
    np.testing.assert_allclose(norms_sq, [np.linalg.norm(r) ** 2 for r in residuals], rtol=1e-12)


def test_update_x_satisfies_its_normal_equations(rng):
    shape = (3, 4, 4)
    st = random_state(shape, 2, rng)
    y = rng.standard_normal(shape)
    p = SolverParams(lambda_tv=0.3, beta1=0.3, beta3=0.6, beta4=0.7, rank=2)
    expected = x_system_rhs(st, y, p)
    # the tail and update_x form the right-hand side; the solve finishes the step
    spectrum = tv_kernel_spectrum(shape, p.beta1 + p.beta4, p.beta3)
    tail_rhs(st, y, p)
    x = solve_z_system(update_x(st, p), spectrum)
    back = (p.beta1 + p.beta4) * x + p.beta3 * loop_diff_adjoint(loop_diff_forward(x))
    np.testing.assert_allclose(back, expected, rtol=0, atol=1e-10)


def float32_state(shape, rng):
    st = random_state(shape, 2, rng)
    for name in ("x", "x_prev", "s", "n", "u3", "u4"):
        setattr(st, name, getattr(st, name).astype(np.float32))
    st.factors = MvtfFactors(*(a.astype(np.float32) for a in (st.factors.g, st.factors.c)))
    return st


# cubes of scratch each step uses (a difference field is three): besides
# the state's arrays it writes, a step allocates these and nothing else
STEP_SCRATCH = {"x": 1, "l": 2, "s": 1, "n": 0, "multipliers": 2}


@pytest.mark.parametrize("step", sorted(STEP_SCRATCH))
def test_float32_step_stays_in_float32_and_allocates_only_its_scratch(rng, step):
    # float32 arrays in, float32 arrays written, and no float64 temporary: a
    # step writes the state's own arrays and allocates only the scratch it
    # uses.  Beyond that come numpy's fixed-size ufunc buffers, 3% of this
    # cube
    shape = (191, 64, 64)
    st = float32_state(shape, rng)
    y = rng.standard_normal(shape).astype(np.float32)
    p = SolverParams(rank=2)
    gap = y - st.x
    call, written = {
        # the model term of the x system, into the second x buffer
        "x": (lambda: update_x(st, p), [st.x_prev]),
        # the l step moves u3 and writes the TV share of the next
        # right-hand side, one plane of the field at a time
        "l": (lambda: update_l(st, p), [st.u3, st.x_prev]),
        "s": (lambda: update_s(st, gap, p), [st.s]),
        "n": (lambda: update_n(st, gap, p), [st.n]),
        # in place on the state's multipliers
        "multipliers": (lambda: update_multipliers(st, gap), [st.u4]),
    }[step]
    tracemalloc.start()
    try:
        returned = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (STEP_SCRATCH[step] + 0.05) * st.x.nbytes, peak / st.x.nbytes
    assert all(a.dtype == np.float32 for a in written)
    if step in ("x", "s", "n"):
        assert returned is written[0]


# ---- independent reference loop: two full sweeps re-derived from scratch ----


def ref_soft(v, tau):
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def ref_run(y, p, sweeps):
    k = y.shape[0]
    mat = y.reshape(k, -1)
    u = np.linalg.svd(mat, full_matrices=False)[0][:, : p.rank]
    for col in range(u.shape[1]):
        pivot = u[np.argmax(np.abs(u[:, col])), col]
        if pivot < 0:
            u[:, col] = -u[:, col]
    c = u
    g = (c.T @ mat).reshape(p.rank, y.shape[1], y.shape[2])
    x = y.copy()
    s = np.zeros_like(y)
    n = np.zeros_like(y)
    l = np.zeros((3,) + y.shape)
    lam1 = np.zeros_like(y)
    lam3 = np.zeros((3,) + y.shape)
    lam4 = np.zeros_like(y)
    a_dense = dense_x_matrix(y.shape, p.beta1 + p.beta4, p.beta3)

    for _ in range(sweeps):
        target = np.einsum("kij,kr->rij", x + lam4 / p.beta4, c)
        for r in range(p.rank):
            uu, ss, vv = np.linalg.svd(target[r], full_matrices=False)
            g[r] = (uu * np.maximum(ss - p.lambda_g / p.beta4, 0.0)) @ vv
        m = g.reshape(p.rank, -1) @ (lam4.reshape(k, -1).T + p.beta4 * x.reshape(k, -1).T)
        mu, _, mvt = np.linalg.svd(m, full_matrices=False)
        c = mvt.T @ mu.T
        comp = np.einsum("kr,rij->kij", c, g)
        rhs = (
            p.beta1 * (y - s - n) + lam1 + p.beta4 * comp - lam4
            + loop_diff_adjoint(p.beta3 * l + lam3)
        )
        x = np.linalg.solve(a_dense, rhs.ravel()).reshape(y.shape)
        l = ref_soft(loop_diff_forward(x) - lam3 / p.beta3, p.lambda_tv / p.beta3)
        s = ref_soft(y - x - n + lam1 / p.beta1, p.lambda_s / p.beta1)
        n = (p.beta1 * (y - x - s) + lam1) / (p.beta1 + 2 * p.lambda_n)
        lam1 = lam1 + p.beta1 * (y - x - s - n)
        lam3 = lam3 + p.beta3 * (l - loop_diff_forward(x))
        lam4 = lam4 + p.beta4 * (x - comp)
    return x, s, n


UNEQUAL_BETAS = dict(beta1=0.2, beta3=0.4, beta4=0.5, lambda_tv=0.05)


def ref_run_locals(y, p, sweeps):
    """Every variable of :func:`ref_run` after ``sweeps`` sweeps, read off its returning frame."""
    seen = {}

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is ref_run.__code__:
            seen.update(frame.f_locals)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        ref_run(y, p, sweeps)
    finally:
        sys.setprofile(previous)
    return seen


@pytest.mark.parametrize(
    "overrides",
    [{}, UNEQUAL_BETAS, dict(lambda_n=0.0), dict(lambda_tv=0.0)],
    ids=["defaults", "unequal-betas", "no-gaussian-weight", "no-tv-weight"],
)
def test_reference_loop_keeps_the_state_invariants(rng, overrides):
    # the full-form loop carries lambda1, l and lambda3 as ADMM states them.
    # After every sweep they are what SolverState and the sweep's tail take
    # them to be: lambda1 = 2*lambda_n*n, and with v = l - lambda3/beta3 =
    # D(x) - u3_old, l = shrink(v) and u3 = lambda3/beta3 = -clip(v)
    p = SolverParams(**{"rank": 2, **overrides})
    tau = p.lambda_tv / p.beta3
    tol = dict(rtol=1e-12, atol=1e-14)
    y = rng.standard_normal((3, 4, 4))
    for sweeps in (1, 2, 3):
        ref = ref_run_locals(y, p, sweeps)
        v = ref["l"] - ref["lam3"] / p.beta3
        np.testing.assert_allclose(ref["lam1"], 2 * p.lambda_n * ref["n"], **tol)
        np.testing.assert_allclose(ref["l"], ref_soft(v, tau), **tol)
        np.testing.assert_allclose(ref["lam3"] / p.beta3, -np.clip(v, -tau, tau), **tol)


# solve works in float32, the reference loop in float64 on the same
# float32-rounded observation.  On these unit-normal cubes, whose entries
# stay below 2.5, the two differ by at most 5.6e-7 (4.7 float32 eps) after
# up to three sweeps over 5 seeds; the bound leaves a margin of about 3x
F32_TOL = 16 * np.finfo(np.float32).eps


@pytest.mark.parametrize(
    "sweeps, shape, overrides, block_bytes",
    [
        pytest.param(1, (3, 4, 4), {}, None, id="1"),
        pytest.param(2, (3, 4, 4), {}, None, id="2"),
        # scaled multipliers must undo each beta separately
        pytest.param(2, (3, 4, 4), UNEQUAL_BETAS, None, id="unequal-betas"),
        pytest.param(2, (5, 3, 1), {}, None, id="one-column"),
        pytest.param(2, (1, 4, 5), dict(rank=1), None, id="one-band"),
        pytest.param(2, (7, 5, 3), {}, None, id="7x5x3"),
        # blocks of two bands of float32 entries: the sweep runs as
        # 2 + 2 + 2 + 1 bands
        pytest.param(2, (7, 5, 3), UNEQUAL_BETAS, 2 * 5 * 3 * 4, id="7x5x3-blocks"),
        # one-band blocks: every block's halo is a neighbouring block's band,
        # and on one band there is none.  A halo fault in D(x) or D'(l + u3)
        # lands in l or x, so these run three sweeps
        pytest.param(3, (7, 5, 1), UNEQUAL_BETAS, 1, id="7x5x1-band-blocks"),
        pytest.param(3, (1, 4, 5), {**UNEQUAL_BETAS, "rank": 1}, 1, id="one-band-blocks"),
    ],
)
def test_solve_matches_reference_loop(monkeypatch, rng, sweeps, shape, overrides, block_bytes):
    # anything computed out of order or with a flipped sign in sweep one
    # lands in x, s, n by sweep two: l and u3 reach x through the next
    # sweep's x solve
    if block_bytes is not None:
        monkeypatch.setattr(tensor, "_BLOCK_BYTES", block_bytes)
    y = rng.standard_normal(shape)
    p = SolverParams(**{"rank": 2, "max_iter": sweeps, "eps": 1e-15, **overrides})
    x, s, n, report = solve(y, p)
    rx, rs, rn = ref_run(y.astype(np.float32).astype(np.float64), p, sweeps)
    assert report.iterations == sweeps
    np.testing.assert_allclose(x, rx, rtol=F32_TOL, atol=F32_TOL)
    np.testing.assert_allclose(s, rs, rtol=F32_TOL, atol=F32_TOL)
    np.testing.assert_allclose(n, rn, rtol=F32_TOL, atol=F32_TOL)


def test_block_size_moves_no_value(monkeypatch):
    # the sweep's tail is elementwise, so one-band blocks and one whole-cube
    # block write the same values; only the order of the residual, change
    # and health sums moves, by rounding.  Those sums add float32 dot
    # products over up to 3*16*32*32 entries: the traces moved by at most
    # 1.5e-6 relative (res_tv; 13 float32 eps), inside this bound by 5x
    # one input of the accept-32 benchmark: its scene under noise case 3
    truth, _ = smooth_lowrank_cube((32, 32, 16), 3, seed=101)
    y, _ = apply_case(truth, 3, seed=1030)
    p = SolverParams.simulated(rank=3)
    runs = []
    for block_bytes in (1, 1 << 40):
        monkeypatch.setattr(tensor, "_BLOCK_BYTES", block_bytes)
        runs.append(solve(y, p))
    (x1, s1, n1, r1), (x2, s2, n2, r2) = runs
    assert np.array_equal(x1, x2) and np.array_equal(s1, s2) and np.array_equal(n1, n2)
    assert r1.iterations == r2.iterations
    for name in ("rel_change", "res_observation", "res_tv", "res_factorization"):
        rtol = 64 * np.finfo(np.float32).eps
        np.testing.assert_allclose(getattr(r1, name), getattr(r2, name), rtol=rtol, atol=0)


def test_solve_keeps_u3_zero_where_d_is_zero(monkeypatch, rng):
    # D's last sample along each plane's axis is 0 and u3 starts at 0 there,
    # so every l step leaves it exactly 0: each l + u3 that D' reads is in
    # D's range, where D' is D's adjoint.  Two-band blocks put the last band
    # in a block of its own, with no halo after it
    monkeypatch.setattr(tensor, "_BLOCK_BYTES", 2 * 5 * 4 * 4)
    states = []

    def keep(y, params):
        states.append(initialize_state(y, params))
        return states[-1]

    monkeypatch.setattr(solver, "initialize_state", keep)
    p = SolverParams(rank=2, max_iter=4, eps=1e-15)
    solve(rng.standard_normal((7, 5, 4)), p)
    u3 = states[0].u3
    in_range = in_the_range_of_d(np.ones(u3.shape, bool))
    assert np.all(u3[~in_range] == 0.0)
    # everywhere else the l step has moved it, up to the threshold
    assert np.all(u3[in_range] != 0.0)
    assert np.any(np.abs(u3) == np.float32(p.lambda_tv / p.beta3))


# ---- whole-run behavior ----


def stops_on_its_trace(report, eps):
    """The run stopped at its trace's first entry at most ``eps``, or ran its budget."""
    *earlier, last = report.rel_change
    return report.converged == (last <= eps) and all(entry > eps for entry in earlier)


def test_stop_reads_its_trace_entry_at_eps_and_not_just_above(rng):
    # the trajectory does not depend on eps, so each rerun's trace is a
    # prefix of the fixed budget's.  eps set to an entry lower than every
    # earlier one stops the run at that entry; eps the next float below it
    # leaves the entry just above eps, and the run goes on
    y = rng.standard_normal((3, 6, 6))
    trace = solve(y, SolverParams(rank=2, max_iter=8, eps=1e-300))[3].rel_change
    m = next(i for i in range(1, len(trace)) if trace[i] < min(trace[:i]))
    epsilons = (1e-300, trace[m], float(np.nextafter(trace[m], 0.0)))
    budget, at, above = (solve(y, SolverParams(rank=2, max_iter=8, eps=eps))[3] for eps in epsilons)
    assert not budget.converged and budget.iterations == 8
    assert at.converged and at.rel_change == trace[: m + 1]
    assert above.iterations > m + 1 and above.rel_change[: m + 1] == trace[: m + 1]
    for report, eps in zip((budget, at, above), epsilons):
        assert stops_on_its_trace(report, eps)


def test_zero_observation_converges_immediately():
    # an estimate that stays 0 has not changed
    y = np.zeros((4, 5, 5))
    p = SolverParams(rank=2)
    x, s, n, report = solve(y, p)
    assert report.converged and report.iterations == 1 and report.rel_change == [0.0]
    assert np.all(x == 0.0) and np.all(s == 0.0) and np.all(n == 0.0)
    assert stops_on_its_trace(report, p.eps)


def test_estimate_that_becomes_zero_reads_an_unbounded_change(monkeypatch, rng):
    # with the x solve returning zeros, sweep 1 takes the start x = y to 0,
    # a change without bound that does not stop the run, and sweep 2 keeps
    # x at 0, which does.  json writes the unbounded entry as Infinity.
    # The solve works in place, so the patch zeroes its right-hand side
    monkeypatch.setattr(solver, "solve_z_system", lambda m, spectrum: m.fill(0.0))
    p = SolverParams(rank=2)
    x, _, _, report = solve(rng.standard_normal((3, 6, 6)), p)
    assert report.rel_change == [math.inf, 0.0] and report.converged and np.all(x == 0.0)
    assert stops_on_its_trace(report, p.eps)
    assert '"rel_change": [Infinity, 0.0]' in json.dumps(report.to_dict())


def test_solve_never_mutates_the_observation(rng):
    y = rng.standard_normal((3, 6, 6))
    saved = y.copy()
    x, s, n, _ = solve(y, SolverParams(rank=2, max_iter=3))
    np.testing.assert_array_equal(y, saved)
    # the sweep reuses its arrays, but what it returns is independent
    for a, b in itertools.combinations((y, x, s, n), 2):
        assert not np.shares_memory(a, b)


def test_solve_allocates_few_cubes(rng):
    # the state is allocated once per solve, in float32, and is all that
    # spans the cube besides the x solve's scratch cube, which lives only
    # through the x solve.  The factor update reads x and u4 without forming
    # x + u4, each step composes its block's model itself, the l step works
    # one plane of the TV field at a time, and each band block's scratch is
    # freed before the next step that allocates.  The bounds count float64
    # cubes of the observation's size, 0.3 and 0.21 above the peaks: at
    # 16x32x32 one block spans the cube and the peak is about 6.42 cubes; at
    # 24x96x96 the sweep runs in 2 blocks of 14 and 10 bands, for a peak of
    # about 5.59.  The sweeps (the l step, the multiplier step) and the TV
    # sum, whose block field is three block cubes, reach them alike.  The
    # spectrum's float64 arrays count in both: the row and column DCT-II
    # matrices and the (I, J) eigenvalues, 3/K of a cube when I = J, and the
    # (K, K) band matrix.  Holding the scratch cube through the sweep would add 0.5
    # cubes to both, and holding a block-sized model buffer 0.5 and 0.29
    for shape, bound in (((16, 32, 32), 6.72), ((24, 96, 96), 5.80)):
        y = rng.random(shape)
        tracemalloc.start()
        try:
            solve(y, SolverParams(rank=3, max_iter=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * y.nbytes, (shape, peak / y.nbytes)


@pytest.mark.parametrize(
    "shape, rank",
    [((1, 8, 8), 1), ((5, 7, 1), 2), ((5, 1, 7), 2), ((7, 11, 13), 3), ((1, 1, 1), 1), ((7, 5, 5), 7)],
    ids=["one-band", "one-column", "one-row", "prime-sizes", "one-entry", "rank-equals-bands"],
)
def test_solve_on_edge_shapes(rng, shape, rank):
    # the stop sums are taken in the sweep's head, block by block: every
    # sweep adds one rel_change entry, whatever the shape
    x, s, n, report = solve(rng.random(shape), SolverParams(rank=rank, max_iter=4))
    for a in (x, s, n):
        assert a.shape == shape and a.dtype == np.float32
        assert np.all(np.isfinite(a))
    assert 1 <= report.iterations <= 4
    assert len(report.rel_change) == report.iterations


def test_solve_is_deterministic(rng):
    y = rng.standard_normal((3, 8, 8))
    p = SolverParams(rank=2, max_iter=5)
    x1, s1, n1, r1 = solve(y, p)
    x2, s2, n2, r2 = solve(y, p)
    assert np.array_equal(x1, x2) and np.array_equal(s1, s2) and np.array_equal(n1, n2)
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1.pop("wall_time_s"), d2.pop("wall_time_s")
    assert d1 == d2


def test_solve_is_bit_identical_at_one_and_two_blas_threads():
    # the x solve's DCT-II products, the factor update's products and the
    # SVT's Gram eigendecompositions run in OpenBLAS, whose thread count is
    # set when it loads; each child solves the same (24, 96, 96) cube, and
    # TV systems of 191 bands, where the band-side product is (191, 191)
    code = (
        "import hashlib, numpy as np; from hsidenoise import SolverParams, solve; "
        "from hsidenoise.diffops import solve_z_system, tv_kernel_spectrum; "
        "y = np.random.default_rng(3).random((24, 96, 96)); "
        "x, s, n, _ = solve(y, SolverParams(rank=2, max_iter=3)); "
        "m = np.random.default_rng(4).standard_normal((191, 96, 96)).astype(np.float32); "
        "z = solve_z_system(m, tv_kernel_spectrum(m.shape, 0.1, 0.1)); "
        "print(' '.join(hashlib.sha256(a.tobytes()).hexdigest() for a in (x, s, n, z)))"
    )
    src = os.path.dirname(os.path.dirname(solver.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert len(digests[0]) == 4 and digests[0] == digests[1]


def test_solve_reads_any_layout_and_real_dtype(rng):
    # the sweep writes into arrays shaped after a C-ordered float32 copy of
    # the observation, whatever the caller's layout or dtype
    p = SolverParams(rank=2, max_iter=3)
    y = rng.standard_normal((3, 6, 5))
    x, s, n, _ = solve(y, p)
    for other in (np.asfortranarray(y), y.T.copy().T, y[:, ::-1, :].copy()[:, ::-1, :]):
        xo, so, no, _ = solve(other, p)
        assert np.array_equal(x, xo) and np.array_equal(s, so) and np.array_equal(n, no)
    counts = rng.integers(0, 50, size=(3, 6, 5))
    xi, si, ni, _ = solve(counts, p)
    xf, sf, nf, _ = solve(counts.astype(np.float64), p)
    assert xi.dtype == si.dtype == ni.dtype == np.float32
    assert np.array_equal(xi, xf) and np.array_equal(si, sf) and np.array_equal(ni, nf)


def test_noiseless_lowrank_cube_is_recovered():
    # exact factor-model data with the estimate-biasing penalties (TV,
    # nuclear) made tiny: the loop reproduces the observation.  The split
    # weights keep their preset cost; making them tiny as well would open
    # the noise channels and let them absorb signal with nothing pushing
    # it back (the restoring rate scales with lambda_n/beta1 per sweep).
    cube, _ = smooth_lowrank_cube((12, 12, 8), 2, slice_rank=2, seed=4)
    p = SolverParams(lambda_tv=1e-6, lambda_g=1e-6, rank=2, eps=1e-12)
    x, _, _, report = solve(cube, p)
    rel = np.linalg.norm(x - cube) / np.linalg.norm(cube)
    assert rel < 1e-3
    assert report.iterations <= 200


def test_report_traces_have_one_entry_per_sweep(rng):
    y = rng.standard_normal((3, 6, 6))
    p = SolverParams(rank=2, max_iter=4, eps=1e-15)
    _, _, _, report = solve(y, p)
    assert report.iterations == 4
    for trace in (
        report.rel_change,
        report.res_observation,
        report.res_tv,
        report.res_factorization,
    ):
        assert len(trace) == 4
    assert report.params == asdict(p)
    assert set(report.objective_terms) == {"tv", "sparse", "gaussian", "low_rank", "total"}


def test_non_finite_observation_is_rejected():
    y = np.zeros((2, 3, 3))
    y[0, 0, 0] = np.inf
    with pytest.raises(NumericError):
        solve(y, SolverParams(rank=1))


@pytest.mark.parametrize(
    "shape, error, message",
    [
        ((4, 4), NumericError, r"expected a \(K, I, J\) observation, got 2 dimensions"),
        ((2, 3, 4, 4), NumericError, r"expected a \(K, I, J\) observation, got 4 dimensions"),
        ((0, 4, 4), ShapeError, r"outside \[1, 0\] for a cube of 0 bands"),
        ((3, 0, 4), ShapeError, r"outside \[1, 0\] for a cube of 3 bands and 0x4"),
    ],
)
def test_observation_that_is_not_a_cube_is_refused_at_the_door(shape, error, message):
    # the door is the only place these are refused: D, D' and the x solve
    # assume a (K, I, J) cube, and the TV spectrum needs every size >= 1;
    # init_factors' rank check runs before the spectrum is built
    with pytest.raises(error, match=message):
        solve(np.ones(shape), SolverParams(rank=1))


def test_observation_beyond_the_float32_range_is_named():
    # finite as given, but the solve works in float32, where -1e39 would
    # become -inf: the error names the range, not a non-finite observation
    y = np.zeros((2, 3, 3))
    y[1, 2, 0] = -1e39
    with pytest.raises(NumericError, match="beyond the float32 range"):
        solve(y, SolverParams(rank=1))
    y[1, 2, 0] = np.nan
    with pytest.raises(NumericError, match="non-finite values"):
        solve(y, SolverParams(rank=1))


# each scale once overflowed a float32 sum of the solve on this cube: the
# spectral start's Gram matrix (3e18), the signature step's target (1.8e18 to
# 2.2e18) or the stop rule's squared norm of x (1.5e18); now the door names
# the limit before any of them is formed
@pytest.mark.parametrize("scale", [1.5e18, 1.8e18, 2.0e18, 2.2e18, 3e18])
def test_observation_past_the_limit_is_named(scale):
    y = np.random.default_rng(0).random((8, 12, 12))
    message = re.escape(f"passes the solver's limit of {solver._LIMIT:.4g}")
    with pytest.raises(NumericError, match=message):
        solve(y * scale, SolverParams(rank=2))


def test_observation_below_the_limit_runs():
    # ||y||^2 is about 384*1e34 here, inside the limit of 5.3e36
    y = np.random.default_rng(0).random((8, 12, 12)) * 1e17
    x, _, _, report = solve(y, SolverParams(rank=2, max_iter=2))
    assert report.iterations == 2 and np.all(np.isfinite(x))


# ---- finiteness contract: a non-finite array names its step and sweep ----


def nan_entry(fn):
    """``fn`` with one entry of its array result, in place, replaced by NaN.

    The sweep calls its steps on band blocks of the state, and a step
    returns the state's array it wrote, so the poison lands in the state.
    """

    def poisoned(*args, **kwargs):
        out = fn(*args, **kwargs)
        out.flat[0] = np.nan
        return out

    return poisoned


def nan_signatures(m):
    c, sv = orthonormal_from_target(m)
    return np.full_like(c, np.nan), sv


def poison_state(fn, name, value):
    """The step ``fn``, then one entry of the state's array ``name`` set to ``value``."""

    def poisoned(state, *args, **kwargs):
        out = fn(state, *args, **kwargs)
        getattr(state, name).flat[0] = value
        return out

    return poisoned


def poison_input(fn, name, value):
    """The step ``fn``, called with one entry of the state's array ``name`` set to ``value``."""

    def poisoned(state, *args, **kwargs):
        getattr(state, name).flat[0] = value
        return fn(state, *args, **kwargs)

    return poisoned


@pytest.mark.parametrize(
    "target, replacement, step",
    [
        ("update_g", nan_entry(update_g), "abundance"),
        ("orthonormal_from_target", nan_signatures, "signature"),
        ("update_x", nan_entry(update_x), "estimate"),
        # the l step writes u3 = -clip(v), finite unless v holds a NaN, which
        # also makes the step's residual sum NaN: the sweep sums no ||u3||^2
        ("update_l", poison_input(update_l, "u3", np.nan), "difference-field"),
        ("update_s", nan_entry(update_s), "sparse"),
        ("update_n", nan_entry(update_n), "gaussian"),
        ("update_multipliers", poison_state(update_multipliers, "u4", np.inf), "factor multiplier"),
    ],
)
def test_non_finite_update_names_its_step_and_sweep(monkeypatch, rng, target, replacement, step):
    monkeypatch.setattr(solver, target, replacement)
    with pytest.raises(NumericError, match=f"non-finite values after the {step} update in sweep 1$"):
        solve(rng.random((3, 12, 12)), SolverParams(rank=2, max_iter=3))


def test_finite_array_with_overflowing_norm_is_not_an_error(monkeypatch, rng):
    # 1e30 is a finite float32 that squares past the float32 range: left in
    # u3 after sweep 1, it passes into sweep 2's residual sum, so the
    # per-sweep scalar test fails; the scan then finds every array finite,
    # u3 is not under the size guard, and the run goes on.  Overflow raises
    # no warning on the way
    monkeypatch.setattr(solver, "update_l", poison_state(update_l, "u3", 1e30))
    _, _, _, report = solve(rng.random((3, 12, 12)), SolverParams(rank=2, max_iter=2))
    assert report.iterations == 2 and report.res_tv[1] == np.inf


def large_estimate(m, spectrum):
    out = solve_z_system(m, spectrum)
    out.flat[0] = 1e30
    return out


@pytest.mark.parametrize(
    "target, replacement",
    [
        ("solve_z_system", large_estimate),
        ("update_multipliers", poison_state(update_multipliers, "u4", 1e30)),
    ],
)
def test_estimate_or_multiplier_past_the_limit_stops_the_run(monkeypatch, rng, target, replacement):
    # a finite x or u4 whose squared norm passes 4x the limit: the guard
    # names the sweep before the stop rule, at eps = 1, would read
    # change / inf as converged.  The sums that overflow on the way raise
    # no RuntimeWarning, which the suite turns into errors
    monkeypatch.setattr(solver, target, replacement)
    message = re.escape(f"past 4x the solver's limit of {solver._LIMIT:.4g}, in sweep 1") + "$"
    with pytest.raises(NumericError, match=message):
        solve(rng.random((3, 12, 12)), SolverParams(rank=2, eps=1.0))


def test_objective_terms_formula(rng):
    shape = (3, 4, 4)
    st = random_state(shape, 2, rng)
    p = SolverParams(lambda_tv=0.2, lambda_s=0.3, lambda_n=0.4, lambda_g=0.5, rank=2)
    terms = objective_terms(st.x, st.s, st.n, st.factors, p)
    assert terms["tv"] == pytest.approx(0.2 * np.abs(diff_forward(st.x)).sum(), rel=1e-12)
    assert terms["sparse"] == pytest.approx(0.3 * np.abs(st.s).sum(), rel=1e-12)
    assert terms["gaussian"] == pytest.approx(0.4 * np.sum(st.n**2), rel=1e-12)
    singular_values = np.linalg.svd(st.factors.g, compute_uv=False)
    expected_nuc = 0.5 * singular_values.sum()
    assert terms["low_rank"] == pytest.approx(expected_nuc, rel=1e-12)
    assert terms["total"] == pytest.approx(sum(v for k, v in terms.items() if k != "total"))


def test_objective_total_adds_its_terms_left_to_right():
    # tv = 1 and three terms of 1e-16, each less than half an ulp of 1:
    # added in order they leave 1.0, while a compensated sum (math.fsum, or
    # builtin sum() from Python 3.12) rounds up to the next float
    one = np.array([[[1.0, 0.0]]])
    factors = MvtfFactors(g=one, c=np.ones((1, 1)))
    p = SolverParams(lambda_tv=1.0, lambda_s=1e-16, lambda_n=1e-16, lambda_g=1e-16, rank=1)
    terms = objective_terms(1.0 - one, one, one, factors, p)
    parts = [terms[name] for name in ("tv", "sparse", "gaussian", "low_rank")]
    assert parts == [1.0, 1e-16, 1e-16, 1e-16]
    assert terms["total"] == 1.0 and math.fsum(parts) != 1.0


def test_objective_terms_sums_tv_per_block(rng):
    # at (96, 64, 64) float32 the sweep's band blocks hold 32 bands, so the
    # TV term is summed over 3 blocks.  One block's field is 1 cube, as is
    # |s|; the whole-cube field and its absolute value would take 6
    p = SolverParams(lambda_tv=0.2, lambda_s=0.3, rank=2)
    x = rng.standard_normal((96, 64, 64)).astype(np.float32)
    s = rng.standard_normal(x.shape).astype(np.float32)
    n = np.zeros_like(x)
    g = rng.standard_normal((2, 64, 64)).astype(np.float32)
    factors = MvtfFactors(g=g, c=np.linalg.qr(rng.standard_normal((96, 2)))[0])
    assert tensor._BLOCK_BYTES // x[0].nbytes == 32
    tracemalloc.start()
    try:
        terms = objective_terms(x, s, n, factors, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * x.nbytes, peak / x.nbytes
    expected = 0.2 * np.abs(diff_forward(x)).sum(dtype=np.float64)
    assert terms["tv"] == pytest.approx(expected, rel=1e-6)


def test_params_validation_and_presets():
    with pytest.raises(ValueError):
        SolverParams(lambda_tv=-1.0)
    with pytest.raises(ValueError):
        SolverParams(beta3=0.0)
    with pytest.raises(ValueError):
        SolverParams(rank=0)
    with pytest.raises(ValueError):
        SolverParams(max_iter=0)
    sim = SolverParams.simulated()
    assert (sim.lambda_tv, sim.lambda_s, sim.lambda_n, sim.lambda_g, sim.rank) == (
        2e-4,
        0.02,
        0.1,
        0.1,
        5,
    )
    real = SolverParams.real()
    assert (real.lambda_tv, real.lambda_s, real.rank) == (1e-5, 0.013, 2)
    assert (sim.beta1, sim.beta3, sim.beta4) == (0.1, 0.0125, 0.1)
    assert (real.beta1, real.beta3, real.beta4) == (0.1, 0.0125, 0.3)
    for p in (sim, real):
        assert p.eps == 1e-4 and p.max_iter == 200


def readme_parameter_table():
    """README's "Solver parameters" rows as {field: (simulated, real)}, as written."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("\n## Solver parameters\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    # the two lines after the table's first are its header and rule
    table = [line for line in section.splitlines() if line.startswith("|")]
    for line in table[2:]:
        name, _, simulated, real = (cell.strip() for cell in line.strip("|").split("|"))
        name = name.strip("`")
        assert name not in rows, f"{name} has two rows"
        rows[name] = (simulated, real)
    return rows


def test_readme_parameter_table_matches_the_presets():
    # every field has one row, and each cell is the preset's value
    rows = readme_parameter_table()
    assert sorted(rows) == sorted(f.name for f in fields(SolverParams))
    for field in fields(SolverParams):
        for cell, preset in zip(rows[field.name], (SolverParams.simulated(), SolverParams.real())):
            assert field.type(cell) == getattr(preset, field.name), (field.name, cell)


def test_readme_states_the_solver_limit():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    quoted = re.search(r"the float32 maximum / 64 = ([0-9.e+]+)", text).group(1)
    assert solver._LIMIT == float(np.finfo(np.float32).max) / 64
    assert float(quoted) == float(f"{solver._LIMIT:.4g}")


@pytest.mark.parametrize("name", [f.name for f in fields(SolverParams) if f.type is float])
def test_params_reject_non_finite_floats(name):
    # NaN passes every sign check, and an infinite weight or tolerance would
    # only surface mid-solve (eps = nan would switch the stop rule off)
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SolverParams(**{name: value})


@pytest.mark.parametrize("name", [f.name for f in fields(SolverParams) if f.type is float])
def test_params_reject_an_integer_beyond_the_float_range(name):
    # such an int is a real number with no float value: math.isfinite
    # raises OverflowError on it, which names no field
    for value in (10**400, -(10**400)):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SolverParams(**{name: value})


@pytest.mark.parametrize("value", [True, 2.5, 3.0, "2"])
@pytest.mark.parametrize("name", ["rank", "max_iter"])
def test_params_reject_a_non_integer_count(name, value):
    # rank=True would run as rank 1, and a float count would pass every
    # check here only to fail inside solve
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        SolverParams(**{name: value})


def test_params_store_numpy_integers_as_int(rng):
    # so the report's copy of the params is a JSON document
    p = SolverParams(rank=np.int64(2), max_iter=np.int32(2))
    assert type(p.rank) is int and type(p.max_iter) is int
    report = solve(rng.standard_normal((3, 5, 5)), p)[3]
    assert json.loads(json.dumps(report.to_dict()))["params"]["rank"] == 2


def test_params_reject_a_bool_weight():
    # a bool is a real number too, and lambda_tv=True would run as 1.0
    with pytest.raises(ValueError, match="^lambda_tv must be finite"):
        SolverParams(lambda_tv=True)


def test_params_name_a_non_numeric_float():
    # a string would fail a sign check with a TypeError that names no field
    with pytest.raises(ValueError, match="^eps must be finite"):
        SolverParams(eps="1e-4")


def test_params_store_numpy_floats_as_float(rng):
    # so the report's copy of the params is a JSON document
    p = SolverParams(lambda_tv=np.float32(1e-5), rank=2, max_iter=2)
    assert type(p.lambda_tv) is float and p.lambda_tv == float(np.float32(1e-5))
    report = solve(rng.standard_normal((3, 5, 5)), p)[3]
    assert json.loads(json.dumps(report.to_dict()))["params"]["lambda_tv"] == p.lambda_tv


def test_initialize_state_layout(rng):
    y = rng.standard_normal((4, 5, 6))
    st = initialize_state(y, SolverParams(rank=3))
    np.testing.assert_array_equal(st.x, y)
    assert st.x is not y
    # the x system's right-hand side less its model term, at the zero start
    np.testing.assert_array_equal(st.x_prev, 0.1 * y)
    for field in (st.s, st.n, st.u4):
        assert field.shape == y.shape and np.all(field == 0.0)
    assert st.u3.shape == (3,) + y.shape and np.all(st.u3 == 0.0)
    assert st.factors.c.shape == (4, 3)
    assert st.factors.g.shape == (3, 5, 6)
