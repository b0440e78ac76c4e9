"""Acceptance gate: one test per criterion in the README checklist.

Each test prints one `[criterion N] PASS/FAIL` line with the measured
numbers (visible with `pytest -s`, and always in failure output).

Expected state of this gate:
  criteria 1, 2, 3, 5, 6, 7   pass
  criterion 4                 fails: the solver stops far from the observation,
                              which is the unique minimizer (README.md,
                              "Acceptance gate", says why)
The supplements `3s` (where criterion 3's residual crosses its bound) and
`4s` (criterion 4's observation with the default split weights) pass.
README.md states each criterion and why it is set up as it is.
"""

import copy
import json
import time

import numpy as np
import pytest

from hsidenoise.cli import main
from hsidenoise.diffops import diff_forward, tv_kernel_spectrum, solve_z_system
from hsidenoise.factorization import init_factors, procrustes_target, orthonormal_from_target
from hsidenoise.io import read_cube, write_cube
from hsidenoise.metrics import PSNR_CAP_DB, ergas, evaluate, psnr_band, ssim_band
from hsidenoise.noise import (
    DeadlineSpec,
    NoiseSpec,
    StripeSpec,
    add_deadlines,
    add_gaussian,
    add_impulse,
    add_stripes,
)
from hsidenoise.prox import svt
from hsidenoise.solver import (
    SolverParams,
    initialize_state,
    solve,
    update_l,
    update_multipliers,
    update_n,
    update_s,
    update_x,
)
from hsidenoise.synthetic import smooth_lowrank_cube

from helpers import diff_adjoint, in_the_range_of_d


def report_line(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def benchmark_inputs():
    """Ground truth and Case-3 analog degradation for the 32x32x16 benchmark."""
    truth, _ = smooth_lowrank_cube(dims=(32, 32, 16), r=3, slice_rank=3, seed=101)
    spec = NoiseSpec(
        gaussian_sigma=0.05,
        impulse_fraction=0.1,
        deadline=DeadlineSpec(band_lo=8, band_hi=12, count_lo=1, count_hi=3, width_lo=1, width_hi=2),
        seed=2024,
    )
    from hsidenoise.noise import apply_noise

    return truth, apply_noise(truth, spec)


@pytest.fixture(scope="module")
def benchmark_run():
    truth, noisy = benchmark_inputs()
    params = SolverParams.simulated(rank=3)
    x, s, n, rep = solve(noisy, params)
    return {
        "truth": truth,
        "noisy": noisy,
        "params": params,
        "x": x,
        "s": s,
        "n": n,
        "report": rep,
    }


@pytest.fixture(scope="module")
def budget_run():
    # The stop rule (squared relative change <= eps, or max_iter) bounds no
    # constraint residual, so criterion 3 is checked over the 200-sweep
    # budget: eps = 1e-12 keeps the tolerance stop out of reach.
    truth, noisy = benchmark_inputs()
    start = time.monotonic()
    x, _, _, rep = solve(noisy, SolverParams.simulated(rank=3, eps=1e-12))
    elapsed = time.monotonic() - start
    return {
        "report": rep,
        "elapsed": elapsed,
        "gain": evaluate(truth, x).mpsnr - evaluate(truth, noisy).mpsnr,
        "threshold": 0.01 * np.linalg.norm(noisy),
        "max_residual": [
            max(a, b, c)
            for a, b, c in zip(rep.res_observation, rep.res_tv, rep.res_factorization)
        ],
    }


def test_criterion_1_pipeline_contract(tmp_path, capsys):
    # full-scale reference scenes are not bundled, so the numeric tables they
    # would produce are out of reach here; what must hold on any user-supplied
    # cube is the pipeline contract: simulate -> denoise (simulated preset,
    # case 1) -> evaluate completes and reports all four metrics
    truth, _ = smooth_lowrank_cube(dims=(24, 24, 12), r=3, seed=5)
    clean = tmp_path / "clean.npy"
    noisy = tmp_path / "noisy.npy"
    restored = tmp_path / "restored.npy"
    metrics = tmp_path / "metrics.json"
    write_cube(truth, clean)

    codes = [
        main(["simulate", "--input", str(clean), "--output", str(noisy), "--case", "1", "--seed", "7"]),
        main(["denoise", "--input", str(noisy), "--output", str(restored), "--preset", "simulated"]),
        main(["evaluate", "--ref", str(clean), "--test", str(restored), "--json", str(metrics)]),
    ]
    capsys.readouterr()
    document = json.loads(metrics.read_text())
    values = (document["mpsnr"], document["mssim"], document["ergas_sse"], document["ergas_standard"])
    ok = codes == [0, 0, 0] and all(np.isfinite(values)) and read_cube(str(restored)).shape == truth.shape
    report_line(1, ok, f"exit codes {codes}, MPSNR={document['mpsnr']:.2f} dB, "
                       f"MSSIM={document['mssim']:.4f}, ERGAS={document['ergas_sse']:.3f}/"
                       f"{document['ergas_standard']:.2f}")
    assert ok


def test_criterion_2_update_rule_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(42)

    # adjoint identity for the Neumann difference field, whose adjoint sums
    # each plane's.  D' is D's adjoint on D's range, the fields whose last
    # sample along each plane's axis is 0, so d is drawn from it: D' reads
    # that sample, which D never writes, and every field the solver hands
    # D' is such a field
    x = rng.standard_normal((3, 4, 5))
    d = in_the_range_of_d(rng.standard_normal((3, 3, 4, 5)))
    lhs = np.vdot(diff_forward(x), d)
    rhs = np.vdot(x, diff_adjoint(d))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    # dense-solve equivalence for the screened TV system on a 4x3x2 cube
    def dense_solve(m, screen, beta3):
        size = m.size
        dense = np.zeros((size, size))
        for col in range(size):
            unit = np.zeros(size)
            unit[col] = 1.0
            cube = unit.reshape(m.shape)
            dense[:, col] = (screen * cube + beta3 * diff_adjoint(diff_forward(cube))).ravel()
        return np.linalg.solve(dense, m.ravel()).reshape(m.shape)

    m = rng.standard_normal((2, 4, 3))
    z = solve_z_system(m.copy(), tv_kernel_spectrum(m.shape, 0.7, 1.3))
    z_dense = dense_solve(m, 0.7, 1.3)
    residual = np.linalg.norm(z - z_dense) / np.linalg.norm(z_dense)
    assert residual < 1e-8

    # singular values after thresholding obey the shrinkage law
    mat = rng.standard_normal((6, 5))
    tau = 0.8
    shrunk = np.linalg.svd(svt(mat, tau), compute_uv=False)
    expected = np.maximum(np.linalg.svd(mat, compute_uv=False) - tau, 0.0)
    np.testing.assert_allclose(shrunk, expected, atol=1e-10)

    # orthonormal-factor update beats 10000 random orthonormal candidates
    target = rng.standard_normal((3, 8))
    c_star, _ = orthonormal_from_target(target)
    best = float(np.einsum("rk,kr->", target, c_star))
    samples = np.linalg.qr(rng.standard_normal((10000, 8, 3)))[0]
    scores = np.einsum("rk,nkr->n", target, samples)
    assert best >= scores.max() - 1e-9 * max(abs(best), 1.0)

    # closed-form scalar oracles for every remaining update rule
    y = rng.random((4, 6, 6))
    params = SolverParams(rank=2)
    state = initialize_state(y, params)
    state.x = rng.random(y.shape)
    state.s = 0.1 * rng.standard_normal(y.shape)
    state.n = 0.05 * rng.standard_normal(y.shape)
    # the state keeps scaled multipliers u = lambda/beta and fixes lambda1
    # = 2*lambda_n*n, and every sweep leaves |u3| <= lambda_tv/beta3.  The
    # oracles below keep the unscaled formulas
    tau_tv = params.lambda_tv / params.beta3
    state.u3 = np.clip(2 * tau_tv * rng.standard_normal((3,) + y.shape), -tau_tv, tau_tv)
    # and u3 is 0 where D's last sample is, as every sweep leaves it
    state.u3 = in_the_range_of_d(state.u3)
    lam1 = 2 * params.lambda_n * state.n
    lam3 = params.beta3 * state.u3
    lam4 = 0.01 * rng.standard_normal(y.shape)
    state.u4 = lam4 / params.beta4
    from hsidenoise.factorization import compose

    # every step writes the state in place.  The s step runs on a throwaway
    # copy, and the l, n and multiplier steps on one copy, in sweep order,
    # with state.x standing for the x step's result; the oracles read the
    # untouched original.  lambda1 and lambda3 are read off the copy
    after = copy.deepcopy(state)
    dx = diff_forward(state.x)
    arg = dx - lam3 / params.beta3
    expect_l = np.sign(arg) * np.maximum(np.abs(arg) - tau_tv, 0.0)
    expect_lam3 = lam3 + params.beta3 * (expect_l - dx)
    # one block, with no halo on either side
    res_tv, _ = update_l(after, params)
    np.testing.assert_allclose(params.beta3 * after.u3, expect_lam3, rtol=1e-12)
    assert res_tv == pytest.approx(np.sum((expect_l - dx) ** 2), rel=1e-12)

    arg_s = y - state.x - state.n + lam1 / params.beta1
    tau_s = params.lambda_s / params.beta1
    np.testing.assert_allclose(
        update_s(copy.deepcopy(state), y - state.x, params),
        np.sign(arg_s) * np.maximum(np.abs(arg_s) - tau_s, 0.0),
        rtol=1e-12,
    )

    update_n(after, y - state.x - state.s, params)
    np.testing.assert_allclose(
        after.n,
        (params.beta1 * (y - state.x - state.s) + lam1) / (params.beta1 + 2 * params.lambda_n),
        rtol=1e-12,
    )

    update_multipliers(after, y - state.x - state.s)
    comp = compose(state.factors)
    l1, l4 = 2 * params.lambda_n * after.n, params.beta4 * after.u4
    np.testing.assert_allclose(l1, lam1 + params.beta1 * (y - state.x - state.s - after.n), rtol=1e-12)
    np.testing.assert_allclose(l4, lam4 + params.beta4 * (state.x - comp), rtol=1e-12)

    # the next x step minimizes the augmented Lagrangian's three x terms at
    # once.  The tail leaves its right-hand side less the model term (the
    # split's share added here by its formula), update_x adds that term,
    # and the exact solve is checked against a dense solve
    after.x_prev += params.beta1 * (y - after.s - after.n) + l1
    expect_rhs = (
        params.beta1 * (y - after.s - after.n) + l1
        + params.beta4 * comp - l4
        + diff_adjoint(params.beta3 * expect_l + expect_lam3)
    )
    rhs = update_x(after, params)
    np.testing.assert_allclose(rhs, expect_rhs, rtol=1e-12, atol=1e-15)
    screen = params.beta1 + params.beta4
    x_new = solve_z_system(rhs, tv_kernel_spectrum(y.shape, screen, params.beta3))
    x_dense = dense_solve(expect_rhs, screen, params.beta3)
    x_residual = np.linalg.norm(x_new - x_dense) / np.linalg.norm(x_dense)
    assert x_residual < 1e-8

    elapsed = time.monotonic() - start
    ok = elapsed < 60.0
    report_line(2, ok, f"adjoint, dense solves (residuals {residual:.1e}, x step {x_residual:.1e}), "
                       f"shrinkage, "
                       f"10000-sample orthonormal optimality, update oracles in {elapsed:.1f}s (< 60s)")
    assert ok


def test_criterion_3_synthetic_benchmark(budget_run):
    # gain, time and residual are all measured on the one budget run
    run = budget_run
    rep = run["report"]
    per_sweep = run["max_residual"]
    threshold = run["threshold"]

    tail = per_sweep[rep.iterations // 2:]
    if any(tail[i + 1] > tail[i] for i in range(len(tail) - 1)):
        print("[criterion 3] WARN: max residual not monotone over the last half of the run")

    ok_gain = run["gain"] >= 5.0
    ok_time = run["elapsed"] < 120.0
    ok_residual = per_sweep[-1] < threshold
    ok = ok_gain and ok_time and ok_residual
    detail = (
        f"gain {run['gain']:.2f} dB (>= 5), {rep.iterations} sweeps in {run['elapsed']:.1f}s (< 120s), "
        f"final max residual {per_sweep[-1]:.3f} vs bound {threshold:.3f}"
    )
    report_line(3, ok, detail)
    assert ok, detail


def test_criterion_3_supplement_residuals_tighten_within_budget(budget_run):
    # criterion 3's run, read per sweep: the sweep at which the max residual
    # first drops below the bound, and how far below it ends
    run = budget_run
    per_sweep = run["max_residual"]
    threshold = run["threshold"]
    crossing = next((i + 1 for i, v in enumerate(per_sweep) if v < threshold), None)
    ok = crossing is not None and per_sweep[-1] < threshold and run["gain"] >= 5.0
    report_line(
        "3s", ok,
        f"with the tolerance stop disabled the residual crosses the bound at sweep {crossing} "
        f"and ends at {per_sweep[-1]:.1e} ({per_sweep[-1] / threshold:.1e} of the bound), "
        f"gain {run['gain']:.2f} dB",
    )
    assert ok


def test_criterion_4_noiseless_exactness():
    # Exact rank-2 factor-model observation, correct rank, tiny split weights.
    # With the estimate-shaping weights at zero the objective is
    # lambda_s*||s||_1 + lambda_n*||n||^2, which is 0 exactly when s = n = 0,
    # so y is its unique minimizer and the solver must reach it. Setting all
    # four weights to 1e-6 would not test this: scaling every weight by one
    # constant leaves the minimizer unchanged, and that minimizer is a
    # smoothed cube, not y (the feasible point x = (1 - t)*y, n = t*y lowers
    # the objective for every small t > 0).
    truth, _ = smooth_lowrank_cube(dims=(16, 16, 8), r=2, seed=31)
    params = SolverParams(
        lambda_tv=0.0, lambda_s=1e-6, lambda_n=1e-6, lambda_g=0.0,
        rank=2, eps=1e-12, max_iter=200,
    )
    x, _, _, rep = solve(truth, params)
    rel = np.linalg.norm(x - truth) / np.linalg.norm(truth)
    ok = rel < 1e-3
    detail = (
        f"relative error {rel:.1e} vs bound 1e-3 after {rep.iterations} sweeps (cap 200), "
        f"converged={rep.converged}"
    )
    report_line(4, ok, detail)
    assert ok, detail


def test_criterion_4_supplement_split_weights_recover_exactly():
    # criterion 4's observation with the default split weights and the
    # estimate-shaping weights at 1e-6: y is then near, not at, the
    # minimizer, and the split weights keep s and n from absorbing it
    truth, _ = smooth_lowrank_cube(dims=(16, 16, 8), r=2, seed=31)
    params = SolverParams(lambda_tv=1e-6, lambda_g=1e-6, rank=2, eps=1e-12, max_iter=200)
    x, s, n, rep = solve(truth, params)
    rel = np.linalg.norm(x - truth) / np.linalg.norm(truth)
    ok = rel < 1e-3 and rep.iterations <= 200
    report_line(
        "4s", ok,
        f"relative error {rel:.1e} at sweep {rep.iterations} with preset split weights "
        f"and tiny estimate-shaping weights",
    )
    assert ok


def test_criterion_5_bit_identical_reruns(benchmark_run):
    run = benchmark_run
    x2, s2, n2, rep2 = solve(run["noisy"], run["params"])
    same_cubes = (
        np.array_equal(run["x"], x2)
        and np.array_equal(run["s"], s2)
        and np.array_equal(run["n"], n2)
    )
    first = run["report"].to_dict()
    second = rep2.to_dict()
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    same_reports = first == second
    ok = same_cubes and same_reports
    report_line(5, ok, f"rerun cubes bit-identical: {same_cubes}, reports identical "
                       f"(wall time excluded): {same_reports}")
    assert ok


def test_criterion_6_metric_fixtures():
    ref = np.zeros((16, 16))
    offset = psnr_band(ref, np.full((16, 16), 0.1))
    band = np.random.default_rng(3).random((16, 16))
    mssim_same = ssim_band(band, band)
    cube = np.random.default_rng(4).random((3, 16, 16)) + 0.5
    ergas_same = ergas(cube, cube)
    fix_ref = np.full((1, 4, 4), 0.5)
    fix_test = np.full((1, 4, 4), 0.6)
    ergas_sse_val = ergas(fix_ref, fix_test, variant="sse")
    ergas_s = ergas(fix_ref, fix_test, variant="standard")

    checks = {
        "offset 20 dB": abs(offset - 20.0) <= 1e-3,
        "identity PSNR cap": psnr_band(band, band) == PSNR_CAP_DB,
        "identity SSIM": abs(mssim_same - 1.0) <= 1e-9,
        "identity ERGAS": ergas_same == 0.0,
        "closed-form sse 0.8": abs(ergas_sse_val - 0.8) <= 1e-9,
        "closed-form standard 20": abs(ergas_s - 20.0) <= 1e-9,
    }
    ok = all(checks.values())
    report_line(6, ok, f"offset={offset:.4f} dB, SSIM(x,x)={mssim_same:.12f}, "
                       f"ERGAS fixtures {ergas_sse_val:.10f}/{ergas_s:.9f}"
                       + ("" if ok else f", failing: {[k for k, v in checks.items() if not v]}"))
    assert ok


def test_criterion_7_noise_statistics():
    m = 64 * 64 * 8
    base = np.full((8, 64, 64), 0.5)
    sigma, fraction = 0.2, 0.2
    z_var_unit = np.sqrt(2.0 / m) * sigma**2
    z_mean_unit = sigma / np.sqrt(m)
    z_frac_unit = np.sqrt(fraction * (1 - fraction) / m)
    dead = DeadlineSpec(band_lo=3, band_hi=6, count_lo=2, count_hi=5, width_lo=1, width_hi=2)
    stripes = StripeSpec(band_lo=2, band_hi=7, count_lo=5, count_hi=10)

    failures = []
    worst = {"var": 0.0, "mean": 0.0, "frac": 0.0}
    for seed in range(20):
        gen = np.random.Generator(np.random.Philox(seed))
        noise = add_gaussian(base.copy(), sigma, gen) - base
        z_var = abs(float(np.var(noise)) - sigma**2) / z_var_unit
        z_mean = abs(float(np.mean(noise))) / z_mean_unit
        worst["var"] = max(worst["var"], z_var)
        worst["mean"] = max(worst["mean"], z_mean)
        if z_var > 3.0:
            failures.append(f"seed {seed}: variance z={z_var:.2f}")
        if z_mean > 3.0:
            failures.append(f"seed {seed}: mean z={z_mean:.2f}")

        gen = np.random.Generator(np.random.Philox(seed))
        out = add_impulse(base.copy(), fraction, gen)
        z_frac = abs(float(np.mean(out != base)) - fraction) / z_frac_unit
        worst["frac"] = max(worst["frac"], z_frac)
        if z_frac > 3.0:
            failures.append(f"seed {seed}: corrupted fraction z={z_frac:.2f}")

        gen = np.random.Generator(np.random.Philox(seed))
        out = add_deadlines(base.copy(), dead, gen)
        for band in range(8):
            cols = np.where(np.all(out[band] == 0.0, axis=0))[0]
            partial = np.where(np.any(out[band] == 0.0, axis=0))[0]
            if not np.array_equal(cols, partial):
                failures.append(f"seed {seed}: partial dead column in band {band + 1}")
            if 2 <= band <= 5:
                if not dead.count_lo <= len(cols):
                    failures.append(f"seed {seed}: band {band + 1} has too few dead columns")
                if len(cols) > dead.count_hi * dead.width_hi:
                    failures.append(f"seed {seed}: band {band + 1} has too many dead columns")
            elif len(cols):
                failures.append(f"seed {seed}: dead columns outside the band window")

        gen = np.random.Generator(np.random.Philox(seed))
        out = add_stripes(base.copy(), stripes, gen)
        diff = out - base
        for band in range(8):
            hit = np.where(np.any(diff[band] != 0.0, axis=0))[0]
            if not 1 <= band <= 6:
                if len(hit):
                    failures.append(f"seed {seed}: stripes outside the band window")
                continue
            if not len(hit) <= stripes.count_hi:
                failures.append(f"seed {seed}: band {band + 1} stripe count {len(hit)}")
            for col in hit:
                column = diff[band, :, col]
                if not np.all(column == column[0]):
                    failures.append(f"seed {seed}: stripe not column-constant")
                if abs(column[0]) > 0.25 * stripes.count_hi:
                    failures.append(f"seed {seed}: stripe offset {column[0]:.3f} out of range")

    ok = not failures
    report_line(
        7, ok,
        f"20 seeds on 64x64x8: worst z-scores variance={worst['var']:.2f}, "
        f"mean={worst['mean']:.2f}, fraction={worst['frac']:.2f} (all <= 3); "
        f"deadline/stripe structure clean" + ("" if ok else f"; failures: {failures[:5]}"),
    )
    assert ok
