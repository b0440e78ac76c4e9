"""End-to-end command line behavior: exit codes, files written, config echo."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import hsidenoise
from hsidenoise import solver
from hsidenoise.cli import main
from hsidenoise.errors import NumericError
from hsidenoise.io import read_cube, write_cube
from hsidenoise.noise import NoiseSpec
from hsidenoise.solver import SolverParams


@pytest.fixture
def clean_cube(tmp_path):
    rng = np.random.default_rng(7)
    cube = rng.random((6, 16, 16)) * 0.8 + 0.1
    path = tmp_path / "clean.npy"
    write_cube(cube, path)
    return str(path), cube


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_writes_cube_and_sidecar(tmp_path, clean_cube, capsys):
    clean_path, cube = clean_cube
    out = str(tmp_path / "noisy.npy")
    code, stdout, _ = run_cli(
        ["simulate", "--input", clean_path, "--output", out, "--case", "1", "--seed", "3"],
        capsys,
    )
    assert code == 0
    noisy = read_cube(out)
    assert noisy.shape == cube.shape
    assert not np.array_equal(noisy, cube)
    sidecar = json.loads((tmp_path / "noisy.json").read_text())
    assert sidecar["gaussian_sigma"] == 0.2
    assert sidecar["impulse_fraction"] == 0.2
    assert sidecar["seed"] == 3
    config = json.loads(stdout)
    assert config["command"] == "simulate"
    assert config["noise"]["seed"] == 3


def test_simulate_same_seed_is_byte_identical(tmp_path, clean_cube, capsys):
    clean_path, _ = clean_cube
    out_a = tmp_path / "a.npy"
    out_b = tmp_path / "b.npy"
    for out in (out_a, out_b):
        code, _, _ = run_cli(
            ["simulate", "--input", clean_path, "--output", str(out), "--case", "3", "--seed", "9"],
            capsys,
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_seed_changes_output(tmp_path, clean_cube, capsys):
    clean_path, _ = clean_cube
    out_a = tmp_path / "a.npy"
    out_b = tmp_path / "b.npy"
    run_cli(["simulate", "--input", clean_path, "--output", str(out_a), "--case", "1", "--seed", "1"], capsys)
    run_cli(["simulate", "--input", clean_path, "--output", str(out_b), "--case", "1", "--seed", "2"], capsys)
    assert out_a.read_bytes() != out_b.read_bytes()


def test_simulate_spec_file(tmp_path, clean_cube, capsys):
    clean_path, cube = clean_cube
    spec = NoiseSpec(impulse_fraction=0.15, seed=4)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    out = str(tmp_path / "impulse.npy")
    code, _, _ = run_cli(["simulate", "--input", clean_path, "--output", out, "--spec", str(spec_path)], capsys)
    assert code == 0
    noisy = read_cube(out)
    changed = noisy != cube
    # impulse-only corruption: every changed entry was replaced by 0 or 1
    assert np.all(np.isin(noisy[changed], (0.0, 1.0)))
    assert 0.12 <= float(np.mean(changed)) <= 0.18


def test_simulate_spec_beats_case_and_seed_overrides_spec(tmp_path, clean_cube, capsys):
    clean_path, _ = clean_cube
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(NoiseSpec(gaussian_sigma=0.01, seed=4).to_json())
    out = str(tmp_path / "mix.npy")
    code, stdout, _ = run_cli(
        ["simulate", "--input", clean_path, "--output", out,
         "--case", "1", "--spec", str(spec_path), "--seed", "11"],
        capsys,
    )
    assert code == 0
    config = json.loads(stdout)
    assert config["noise"]["gaussian_sigma"] == 0.01  # spec won over --case
    assert config["noise"]["seed"] == 11  # flag won over the spec file


@pytest.mark.parametrize(
    "text",
    [
        '{"gaussian_sigma": 0.1, "bogus": 1}',
        '{"deadline": {"band_lo": 1}}',
        "[1, 2]",
        '{"gaussian_sigma": "0.1"}',
        '{"seed": "3"}',
        '{"gaussian_sigma": NaN}',
        # a JSON integer beyond the float range
        pytest.param('{"gaussian_sigma": 1' + 400 * "0" + "}", id="integer-beyond-float-range"),
    ],
)
def test_simulate_malformed_spec_is_exit_1(tmp_path, clean_cube, capsys, text):
    clean_path, _ = clean_cube
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(text)
    out = tmp_path / "noisy.npy"
    code, _, err = run_cli(
        ["simulate", "--input", clean_path, "--output", str(out), "--spec", str(spec_path)], capsys
    )
    assert code == 1
    assert err.startswith("error: ")
    assert not out.exists()


def test_simulate_spec_error_abbreviates_a_long_value(tmp_path, clean_cube, capsys):
    # a 401-digit integer is out of the float range; the error names the
    # field on one short line rather than repeating every digit
    clean_path, _ = clean_cube
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"gaussian_sigma": 1' + 400 * "0" + "}")
    code, _, err = run_cli(
        ["simulate", "--input", clean_path, "--output", str(tmp_path / "noisy.npy"),
         "--spec", str(spec_path)],
        capsys,
    )
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and len(lines[0]) <= 120, err
    assert "gaussian_sigma" in lines[0]


def test_simulate_needs_case_or_spec(tmp_path, clean_cube, capsys):
    clean_path, _ = clean_cube
    code, _, err = run_cli(["simulate", "--input", clean_path, "--output", str(tmp_path / "x.npy")], capsys)
    assert code == 1
    assert "error" in err


def test_missing_input_is_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        ["simulate", "--input", str(tmp_path / "absent.npy"), "--output", str(tmp_path / "y.npy"), "--case", "1"],
        capsys,
    )
    assert code == 2
    assert "error" in err


def test_malformed_cube_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.npy"
    bad.write_bytes(b"not a cube at all")
    code, _, _ = run_cli(
        ["export-band", "--input", str(bad), "--band", "1", "--output", str(tmp_path / "b.pgm")],
        capsys,
    )
    assert code == 2


def test_denoise_echoes_preset_and_writes_output(tmp_path, clean_cube, capsys):
    clean_path, cube = clean_cube
    out = str(tmp_path / "denoised.npy")
    code, stdout, _ = run_cli(
        ["denoise", "--input", clean_path, "--output", out, "--max-iter", "2", "--rank", "2"],
        capsys,
    )
    assert code == 0
    # config JSON comes first on stdout, then the one-line completion note
    config = json.loads(stdout[: stdout.rindex("}") + 1])
    assert config["preset"] == "custom"  # rank/max-iter overrides differ from the preset
    assert config["params"]["rank"] == 2
    assert read_cube(out).shape == cube.shape
    assert "done:" in stdout


def test_denoise_pure_preset_stays_named(tmp_path, clean_cube, capsys):
    clean_path, _ = clean_cube
    out = str(tmp_path / "denoised.npy")
    code, stdout, _ = run_cli(
        ["denoise", "--input", clean_path, "--output", out, "--max-iter", "200"],
        capsys,
    )
    assert code == 0
    # max_iter 200 equals the preset value, so the config is still the preset
    config = json.loads(stdout[: stdout.rindex("}") + 1])
    assert config["preset"] == "simulated"
    assert config["params"] == {
        key: value for key, value in SolverParams.simulated().__dict__.items()
    }


def test_denoise_components_and_report(tmp_path, clean_cube, capsys):
    clean_path, cube = clean_cube
    out = str(tmp_path / "restored.npy")
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        [
            "denoise", "--input", clean_path, "--output", out,
            "--max-iter", "3", "--emit-components", "--report", str(report_path),
        ],
        capsys,
    )
    assert code == 0
    sparse = read_cube(str(tmp_path / "restored.sparse.npy"))
    gaussian = read_cube(str(tmp_path / "restored.gaussian.npy"))
    assert sparse.shape == cube.shape and gaussian.shape == cube.shape
    document = json.loads(report_path.read_text())
    assert set(document) == {"config", "report"}
    assert document["config"]["command"] == "denoise"
    assert document["report"]["iterations"] == 3
    assert document["report"]["converged"] is False
    assert len(document["report"]["rel_change"]) == 3
    assert document["report"]["params"]["max_iter"] == 3


def test_denoise_overrides_are_the_solver_fields(tmp_path, clean_cube, capsys):
    # exactly one flag per SolverParams field, named after it
    with pytest.raises(SystemExit):
        main(["denoise", "--help"])
    flags = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
    flags -= {"--help", "--input", "--output", "--preset", "--emit-components", "--report"}
    assert flags == {"--" + f.name.replace("_", "-") for f in fields(SolverParams)}
    # every flag's value reaches the echoed params, with the field's type
    values = {f.name: 1 if f.type is int else 2 * f.default for f in fields(SolverParams)}
    argv = ["denoise", "--input", clean_cube[0], "--output", str(tmp_path / "x.npy")]
    for name, value in values.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0
    config = json.loads(stdout[: stdout.rindex("}") + 1])
    assert config["preset"] == "custom"
    assert config["params"] == values
    assert all(type(config["params"][f.name]) is f.type for f in fields(SolverParams))


def test_denoise_rho_is_a_usage_error(tmp_path, clean_cube, capsys):
    code, _, err = run_cli(
        ["denoise", "--input", clean_cube[0], "--output", str(tmp_path / "x.npy"), "--rho", "1.05"],
        capsys,
    )
    assert code == 1
    assert "--rho" in err
    assert not (tmp_path / "x.npy").exists()


def test_denoise_beta2_is_a_usage_error(tmp_path, clean_cube, capsys):
    # the x step takes the TV solve itself, so no consensus copy has a weight
    code, _, err = run_cli(
        ["denoise", "--input", clean_cube[0], "--output", str(tmp_path / "x.npy"), "--beta2", "0.1"],
        capsys,
    )
    assert code == 1
    assert "--beta2" in err
    assert not (tmp_path / "x.npy").exists()


def test_denoise_rejects_bad_rank(tmp_path, clean_cube, capsys):
    clean_path, _ = clean_cube
    code, _, err = run_cli(
        ["denoise", "--input", clean_path, "--output", str(tmp_path / "x.npy"), "--rank", "0"],
        capsys,
    )
    assert code == 1
    assert "error" in err


def test_denoise_eps_nan_is_a_usage_error(tmp_path, clean_cube, capsys):
    # a NaN tolerance would switch the stop rule off and run to max_iter
    output = tmp_path / "x.npy"
    code, _, err = run_cli(
        ["denoise", "--input", clean_cube[0], "--output", str(output), "--eps", "nan"],
        capsys,
    )
    assert code == 1
    assert "eps must be finite" in err
    assert not output.exists()


def test_denoise_nonfinite_cube_is_exit_3(tmp_path, capsys):
    cube = np.zeros((3, 8, 8))
    cube[1, 2, 3] = np.nan
    path = tmp_path / "nan.npy"
    write_cube(cube, path)
    code, _, err = run_cli(
        ["denoise", "--input", str(path), "--output", str(tmp_path / "x.npy"), "--max-iter", "1"],
        capsys,
    )
    assert code == 3
    assert "error" in err


def test_denoise_cube_beyond_float32_range_is_exit_3(tmp_path, capsys):
    # a finite float64 file whose values the solver's float32 cannot hold
    cube = np.zeros((3, 8, 8))
    cube[2, 0, 5] = 1e300
    path = tmp_path / "huge.npy"
    write_cube(cube, path)
    code, _, err = run_cli(
        ["denoise", "--input", str(path), "--output", str(tmp_path / "x.npy"), "--max-iter", "1"],
        capsys,
    )
    assert code == 3
    assert "beyond the float32 range" in err
    assert not (tmp_path / "x.npy").exists()


@pytest.mark.parametrize("scale", [1.5e18, 1.8e18, 2.0e18, 2.2e18, 3e18])
def test_denoise_cube_past_the_limit_is_exit_3(tmp_path, capsys, scale):
    # each value fits float32, but the cube's squared norm passes the
    # solver's limit (the API test runs the same cubes)
    path = tmp_path / "large.npy"
    write_cube(np.random.default_rng(0).random((8, 12, 12)) * scale, path)
    output = tmp_path / "x.npy"
    code, _, err = run_cli(
        ["denoise", "--input", str(path), "--output", str(output), "--rank", "2",
         "--emit-components", "--report", str(tmp_path / "report.json")],
        capsys,
    )
    assert code == 3
    assert f"passes the solver's limit of {solver._LIMIT:.4g}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["large.npy"]


@given(
    dims=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)),
    rank=st.integers(1, 12),
    dtype=st.sampled_from(["float64", "float32"]),
    # the cube's squared norm over the solver's limit; None keeps unit-scale values
    ratio=st.sampled_from([None, 0.5, 0.999, 1.001, 4.0]),
    seed=st.integers(0, 2**16),
)
@example(dims=(1, 7, 5), rank=1, dtype="float32", ratio=0.999, seed=0)  # one band
@example(dims=(7, 11, 1), rank=7, dtype="float64", ratio=0.999, seed=1)  # J == 1, rank == K
@example(dims=(11, 5, 3), rank=11, dtype="float32", ratio=1.001, seed=2)  # primes, rank == K
@example(dims=(1, 1, 1), rank=1, dtype="float64", ratio=None, seed=3)
def test_edge_inputs_give_a_result_or_a_named_error(dims, rank, dtype, ratio, seed):
    # solve returns finite parts inside the limit and names the limit past
    # it; denoise exits 0 or 3 accordingly, without a traceback
    y = np.random.default_rng(seed).standard_normal(dims)
    if ratio is not None:
        y *= np.sqrt(ratio * solver._LIMIT / np.sum(y**2))
    y = y.astype(dtype)
    rank = min(rank, dims[0], dims[1] * dims[2])
    refused = ratio is not None and ratio > 1
    try:
        parts = solver.solve(y, SolverParams(rank=rank, max_iter=3))
    except NumericError as exc:
        assert refused and "passes the solver's limit" in str(exc)
    else:
        assert not refused and all(np.all(np.isfinite(a)) for a in parts[:3])

    with tempfile.TemporaryDirectory() as tmp:
        path, output = Path(tmp) / "y.npy", Path(tmp) / "x.npy"
        write_cube(y, path, dtype=dtype)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["denoise", "--input", str(path), "--output", str(output),
                         "--rank", str(rank), "--max-iter", "3"])
        assert code == (3 if refused else 0), err.getvalue()
        assert output.exists() != refused and "Traceback" not in err.getvalue()


def test_denoise_writes_the_solver_precision(tmp_path, clean_cube, capsys):
    # the solve returns float32 cubes, and each file holds them as they are;
    # read back, they score exactly as a float64-written copy does
    clean_path, cube = clean_cube
    noisy, restored = str(tmp_path / "noisy.npy"), str(tmp_path / "x.npy")
    assert main(["simulate", "--input", clean_path, "--output", noisy, "--case", "3"]) == 0
    argv = ["denoise", "--input", noisy, "--output", restored, "--rank", "2", "--max-iter", "4",
            "--emit-components"]
    assert main(argv) == 0
    x, s, n, _ = solver.solve(read_cube(noisy), SolverParams(rank=2, max_iter=4))
    stem = restored[: -len(".npy")]
    for path, returned in ((restored, x), (stem + ".sparse.npy", s), (stem + ".gaussian.npy", n)):
        written = np.load(path)
        assert written.dtype.str == "<f4"
        assert np.array_equal(written, returned)
    wide = str(tmp_path / "x64.npy")
    write_cube(x, wide)
    scores = []
    for test in (restored, wide):
        path = str(tmp_path / "scores.json")
        assert main(["evaluate", "--ref", clean_path, "--test", test, "--json", path]) == 0
        scores.append(json.loads(Path(path).read_text()))
    capsys.readouterr()
    assert scores[0] == scores[1]


def test_float32_files_round_trip_at_prime_sizes(tmp_path):
    # 7 bands of 11x13, all prime, the smallest band SSIM's 11x11 window
    # fits.  simulate reads a float32 clean cube and writes a float64 one;
    # denoise reads a float32 copy of it
    shape = (7, 11, 13)
    rng = np.random.default_rng(11)
    clean, noisy, noisy32 = (str(tmp_path / f"{name}.npy") for name in ("clean", "noisy", "noisy32"))
    restored, report = str(tmp_path / "x.npy"), tmp_path / "report.json"
    scores_csv, scores_json, pgm = tmp_path / "m.csv", tmp_path / "m.json", tmp_path / "band.pgm"
    write_cube(rng.random(shape) * 0.8 + 0.1, clean, dtype="float32")
    assert np.load(clean).dtype == np.float32
    assert main(["simulate", "--input", clean, "--output", noisy, "--case", "4", "--seed", "2"]) == 0
    write_cube(read_cube(noisy), noisy32, dtype="float32")
    argv = ["denoise", "--input", noisy32, "--output", restored, "--rank", "1", "--max-iter", "3",
            "--emit-components", "--report", str(report)]
    assert main(argv) == 0
    for path in (noisy, restored, restored[: -len(".npy")] + ".sparse.npy",
                 restored[: -len(".npy")] + ".gaussian.npy"):
        assert read_cube(path).shape == shape
    assert json.loads(report.read_text())["report"]["iterations"] == 3
    argv = ["evaluate", "--ref", clean, "--test", restored, "--csv", str(scores_csv),
            "--json", str(scores_json)]
    assert main(argv) == 0
    scores = json.loads(scores_json.read_text())
    assert len(scores["psnr"]) == len(scores["ssim"]) == shape[0]
    # a header, one row per band and the summary row
    assert len(scores_csv.read_text().splitlines()) == shape[0] + 2
    assert main(["export-band", "--input", restored, "--band", "4", "--output", str(pgm)]) == 0
    header = b"P5\n13 11\n255\n"
    image = pgm.read_bytes()
    assert image.startswith(header) and len(image) == len(header) + 11 * 13


def test_denoise_drops_its_float64_observation_before_the_sweeps(tmp_path, capsys):
    # a float64 file of 32 bands of 128x128: the sweep runs in 4 blocks of 8
    # bands.  The bound counts float64 cubes of the file's size and sits
    # 0.3 above the measured peak of 5.55.  Keeping the float64 cube
    # through the solve adds 1, a consensus copy of x as the solve kept
    # before its x step took the TV solve 0.5, holding the x solve's
    # scratch cube through the sweep 0.5, a whole-cube model 0.38
    rng = np.random.default_rng(5)
    path = tmp_path / "noisy.npy"
    write_cube(rng.random((32, 128, 128)), path)
    cube_bytes = 32 * 128 * 128 * 8
    argv = ["denoise", "--input", str(path), "--output", str(tmp_path / "x.npy"),
            "--preset", "real", "--max-iter", "3"]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    assert peak <= 5.85 * cube_bytes, peak / cube_bytes


def test_denoise_non_finite_sweep_is_exit_3(tmp_path, clean_cube, capsys, monkeypatch):
    # a step that turns non-finite mid-solve is a numeric error naming it.
    # The sweep runs the step on band blocks of the state, which the step
    # writes
    def nan_estimate(state, y, params, before=None):
        state.x_prev[...] = np.nan
        return state.x_prev

    monkeypatch.setattr(solver, "update_x", nan_estimate)
    clean_path, _ = clean_cube
    code, _, err = run_cli(
        ["denoise", "--input", clean_path, "--output", str(tmp_path / "x.npy"), "--max-iter", "2"],
        capsys,
    )
    assert code == 3
    assert "non-finite values after the estimate update in sweep 1" in err
    assert not (tmp_path / "x.npy").exists()


def test_evaluate_prints_summary_and_writes_csv(tmp_path, clean_cube, capsys):
    clean_path, cube = clean_cube
    test_path = tmp_path / "shifted.npy"
    write_cube(np.clip(cube + 0.05, 0, 1), test_path)
    csv_path = tmp_path / "metrics.csv"
    json_path = tmp_path / "metrics.json"
    code, stdout, _ = run_cli(
        ["evaluate", "--ref", clean_path, "--test", str(test_path),
         "--csv", str(csv_path), "--json", str(json_path)],
        capsys,
    )
    assert code == 0
    assert "MPSNR=" in stdout and "ERGAS(sse)=" in stdout
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + cube.shape[0] + 1
    report = json.loads(json_path.read_text())
    assert len(report["psnr"]) == cube.shape[0]
    assert report["mpsnr"] == pytest.approx(float(np.mean(report["psnr"])))


def test_evaluate_shape_mismatch_is_exit_1(tmp_path, clean_cube, capsys):
    clean_path, _ = clean_cube
    other = tmp_path / "other.npy"
    write_cube(np.zeros((2, 12, 12)) + 0.5, other)
    code, _, _ = run_cli(["evaluate", "--ref", clean_path, "--test", str(other)], capsys)
    assert code == 1


def test_evaluate_non_finite_band_is_exit_3(tmp_path, clean_cube, capsys):
    clean_path, cube = clean_cube
    broken = cube.copy()
    broken[1, 4, 4] = np.nan
    test_path = tmp_path / "broken.npy"
    write_cube(broken, test_path)
    code, stdout, err = run_cli(["evaluate", "--ref", clean_path, "--test", str(test_path)], capsys)
    assert code == 3
    assert "band 2" in err
    assert "MPSNR" not in stdout


@pytest.mark.parametrize("peak", ["nan", "inf"])
def test_evaluate_non_finite_peak_is_exit_1(clean_cube, capsys, peak):
    # min(cap, nan) is the cap: a NaN peak would score as a perfect match
    clean_path, _ = clean_cube
    code, stdout, err = run_cli(
        ["evaluate", "--ref", clean_path, "--test", clean_path, "--peak", peak], capsys
    )
    assert code == 1
    assert f"got {peak}" in err
    assert "MPSNR" not in stdout


def test_export_band_writes_pgm(tmp_path, clean_cube, capsys):
    clean_path, cube = clean_cube
    out = tmp_path / "band3.pgm"
    code, _, _ = run_cli(
        ["export-band", "--input", clean_path, "--band", "3", "--output", str(out)],
        capsys,
    )
    assert code == 0
    raw = out.read_bytes()
    assert raw.startswith(b"P5\n16 16\n255\n")
    pixels = np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8)
    expected = np.clip(np.round(cube[2] * 255.0), 0, 255).astype(np.uint8)
    np.testing.assert_array_equal(pixels.reshape(16, 16), expected)


def test_export_band_out_of_range_is_exit_1(tmp_path, clean_cube, capsys):
    clean_path, _ = clean_cube
    for band in ("0", "7"):
        code, _, err = run_cli(
            ["export-band", "--input", clean_path, "--band", band, "--output", str(tmp_path / "x.pgm")],
            capsys,
        )
        assert code == 1
        assert "band" in err


@pytest.mark.parametrize("bounds", [("0", "inf"), ("nan", "1"), ("1", "0")])
def test_export_band_non_finite_range_is_exit_1(tmp_path, clean_cube, capsys, bounds):
    clean_path, _ = clean_cube
    out = tmp_path / "band3.pgm"
    code, _, err = run_cli(
        ["export-band", "--input", clean_path, "--band", "3", "--output", str(out), "--range", *bounds],
        capsys,
    )
    assert code == 1
    assert "finite" in err
    assert not out.exists()


def test_export_band_nan_is_exit_3(tmp_path, clean_cube, capsys):
    # NaN has no gray level; writing it as black would hide it
    _, cube = clean_cube
    broken = cube.copy()
    broken[2, 5, 7] = np.nan
    cube_path = tmp_path / "broken.npy"
    write_cube(broken, cube_path)
    out = tmp_path / "band3.pgm"
    code, _, err = run_cli(
        ["export-band", "--input", str(cube_path), "--band", "3", "--output", str(out)],
        capsys,
    )
    assert code == 3
    assert "NaN" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["broken.npy", "clean.npy"]


def test_unknown_flag_is_exit_1(capsys):
    code, _, _ = run_cli(["denoise", "--input", "a", "--output", "b", "--bogus", "1"], capsys)
    assert code == 1


def run_child(argv):
    """Run the interpreter on ``argv`` with the package the suite imported, installed or not."""
    src = os.path.dirname(os.path.dirname(hsidenoise.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable] + argv,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point_smoke(tmp_path):
    rng = np.random.default_rng(1)
    cube = rng.random((4, 12, 12)) * 0.8 + 0.1
    clean = tmp_path / "clean.npy"
    write_cube(cube, clean)
    noisy = tmp_path / "noisy.npy"
    restored = tmp_path / "restored.npy"
    steps = [
        ["simulate", "--input", str(clean), "--output", str(noisy), "--case", "1", "--seed", "0"],
        ["denoise", "--input", str(noisy), "--output", str(restored), "--max-iter", "5", "--rank", "2"],
        ["evaluate", "--ref", str(clean), "--test", str(restored)],
    ]
    for argv in steps:
        proc = run_child(["-m", "hsidenoise"] + argv)
        assert proc.returncode == 0, proc.stderr
    assert restored.exists()


def test_readme_scripts_smoke(tmp_path):
    # the quick start's two scripts, at a tiny size
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    cube = tmp_path / "truth.npy"
    size = ["--rows", "16", "--cols", "12", "--bands", "8"]
    proc = run_child([str(scripts / "make_synthetic_cube.py"), *size, "--output", str(cube)])
    assert proc.returncode == 0, proc.stderr
    assert read_cube(str(cube)).shape == (8, 16, 12)
    proc = run_child([str(scripts / "run_synthetic_benchmark.py"), *size])
    assert proc.returncode == 0, proc.stderr
    # a header, a rule and one row per noise case
    rows = proc.stdout.splitlines()[2:]
    assert [row.split()[0] for row in rows] == ["1", "2", "3", "4"]


def test_make_synthetic_cube_rejects_a_rank_above_the_bands(tmp_path):
    # one error line and exit 1, no traceback and no file
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic_cube.py"
    cube = tmp_path / "truth.npy"
    proc = run_child([str(script), "--bands", "2", "--rank", "3", "--output", str(cube)])
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: r must be in [1, 2] for a cube of 2 bands, got 3"]
    assert not cube.exists()


def test_package_import_loads_no_scipy():
    # nothing in the package needs scipy, and loading it would slow every command
    code = (
        "import sys, hsidenoise, hsidenoise.cli; "
        "scipy = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')); "
        "assert not scipy, scipy"
    )
    proc = run_child(["-c", code])
    assert proc.returncode == 0, proc.stderr
