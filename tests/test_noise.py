"""Noise simulation: determinism, statistics, and structural checks."""

import numpy as np
import pytest

from hsidenoise.errors import ShapeError
from hsidenoise.noise import (
    DeadlineSpec,
    NoiseSpec,
    StripeSpec,
    add_deadlines,
    add_gaussian,
    add_impulse,
    add_stripes,
    apply_case,
    apply_noise,
    case_spec,
)


def flat_cube(shape=(8, 64, 64), value=0.5):
    return np.full(shape, value)


def test_zero_settings_are_identity(rng):
    x = rng.standard_normal((4, 8, 8))
    gen = np.random.Generator(np.random.Philox(0))
    np.testing.assert_array_equal(add_gaussian(x, 0.0, gen), x)
    np.testing.assert_array_equal(add_impulse(x, 0.0, gen), x)
    out = apply_noise(x, NoiseSpec())
    np.testing.assert_array_equal(out, x)
    assert out is not x


def test_inputs_are_never_mutated(rng):
    x = rng.standard_normal((8, 16, 16))
    saved = x.copy()
    apply_case(x, 4, seed=3)
    np.testing.assert_array_equal(x, saved)


def test_gaussian_sample_statistics():
    # sigma 0.2 on a 64x64x8 cube: sample variance of the perturbation in
    # [0.038, 0.042] and sample mean within 0.003 of zero
    x = flat_cube()
    gen = np.random.Generator(np.random.Philox(11))
    noise = add_gaussian(x.copy(), 0.2, gen) - x
    assert 0.038 <= float(np.var(noise)) <= 0.042
    assert abs(float(np.mean(noise))) <= 0.003


def test_impulse_fraction_and_values():
    # input has no exact 0/1 entries, so replaced entries are identifiable
    x = flat_cube()
    gen = np.random.Generator(np.random.Philox(12))
    out = add_impulse(x.copy(), 0.2, gen)
    changed = out != x
    fraction = float(np.mean(changed))
    assert 0.19 <= fraction <= 0.21
    assert set(np.unique(out[changed])) <= {0.0, 1.0}
    # both replacement values occur at roughly equal rates
    salt_share = float(np.mean(out[changed] == 1.0))
    assert 0.45 <= salt_share <= 0.55


def test_deadlines_zero_full_columns():
    x = flat_cube((12, 32, 32))
    spec = DeadlineSpec(band_lo=3, band_hi=7, count_lo=1, count_hi=4, width_lo=1, width_hi=3)
    gen = np.random.Generator(np.random.Philox(13))
    out = add_deadlines(x, spec, gen)
    for band in range(12):
        dead_cols = np.where(np.all(out[band] == 0.0, axis=0))[0]
        partially_dead = np.where(np.any(out[band] == 0.0, axis=0))[0]
        # zeros only appear as full columns, only inside the window
        np.testing.assert_array_equal(dead_cols, partially_dead)
        if 2 <= band <= 6:
            assert len(dead_cols) >= 1
        else:
            assert len(dead_cols) == 0


def test_stripes_are_column_constant_offsets():
    x = flat_cube((10, 24, 24))
    spec = StripeSpec(band_lo=4, band_hi=9, count_lo=2, count_hi=6)
    gen = np.random.Generator(np.random.Philox(14))
    out = add_stripes(x.copy(), spec, gen)
    diff = out - x
    for band in range(10):
        changed_cols = np.where(np.any(diff[band] != 0.0, axis=0))[0]
        if not 3 <= band <= 8:
            assert len(changed_cols) == 0
            continue
        assert len(changed_cols) >= 1
        for col in changed_cols:
            column = diff[band, :, col]
            assert np.all(column == column[0])
            assert abs(column[0]) <= 0.5  # worst case: two stripes on one column


def test_corruptions_change_their_cube_in_place():
    x = flat_cube((4, 8, 8))
    gen = np.random.Generator(np.random.Philox(3))
    dead = DeadlineSpec(band_lo=1, band_hi=2, count_lo=1, count_hi=2, width_lo=1, width_hi=2)
    stripes = StripeSpec(band_lo=3, band_hi=4, count_lo=1, count_hi=2)
    assert add_gaussian(x, 0.1, gen) is x
    assert add_impulse(x, 0.1, gen) is x
    assert add_deadlines(x, dead, gen) is x
    assert add_stripes(x, stripes, gen) is x
    assert not np.array_equal(x, flat_cube((4, 8, 8)))


def test_apply_noise_returns_float64_for_any_real_cube():
    # the offsets of a zero-sigma stripes spec land on a float64 copy, not
    # rounded into a float32 cube or refused by an integer one
    spec = NoiseSpec(stripes=StripeSpec(band_lo=1, band_hi=2, count_lo=2, count_hi=4), seed=5)
    want = apply_noise(np.ones((2, 6, 6)), spec)
    for dtype in (np.float32, np.int64):
        out = apply_noise(np.ones((2, 6, 6), dtype=dtype), spec)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, want)


def test_apply_case_composition_order():
    # replaying the four stages by hand on one shared stream must reproduce
    # apply_case exactly; any other order would consume the stream differently
    x = np.random.default_rng(9).random((12, 20, 20))
    noisy, spec = apply_case(x, 4, seed=21)
    gen = np.random.Generator(np.random.Philox(21))
    step = add_gaussian(x.copy(), spec.gaussian_sigma, gen)
    step = add_impulse(step, spec.impulse_fraction, gen)
    step = add_deadlines(step, spec.deadline, gen)
    step = add_stripes(step, spec.stripes, gen)
    np.testing.assert_array_equal(noisy, step)


def test_apply_case_is_deterministic(rng):
    x = rng.random((8, 16, 16))
    a, spec_a = apply_case(x, 3, seed=5)
    b, spec_b = apply_case(x, 3, seed=5)
    np.testing.assert_array_equal(a, b)
    assert spec_a == spec_b
    c, _ = apply_case(x, 3, seed=6)
    assert not np.array_equal(a, c)


def test_case_parameters():
    s1 = case_spec(1, 191)
    assert (s1.gaussian_sigma, s1.impulse_fraction) == (0.2, 0.2)
    assert s1.deadline is None and s1.stripes is None
    s2 = case_spec(2, 191)
    assert s2.gaussian_sigma == 0.15 and s2.impulse_fraction == 0.0
    assert s2.deadline == DeadlineSpec(41, 100, 3, 10, 1, 3)
    s3 = case_spec(3, 191)
    assert (s3.gaussian_sigma, s3.impulse_fraction) == (0.05, 0.1)
    assert s3.deadline == DeadlineSpec(41, 100, 3, 10, 1, 3) and s3.stripes is None
    s4 = case_spec(4, 191)
    assert s4.stripes == StripeSpec(101, 190, 20, 40)
    assert (s4.gaussian_sigma, s4.impulse_fraction) == (0.05, 0.1)
    with pytest.raises(ValueError):
        case_spec(5, 191)


def test_case_windows_clamp_to_short_cubes():
    spec = case_spec(4, 8)
    assert spec.deadline.band_lo == 8 and spec.deadline.band_hi == 8
    assert spec.stripes.band_lo == 8 and spec.stripes.band_hi == 8
    x = np.random.default_rng(2).random((8, 16, 16))
    noisy, _ = apply_case(x, 4, seed=1)  # must run, not raise
    assert noisy.shape == x.shape


def test_explicit_band_window_past_cube_is_an_error():
    x = flat_cube((4, 8, 8))
    spec = DeadlineSpec(band_lo=1, band_hi=6, count_lo=1, count_hi=1, width_lo=1, width_hi=1)
    with pytest.raises(ShapeError):
        add_deadlines(x, spec, np.random.Generator(np.random.Philox(0)))


def test_spec_validation():
    for sigma in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gaussian_sigma"):
            NoiseSpec(gaussian_sigma=sigma)
    with pytest.raises(ValueError):
        NoiseSpec(impulse_fraction=1.5)
    with pytest.raises(ValueError):
        DeadlineSpec(band_lo=5, band_hi=3, count_lo=1, count_hi=1, width_lo=1, width_hi=1)
    with pytest.raises(ValueError):
        StripeSpec(band_lo=0, band_hi=3, count_lo=1, count_hi=2)


def test_spec_rejects_an_integer_beyond_the_float_range():
    # a JSON spec can hold one; it has no float value
    with pytest.raises(ValueError, match="^gaussian_sigma must be finite"):
        NoiseSpec(gaussian_sigma=10**400)


def test_spec_stores_a_numpy_float_as_float():
    spec = NoiseSpec(gaussian_sigma=np.float32(0.05))
    assert type(spec.gaussian_sigma) is float
    assert NoiseSpec.from_json(spec.to_json()) == spec


def test_spec_rejects_a_deadline_that_is_not_a_deadline_spec():
    # a dict would pass here and fail inside apply_noise
    raw = dict(band_lo=1, band_hi=2, count_lo=1, count_hi=1, width_lo=1, width_hi=1)
    with pytest.raises(ValueError, match="^deadline must be"):
        NoiseSpec(deadline=raw)


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"gaussian_sigma": 0.1, "bogus": 1}', "bogus"),
        ('{"deadline": {"band_lo": 1}}', "band_hi"),
        ('{"stripes": [1, 2]}', "stripes"),
        ("[1, 2]", "object"),
        ('{"gaussian_sigma": "0.1"}', "gaussian_sigma"),
        ('{"gaussian_sigma": NaN}', "gaussian_sigma"),
        ('{"impulse_fraction": null}', "impulse_fraction"),
        ('{"seed": "3"}', "seed"),
        ('{"seed": 1.5}', "seed"),
        ('{"seed": -1}', "seed"),
        (
            '{"deadline": {"band_lo": "1", "band_hi": 2, "count_lo": 1, '
            '"count_hi": 1, "width_lo": 1, "width_hi": 1}}',
            "band_lo",
        ),
    ],
)
def test_malformed_spec_is_a_value_error_naming_the_field(text, field):
    with pytest.raises(ValueError, match=field):
        NoiseSpec.from_json(text)


def test_spec_round_trips_through_json():
    spec = case_spec(4, 191, seed=77)
    back = NoiseSpec.from_json(spec.to_json())
    assert back == spec
    plain = NoiseSpec(gaussian_sigma=0.1, seed=3)
    assert NoiseSpec.from_json(plain.to_json()) == plain


def test_spec_stores_numpy_integers_as_int():
    # a seed or band count handed over as a numpy integer still makes a
    # spec that writes as JSON and reads back equal
    _, spec = apply_case(flat_cube((4, 8, 8)), 4, seed=np.int64(3))
    assert NoiseSpec.from_json(spec.to_json()) == spec
    spec = case_spec(np.int64(2), np.int64(191), seed=np.uint8(9))
    assert NoiseSpec.from_json(spec.to_json()) == spec


def test_no_clipping_after_composition():
    # Gaussian tails survive: values beyond [0, 1] remain
    x = flat_cube((8, 64, 64))
    noisy, _ = apply_case(x, 1, seed=0)
    assert noisy.min() < 0.0 and noisy.max() > 1.0
