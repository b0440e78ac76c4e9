"""Seeded mixed-noise simulation for benchmark cubes.

Four canonical corruption recipes are provided, mirroring the usual
simulated-degradation protocol on reflectance cubes normalized to [0, 1]:

1. dense Gaussian noise (sigma 0.2) plus 20% impulse noise;
2. Gaussian noise (sigma 0.15) plus deadlines in bands 41-100;
3. Gaussian noise (sigma 0.05), 10% impulse noise and the same deadlines;
4. recipe 3 plus additive stripes in bands 101-190.

Band numbers in specs are 1-based and inclusive.  Corruptions compose in
the fixed order Gaussian -> impulse -> deadlines -> stripes, and nothing is
clipped afterwards.  The steps change one float64 copy of the cube in
place, so :func:`apply_noise` returns float64 whatever the input's dtype.
All randomness is drawn from one numpy Philox (counter-based) generator
seeded from the spec, so a (cube, spec) pair always reproduces the same
noisy output bit for bit.
"""

import json
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .errors import ShapeError, check_fields


@dataclass(frozen=True)
class DeadlineSpec:
    """Dead column runs: per band in [band_lo, band_hi], ``count`` runs of
    ``width`` consecutive columns are zeroed over the full height, with
    count and width drawn uniformly from the given inclusive ranges."""

    band_lo: int
    band_hi: int
    count_lo: int
    count_hi: int
    width_lo: int
    width_hi: int

    def __post_init__(self):
        check_fields(self)
        _check_window(self.band_lo, self.band_hi, "band")
        _check_window(self.count_lo, self.count_hi, "count")
        _check_window(self.width_lo, self.width_hi, "width")


@dataclass(frozen=True)
class StripeSpec:
    """Striped columns: per band in [band_lo, band_hi], ``count`` single
    columns each receive one constant offset drawn from [-0.25, 0.25]."""

    band_lo: int
    band_hi: int
    count_lo: int
    count_hi: int

    def __post_init__(self):
        check_fields(self)
        _check_window(self.band_lo, self.band_hi, "band")
        _check_window(self.count_lo, self.count_hi, "count")


@dataclass(frozen=True)
class NoiseSpec:
    """Complete description of one simulated degradation."""

    gaussian_sigma: float = 0.0
    impulse_fraction: float = 0.0
    deadline: DeadlineSpec | None = None
    stripes: StripeSpec | None = None
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.gaussian_sigma < 0:
            raise ValueError(f"gaussian_sigma must be nonnegative, got {self.gaussian_sigma}")
        if not 0.0 <= self.impulse_fraction <= 1.0:
            raise ValueError(
                f"impulse_fraction must lie in [0, 1], got {self.impulse_fraction}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    def to_json(self):
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text):
        """The spec a JSON object describes; a malformed one is a ``ValueError`` naming its field."""
        raw = _fields_of(cls, json.loads(text), "noise spec")
        for name, spec in (("deadline", DeadlineSpec), ("stripes", StripeSpec)):
            if raw.get(name) is not None:
                raw[name] = spec(**_fields_of(spec, raw[name], name))
        return cls(**raw)


def _fields_of(cls, raw, what):
    """``raw`` as keyword arguments of dataclass ``cls``: an object with no unknown or missing field."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - {field.name for field in fields(cls)})
    if unknown:
        raise ValueError(f"{what} has unknown field(s): {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in raw]
    if missing:
        raise ValueError(f"{what} lacks field(s): {', '.join(missing)}")
    return raw


def _check_window(lo, hi, name):
    if lo < 1 or hi < lo:
        raise ValueError(f"{name} range [{lo}, {hi}] is not an ordered range of positives")


def _band_indices(lo, hi, k):
    # 1-based inclusive window -> 0-based band indices, erroring past the cube
    if hi > k:
        raise ShapeError(f"band window [{lo}, {hi}] exceeds the cube's {k} bands")
    return range(lo - 1, hi)


def add_gaussian(x, sigma, rng):
    """Add iid zero-mean Gaussian noise of standard deviation ``sigma`` to ``x`` in place."""
    if sigma == 0.0:
        return x
    x += sigma * rng.standard_normal(x.shape)
    return x


def add_impulse(x, fraction, rng):
    """Replace each entry of ``x`` in place, independently with probability ``fraction``.

    Replacements are 0 or 1 with equal chance (salt and pepper on a [0, 1]
    scale).  The value stream is drawn for every entry regardless of the
    hit mask, so the consumed randomness does not depend on the outcome.
    """
    if fraction == 0.0:
        return x
    hit = rng.random(x.shape) < fraction
    salt = rng.random(x.shape) < 0.5
    np.copyto(x, salt, where=hit)
    return x


def add_deadlines(x, spec, rng):
    """Zero out runs of whole columns of ``x`` per band in place, as described by ``spec``."""
    j = x.shape[2]
    for k in _band_indices(spec.band_lo, spec.band_hi, x.shape[0]):
        count = int(rng.integers(spec.count_lo, spec.count_hi, endpoint=True))
        for _ in range(count):
            width = min(int(rng.integers(spec.width_lo, spec.width_hi, endpoint=True)), j)
            start = int(rng.integers(0, j - width, endpoint=True))
            x[k, :, start : start + width] = 0.0
    return x


def add_stripes(x, spec, rng):
    """Add a constant offset from [-0.25, 0.25] to random columns of ``x`` per band, in place."""
    j = x.shape[2]
    for k in _band_indices(spec.band_lo, spec.band_hi, x.shape[0]):
        count = int(rng.integers(spec.count_lo, spec.count_hi, endpoint=True))
        cols = rng.integers(0, j, size=count)
        offsets = rng.uniform(-0.25, 0.25, size=count)
        for col, off in zip(cols, offsets):
            x[k, :, col] += off
    return x


def apply_noise(x, spec):
    """Apply one full degradation recipe to a cube.

    The input is untouched: the corruptions work in place on one float64
    copy of it, which is returned.  Band windows must fit the cube; use
    :func:`case_spec` to build pre-clamped recipes.
    """
    if x.ndim != 3:
        raise ShapeError(f"expected a (K, I, J) cube, got {x.ndim} dimensions")
    rng = np.random.Generator(np.random.Philox(spec.seed))
    out = np.array(x, dtype=np.float64)
    add_gaussian(out, spec.gaussian_sigma, rng)
    add_impulse(out, spec.impulse_fraction, rng)
    if spec.deadline is not None:
        add_deadlines(out, spec.deadline, rng)
    if spec.stripes is not None:
        add_stripes(out, spec.stripes, rng)
    return out


def case_spec(case_id, k, seed=0):
    """Noise recipe of one canonical case, windows clamped to ``k`` bands."""

    def clamp(b):
        return min(max(b, 1), k)

    deadlines = DeadlineSpec(
        band_lo=clamp(41), band_hi=clamp(100), count_lo=3, count_hi=10, width_lo=1, width_hi=3
    )
    if case_id == 1:
        return NoiseSpec(gaussian_sigma=0.2, impulse_fraction=0.2, seed=seed)
    if case_id == 2:
        return NoiseSpec(gaussian_sigma=0.15, deadline=deadlines, seed=seed)
    if case_id == 3:
        return NoiseSpec(gaussian_sigma=0.05, impulse_fraction=0.1, deadline=deadlines, seed=seed)
    if case_id == 4:
        stripes = StripeSpec(band_lo=clamp(101), band_hi=clamp(190), count_lo=20, count_hi=40)
        return NoiseSpec(
            gaussian_sigma=0.05,
            impulse_fraction=0.1,
            deadline=deadlines,
            stripes=stripes,
            seed=seed,
        )
    raise ValueError(f"case must be 1, 2, 3 or 4, got {case_id}")


def apply_case(x, case_id, seed=0):
    """Degrade a cube with a canonical case; returns (noisy, spec used)."""
    spec = case_spec(case_id, x.shape[0], seed=seed)
    return apply_noise(x, spec), spec
