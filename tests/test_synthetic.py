"""Synthetic ground truth: the factor model holds, and bad sizes are named errors."""

import numpy as np
import pytest

from hsidenoise.errors import ShapeError
from hsidenoise.factorization import compose
from hsidenoise.synthetic import smooth_lowrank_cube


def test_cube_is_composed_from_its_factors():
    cube, factors = smooth_lowrank_cube((6, 5, 4), r=4, slice_rank=2, seed=3, peak=2.0)
    assert cube.shape == (4, 6, 5)
    assert np.abs(cube).max() == pytest.approx(2.0, rel=1e-15)
    np.testing.assert_allclose(compose(factors), cube, rtol=0, atol=1e-14)
    np.testing.assert_allclose(factors.c.T @ factors.c, np.eye(4), rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "dims, kwargs, error, name",
    [
        ((4, 4, 2), dict(r=3), ShapeError, "r must be"),  # more signatures than bands
        ((4, 4, 2), dict(r=0), ShapeError, "r must be"),
        ((0, 4, 2), dict(r=1), ShapeError, "dims must be"),
        ((4, 0, 2), dict(r=1), ShapeError, "dims must be"),
        ((4, 4, 0), dict(r=1), ShapeError, "dims must be"),
        ((4, 4), dict(r=1), ShapeError, "dims must be"),
        ((4, 4, 2), dict(r=1, slice_rank=0), ValueError, "slice_rank must be"),
    ],
    ids=["rank-above-bands", "rank-zero", "no-rows", "no-columns", "no-bands", "two-dims", "slice-rank-zero"],
)
def test_bad_sizes_are_named_errors(dims, kwargs, error, name):
    with pytest.raises(error, match=name):
        smooth_lowrank_cube(dims, **kwargs)
