"""Helpers shared by the test modules."""


def in_the_range_of_d(d):
    """A copy of the (3, K, I, J) field ``d`` with each plane's last sample
    along its axis set to 0, as D leaves it: D's range, where D' is D's adjoint."""
    d = d.copy()
    d[0][:, -1, :] = 0.0
    d[1][:, :, -1] = 0.0
    d[2][-1] = 0.0
    return d
