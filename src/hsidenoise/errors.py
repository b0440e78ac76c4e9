"""Exception types shared across the package, the type check of a record's fields,
and the float value a range check reads."""

import math
import reprlib
from dataclasses import fields
from numbers import Integral, Real


class ShapeError(ValueError):
    """Operands have incompatible or unexpected dimensions."""


class CubeFormatError(ValueError):
    """A cube file is malformed; the message names the offending field."""


class NumericError(RuntimeError):
    """A numeric computation produced non-finite or unusable values."""


class MetricError(ValueError):
    """A quality metric is undefined for the given inputs."""


def as_float(value):
    """``value`` as a float, with an integer beyond float64's range as the infinity of its sign.

    ``float`` raises a bare ``OverflowError`` on such an integer, where a
    range check wants a value it can reject by name.
    """
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def check_fields(record):
    """Check each field of a frozen dataclass against its annotation; a ``ValueError`` names it.

    An ``int`` takes a non-bool integral number and a ``float`` a finite
    non-bool real one, stored as int or float so ``asdict(record)`` is JSON.
    The message abbreviates a long value, so it stays one short line.
    """
    for field in fields(record):
        value = getattr(record, field.name)
        if field.type is int:
            # a bool is an Integral too, and rank=True would run as rank 1
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{field.name} must be an integer, got {reprlib.repr(value)}")
            object.__setattr__(record, field.name, int(value))
        elif field.type is float:
            real = not isinstance(value, bool) and isinstance(value, Real)
            if not (real and math.isfinite(as_float(value))):
                raise ValueError(f"{field.name} must be finite and real, got {reprlib.repr(value)}")
            object.__setattr__(record, field.name, float(value))
        elif not isinstance(value, field.type):
            raise ValueError(f"{field.name} must be {field.type}, got {reprlib.repr(value)}")
