"""Exception types shared across the package, and the type check of a record's fields."""

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
            try:
                real = real and math.isfinite(value)
            except OverflowError:  # an integer beyond the float range
                real = False
            if not real:
                raise ValueError(f"{field.name} must be finite and real, got {reprlib.repr(value)}")
            object.__setattr__(record, field.name, float(value))
        elif not isinstance(value, field.type):
            raise ValueError(f"{field.name} must be {field.type}, got {reprlib.repr(value)}")
