"""Cube files and small binary outputs.

Cubes travel as NPY version-1.0 files restricted to a fixed profile:
little-endian float32 or float64 payloads, C order, exactly three
dimensions, stored shape (bands, rows, cols).  Bands vary slowest, matching
the in-memory layout, so a cube of I rows, J columns and K bands round
trips as a (K, I, J) array with no axis shuffling; entry (i, j, k) of the
cube sits at linear offset (k*I + i)*J + j.  The header is read and written
by :mod:`numpy.lib.format`, so files written by numpy's own ``save`` load
fine when they meet the profile, and everything written here loads with
``numpy.load``.  float32 payloads are widened to float64 on read.

All writes go through a temp file in the target directory followed by an
atomic rename, so a crashed run never leaves a half-written output behind.
"""

import math
import os
import tempfile
from contextlib import contextmanager
from tokenize import TokenError

import numpy as np
from numpy.lib.format import read_array_header_1_0, read_magic, write_array

from .errors import CubeFormatError, NumericError, ShapeError


@contextmanager
def atomic_write(path):
    """Yield a binary handle on a same-directory temp file renamed onto ``path``.

    The rename happens only when the block completes; if it raises, the temp
    file is removed and any existing ``path`` is left untouched.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    except OSError as exc:  # name the file asked for, not the random temp file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        try:
            os.replace(tmp, path)
        except OSError as exc:  # name path, as above
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_cube(cube, path, dtype="float64"):
    """Atomically write a cube to an NPY v1.0 file.

    ``dtype="float32"`` halves the file at the cost of rounding; reads widen
    back to float64 either way.
    """
    if cube.ndim != 3:
        raise ShapeError(f"expected a (K, I, J) cube, got {cube.ndim} dimensions")
    descr = {"float64": "<f8", "float32": "<f4"}.get(dtype)
    if descr is None:
        raise ValueError(f"dtype must be 'float64' or 'float32', got {dtype!r}")
    data = np.ascontiguousarray(cube, dtype=descr)
    with atomic_write(path) as handle:
        write_array(handle, data, version=(1, 0), allow_pickle=False)


def read_cube(path):
    """Read a cube from an NPY file into a float64 (K, I, J) array.

    Rejects anything outside the documented profile with a
    :class:`CubeFormatError` naming the offending field.
    """
    with open(path, "rb") as handle:
        try:
            major, _ = read_magic(handle)
        except ValueError as exc:
            raise CubeFormatError(f"{path}: magic bytes are not an NPY signature ({exc})") from exc
        if major != 1:
            raise CubeFormatError(f"{path}: version {major}.x is unsupported, need 1.x")
        try:
            shape, fortran, dtype = read_array_header_1_0(handle)
        except (ValueError, TokenError) as exc:  # numpy's header repair tokenizes the text
            raise CubeFormatError(f"{path}: header is truncated or malformed ({exc})") from exc
        if dtype.str not in ("<f8", "<f4"):
            raise CubeFormatError(
                f"{path}: descr {dtype.str!r} is unsupported, need little-endian '<f4' or '<f8'"
            )
        if fortran:
            raise CubeFormatError(f"{path}: fortran_order must be False")
        if len(shape) != 3 or not all(s > 0 for s in shape):
            raise CubeFormatError(f"{path}: shape {shape!r} is not 3-D with positive sizes")
        count = shape[0] * shape[1] * shape[2]
        payload = os.fstat(handle.fileno()).st_size - handle.tell()
        if payload != dtype.itemsize * count:
            raise CubeFormatError(
                f"{path}: payload holds {payload} bytes, header promises {dtype.itemsize * count}"
            )
        cube = np.fromfile(handle, dtype=dtype, count=count).reshape(shape)
    return cube.astype(np.float64, copy=False)


def write_pgm(band, path, lo=0.0, hi=1.0):
    """Write one band as an 8-bit binary graymap.

    Values map linearly from [lo, hi] onto [0, 255] and clamp outside it,
    infinities included.  NaN has no gray level: a band holding one is an
    error and nothing is written.  ``lo``, ``hi`` and ``hi - lo`` must be finite.
    """
    if band.ndim != 2:
        raise ShapeError(f"expected a 2-D band, got {band.ndim} dimensions")
    # a non-finite bound makes the width inf or NaN too
    if not (hi > lo and math.isfinite(float(hi) - float(lo))):
        raise ValueError(f"need finite lo < hi with a finite width hi - lo, got [{lo}, {hi}]")
    nans = int(np.count_nonzero(np.isnan(band)))
    if nans:
        raise NumericError(f"band has NaN at {nans} pixel(s); NaN has no gray level")
    # a value whose distance from lo passes float64's range lies outside
    # [lo, hi], and its inf clamps like any other
    with np.errstate(over="ignore"):
        scaled = np.clip(np.round((band - lo) / (hi - lo) * 255.0), 0, 255).astype(np.uint8)
    with atomic_write(path) as handle:
        handle.write(f"P5\n{band.shape[1]} {band.shape[0]}\n255\n".encode("ascii"))
        handle.write(scaled.tobytes())


def write_text(path, text):
    """Atomically write a small text document (report, sidecar, CSV)."""
    with atomic_write(path) as handle:
        handle.write(text.encode("utf-8"))
