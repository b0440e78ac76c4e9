"""Cube file round-trips, format validation, and PGM export."""

import os
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from hsidenoise.errors import CubeFormatError
from hsidenoise.io import atomic_write, read_cube, write_cube, write_pgm


def npy_bytes(descr, fortran_order, shape, payload, version=(1, 0)):
    """Assemble NPY bytes by hand so the reader is tested against raw layout."""
    header = "{'descr': %r, 'fortran_order': %s, 'shape': %s, }" % (
        descr,
        fortran_order,
        shape,
    )
    base = 6 + 2 + 2  # magic, version, header length field
    pad = 64 - ((base + len(header) + 1) % 64)
    header = header + " " * pad + "\n"
    out = b"\x93NUMPY" + bytes(version) + struct.pack("<H", len(header))
    return out + header.encode("latin1") + payload


def test_round_trip_is_bit_exact(tmp_path, rng):
    cube = rng.standard_normal((5, 7, 9))
    path = tmp_path / "cube.npy"
    write_cube(cube, path)
    back = read_cube(path)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, cube)


def test_float32_widens_on_read(tmp_path, rng):
    cube = rng.random((3, 4, 4))
    path = tmp_path / "cube32.npy"
    write_cube(cube, path, dtype="float32")
    back = read_cube(path)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, cube.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("descr, dtype", [("<f8", "float64"), ("<f4", "float32")])
def test_written_bytes_match_hand_assembled_layout(tmp_path, rng, descr, dtype):
    cube = rng.standard_normal((3, 5, 4))
    path = tmp_path / "cube.npy"
    write_cube(cube, path, dtype=dtype)
    payload = cube.astype(descr).tobytes()
    assert path.read_bytes() == npy_bytes(descr, False, (3, 5, 4), payload)


@pytest.mark.parametrize("dtype, bound", [("float64", 1.1), ("float32", 1.6)])
def test_read_allocates_little_beyond_the_result(tmp_path, rng, dtype, bound):
    # the payload is read straight into its array, and float64 files are not
    # copied again on the way out
    path = tmp_path / "cube.npy"
    write_cube(rng.random((16, 64, 64)), path, dtype=dtype)
    tracemalloc.start()
    try:
        cube = read_cube(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * cube.nbytes


def test_numpy_reads_our_files(tmp_path, rng):
    cube = rng.standard_normal((4, 6, 5))
    path = tmp_path / "ours.npy"
    write_cube(cube, path)
    loaded = np.load(path)
    assert loaded.shape == (4, 6, 5)
    np.testing.assert_array_equal(loaded, cube)


def test_we_read_numpy_files(tmp_path, rng):
    cube = rng.standard_normal((4, 6, 5))
    path = tmp_path / "theirs.npy"
    np.save(path, cube)
    np.testing.assert_array_equal(read_cube(path), cube)


def test_hand_assembled_fixture(tmp_path):
    cube = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
    raw = npy_bytes("<f8", False, (2, 3, 4), cube.tobytes())
    path = tmp_path / "fixture.npy"
    path.write_bytes(raw)
    np.testing.assert_array_equal(read_cube(path), cube)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.npy"
    path.write_bytes(b"\x93NUMPZ" + b"\x00" * 64)
    with pytest.raises(CubeFormatError, match="magic"):
        read_cube(path)


def test_unsupported_major_version(tmp_path):
    cube = np.zeros((1, 2, 2))
    raw = npy_bytes("<f8", False, (1, 2, 2), cube.tobytes(), version=(2, 0))
    path = tmp_path / "v2.npy"
    path.write_bytes(raw)
    with pytest.raises(CubeFormatError, match="version"):
        read_cube(path)


def test_rejected_dtype(tmp_path):
    payload = np.zeros((1, 2, 2), dtype=np.int64).tobytes()
    path = tmp_path / "int.npy"
    path.write_bytes(npy_bytes("<i8", False, (1, 2, 2), payload))
    with pytest.raises(CubeFormatError, match="descr"):
        read_cube(path)


def test_rejected_fortran_order(tmp_path):
    cube = np.zeros((1, 2, 2))
    path = tmp_path / "fortran.npy"
    path.write_bytes(npy_bytes("<f8", True, (1, 2, 2), cube.tobytes()))
    with pytest.raises(CubeFormatError, match="fortran_order"):
        read_cube(path)


def test_rejected_rank(tmp_path):
    mat = np.zeros((3, 3))
    path = tmp_path / "flat.npy"
    path.write_bytes(npy_bytes("<f8", False, (3, 3), mat.tobytes()))
    with pytest.raises(CubeFormatError, match="shape"):
        read_cube(path)


def test_truncated_payload(tmp_path):
    cube = np.zeros((2, 3, 4))
    raw = npy_bytes("<f8", False, (2, 3, 4), cube.tobytes()[:-16])
    path = tmp_path / "short.npy"
    path.write_bytes(raw)
    with pytest.raises(CubeFormatError, match="payload"):
        read_cube(path)


def test_trailing_bytes(tmp_path):
    cube = np.zeros((2, 3, 4))
    raw = npy_bytes("<f8", False, (2, 3, 4), cube.tobytes() + b"\x00" * 8)
    path = tmp_path / "long.npy"
    path.write_bytes(raw)
    with pytest.raises(CubeFormatError, match="payload"):
        read_cube(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "stub.npy"
    path.write_bytes(b"\x93NUMPY\x01\x00")
    with pytest.raises(CubeFormatError):
        read_cube(path)


@pytest.mark.parametrize(
    "text",
    [
        "{'descr': '<f8', 'fortran_order': False, 'shape': (2, 3",
        "{'descr': '<f8', 'shape': (1, 2, 2), }",
        "[1, 2, 2]",
    ],
)
def test_malformed_header_text(tmp_path, text):
    text = text + "\n"
    raw = b"\x93NUMPY\x01\x00" + struct.pack("<H", len(text)) + text.encode("latin1")
    path = tmp_path / "bad_header.npy"
    path.write_bytes(raw + np.zeros(4).tobytes())
    with pytest.raises(CubeFormatError, match="header"):
        read_cube(path)


def test_write_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        write_cube(np.zeros((3, 3)), tmp_path / "x.npy")
    with pytest.raises(ValueError):
        write_cube(np.zeros((2, 2, 2)), tmp_path / "x.npy", dtype="int32")


def test_atomic_write_replaces_whole_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old contents that are longer")
    with atomic_write(path) as handle:
        handle.write(b"new")
    assert path.read_bytes() == b"new"
    # no temp files left behind
    assert os.listdir(tmp_path) == ["out.bin"]


def test_failed_atomic_write_keeps_old_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError, match="boom"):
        with atomic_write(path) as handle:
            handle.write(b"partial")
            raise RuntimeError("boom")
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_atomic_write_into_a_missing_directory_names_the_path_asked_for(tmp_path):
    # not the random name of the temp file it could not open
    path = tmp_path / "missing" / "out.bin"
    with pytest.raises(FileNotFoundError) as caught:
        with atomic_write(path) as handle:
            handle.write(b"new")
    assert caught.value.filename == str(path)
    assert os.listdir(tmp_path) == []


def test_atomic_write_onto_a_directory_names_it(tmp_path):
    # the failed rename names the directory asked for, not the temp file,
    # and the temp file is gone
    path = tmp_path / "out"
    path.mkdir()
    with pytest.raises(IsADirectoryError) as caught:
        with atomic_write(path) as handle:
            handle.write(b"new")
    assert caught.value.filename == str(path) and caught.value.filename2 is None
    assert os.listdir(tmp_path) == ["out"] and os.listdir(path) == []


def test_pgm_constant_band(tmp_path):
    band = np.full((5, 7), 0.5)
    path = tmp_path / "band.pgm"
    write_pgm(band, path, lo=0.0, hi=1.0)
    raw = path.read_bytes()
    header = b"P5\n7 5\n255\n"
    assert raw.startswith(header)
    pixels = np.frombuffer(raw[len(header):], dtype=np.uint8)
    assert pixels.shape == (35,)
    assert np.all(pixels == 128)


def test_pgm_clamps_out_of_range(tmp_path):
    band = np.array([[-1.0, 0.0], [1.0, 2.0]])
    path = tmp_path / "clamp.pgm"
    write_pgm(band, path, lo=0.0, hi=1.0)
    raw = path.read_bytes()
    pixels = np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8)
    np.testing.assert_array_equal(pixels, [0, 0, 255, 255])


def test_pgm_default_range_spans_band(tmp_path, rng):
    band = rng.random((6, 6)) * 3.0 - 1.0
    path = tmp_path / "auto.pgm"
    write_pgm(band, path)
    raw = path.read_bytes()
    pixels = np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8)
    assert pixels.min() == 0 and pixels.max() == 255


def test_pgm_clamps_values_whose_distance_from_lo_overflows(tmp_path):
    # 1.7e308 - lo passes float64's range; that value lies above hi and
    # clamps to 255 with no warning, as -1.7e308 clamps to 0
    path = tmp_path / "band.pgm"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_pgm(np.array([[1.7e308, -1.7e308]]), path, lo=-1e308, hi=1e307)
    pixels = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
    np.testing.assert_array_equal(pixels, [255, 0])


@pytest.mark.parametrize(
    "lo, hi", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.nan), (-1e308, 1e308)]
)
def test_pgm_rejects_non_finite_range(tmp_path, lo, hi):
    # an infinite bound, or finite bounds whose width hi - lo is inf, would
    # map every finite value to one gray level
    path = tmp_path / "band.pgm"
    with pytest.raises(ValueError, match="finite"):
        write_pgm(np.full((4, 4), 0.5), path, lo=lo, hi=hi)
    assert not path.exists()
