"""Deterministic zip container for draws and checkpoints.

Standard .npz archives embed the current timestamp in their zip entries,
so identical content produces different bytes on every run. This writer
pins all entry metadata, which makes archives byte-identical whenever
their content is identical; that property is part of the reproducibility
contract and is exercised by the test suite.

Members are stored, not deflated: the draws' floats barely compress
(about 5% on a fitted archive's own stick rows), and deflating them cost
most of a save's time.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.format import (dtype_to_descr, header_data_from_array_1_0,
                              read_array_header_1_0, read_magic,
                              write_array_header_1_0)

from .errors import DataError

_EPOCH = (1980, 1, 1, 0, 0, 0)
_SLICE = 1 << 20  # bytes of an array written at once


class Rows(NamedTuple):
    """One float64 .npy member of shape (sum of len(part), *row_shape):
    the parts stacked along their first axis, written part by part with
    no stacked copy."""

    parts: Sequence[np.ndarray]
    row_shape: tuple[int, ...]


def write_container(path, meta: dict,
                    arrays: dict[str, np.ndarray | Rows]) -> None:
    """Write meta (JSON) and named arrays (.npy) into a deterministic zip
    of stored members, each array or Rows part streamed as np.save's
    bytes in 1 MB slices of its buffer (np.save would copy 16 MB chunks
    through tobytes)."""
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr(_entry("meta.json"),
                    json.dumps(meta, sort_keys=True, indent=1).encode())
        for name in sorted(arrays):
            value = arrays[name]
            if isinstance(value, Rows):
                parts = [np.ascontiguousarray(p, dtype=float)
                         for p in value.parts]
                if any(p.shape[1:] != value.row_shape for p in parts):
                    raise ValueError(f"{name}: a part's rows are not "
                                     f"{value.row_shape}")
                header = {"descr": dtype_to_descr(np.dtype(float)),
                          "fortran_order": False,
                          "shape": (sum(len(p) for p in parts),
                                    *value.row_shape)}
            else:
                parts = [np.ascontiguousarray(value)]
                header = header_data_from_array_1_0(parts[0])
            big = sum(p.nbytes for p in parts) * 1.05 > zipfile.ZIP64_LIMIT
            with zf.open(_entry(name + ".npy"), "w", force_zip64=big) as out:
                write_array_header_1_0(out, header)
                for part in parts:
                    data = part.reshape(-1).view(np.uint8)
                    for lo in range(0, data.size, _SLICE):
                        out.write(data[lo:lo + _SLICE])


def _entry(name: str) -> zipfile.ZipInfo:
    info = zipfile.ZipInfo(name, date_time=_EPOCH)
    info.compress_type = zipfile.ZIP_STORED
    info.external_attr = 0o644 << 16
    return info


def read_container(path, fmt: str, version: int, names, remedy: str,
                   rows: dict | None = None
                   ) -> tuple[dict, dict[str, np.ndarray]]:
    """Read meta and the arrays in names, in that order, from a
    write_container zip. A member named in rows is read by its reader:
    rows[name](name, dtype, shape, arrays), given the member's stored
    dtype and shape and the arrays read before it, returns the array it
    reads as and the C-contiguous float64 views, in order, that its data
    fills; every other member is read by np.load.

    Raises DataError unless its meta names format fmt at this version
    (naming the version found, then remedy) and it holds every array in
    names, naming any that is missing, or when a member fails its CRC,
    its .npy header or its length.
    """
    try:
        with zipfile.ZipFile(path, "r") as zf:
            members = zf.namelist()
            if "meta.json" not in members:
                raise DataError(f"{path}: not a diffmix archive (no meta.json)")
            meta = json.loads(zf.read("meta.json").decode())
            if (meta.get("format"), meta.get("version")) != (fmt, version):
                raise DataError(f"{path}: not a {fmt} archive at version "
                                f"{version} (found {meta.get('format')} "
                                f"version {meta.get('version')}); {remedy}")
            missing = [name for name in names if name + ".npy" not in members]
            if missing:
                raise DataError(f"{path}: {fmt} archive lacks "
                                f"{', '.join(missing)}")
            arrays = {}
            for name in names:  # streamed: no copy of a member's bytes
                with zf.open(name + ".npy") as member:
                    if rows and name in rows:
                        arrays[name] = _read_rows(member, name, rows[name],
                                                  arrays)
                    else:
                        arrays[name] = np.load(member, allow_pickle=False)
            return meta, arrays
    except (OSError, zipfile.BadZipFile, zlib.error, ValueError) as exc:
        raise DataError(f"cannot read archive {path}: {exc}") from exc


def _read_rows(member, name: str, reader, arrays: dict) -> np.ndarray:
    """The array of a Rows member, its data read into the reader's views;
    ValueError unless it has the 1.0 C-order header write_container
    writes and its data fills the views exactly, which also runs the
    member's CRC check."""
    if read_magic(member) != (1, 0):
        raise ValueError(f"{name} has an .npy header version other than 1.0")
    shape, fortran, dtype = read_array_header_1_0(member)
    if fortran and len(shape) > 1:
        raise ValueError(f"{name} is stored in Fortran order")
    array, parts = reader(name, dtype, shape, arrays)
    for part in parts:
        view = memoryview(part).cast("B")
        got = 0
        while got < len(view):
            n = member.readinto(view[got:])
            if not n:
                raise ValueError(f"{name} ends before its {shape} rows")
            got += n
    if member.read(1):
        raise ValueError(f"{name} holds more than its {shape} rows")
    return array
