"""Deterministic zip container for draws and checkpoints.

Standard .npz archives embed the current timestamp in their zip entries,
so identical content produces different bytes on every run. This writer
pins all entry metadata, which makes archives byte-identical whenever
their content is identical; that property is part of the reproducibility
contract and is exercised by the test suite.
"""

from __future__ import annotations

import json
import zipfile
import zlib

import numpy as np
from numpy.lib.format import (header_data_from_array_1_0,
                              write_array_header_1_0)

from .errors import DataError

_EPOCH = (1980, 1, 1, 0, 0, 0)
_SLICE = 1 << 20  # bytes of an array passed to the compressor at once


def write_container(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write meta (JSON) and named arrays (.npy) into a deterministic zip,
    each array streamed as np.save's bytes in 1 MB slices of its buffer
    (np.save would copy 16 MB chunks through tobytes)."""
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED,
                         compresslevel=6) as zf:
        zf.writestr(_entry("meta.json"),
                    json.dumps(meta, sort_keys=True, indent=1).encode())
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name])
            data = arr.reshape(-1).view(np.uint8)
            big = data.size * 1.05 > zipfile.ZIP64_LIMIT  # writestr's rule
            with zf.open(_entry(name + ".npy"), "w", force_zip64=big) as out:
                write_array_header_1_0(out, header_data_from_array_1_0(arr))
                for lo in range(0, data.size, _SLICE):
                    out.write(data[lo:lo + _SLICE])


def _entry(name: str) -> zipfile.ZipInfo:
    info = zipfile.ZipInfo(name, date_time=_EPOCH)
    info.compress_type = zipfile.ZIP_DEFLATED
    info.external_attr = 0o644 << 16
    return info


def read_container(path, fmt: str, version: int,
                   names) -> tuple[dict, dict[str, np.ndarray]]:
    """Read meta and the arrays in names from a write_container zip.

    Raises DataError unless its meta names format fmt at this version
    and it holds every array in names, naming any that is missing, or
    when a member fails its CRC or decompression.
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
                                f"version {meta.get('version')}); rewrite it")
            missing = [name for name in names if name + ".npy" not in members]
            if missing:
                raise DataError(f"{path}: {fmt} archive lacks "
                                f"{', '.join(missing)}")
            arrays = {}
            for name in names:  # streamed: no copy of a member's bytes
                with zf.open(name + ".npy") as member:
                    arrays[name] = np.load(member, allow_pickle=False)
            return meta, arrays
    except (OSError, zipfile.BadZipFile, zlib.error) as exc:
        raise DataError(f"cannot read archive {path}: {exc}") from exc
