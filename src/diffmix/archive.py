"""Deterministic zip container for draws and checkpoints.

Standard .npz archives embed the current timestamp in their zip entries,
so identical content produces different bytes on every run. This writer
pins all entry metadata, which makes archives byte-identical whenever
their content is identical; that property is part of the reproducibility
contract and is exercised by the test suite.
"""

from __future__ import annotations

import io
import json
import zipfile

import numpy as np

from .errors import DataError

_EPOCH = (1980, 1, 1, 0, 0, 0)


def write_container(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write meta (JSON) and named arrays (.npy) into a deterministic zip."""
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED,
                         compresslevel=6) as zf:
        _writestr(zf, "meta.json",
                  json.dumps(meta, sort_keys=True, indent=1).encode())
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.save(buf, np.ascontiguousarray(arrays[name]))
            _writestr(zf, name + ".npy", buf.getvalue())


def _writestr(zf: zipfile.ZipFile, name: str, payload: bytes) -> None:
    info = zipfile.ZipInfo(name, date_time=_EPOCH)
    info.compress_type = zipfile.ZIP_DEFLATED
    info.external_attr = 0o644 << 16
    zf.writestr(info, payload)


def read_container(path, fmt: str, version: int,
                   names) -> tuple[dict, dict[str, np.ndarray]]:
    """Read meta and the arrays in names from a write_container zip.

    Raises DataError unless its meta names format fmt at this version
    and it holds every array in names, naming any that is missing.
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
            return meta, {name: np.load(io.BytesIO(zf.read(name + ".npy")),
                                        allow_pickle=False) for name in names}
    except (OSError, zipfile.BadZipFile) as exc:
        raise DataError(f"cannot read archive {path}: {exc}") from exc
