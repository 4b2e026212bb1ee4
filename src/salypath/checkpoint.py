"""Flat binary checkpoint format.

Layout: one compact JSON line, ``{"config": {...}}`` and nothing else, then
the parameters as raw little-endian float32 values, concatenated in the
order they are given (``SalypathModel.parameters()``' make order). The
config is the only layout: it fixes every parameter's name, shape and
place, so the header lists no tensors. Saving the same arrays twice
produces byte-identical files.

A save writes a temporary file next to the target and renames it over the
target, so an interrupted save leaves the previous file intact. A load
reads the file once into one aligned buffer, reads the header line by
``data.json_object`` (the rule of every JSON document), and rejects a
header that is not exactly one ``config`` object and a payload that is not
whole float32 values. Laying the payload out is ``SalypathModel.load``'s
work.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

from .data import json_object
from .errors import CheckpointError

_DTYPE = np.dtype("<f4")


def save_checkpoint(path, arrays, config: dict) -> None:
    """Write ``config`` and then each of ``arrays`` (in C order, as float32)."""
    blob = json.dumps({"config": config}, separators=(",", ":")).encode("utf-8") + b"\n"
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(blob)
            for arr in arrays:
                # tobytes() emits C order for any layout, 0-d arrays included
                f.write(np.asarray(arr, dtype=_DTYPE).tobytes())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> tuple[np.ndarray, dict]:
    """Returns (the payload as one flat writable float32 array, config)."""
    with open(path, "rb") as f:
        line = f.readline()
        if not line.endswith(b"\n"):
            raise CheckpointError(f"{path}: no header line found")
        payload = np.empty(os.fstat(f.fileno()).st_size - len(line), dtype=np.uint8)
        if f.readinto(payload) != payload.size:
            raise CheckpointError(f"{path}: file changed size while being read")
    header = json_object(lambda: line.decode("utf-8"), path, "header", CheckpointError)
    if list(header) != ["config"] or not isinstance(header["config"], dict):
        raise CheckpointError(f"{path}: header must hold one 'config' object and nothing else")
    if payload.size % _DTYPE.itemsize:
        raise CheckpointError(
            f"{path}: payload of {payload.size} bytes is not whole float32 values")
    return payload.view(_DTYPE), header["config"]
