"""Flat binary checkpoint format.

Layout: one compact JSON line, then raw little-endian float32 payloads
concatenated in header order. The header is

    {"tensors": [{"name": ..., "shape": [...], "offset": ...}, ...],
     "config": {...}}      # config key optional

with offsets measured in bytes from the start of the payload (the byte
after the header's newline). Writing the same tensors twice produces
byte-identical files; insertion order of the mapping is preserved.

A save writes a temporary file next to the target and renames it over the
target, so an interrupted save leaves the previous file intact. A load
rejects a payload that is longer or shorter than its tensors.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Mapping

import numpy as np

from .errors import CheckpointError
from .tensor import Tensor

_DTYPE = np.dtype("<f4")


def save_checkpoint(path, tensors: Mapping[str, "Tensor | np.ndarray"],
                    config: dict | None = None) -> None:
    entries = []
    payloads = []
    offset = 0
    for name, t in tensors.items():
        arr = t.data if isinstance(t, Tensor) else np.asarray(t)
        # tobytes() emits C order for any layout; np.ascontiguousarray is
        # avoided because it silently promotes 0-d arrays to 1-d
        arr = np.asarray(arr, dtype=_DTYPE)
        entries.append({"name": str(name), "shape": list(arr.shape), "offset": offset})
        payloads.append(arr.tobytes())
        offset += arr.nbytes
    header: dict = {"tensors": entries}
    if config is not None:
        header["config"] = config
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n"
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(blob)
            for p in payloads:
                f.write(p)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict | None]:
    """Returns (name -> float32 array in header order, config or None)."""
    with open(path, "rb") as f:
        raw = f.read()
    nl = raw.find(b"\n")
    if nl < 0:
        raise CheckpointError(f"{path}: no header line found")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: malformed header: {e}") from e
    if not isinstance(header, dict) or "tensors" not in header:
        raise CheckpointError(f"{path}: header missing 'tensors' key")
    payload = raw[nl + 1:]
    out: dict[str, np.ndarray] = {}
    expected = 0
    for entry in header["tensors"]:
        try:
            name, shape, offset = entry["name"], entry["shape"], entry["offset"]
        except (TypeError, KeyError) as e:
            raise CheckpointError(f"{path}: malformed tensor entry {entry!r}") from e
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * _DTYPE.itemsize
        if offset < 0 or offset + nbytes > len(payload):
            raise CheckpointError(
                f"{path}: tensor {name!r} spans bytes {offset}..{offset + nbytes} "
                f"but payload has {len(payload)}"
            )
        arr = np.frombuffer(payload, dtype=_DTYPE, count=count, offset=offset)
        out[name] = arr.reshape(shape).astype(np.float32)
        expected += nbytes
    if len(payload) != expected:
        raise CheckpointError(
            f"{path}: payload has {len(payload)} bytes, but its tensors "
            f"take {expected}"
        )
    return out, header.get("config")
