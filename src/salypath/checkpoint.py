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
reads the file once, reads the header line by ``data.json_object`` (the
rule of every JSON document), and rejects any header entry whose name is
not a string, whose shape is not a list of non-negative ints or whose
offset is not a non-negative int, a repeated name, and tensors that do not
tile the payload exactly in header order (a gap, an overlap, a payload
longer or shorter than its tensors).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from typing import Mapping

import numpy as np

from .data import json_object
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


def _is_count(v) -> bool:
    return type(v) is int and v >= 0  # JSON true/false are not counts


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict | None]:
    """Returns (name -> float32 array in header order, config or None).

    The payload is read once into one aligned buffer; each array is a
    writable view of its own slice of it, so no two arrays share memory.
    """
    with open(path, "rb") as f:
        line = f.readline()
        if not line.endswith(b"\n"):
            raise CheckpointError(f"{path}: no header line found")
        payload = np.empty(os.fstat(f.fileno()).st_size - len(line), dtype=np.uint8)
        if f.readinto(payload) != payload.size:
            raise CheckpointError(f"{path}: file changed size while being read")
    header = json_object(lambda: line.decode("utf-8"), path, "header", CheckpointError)
    if not isinstance(header.get("tensors"), list):
        raise CheckpointError(f"{path}: header has no 'tensors' list")
    config = header.get("config")
    if config is not None and not isinstance(config, dict):
        raise CheckpointError(f"{path}: header 'config' is not an object")
    out: dict[str, np.ndarray] = {}
    end = 0
    for entry in header["tensors"]:
        try:
            name, shape, offset = entry["name"], entry["shape"], entry["offset"]
        except (TypeError, KeyError) as e:
            raise CheckpointError(f"{path}: malformed tensor entry {entry!r}") from e
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(map(_is_count, shape)) and _is_count(offset)):
            raise CheckpointError(f"{path}: malformed tensor entry {entry!r}")
        if name in out:
            raise CheckpointError(f"{path}: tensor {name!r} appears twice")
        if offset != end:
            raise CheckpointError(
                f"{path}: tensor {name!r} starts at byte {offset}, but the "
                f"tensors before it end at byte {end}"
            )
        end += math.prod(shape) * _DTYPE.itemsize
        if end > payload.size:
            raise CheckpointError(
                f"{path}: tensor {name!r} spans bytes {offset}..{end} "
                f"but payload has {payload.size}"
            )
        try:
            out[name] = payload[offset:end].view(_DTYPE).reshape(shape)
        except ValueError as e:  # more axes than numpy allows
            raise CheckpointError(f"{path}: tensor {name!r}: {e}") from e
    if payload.size != end:
        raise CheckpointError(
            f"{path}: payload has {payload.size} bytes, but its tensors take {end}"
        )
    return out, config
