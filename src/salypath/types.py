"""Shared domain types.

Coordinate conventions, used consistently everywhere:

* A scanpath is an [N, 2] float32 array of (x, y) points normalized to
  [0, 1]^2, x along width. The one reader of normalized points from
  outside, ``data.read_scanpath_csv``, rejects a value that is not finite
  or lies outside [0, 1].
* Pixel mapping: row = round(y * (H-1)), col = round(x * (W-1)), clamped
  (``norm_to_pixel``); float pixels are x*(W-1), y*(H-1)
  (``norm_to_pixel_xy``), and ``pixel_to_norm`` divides by (size - 1).
* Saliency maps are [H, W] float32 arrays with values in [0, 1];
  ``data.write_pgm`` rejects a non-finite one.
* A fixation set is a [K, 2] integer array of (row, col) pixels on the
  grid of the map it scores; duplicates count with multiplicity, and
  ``pool_fixations`` pools scanpaths into one.

Every loss, metric and writer reads its map, path and fixation arguments
through ``map_values``, ``path_points`` and ``fixation_set``, and a
prediction with its ground-truth map through ``map_pair``, so each input
kind has one rule and one error.
"""

from __future__ import annotations

import dataclasses
import functools
import typing

import numpy as np

from .errors import ConfigError, ContractError, DimensionError


def map_values(x, caller: str) -> np.ndarray:
    """An array-like map as an array, uncast; anything but [H, W] raises
    DimensionError naming ``caller``."""
    v = np.asarray(x)
    if v.ndim != 2:
        raise DimensionError(f"{caller}: expected a [H, W] map, got shape {v.shape}")
    return v


def map_pair(pred, gt, caller: str) -> tuple[np.ndarray, np.ndarray]:
    """``map_values`` of a prediction and a ground-truth map; maps on
    different grids raise DimensionError naming ``caller``."""
    p, g = map_values(pred, caller), map_values(gt, caller)
    if p.shape != g.shape:
        raise DimensionError(f"{caller}: pred {p.shape} vs gt {g.shape} shape mismatch")
    return p, g


def path_points(x, caller: str) -> np.ndarray:
    """An array-like path as float64; anything but [N, 2] raises
    DimensionError naming ``caller``."""
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DimensionError(f"{caller}: expected [N, 2] points, got shape {pts.shape}")
    return pts


def fixation_set(x, shape: tuple[int, int], caller: str) -> np.ndarray:
    """[K, 2] integer (row, col) pixels on the (H, W) grid ``shape`` as
    int64. Anything but [K, 2] integers (a float mask, say) raises
    DimensionError, and an empty set or a pixel off the grid ContractError,
    naming ``caller``."""
    pts = np.asarray(x)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.dtype.kind not in "iu":
        raise DimensionError(f"{caller}: expected [K, 2] integer (row, col) pixels, "
                             f"got {pts.dtype} {pts.shape}")
    pts = pts.astype(np.int64)
    if not pts.shape[0]:
        raise ContractError(f"{caller}: empty fixation set")
    for axis, (side, extent) in enumerate((("row", "height"), ("col", "width"))):
        if pts[:, axis].min() < 0 or pts[:, axis].max() >= shape[axis]:
            raise ContractError(f"{caller}: {side} out of bounds for {extent} {shape[axis]}")
    return pts


def norm_to_pixel(points, width: int, height: int) -> np.ndarray:
    """Map normalized (x, y) points to integer (row, col) pixels."""
    pts = path_points(points, "norm_to_pixel")
    cols = np.clip(np.round(pts[:, 0] * (width - 1)), 0, width - 1).astype(np.int64)
    rows = np.clip(np.round(pts[:, 1] * (height - 1)), 0, height - 1).astype(np.int64)
    return np.stack([rows, cols], axis=1)


def pool_fixations(paths, width: int, height: int) -> np.ndarray:
    """Every point of every scanpath as [K, 2] int64 (row, col) pixels,
    duplicates kept; no paths give an empty [0, 2] array."""
    return np.concatenate([np.zeros((0, 2), np.int64),
                           *(norm_to_pixel(p, width, height) for p in paths)])


def norm_to_pixel_xy(points, width: int, height: int) -> np.ndarray:
    """Map normalized (x, y) points to float64 pixel (x, y) coordinates:
    x*(W-1), y*(H-1)."""
    pts = path_points(points, "norm_to_pixel_xy")
    return np.stack([pts[:, 0] * (width - 1), pts[:, 1] * (height - 1)], axis=1)


def pixel_to_norm(xy_pixels, width: int, height: int) -> np.ndarray:
    """Map pixel (x, y) coordinates to normalized [0,1]^2 (x, y), clipping
    finite ones; a NaN or infinite coordinate raises ContractError."""
    pts = path_points(xy_pixels, "pixel_to_norm")
    if not np.isfinite(pts).all():
        raise ContractError("pixel_to_norm: pixel coordinates must be finite")
    sx = max(width - 1, 1)
    sy = max(height - 1, 1)
    out = np.stack([pts[:, 0] / sx, pts[:, 1] / sy], axis=1)
    return np.clip(out, 0.0, 1.0).astype(np.float32)


@functools.cache
def _field_types(cls) -> dict[str, object]:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def config_from_dict(cls, d):
    """Build the config dataclass ``cls`` from a JSON-shaped dict.

    Every field must be present and no other key; values must match the
    field's declared type: a bool is a real bool, an int is an int (or a
    numpy integer) and not a bool, a float takes any such int or a float,
    a ``tuple[...]`` takes a list (or tuple) checked element by element,
    and a nested dataclass takes an instance or a dict read the same way.
    Any violation raises ConfigError naming ``Class.field``
    (``Class.field[i]`` for an element, ``Class.field.sub`` for a nested
    field); the class's own ``__post_init__`` then checks the values.
    """
    return _read(cls, d, cls.__name__)


def read_fields(config) -> None:
    """Read every field of the config dataclass instance ``config`` by
    ``config_from_dict``'s rules and store what was read (a list as a
    tuple, an int in a float field as a float, a numpy number as a Python
    one), so a constructor call and a config dict share one set of type
    rules. Each config's ``__post_init__`` calls it first."""
    cls = type(config)
    for name, tp in _field_types(cls).items():
        value = _read(tp, getattr(config, name), f"{cls.__name__}.{name}")
        object.__setattr__(config, name, value)  # the configs are frozen


# the values each number field takes, stored as the field's Python type
_NUMBERS = {int: (int, np.integer), float: (int, float, np.integer, np.floating)}


def _is_number(tp, v) -> bool:
    return isinstance(v, _NUMBERS[tp]) and not isinstance(v, bool)


def check_int(value, where: str) -> int:
    """``value`` as an int by the config int rule (a numpy integer passes; a
    float or a bool raises ConfigError): layer sizes outside any config."""
    if not _is_number(int, value):
        raise ConfigError(f"{where} must be an int, got {value!r}")
    return int(value)


def _read(tp, v, where: str):
    if tp in _NUMBERS and _is_number(tp, v):
        return tp(v)
    if type(v) is tp:  # str, bool and nested config fields
        return v
    if typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        if not isinstance(v, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {v!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(v)
        elif len(v) != len(args):
            raise ConfigError(f"{where}: expected a list of {len(args)}, got {v!r}")
        return tuple(_read(t, x, f"{where}[{i}]") for i, (t, x) in enumerate(zip(args, v)))
    if dataclasses.is_dataclass(tp):
        if not isinstance(v, dict):
            raise ConfigError(f"{where}: expected an object, got {v!r}")
        types = _field_types(tp)
        for key in [*v, *types]:
            if (key in v) != (key in types):
                raise ConfigError(f"{where}.{key}: {'unknown' if key in v else 'missing'} field")
        return tp(**{k: _read(t, v[k], f"{where}.{k}") for k, t in types.items()})
    raise ConfigError(f"{where}: expected {tp.__name__}, got {v!r}")
