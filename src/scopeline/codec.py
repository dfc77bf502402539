"""JSON codec of the run inputs: pipeline configs, stream manifests, run manifests.

:func:`to_json` writes a dataclass as an object of its fields, nested
dataclasses as objects and tuples as arrays; :func:`from_json` is its strict
inverse. An absent key takes the field default, an unknown key is an error,
and each leaf must already have its field's JSON type (:func:`geometry.json_field`):

* an ``int`` is a JSON integer, so ``7.9`` and ``true`` are rejected, not rounded;
* a ``float`` is a finite :data:`geometry.JSON_NUMBER`, stored as a float;
* a ``str`` is a JSON string.

A field typed as a union of dataclasses carries a ``kind`` key: the ``KIND``
class attribute of its member. Keys that older versions wrote and that a
dataclass no longer has are listed in its ``RETIRED_KEYS``, and dropped.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from types import NoneType, UnionType
from typing import Mapping, get_args, get_origin, get_type_hints

from .errors import ConfigError
from .geometry import JSON_NUMBER, json_field


def read_json(path: Path, error: type[Exception] = ConfigError):
    """The JSON value in the UTF-8 file at ``path``."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{path}: invalid JSON: {exc}") from exc


def _kinds(value_type) -> dict[str, type] | None:
    """The members of a union of dataclasses by their ``KIND``; None for any other type."""
    members = [t for t in get_args(value_type) if t is not NoneType]
    return {t.KIND: t for t in members} if get_origin(value_type) is UnionType and len(members) > 1 else None


def to_json(value):
    """The JSON form of a dataclass, tuple or leaf value."""
    if isinstance(value, tuple):
        return [to_json(item) for item in value]
    if not is_dataclass(value):
        return value
    hints = get_type_hints(type(value))
    out = {}
    for field in fields(value):
        item = getattr(value, field.name)
        out[field.name] = {"kind": item.KIND, **to_json(item)} if _kinds(hints[field.name]) else to_json(item)
    return out


def from_json(value_type, raw, where: str, error: type[Exception] = ConfigError):
    """The ``value_type`` value whose :func:`to_json` form is ``raw``.

    A fault raises ``error``, naming its dotted path below ``where``; a
    dataclass's own checks raise what they raise.
    """
    kinds = _kinds(value_type)
    if kinds:
        if not isinstance(raw, Mapping) or not isinstance(raw.get("kind"), str) or raw["kind"] not in kinds:
            raise error(f"{where} must be an object whose 'kind' is one of {sorted(kinds)}")
        return from_json(kinds[raw["kind"]], {k: v for k, v in raw.items() if k != "kind"}, where, error)
    if get_origin(value_type) is UnionType:  # an optional value
        present = next(t for t in get_args(value_type) if t is not NoneType)
        return None if raw is None else from_json(present, raw, where, error)
    if is_dataclass(value_type):
        if not isinstance(raw, Mapping):
            raise error(f"{where} must be a JSON object")
        names = {field.name for field in fields(value_type)}
        unknown = set(raw) - names - set(getattr(value_type, "RETIRED_KEYS", ()))
        if unknown:
            raise error(f"unknown {where} keys: {sorted(unknown)}")
        missing = [f.name for f in fields(value_type) if f.name not in raw and f.default is MISSING]
        if missing:
            raise error(f"{where} lacks required keys {missing}")
        hints = get_type_hints(value_type)
        return value_type(**{k: from_json(hints[k], raw[k], f"{where}.{k}", error) for k in raw if k in names})
    if get_origin(value_type) is tuple:
        item_types = get_args(value_type)
        if not isinstance(raw, (list, tuple)):
            raise error(f"{where} must be a JSON array, got {raw!r}")
        if item_types[-1] is Ellipsis:
            item_types = (item_types[0],) * len(raw)
        elif len(raw) != len(item_types):
            raise error(f"{where} must hold {len(item_types)} values, got {raw!r}")
        return tuple(from_json(t, item, f"{where}[{i}]", error) for i, (t, item) in enumerate(zip(item_types, raw)))
    try:
        # A one-key record, so that json_field's message names the whole path.
        value = json_field({where: raw}, where, JSON_NUMBER if value_type is float else value_type)
        if value_type is float:
            value = float(value)  # OverflowError past the largest float
    except (TypeError, OverflowError) as exc:
        raise error(str(exc) if isinstance(exc, TypeError) else f"{where}: {exc}") from exc
    if value_type is float and not math.isfinite(value):
        raise error(f"{where} must be a finite number, got {raw!r}")
    return value
