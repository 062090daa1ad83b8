"""The field table: one loader and one emitter for every JSON-facing dataclass.

A class that crosses JSON — the scenario sections, the campaign spec, the
traces, the stored campaign record — inherits :class:`Schema` and declares
each field exactly once with :func:`spec_field`: the *kind* of JSON value it
holds and one bit, *pinned* or not.  ``from_dict`` and ``to_dict`` walk
``dataclasses.fields`` of the class; nothing else lists field names.

**Canonical form (two emission modes).**  A *pinned* field is always
emitted.  Any other field is emitted only when its JSON form differs from
its default's — so a field added later cannot move an existing digest unless
someone writes ``pinned=True``.  A field without a default is required and
must be pinned.

**Type policy.**  The loader is strict; nothing is converted by guessing.

========================  ================================================
kind                      accepts
========================  ================================================
``int``                   a JSON integer (not ``true``, ``3.0`` or ``"3"``)
``float``                 a JSON integer or float, finite; becomes ``float``
``str``                   a string
``bool``                  ``true`` or ``false``
``dict``                  free-form JSON under string keys (``params``):
                          finite numbers, strings, booleans, ``null``,
                          lists and string-keyed mappings; copied
``[kind]`` / ``(kind,)``  a list of that kind, loaded as a list / a tuple
a :class:`Schema` class   a mapping, loaded by that class (a nested section)
a codec                   the kind its ``json`` attribute names, converted
                          by its ``load(value, where)`` / ``emit(value)``
========================  ================================================

``null`` is accepted only where the field's default is ``None``.  The one
exception to *finite*: a field declared ``allow_inf=True``
(``runtime.deadline``) also accepts the string ``"inf"``, and ``+inf`` is
always written as that string — JSON has no Infinity literal.  Unknown keys,
missing required keys and every type mismatch raise
:class:`~repro.exceptions.ConfigurationError` naming the dotted location
(``scenario.runtime.partial must be true or false, got str 'false'``,
``unknown key(s) ['scenario.pipeline.vote_tolerance']; ...``).
``__post_init__`` validators run after the loader and own the value ranges;
the loader prefixes what one refuses with the section's dotted location
(``scenario.pipeline: unknown pipeline kind 'foo'; ...``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import reprlib
from collections.abc import Mapping
from typing import Any

from repro.exceptions import ConfigurationError

__all__ = ["spec_field", "Schema"]


def spec_field(kind: Any, *, pinned: bool = False, allow_inf: bool = False, **kwargs: Any) -> Any:
    """Declare one JSON-facing dataclass field: the ``kind`` of JSON value it
    holds and whether it is ``pinned`` (always emitted) or emitted only when
    it differs from its default.

    The kinds and the one ``allow_inf`` exception are tabulated in the module
    docstring; ``kwargs`` go to :func:`dataclasses.field` (``default`` or
    ``default_factory``).
    """
    if not pinned and not {"default", "default_factory"} & set(kwargs):
        raise TypeError("a field without a default is required and must be pinned")
    metadata = {"kind": kind, "pinned": pinned, "allow_inf": allow_inf}
    return dataclasses.field(metadata=metadata, **kwargs)


def _default(field: dataclasses.Field) -> Any:
    if field.default_factory is not dataclasses.MISSING:
        return field.default_factory()
    return field.default


def _reject(where: str, expected: str, value: Any) -> ConfigurationError:
    return ConfigurationError(
        f"{where} must be {expected}, got {type(value).__name__} {reprlib.repr(value)}"
    )


def _load_json(value: Any, where: str) -> Any:
    """A copy of free-form JSON; anything JSON cannot hold is rejected."""
    if isinstance(value, Mapping):
        if not all(isinstance(key, str) for key in value):
            raise _reject(where, "a mapping with string keys", value)
        return {key: _load_json(item, f"{where}.{key}") for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_load_json(item, f"{where}[{i}]") for i, item in enumerate(value))
    if isinstance(value, float) and not math.isfinite(value):
        raise _reject(where, "a finite number", value)
    if value is not None and not isinstance(value, (bool, int, float, str)):
        raise _reject(where, "a JSON value", value)
    return value


def _load_value(kind: Any, value: Any, where: str, allow_inf: bool = False) -> Any:
    if kind is bool:
        if not isinstance(value, bool):
            raise _reject(where, "true or false", value)
    elif kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise _reject(where, "an integer", value)
    elif kind is float:
        if allow_inf and value == "inf":
            return math.inf
        if (
            not isinstance(value, (int, float))
            or isinstance(value, bool)
            or not math.isfinite(value)
        ):
            expected = 'a finite number or "inf"' if allow_inf else "a finite number"
            raise _reject(where, expected, value)
        return float(value)
    elif kind is str:
        if not isinstance(value, str):
            raise _reject(where, "a string", value)
    elif kind is dict:
        if not isinstance(value, Mapping):
            raise _reject(where, "a mapping with string keys", value)
        return _load_json(value, where)
    elif isinstance(kind, (list, tuple)):
        if not isinstance(value, (list, tuple)):
            raise _reject(where, "a list", value)
        return type(kind)(
            _load_value(kind[0], item, f"{where}[{i}]") for i, item in enumerate(value)
        )
    elif isinstance(kind, type) and issubclass(kind, Schema):
        return _load(kind, value, where)
    else:
        return kind.load(_load_value(kind.json, value, where), where)
    return value


def _load(cls: type, data: Any, where: str) -> Any:
    if not isinstance(data, Mapping):
        raise _reject(where, "a mapping", data)
    fields = dataclasses.fields(cls)
    allowed = [field.name for field in fields]
    unknown = sorted((key for key in data if key not in allowed), key=repr)
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {[f'{where}.{key}' for key in unknown]}; "
            f"allowed in {where}: {sorted(allowed)}"
        )
    loaded = {}
    for field in fields:
        if field.name not in data:
            if field.default is field.default_factory is dataclasses.MISSING:
                raise ConfigurationError(f"{where} requires {field.name!r} (missing key)")
            continue
        value = data[field.name]
        if value is not None or field.default is not None:
            value = _load_value(
                field.metadata["kind"], value, f"{where}.{field.name}", field.metadata["allow_inf"]
            )
        loaded[field.name] = value
    try:
        return cls(**loaded)
    except ConfigurationError as exc:
        # The section's own check: name its path, unless the message does.
        if str(exc).startswith(where):
            raise
        raise ConfigurationError(f"{where}: {exc}") from exc


def _emit_value(kind: Any, value: Any) -> Any:
    if value is None or kind in (bool, int, str):
        return value
    if kind is float:
        return "inf" if value == math.inf else value
    if kind is dict:
        return dict(value)
    if isinstance(kind, (list, tuple)):
        return [_emit_value(kind[0], item) for item in value]
    if isinstance(kind, type) and issubclass(kind, Schema):
        return value.to_dict()
    return _emit_value(kind.json, kind.emit(value))


class Schema:
    """Base of every JSON-facing dataclass: the one loader and the one emitter.

    ``where`` (a class keyword: ``class RuntimeSpec(Schema, where="runtime")``)
    is the location error messages start from when the class is loaded
    directly; nested sections are located by their path from the root
    (``scenario.data.partition.alpha``).
    """

    def __init_subclass__(cls, where: str, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._where = where

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Schema:
        """Strictly load an instance from its dict / parsed-JSON form.

        Raises :class:`~repro.exceptions.ConfigurationError` for anything
        but a mapping of declared keys holding values of the declared kinds.
        """
        return _load(cls, data, cls._where)

    def to_dict(self) -> dict[str, Any]:
        """The canonical dict: pinned fields, plus every field that differs
        from its default."""
        out = {}
        for field in dataclasses.fields(self):
            kind = field.metadata["kind"]
            value = _emit_value(kind, getattr(self, field.name))
            if field.metadata["pinned"] or value != _emit_value(kind, _default(field)):
                out[field.name] = value
        return out

    def to_json(self, indent: int = 2) -> str:
        """The canonical dict as sorted, indented JSON (never ``NaN``)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, allow_nan=False)

    def digest(self) -> str:
        """Stable 16-hex sha256 prefix of the compact canonical JSON."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]
