"""One codec for every record the package stores or prints as JSON.

The rule: enums by value, datetimes as RFC 3339, tuples as lists,
frozensets as sorted lists, nested dataclasses as objects; str, int,
bool, dict and None as they are. A field states where it departs from
the rule in its ``dataclasses.field(metadata=...)``: ``"omit": True``
(``OMIT``) leaves it out while it equals its default, ``"key"`` names its
JSON key (a ``(parent, key)`` pair nests it in the object ``parent``),
``"inline": True`` writes the keys of its object into the enclosing one
and reads them back from there, and an ``"encode"``/``"decode"`` pair
replaces the rule for its value.

On read a missing key takes the field's default and unknown keys are
ignored; a field with no plain default, a ``default_factory`` included,
is required, and a record's JSON must be an object. A str, int, bool
or dict field, and each such element of a tuple or frozenset, must hold
exactly that JSON type (a bool is no int), and a tuple or frozenset must
come as a list; anything else raises TypeError. The values go in
field order to the class, or to the callable it names as
``json_constructor``. The types are checked before the values go to the
class, and after they go to a ``json_constructor``: that is a cache
keyed by the values, so a value it cannot hash fails there first. Each
class's plan is built once, on first use.
"""

from __future__ import annotations

import dataclasses
import enum
import types
import typing
from datetime import datetime
from functools import cache
from operator import attrgetter
from typing import Any, Callable, TypeVar

from .rfc3339 import format_rfc3339, parse_rfc3339

__all__ = ["SCHEMA_VERSION", "DECODE_ERRORS", "OMIT", "Record"]

# the record format's version, written into every stored record and into
# the resolve, feed parse, harvest and audit documents
SCHEMA_VERSION = 1

# what decoding JSON from outside the program raises: a missing key, a
# value of the wrong type or shape, a value no constructor accepts
DECODE_ERRORS = (ValueError, KeyError, TypeError, AttributeError)

OMIT = {"omit": True}

_R = TypeVar("_R", bound="Record")
_Convert = Callable[[Any], Any]


class Record:
    """Base of the dataclasses written as JSON."""

    def to_json_dict(self) -> dict:
        return _plan(type(self))[0](self)

    @classmethod
    def from_json_dict(cls: type[_R], data: dict) -> _R:
        return _plan(cls)[1](data)


@cache
def _plan(cls: type) -> tuple[_Convert, _Convert]:
    """Compile ``encode(obj)`` and ``decode(data)`` for ``cls``, one
    statement per field, as ``dataclasses`` compiles ``__init__``. For
    ``FetchSummary`` they read, in part::

        def encode(obj):
            out = {}
            value = obj.uri
            out['uri'] = value
            value = obj.fetched_at
            if value is not default5: out['fetched_at'] = enc5(value)
            return out

        def decode(data):
            if type(data) is not dict: raise TypeError(not_an_object)
            v0 = data['uri']
            ...
            v5 = dec5(data['fetched_at']) if 'fetched_at' in data else default5
            check0(v0)
            ...
            return cls(v0, ..., v5)
    """
    hints = typing.get_type_hints(cls)
    constructor = getattr(cls, "json_constructor", None)
    env: dict = {
        "cls": constructor or cls,
        "not_an_object": f"{cls.__name__} wants a JSON object",
    }
    writes, reads, checks = [], [], []
    fields = dataclasses.fields(cls)
    for i, f in enumerate(fields):
        meta = f.metadata
        if "encode" in meta:
            enc, dec = meta["encode"], meta["decode"]
        else:
            enc, dec = _converters(hints[f.name])
            check = _checker(hints[f.name], f"{cls.__name__}.{f.name}")
            if check is not None:
                env[f"check{i}"] = check
                checks.append(f"    check{i}(v{i})")
        env[f"enc{i}"], env[f"dec{i}"], env[f"default{i}"] = enc, dec, f.default
        if meta.get("inline"):
            writes.append(f"    out.update(enc{i}(obj.{f.name}))")
            reads.append(f"    v{i} = dec{i}(data)")
            continue
        key = meta.get("key", f.name)
        parent, key = key if isinstance(key, tuple) else (None, key)
        target = "out" if parent is None else f"out.setdefault({parent!r}, {{}})"
        value = "value" if enc is None else f"enc{i}(value)"
        writes.append(f"    value = obj.{f.name}")
        # `is not` where the default is None: the same test, and quicker
        test = "is not" if f.default is None else "!="
        guard = f"if value {test} default{i}: " if meta.get("omit") else ""
        writes.append(f"    {guard}{target}[{key!r}] = {value}")
        source = "data" if parent is None else f"data[{parent!r}]"
        read = f"{source}[{key!r}]" if dec is None else f"dec{i}({source}[{key!r}])"
        # a field without a plain default is required: a missing key raises
        if f.default is not dataclasses.MISSING:
            read += f" if {key!r} in {source} else default{i}"
        reads.append(f"    v{i} = {read}")
    build = "cls(" + ", ".join(f"v{i}" for i in range(len(fields))) + ")"
    if constructor is None:
        finish = [*checks, f"    return {build}"]
    else:
        finish = [f"    obj = {build}", *checks, "    return obj"]
    # the check comes first, since `in` would also answer for a list or a string
    code = "\n".join(
        ["def encode(obj):", "    out = {}", *writes, "    return out"]
        + ["def decode(data):", "    if type(data) is not dict: raise TypeError(not_an_object)"]
        + [*reads, *finish]
    )
    exec(compile(code, f"<codec {cls.__qualname__}>", "exec"), env)
    return env["encode"], env["decode"]


_PRIMITIVES = (str, int, bool, dict)


def _checker(tp: Any, label: str) -> Callable[[Any], bool] | None:
    """A check that a decoded value of type ``tp`` holds the JSON types
    ``tp`` names: it returns True or raises TypeError. None where the
    converter checks all there is (a record, an enum, a datetime)."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        [inner] = [arg for arg in args if arg is not type(None)]
        check = _checker(inner, label)
        return None if check is None else (lambda value: value is None or check(value))
    if tp in _PRIMITIVES:
        return _type_check(tp, label)
    if origin is frozenset or (origin is tuple and args[-1] is Ellipsis):
        check = _checker(args[0], label)
        return None if check is None else (lambda values: all(map(check, values)))
    if origin is tuple:
        checks = [_checker(arg, label) for arg in args]
        if not any(checks):
            return None
        return lambda value: all(check(item) for check, item in zip(checks, value) if check)
    return None


def _type_check(tp: type, label: str) -> Callable[[Any], bool]:
    """The check for a value of exactly type ``tp``: JSON gives no
    subclass, and a bool is no int."""
    wants = f"{label} wants {tp.__name__}, not "

    def check(value: Any) -> bool:
        if type(value) is tp:
            return True
        raise TypeError(wants + type(value).__name__)

    return check


def _listed(value: Any) -> list:
    """``value``, which must be a JSON array."""
    if type(value) is not list:
        raise TypeError(f"wants a list, not {type(value).__name__}")
    return value


def _converters(tp: Any) -> tuple[_Convert | None, _Convert | None]:
    """(encode, decode) for values of type ``tp``; None where a value is
    its own JSON form."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        [inner] = [arg for arg in args if arg is not type(None)]
        enc, dec = _converters(inner)
        return _or_none(enc), _or_none(dec)
    if origin is tuple and args[-1] is Ellipsis:
        enc, dec = _converters(args[0])
        if enc is None and dec is None:
            return list, lambda value: tuple(_listed(value))
        return (
            lambda value: list(map(enc, value)),
            lambda value: tuple(map(dec, _listed(value))),
        )
    if origin is tuple:
        items = list(map(_converters, args))
        encs = [enc or _same for enc, _ in items]
        decs = [dec or _same for _, dec in items]
        return (
            lambda value: [enc(item) for enc, item in zip(encs, value)],
            lambda value: tuple(
                dec(item) for dec, item in zip(decs, _listed(value), strict=True)
            ),
        )
    if origin is frozenset and _converters(args[0]) == (None, None):
        return sorted, lambda value: frozenset(_listed(value))
    if dataclasses.is_dataclass(tp):
        return _plan(tp)
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return attrgetter("value"), tp
    if tp is datetime:
        return format_rfc3339, parse_rfc3339
    if tp in _PRIMITIVES:
        return None, None
    raise TypeError(f"no JSON form for {tp!r}")


def _or_none(convert: _Convert | None) -> _Convert | None:
    if convert is None:
        return None
    return lambda value: None if value is None else convert(value)


def _same(value: Any) -> Any:
    return value
