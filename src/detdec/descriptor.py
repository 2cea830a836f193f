"""Typed field readers for instance descriptors.

Descriptors are JSON documents, so every field is checked for its JSON
type before it is used: integers are checked with ``type(v) is int``, which
rejects booleans (a subclass of ``int``), sizes and cell groups are lists
of integers, and ``format`` and ``prng`` must name the versions this code
writes.  Every failure raises ``InstanceFormatError`` naming the
field.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import InstanceFormatError
from .rng import PRNG_NAME

FORMAT_VERSION = 1


def _field(doc: dict, name: str) -> object:
    try:
        return doc[name]
    except KeyError:
        raise InstanceFormatError(f"instance descriptor: missing field {name!r}") from None


def _bad(name: str, expected: str, value: object) -> InstanceFormatError:
    return InstanceFormatError(f"instance descriptor: field {name!r} must be {expected}, got {value!r}")


def require_object(doc: object) -> dict:
    if not isinstance(doc, dict):
        raise InstanceFormatError(
            f"instance descriptor: expected a JSON object, got {type(doc).__name__}"
        )
    return doc


def check_header(doc: object, family: str) -> dict:
    """The document as a dict, after checking ``family``, ``format`` and ``prng``."""
    require_object(doc)
    for name, expected in (("family", family), ("format", FORMAT_VERSION), ("prng", PRNG_NAME)):
        value = _field(doc, name)
        if value != expected or isinstance(value, bool):
            raise _bad(name, repr(expected), value)
    return doc


def int_field(doc: dict, name: str) -> int:
    value = _field(doc, name)
    if type(value) is not int:
        raise _bad(name, "an integer", value)
    return value


def int_list(doc: dict, name: str) -> tuple[int, ...]:
    value = _field(doc, name)
    if type(value) is not list or not all(type(v) is int for v in value):
        raise _bad(name, "a list of integers", value)
    return tuple(value)


def fraction_list(doc: dict, name: str) -> tuple[Fraction, ...]:
    """A list of exact rationals written as integers or ``"p/q"`` strings."""
    value = _field(doc, name)
    if type(value) is list and all(type(v) in (int, str) for v in value):
        try:
            return tuple(Fraction(v) for v in value)
        except (ValueError, ZeroDivisionError):
            pass
    raise _bad(name, 'a list of rationals ("p/q" strings or integers)', value)


def float_field(doc: dict, name: str, default: float) -> float:
    value = doc.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(name, "a number", value)
    return float(value)


def optional_int(doc: dict, name: str) -> int | None:
    value = doc.get(name)
    if value is not None and type(value) is not int:
        raise _bad(name, "an integer or null", value)
    return value
