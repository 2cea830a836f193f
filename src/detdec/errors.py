"""Exception types and parameter checks shared across the package."""
from __future__ import annotations

from math import isfinite
from numbers import Integral, Real


class ResourceLimitError(RuntimeError):
    """A configured size or budget cap was exceeded; the message names the cap."""


class MissingStateError(LookupError):
    """A state was requested from a table or policy that does not cover it."""


class PolicyFormatError(ValueError):
    """A policy document failed validation; the message names the offending field."""


class InstanceFormatError(ValueError):
    """An instance descriptor failed validation; the message names the offending field."""


def require_positive_finite(name: str, value: object) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a finite number > 0.

    NaN and infinities are rejected: NaN compares false against every bound,
    so it would pass a plain ``<= 0`` check and disable the test it feeds.
    """
    if isinstance(value, bool) or not isinstance(value, Real) or not (isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


def require_int_at_least(name: str, value: object, minimum: int) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer >= ``minimum``.

    Booleans are rejected although ``bool`` subclasses ``int``.
    """
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")
