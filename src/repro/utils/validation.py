"""Small validation helpers and the library exception hierarchy.

Every user-facing entry point validates its parameters eagerly and raises
:class:`InvalidParameterError` with an actionable message, so misuse fails at
the API boundary rather than deep inside a heuristic.
"""

from __future__ import annotations

from typing import Any


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class InvalidParameterError(ReproError, ValueError):
    """A user-supplied parameter is out of its documented domain."""


def check_positive(name: str, value: float, *, strict: bool = True) -> None:
    """Raise unless ``value`` is positive (strictly, by default).

    Parameters
    ----------
    name:
        Parameter name used in the error message.
    value:
        The value to check.
    strict:
        If ``True`` require ``value > 0``; otherwise ``value >= 0``.
    """
    if strict and not value > 0:
        raise InvalidParameterError(f"{name} must be > 0, got {value!r}")
    if not strict and not value >= 0:
        raise InvalidParameterError(f"{name} must be >= 0, got {value!r}")


def check_in_range(
    name: str,
    value: float,
    lo: float,
    hi: float,
    *,
    lo_strict: bool = False,
    hi_strict: bool = False,
) -> None:
    """Raise unless ``lo (≤|<) value (≤|<) hi``."""
    lo_ok = value > lo if lo_strict else value >= lo
    hi_ok = value < hi if hi_strict else value <= hi
    if not (lo_ok and hi_ok):
        lo_b = "(" if lo_strict else "["
        hi_b = ")" if hi_strict else "]"
        raise InvalidParameterError(
            f"{name} must lie in {lo_b}{lo}, {hi}{hi_b}, got {value!r}"
        )


def check_index(name: str, value: Any, size: int) -> int:
    """Check that ``value`` is an integer in ``[0, size)`` and return it."""
    try:
        idx = int(value)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}") from exc
    if idx != value:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if not 0 <= idx < size:
        raise InvalidParameterError(f"{name} must be in [0, {size}), got {idx}")
    return idx
