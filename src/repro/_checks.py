"""The argument contract: what a valid count and a valid number of
seconds are, for every constructor and entry point in ``repro``.

Two checks.  Each names the parameter it refuses and raises before its
caller has had any effect: ``TypeError`` for the wrong kind of value,
``ValueError`` for the wrong value.  Stdlib only, and no ``repro``
import, so every package may use it.
"""

from __future__ import annotations

import numbers
import operator

__all__ = ["check_count", "check_seconds"]


def check_count(
    value, name: str, at_least: int = 0, *, at_most: int | None = None
) -> int:
    """``value`` as an ``int`` at or above ``at_least`` (and at or below
    ``at_most``, where given).

    Any integer passes, numpy's included.  A bool, a float (``2.0`` as
    well) or anything else is a ``TypeError``; an integer out of bounds
    is a ``ValueError``.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < at_least:
        raise ValueError(f"{name} must be >= {at_least}, got {value}")
    if at_most is not None and value > at_most:
        raise ValueError(f"{name} must be <= {at_most}, got {value}")
    return value


def check_seconds(value, name: str, *, zero: bool = False):
    """``value`` if it is ``None`` or a positive real (``zero``: or 0).

    For seconds and for every other quantity on a positive scale (a
    rate, a cost, a shape).  A bool is a ``TypeError`` (``True`` is not
    1 s), as is a non-number.  NaN, which would expire at once or never,
    and a value at or below 0 (below 0 with ``zero``) are a
    ``ValueError``.
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not (value >= 0 if zero else value > 0):
        bound = "non-negative" if zero else "positive"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value
