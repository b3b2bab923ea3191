"""Shared exception hierarchy.

Two broad families matter to callers (and fix the CLI exit codes):

* :class:`InputError` -- the input itself is malformed or mathematically
  inconsistent (non-unimodular form, unrealizable characteristic classes,
  bad table file, ...); it is also a ``ValueError``, for callers catching that.
* :class:`UnsupportedError` -- the input is valid but the requested
  computation is outside the supported range (the unresolved d=0 attaching
  numbers, homotopy degrees past the sphere table, ...).
"""


class LoopSixError(Exception):
    """Base class for all library errors."""


class InputError(LoopSixError, ValueError):
    """Invalid or inconsistent input data."""


class UnsupportedError(LoopSixError):
    """Valid input outside the supported range of the computation."""


class UnsupportedCase(UnsupportedError):
    """A case the decomposition machinery deliberately refuses to handle."""


def _require_int(
    value, name: str, *, optional: bool = False, minimum: int | None = None
) -> None:
    """Refuse a degree bound or count that is not an exact ``int``: a
    ``bool`` or a ``float`` is not coerced.  ``optional`` also allows None;
    an ``int`` below ``minimum`` is refused too."""
    if type(value) is not int and not (optional and value is None):
        raise InputError(f"{name} must be an int, got {value!r}")
    if minimum is not None and value is not None and value < minimum:
        raise InputError(f"{name} must be >= {minimum}")
