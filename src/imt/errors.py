"""Exception taxonomy shared across the package, and the field check every
config dataclass runs on construction.

Every public operation raises one of these instead of bare ValueError so the
CLI can map failures onto its exit-code table.
"""

import dataclasses
import functools
import sys
import typing


class ImtError(Exception):
    """Base class for all package errors."""


class InvalidInputError(ImtError, ValueError):
    """An argument violates an operation's precondition."""


class DegenerateInputError(InvalidInputError):
    """Input is structurally valid but degenerate (e.g. all-zero stack)."""


class InvalidStateError(ImtError, ValueError):
    """A state object (normalization factors, optimizer state) is unusable."""


class FormatError(ImtError, ValueError):
    """A file does not conform to its binary/JSON format.

    ``offset`` is the byte offset at which the problem was detected, when
    known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class TruncationError(FormatError):
    """File payload is shorter than its header claims."""


class ConfigError(InvalidInputError):
    """A configuration document failed validation."""


# The bound of a field check_fields is given none for: an int is a size,
# positive and below 2**31 (the element limit of one feature grid, so no size
# overflows index math downstream), and a float is positive.
SIZE = range(1, 2**31)
_DEFAULT_BOUNDS = {int: SIZE, float: "(0, inf)"}

_field_types = functools.cache(typing.get_type_hints)


def check_fields(obj, **bounds) -> None:
    """Check each field of the dataclass ``obj`` against its annotation and
    its bound; raise InvalidInputError at the first bad one.

    ``int`` takes an int, ``float`` a finite int or float (neither a bool),
    other types only themselves, ``X | None`` also None, and ``tuple[X, ...]``
    or ``tuple[X, X]`` a list or tuple of X, stored as a tuple of ``X(v)``.
    A bound is a ``range``, a tuple of allowed values or an interval such as
    ``"(0, 1]"``, applied to a scalar or to each item of a tuple; an int or
    float field given none is held to SIZE or to ``"(0, inf)"``.
    """
    types = _field_types(type(obj))
    for f in dataclasses.fields(obj):
        value, kind = getattr(obj, f.name), types[f.name]
        args = typing.get_args(kind)
        if type(None) in args:  # X | None
            if value is None:
                continue
            kind = args[0]
        items = [value]
        if typing.get_origin(kind) is tuple:  # tuple[X, ...] or tuple[X, X]
            args = typing.get_args(kind)
            fixed = args[-1] is not ...
            if not isinstance(value, (list, tuple)) or fixed and len(value) != len(args):
                raise InvalidInputError(f"{f.name} must be a list like {kind}, got {value!r}")
            kind, items = args[0], value
        bound = bounds.get(f.name, _DEFAULT_BOUNDS.get(kind))
        for v in items:
            if kind is float:  # ints compare exactly, so one too large for a float fails
                ok = isinstance(v, (int, float)) and -sys.float_info.max <= v <= sys.float_info.max
            else:
                ok = isinstance(v, kind)
            if not ok or isinstance(v, bool) and kind is not bool:
                what = "a finite number" if kind is float else f"of type {kind.__name__}"
                raise InvalidInputError(f"{f.name} must be {what}, got {v!r}")
            if isinstance(bound, str):  # an interval such as "(0, 1]"
                lo, hi = (float(x) for x in bound[1:-1].split(","))
                ok = lo < v or bound[0] == "[" and v == lo
                ok = ok and (v < hi or bound[-1] == "]" and v == hi)
            elif bound is not None:
                ok = v in bound
            if not ok:
                shown = f"[{bound.start}, {bound.stop})" if isinstance(bound, range) else bound
                raise InvalidInputError(f"{f.name} must be in {shown}, got {v!r}")
        if items is value:  # a tuple field holds a tuple of its item type
            object.__setattr__(obj, f.name, tuple(map(kind, value)))


class NumericalFailureError(ImtError, ArithmeticError):
    """A computation produced non-finite values.

    ``where`` names the layer or tensor that went non-finite.
    """

    def __init__(self, message: str, where: str | None = None):
        if where is not None:
            message = f"{message} (in {where})"
        super().__init__(message)
        self.where = where


class BaselineError(ImtError, RuntimeError):
    """An external baseline denoiser failed (bad exit code or timeout)."""


class CheckpointMismatchError(ImtError, ValueError):
    """A checkpoint is inconsistent with its own manifest or the requested
    configuration."""
