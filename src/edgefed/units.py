"""Fixed-point units shared across the engine, and the error of a bad scenario value.

Simulated time and currency are both stored as integers in millionths
(microseconds, micro-currency). Integer arithmetic keeps segment sums exact
and makes digests and exported files stable across platforms.
"""

import dataclasses
import functools
import re
import types
from enum import Enum

MICRO = 1_000_000

_DECIMAL = r"([+-]?)([0-9]+)(?:\.([0-9]{1,6}))?"  # compiled on first use, by re's cache


class ConfigInvalid(ValueError):
    """A scenario value that cannot be read or is out of range, named by its key."""


_KINDS = {int: ((int,), "an int"), float: ((int, float), "a number"),
          tuple: ((tuple,), "a tuple")}


def _kind(kind):
    """(accepted types, their name) of a field declared as `kind`, or None
    when `check_field_types` leaves the field to its record's own rules."""
    if kind in _KINDS:
        return _KINDS[kind]
    if isinstance(kind, types.UnionType) and kind.__args__[1:] == (type(None),):
        accepted = _kind(kind.__args__[0])
        return accepted and ((*accepted[0], type(None)), f"{accepted[1]} or None")
    if isinstance(kind, type) and (issubclass(kind, (Enum, bytes))
                                   or dataclasses.is_dataclass(kind)):
        return (kind,), f"{'an' if kind.__name__[0] in 'AEIOU' else 'a'} {kind.__name__}"
    return None


@functools.cache
def _checks(cls) -> tuple:
    """(field name, accepted types, their name, whether a tuple of them) for
    each field of the dataclass `cls` that `check_field_types` checks."""
    checks = []
    for f in dataclasses.fields(cls):
        kind, many = f.type, getattr(f.type, "__origin__", None) is tuple
        if many:
            kind = kind.__args__[0]
        if accepted := _kind(kind):
            checks.append((f.name, *accepted, many))
    return tuple(checks)


def check_field_types(record) -> None:
    """Refuse the first field of the dataclass `record` whose value is not of
    its declared kind, named as the record's type and field. An `int` field
    takes an int and a `float` field an int or float, never a bool, as in a
    document; a `tuple` field takes a tuple, never a list, and a
    `tuple[X, ...]` field one of items of kind X. A field declared as an
    `Enum`, dataclass or `bytes` subclass (an `Address`), or as `X | None`
    of one of these kinds, takes an instance of it (or None). Other fields
    are left to the record's own rules."""
    for name, accepted, what, many in _checks(type(record)):
        value = getattr(record, name)
        where = f"{type(record).__name__}.{name}"
        if many and not isinstance(value, tuple):
            raise ConfigInvalid(f"{where} must be a tuple, got {value!r}")
        for i, item in enumerate(value if many else (value,)):
            if isinstance(item, bool) or not isinstance(item, accepted):
                item_where = f"{where}[{i}]" if many else where
                raise ConfigInvalid(f"{item_where} must be {what}, got {item!r}")


def check_non_negative(section: str, **values) -> None:
    """Refuse the first of `values` below 0, named by its key in `section`."""
    for key, value in values.items():
        if value < 0:
            raise ConfigInvalid(f"{section}.{key} must be non-negative")


def to_micro(value: float) -> int:
    """Convert seconds (or currency units) to integer millionths."""
    return round(value * MICRO)


def ms_to_micro(ms: float) -> int:
    """Convert milliseconds to integer microseconds."""
    return round(ms * 1000)


def format_micro(value: int) -> str:
    """Render an integer-micro value with exactly six fractional digits."""
    if value < 0:
        return "-%d.%06d" % divmod(-value, MICRO)
    return "%d.%06d" % divmod(value, MICRO)


def parse_micro(text: str) -> int:
    """Inverse of format_micro; lossless for any micro-precision value.

    Raises ValueError unless the text is a decimal with at most six
    fractional digits, so no digit is dropped."""
    match = re.fullmatch(_DECIMAL, text)
    if match is None:
        raise ValueError(f"not a decimal with at most six fractional digits: {text!r}")
    sign, whole, frac = match.groups()
    value = int(whole) * MICRO + int((frac or "").ljust(6, "0"))
    return -value if sign == "-" else value
