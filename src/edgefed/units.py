"""Fixed-point units shared across the engine, and the error of a bad scenario value.

Simulated time and currency are both stored as integers in millionths
(microseconds, micro-currency). Integer arithmetic keeps segment sums exact
and makes digests and exported files stable across platforms.
"""

import re

MICRO = 1_000_000

_DECIMAL = r"([+-]?)([0-9]+)(?:\.([0-9]{1,6}))?"  # compiled on first use, by re's cache


class ConfigInvalid(ValueError):
    """A scenario value that cannot be read or is out of range, named by its key."""


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
