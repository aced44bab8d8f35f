"""Fixed-point units shared across the engine.

Simulated time and currency are both stored as integers in millionths
(microseconds, micro-currency). Integer arithmetic keeps segment sums exact
and makes digests and exported files stable across platforms.
"""

import re

MICRO = 1_000_000

_DECIMAL = r"([+-]?)([0-9]+)(?:\.([0-9]{1,6}))?"  # compiled on first use, by re's cache


def to_micro(value: float) -> int:
    """Convert seconds (or currency units) to integer millionths."""
    return round(value * MICRO)


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
