"""Fixed-point units shared across the engine.

Simulated time and currency are both stored as integers in millionths
(microseconds, micro-currency). Integer arithmetic keeps segment sums exact
and makes digests and exported files stable across platforms.
"""

MICRO = 1_000_000


def to_micro(value: float) -> int:
    """Convert seconds (or currency units) to integer millionths."""
    return round(value * MICRO)


def format_micro(value: int) -> str:
    """Render an integer-micro value with exactly six fractional digits."""
    sign = "-" if value < 0 else ""
    v = abs(value)
    return f"{sign}{v // MICRO}.{v % MICRO:06d}"


def parse_micro(text: str) -> int:
    """Inverse of format_micro; lossless for any micro-precision value."""
    text = text.strip()
    sign = -1 if text.startswith("-") else 1
    text = text.lstrip("+-")
    whole, _, frac = text.partition(".")
    frac = (frac + "000000")[:6]
    return sign * (int(whole or "0") * MICRO + int(frac or "0"))
