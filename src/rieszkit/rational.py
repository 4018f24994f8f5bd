"""Exact rational scalars and their p/q wire format.

Every number in this package is a ``fractions.Fraction``: stored in lowest
terms with a positive denominator, compared exactly, never rounded. This
module only adds the strict string format used by the JSON file formats.
"""

from __future__ import annotations

import re
from fractions import Fraction

# "p" or "p/q" with integer p and positive integer q, in ASCII digits only
# and without leading zeros, so "007" is not another spelling of 7. Decimal
# points, exponents, whitespace, underscores, other Unicode digits, signs
# inside the denominator and a zero denominator are all rejected, even
# though Fraction() accepts some of them.
_RATIONAL_RE = re.compile(r"[+-]?(?:0|[1-9][0-9]*)(?:/[1-9][0-9]*)?")


def parse_rational(text: str) -> Fraction:
    """Parse a "p/q" (or bare "p") literal into an exact Fraction."""
    if not isinstance(text, str) or _RATIONAL_RE.fullmatch(text) is None:
        raise ValueError(f"not a rational literal of the form p/q: {text!r}")
    return Fraction(text)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q", or just "p" when the denominator is 1.

    Exact at any size, whatever the interpreter's int-to-str digit limit
    (``sys.set_int_max_str_digits``); reading such a string back with
    :func:`parse_rational` still obeys that limit.
    """
    try:
        return str(value)
    except ValueError:  # a part has more digits than the limit allows
        text = _decimal(value.numerator)
        if value.denominator == 1:
            return text
        return f"{text}/{_decimal(value.denominator)}"


# 2**1700 < 10**512, and CPython lets no digit limit be set below 640.
_DIRECT_BITS = 1700


def _decimal(n: int) -> str:
    """Decimal digits of n, split into halves until str() may convert them."""
    if n.bit_length() <= _DIRECT_BITS:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    low_digits = int(n.bit_length() * 0.30103) // 2
    high, low = divmod(n, 10**low_digits)
    return _decimal(high) + _decimal(low).zfill(low_digits)


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction or p/q string to a Fraction.

    Floats are refused on purpose: admitting them would silently smuggle
    binary rounding into an exact kernel.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot use {type(value).__name__} as an exact scalar")

