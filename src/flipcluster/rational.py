"""Canonical string encoding for exact rationals.

All interchange files store rationals as strings: an optional sign, an
integer numerator, and an optional "/denominator" part.  The canonical
form is fully reduced with a positive denominator, and integers drop the
denominator entirely ("7", not "7/1").  Loaders reject anything else so
that a value has exactly one encoding and files can be compared byte for
byte.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse a canonical rational string, rejecting non-canonical forms."""
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {type(text).__name__}")
    m = _RATIONAL_RE.match(text)
    if m is None:
        raise ValueError(f"malformed rational {text!r}")
    num = int(m.group(1))
    if m.group(2) is None:
        return Fraction(num)
    den = int(m.group(2))
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    if den == 1:
        raise ValueError(f"non-canonical rational {text!r}: integers must omit '/1'")
    value = Fraction(num, den)
    if value.denominator != den:
        raise ValueError(f"non-canonical rational {text!r}: not in lowest terms")
    return value


def as_fraction(value: Fraction | int | str) -> Fraction:
    """The value as a Fraction; a Fraction comes back as it is, not rebuilt."""
    return value if type(value) is Fraction else Fraction(value)


def format_rational(value: Fraction | int) -> str:
    """Render a rational in the canonical interchange form."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
