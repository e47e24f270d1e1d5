"""Canonical string encoding for exact rationals.

All interchange files store rationals as strings: an optional minus
sign, an integer numerator, and an optional "/denominator" part, in
ASCII digits with no leading zeros.  The canonical form is fully reduced
with a positive denominator, integers drop the denominator entirely
("7", not "7/1"), and zero has no sign.  Loaders reject anything else,
a trailing newline included, so that a value has exactly one encoding
and files can be compared byte for byte.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import RationalTooLong, excerpt

# ASCII digits only, matched against the whole string
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse a canonical rational string, rejecting non-canonical forms."""
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {type(text).__name__}")
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"malformed rational {excerpt(text)}")
    num_text, den_text = m.groups()
    num = int(num_text)
    if den_text is None:
        value = Fraction(num)
    else:
        den = int(den_text)
        if den == 0:
            raise ValueError(f"zero denominator in {excerpt(text)}")
        if den == 1:
            raise ValueError(f"non-canonical rational {excerpt(text)}: integers must omit '/1'")
        value = Fraction(num, den)
        if value.denominator != den:
            raise ValueError(f"non-canonical rational {excerpt(text)}: not in lowest terms")
    # a leading zero, or a sign on zero, is a second spelling of the value
    if num_text.lstrip("-")[0] == "0" and num_text != "0" \
            or den_text is not None and den_text[0] == "0":
        raise ValueError(
            f"non-canonical rational {excerpt(text)}: "
            f"write it as {excerpt(format_rational(value))}")
    return value


def as_fraction(value: Fraction | int | str) -> Fraction:
    """The value as a Fraction, from exact inputs only: a Fraction comes
    back as it is, not rebuilt; an int (not a bool) is converted; a string
    must be canonical (parse_rational).  Any other type is a TypeError."""
    if type(value) is Fraction:
        return value
    if type(value) is int:
        return Fraction(value)
    if type(value) is str:
        return parse_rational(value)
    raise TypeError(f"rational must be a Fraction, an int or a string, got {excerpt(value)}")


def format_rational(value: Fraction | int) -> str:
    """Render a rational in the canonical interchange form; a float or a
    bool is a TypeError, since its digits would look exact.  A numerator
    or denominator past the interpreter's limit on digits raises
    RationalTooLong."""
    if type(value) is int:
        n, d = value, 1
    elif type(value) is Fraction:
        n, d = value.numerator, value.denominator
    else:
        raise TypeError(f"format_rational takes a Fraction or an int, got {excerpt(value)}")
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:
        raise RationalTooLong(f"cannot write {excerpt(value)} in decimal: "
                              "it has more digits than the interpreter converts") from None
