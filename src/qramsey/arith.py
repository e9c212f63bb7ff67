"""Exact rational arithmetic and univariate polynomials over the rationals.

Rationals are stdlib ``fractions.Fraction`` values, which already guarantee
the normal form used throughout this package: lowest terms, denominator >= 1,
zero stored as 0/1.  ``parse_rational`` rejects a zero denominator in text;
code builds a Fraction directly wherever a zero denominator cannot occur.

A polynomial is a plain tuple of Fraction coefficients, index i holding the
coefficient of t^i, with trailing zeros stripped by ``polynomial``: the zero
polynomial is the empty tuple, and equal polynomials are equal tuples.  This
module reads polynomial text one monomial at a time and prints polynomials;
the term grammar of ``patterns`` reads whole terms, and ``AffineTerm``
evaluates them.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator


# leading zeros are matched apart, so int() converts only the digits after
# them and a long run of zeros never reaches its limit on digits
_RATIONAL_RE = re.compile(r"^\s*(-?)0*(\d+)\s*(?:/\s*(-?)0*(\d+))?\s*$")
_INT_RE = re.compile(r"\s*([+-]?)0*(\d+)\s*")


def parse_int(text: str) -> int:
    """Parse a decimal integer with an optional sign."""
    m = _INT_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(m.group(1) + m.group(2))


def parse_rational(text: str) -> Fraction:
    """Parse 'a/b' or a bare integer 'a'."""
    m = _RATIONAL_RE.match(text)
    if m is None:
        raise ValueError(f"not a rational: {text!r}")
    den = int(m.group(3) + m.group(4)) if m.group(4) is not None else 1
    if den == 0:
        raise ValueError("degenerate rational: zero denominator")
    return Fraction(int(m.group(1) + m.group(2)), den)


def format_rational(q: Fraction) -> str:
    """Render 'a/b', or just 'a' for integers."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def polynomial(coeffs: Iterable[Fraction | int]) -> tuple[Fraction, ...]:
    """The normal form of a coefficient list: exact Fractions, trailing zeros stripped."""
    cs = list(map(Fraction, coeffs))
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def format_polynomial(p: tuple[Fraction, ...]) -> str:
    """Render as a sum of c*t^k monomials, highest exponent first."""
    if not p:
        return "0"
    parts: list[str] = []
    for exp in range(len(p) - 1, -1, -1):
        c = p[exp]
        if c == 0:
            continue
        if exp == 0:
            body = format_rational(abs(c))
        else:
            head = "t" if exp == 1 else f"t^{exp}"
            body = head if abs(c) == 1 else f"{format_rational(abs(c))}*{head}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# The largest exponent that polynomial and family text may write, and the
# largest integer argument of a catalog key.  t^k builds k + 1 coefficients
# and y^a an exact power per element, so without a cap a single input could
# run unbounded; every exponent in use is far below it.
MAX_EXPONENT = 64


def read_exponent(digits: str) -> int:
    """The exponent written as decimal digits; ValueError above MAX_EXPONENT.

    The digits past the leading zeros are checked before they are converted,
    and only they are converted, so a huge exponent costs nothing.
    """
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
        raise ValueError(f"exponent above the cap {MAX_EXPONENT}")
    return int(digits)


_MONOMIAL_RE = re.compile(
    r"""^\s*
    (?:(?P<coef>\d+(?:\s*/\s*\d+)?)\s*(?:\*\s*)?)?   # optional unsigned coefficient
    (?:(?P<var>[A-Za-z]\w*|\([^()]*\))               # optional variable: a word or (...)
    \s*(?:\^\s*(?P<exp>\d+))?)?                       # and its optional power
    \s*$""",
    re.VERBOSE,
)


def signed_chunks(text: str) -> Iterator[tuple[int, str]]:
    """Split a sum such as '2*t - t^3' into (sign, chunk) pairs.

    A chunk runs from just after its optional leading '+' or '-' up to the
    next sign outside parentheses, so '(-1*y)' stays whole.  Whitespace is
    kept in the chunks, so callers strip the text first.
    """
    pos, n = 0, len(text)
    while pos < n:
        sign = 1
        if text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos += 1
        start, depth = pos, 0
        while pos < n and (depth or text[pos] not in "+-"):
            depth += (text[pos] == "(") - (text[pos] == ")")
            pos += 1
        yield sign, text[start:pos]


def read_monomials(text: str) -> Iterator[tuple[str | None, int, Fraction | int]]:
    """Read polynomial text such as 't^2 - 3/2*(2*y)' one monomial at a time.

    Yields (variable, exponent, signed coefficient) per monomial
    'c', 'c*v^k', 'c*v', 'cv', 'v^k' or 'v', with c a nonnegative rational
    and the sign taken from the joining + or -.  A variable is a word or a
    parenthesized token; a constant has variable None and exponent 0.  An
    exponent above MAX_EXPONENT is an error.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial")
    for sign, chunk in signed_chunks(s):
        m = _MONOMIAL_RE.match(chunk)
        if m is None or (m.group("coef") is None and m.group("var") is None):
            raise ValueError(f"bad monomial {chunk.strip()!r}")
        coef = parse_rational(m.group("coef")) if m.group("coef") is not None else 1
        exp = read_exponent(m.group("exp") or "1") if m.group("var") is not None else 0
        yield m.group("var"), exp, sign * coef


def from_exponents(coeffs: dict[int, Fraction]) -> tuple[Fraction, ...]:
    """The polynomial with coefficient coeffs[i] at t^i; coeffs is nonempty."""
    return polynomial(coeffs.get(e, 0) for e in range(max(coeffs) + 1))
