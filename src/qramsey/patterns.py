"""Two-variable pattern families and their text DSL.

A family is a finite set of terms in the variables x and y.  Term shapes:

* ``y`` itself;
* affine terms ``c*x + P(y)`` with c nonzero and P a polynomial with zero
  constant term, written in ``t`` or ``y`` (e.g. ``x + t^2 - t``) or in one
  scaled atom ``(c2*y)``, whose powers are expanded into P's coefficients
  (the term prints in ``t``); ``x`` itself is the affine term with P = 0;
* power terms ``x * y^a`` / ``x / y^a`` with 1 <= a <= MAX_EXPONENT, the cap
  on a polynomial degree and a catalog argument too;
* offset terms ``x + c`` with c a nonzero constant: the affine term whose P
  is the constant c.  These sit outside the paper's families on purpose and
  parse only when explicitly enabled; they exist so that deliberately
  non-partition-regular families like ``{x, x + 3}`` can be expressed.

Instantiating a family at a point (x, y) requires y nonzero, and x nonzero
whenever a power term is present (or the family is marked strict).

Family text is terms joined by ';', e.g. ``"x; y; x + t"`` or
``"x; x / y^1; x + t"``.  A catalog key is shorthand for such text, read by
the same grammar: ``quotient-poly(2,[t;t^2])`` is ``x; x / y^2; x + t;
x + t^2`` (see builtin_family).

Every term has two evaluations.  ``value`` is the exact Fraction reference.
``pair_parts`` serves the candidate table: it evaluates, once per window
element, whatever part of the term depends on x alone or on y alone, as
window indices or as reduced (numerator, denominator) integer pairs, and
names the integer operation (sum or product) that joins an x part and a y
part.  It works on numerators and denominators with ``int`` arithmetic, no
Fraction operations: ``c*x`` (plus an offset) and ``P(y)`` cost one gcd per
element (P is held as integer coefficients over one common denominator), and
``x`` and ``y^a`` of a reduced pair are already reduced, so they cost none.

Terms and families are NamedTuples, so they compare as plain tuples: the
three term types have 0, 1 and 2 fields, so no two of them are equal.  Their
constructors check nothing; the readers ``parse_family`` and
``builtin_family``, through which all outside text passes, reject what the
grammar rules out, and build every term in normal form.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .arith import (
    MAX_EXPONENT,
    format_polynomial,
    format_rational,
    from_exponents,
    parse_rational,
    read_exponent,
    read_monomials,
)
from .windows import Pair, pair_key


Values = Sequence[Fraction]
PairIndex = dict[Pair, int]

# PairParts.op: the term depends on x only or y only (parts are window
# indices, None when the value leaves the window), or it is the sum or the
# product of an x part and a y part (parts are reduced pairs).
X_ONLY, Y_ONLY, SUM, PRODUCT = "x", "y", "+", "*"


class PairParts(NamedTuple):
    """A term split into per-x and per-y parts, aligned with the given x and y values."""

    op: str
    per_x: list | None
    per_y: list | None


def _reduced(num: int, den: int) -> Pair:
    g = gcd(num, den)
    return num // g, den // g


class VarY(NamedTuple):
    def value(self, x: Fraction, y: Fraction) -> Fraction:
        return y

    def pair_parts(self, xs: Values, ys: Values, index: PairIndex) -> PairParts:
        return PairParts(Y_ONLY, None, [index.get(pair_key(y)) for y in ys])

    uses_y = True

    def text(self) -> str:
        return "y"


class PowerTerm(NamedTuple):
    """x * y^exponent; negative exponents divide.

    y = ±1 realizes every exponent a.  Another y realizes a only while 2^a is
    at most the largest |value| of an integer window, a <= 2 log2 N in
    farey:N (y's numerator, to the power a, cancels against a denominator of
    at most N) and a <= 2E in a grid of exponent bound E.
    """

    exponent: int

    def value(self, x: Fraction, y: Fraction) -> Fraction:
        return x * y**self.exponent

    def pair_parts(self, xs: Values, ys: Values, index: PairIndex) -> PairParts:
        k = abs(self.exponent)
        per_y = []
        for p, q in map(pair_key, ys):
            if self.exponent < 0:  # 1/y, the sign moved to the numerator
                p, q = (q, p) if p > 0 else (-q, -p)
            per_y.append((p**k, q**k))  # a power of a reduced pair is reduced
        return PairParts(PRODUCT, [pair_key(x) for x in xs], per_y)

    uses_y = True

    def text(self) -> str:
        if self.exponent > 0:
            return f"x * y^{self.exponent}"
        return f"x / y^{-self.exponent}"


class AffineTerm(NamedTuple):
    """x_coef * x + poly(y), x_coef nonzero.

    poly is a coefficient tuple, index i holding the coefficient of y^i, in
    the normal form of ``arith.polynomial``: the term grammar builds it so,
    and so equal terms compare and hash equal.  poly has a nonzero constant
    only when it is that constant and x_coef is 1: the offset term x + c.
    """

    x_coef: Fraction
    poly: tuple[Fraction, ...] = ()

    def value(self, x: Fraction, y: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.poly):  # Horner's rule
            acc = acc * y + c
        return self.x_coef * x + acc

    def pair_parts(self, xs: Values, ys: Values, index: PairIndex) -> PairParts:
        c, d = pair_key(self.x_coef)
        a, b = pair_key(self.poly[0] if self.poly else 0)  # nonzero only in x + a/b
        if (c, d, a) == (1, 1, 0):  # the x part is x itself, already reduced
            per_x = list(map(pair_key, xs))
        else:
            c, a, d = c * b, a * d, d * b  # x_coef*x + a/b is (c*b*x + a*d) / (d*b)
            per_x = [_reduced(c * x.numerator + a * x.denominator, d * x.denominator) for x in xs]
        if not self.uses_y:
            return PairParts(X_ONLY, [index.get(k) for k in per_x], None)
        # P(y) at y = p/q is sum(a_i p^i q^(deg-i)) / (m q^deg), a_i integers
        m = lcm(*(c.denominator for c in self.poly))
        coeffs = [c.numerator * (m // c.denominator) for c in self.poly]
        deg = len(coeffs) - 1
        per_y = []
        for y in ys:
            p, q = y.numerator, y.denominator
            num, q_pow = 0, 1
            for a in reversed(coeffs):  # homogeneous Horner
                num = num * p + a * q_pow
                q_pow *= q
            per_y.append(_reduced(num, m * q**deg))
        return PairParts(SUM, per_x, per_y)

    @property
    def uses_y(self) -> bool:
        return len(self.poly) > 1

    def text(self) -> str:
        if self == X:
            return "x"
        xpart = "x" if self.x_coef == 1 else f"{format_rational(self.x_coef)}*x"
        ptext = format_polynomial(self.poly)
        if ptext.startswith("-"):
            return f"{xpart} - {ptext[1:].lstrip()}"
        return f"{xpart} + {ptext}"


X = AffineTerm(Fraction(1))


PatternTerm = VarY | PowerTerm | AffineTerm


class Family(NamedTuple):
    terms: tuple[PatternTerm, ...]
    require_distinct_values: bool = False
    strict_nonzero_x: bool = False

    @property
    def requires_nonzero_x(self) -> bool:
        return self.strict_nonzero_x or any(
            isinstance(t, PowerTerm) for t in self.terms
        )

    @property
    def uses_y(self) -> bool:
        return any(t.uses_y for t in self.terms)

    def has_offsets(self) -> bool:
        return any(isinstance(t, AffineTerm) and t.poly and t.poly[0] for t in self.terms)

    def serialize(self) -> str:
        return "; ".join(t.text() for t in self.terms)


class Witness(NamedTuple):
    """A monochromatic instantiation: values in term order, all one color."""

    x: Fraction
    y: Fraction
    color: int
    values: tuple[Fraction, ...]


def instantiate(family: Family, x: Fraction | int, y: Fraction | int) -> tuple[Fraction, ...]:
    """Evaluate every term at (x, y), in term order."""
    x, y = Fraction(x), Fraction(y)
    if y == 0:
        raise ValueError("invalid instantiation point: y must be nonzero")
    if x == 0 and family.requires_nonzero_x:
        raise ValueError("invalid instantiation point: x must be nonzero for this family")
    return tuple(t.value(x, y) for t in family.terms)


_RAT = r"-?\d+(?:/\d+)?"
_POWER_RE = re.compile(rf"^x\s*(?P<op>[*/])\s*y\s*(?:\^\s*(?P<neg>-?)(?P<exp>\d+))?$")
_AFFINE_RE = re.compile(rf"^(?:(?P<c1>{_RAT})\s*\*\s*)?x\s*(?P<op>[+-])\s*(?P<rest>.+)$")
_Y_ATOM_RE = re.compile(rf"\(\s*(?P<c2>{_RAT})\s*\*\s*y\s*\)")


def _parse_term(chunk: str, allow_offsets: bool) -> PatternTerm:
    s = chunk.strip()
    if not s:
        raise ValueError("empty term")
    if s == "x":
        return X
    if s == "y":
        return VarY()
    m = _POWER_RE.match(s)
    if m:
        exp = read_exponent(m.group("exp") or "1")
        if (m.group("op") == "/") != bool(m.group("neg")):
            exp = -exp
        if exp == 0:
            raise ValueError("exponent must be nonzero")
        return PowerTerm(exp)
    m = _AFFINE_RE.match(s)
    if m:
        c1 = parse_rational(m.group("c1") or "1")
        if c1 == 0:
            raise ValueError("x coefficient must be nonzero")
        rest = m.group("rest").strip()
        if m.group("op") == "-":
            rest = "-" + rest
        bare, scalings = set(), set()  # the names t, y and the c of each (c*y)
        coeffs: dict[int, Fraction] = {}
        try:
            for name, exp, coef in read_monomials(rest):
                if name in ("t", "y"):
                    bare.add(name)
                elif name is not None:
                    atom = _Y_ATOM_RE.fullmatch(name)
                    if atom is None:
                        raise ValueError(f"unknown variable {name!r}, expected t, y or (c*y)")
                    scale = parse_rational(atom.group("c2"))
                    scalings.add(scale)
                    coef *= scale**exp  # c*(c2*y)^k is c*c2^k * y^k
                coeffs[exp] = coeffs.get(exp, 0) + coef
        except ValueError as exc:
            raise ValueError(f"bad polynomial part: {exc.args[0]}") from None
        if len(scalings) > 1:
            raise ValueError("mixed y scalings in one term")
        if scalings and bare:
            raise ValueError("mix of scaled and bare variables")
        if len(bare) > 1:
            raise ValueError("mix of t and y in polynomial part")
        poly = from_exponents(coeffs)
        if not poly or poly[0] == 0:
            return AffineTerm(c1, poly)
        if len(poly) == 1 and c1 == 1 and scalings <= {1}:
            if allow_offsets:
                return AffineTerm(c1, poly)
            raise ValueError("constant term must be zero (offset terms are disabled)")
        raise ValueError("constant term must be zero")
    raise ValueError(f"unrecognized term {s!r}")


def parse_family(
    text: str,
    *,
    allow_offsets: bool = False,
    require_distinct_values: bool = False,
    strict_nonzero_x: bool = False,
) -> Family:
    """Parse ';'-separated term text, or a catalog key naming such text, into a
    Family.  Rejected text raises ValueError: a bad key with builtin_family's
    message, which names no position, and a bad term with its position in
    text.  The distinct and strict flags apply to both."""
    m = _KEY_RE.match(text.strip())
    terms: list[PatternTerm] = []
    if m and m.group("name") in _CATALOG:
        try:
            terms.extend(builtin_family(text).terms)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
    else:
        offset = 0
        for chunk in text.split(";"):
            try:
                terms.append(_parse_term(chunk, allow_offsets))
            except ValueError as exc:
                at = offset + len(chunk) - len(chunk.lstrip())
                raise ValueError(f"{exc} (position {at})") from None
            offset += len(chunk) + 1
    return _family(terms, require_distinct_values, strict_nonzero_x)


def _family(terms: list[PatternTerm], *flags: bool) -> Family:
    """The family of terms read from text, each read once; ValueError otherwise."""
    if len(set(terms)) != len(terms):
        raise ValueError("duplicate terms in family")
    return Family(tuple(terms), *flags)


# ---------------------------------------------------------------------------
# Built-in catalog: each key is shorthand for family text

# name -> (head text, argument, list rule).  The argument is "" (none), "k"
# (the tails default to x + t, ..., x + k*t) or "a" (the exponent filled into
# the head; the tail defaults to x + t, as it does with no argument).  The
# list rule is "" (no list), "k" (exactly k entries) or "any".
_CATALOG = {
    "schur": ("x; y", "", ""),
    "vdw": ("x", "k", ""),
    "moreira": ("x; x * y^1", "k", "k"),
    "bowen-sabok": ("x; y; x * y^1", "k", ""),
    "quotient-poly": ("x; x / y^{}", "a", "any"),
    "product-poly": ("x; x * y^{}", "a", "any"),
    "question-hs": ("x; y; x * y^1", "", ""),
}

_KEY_RE = re.compile(r"^(?P<name>[a-z-]+)(?:\((?P<args>.*)\))?$")
_ARGS_RE = re.compile(r"\s*(?P<n>\d*)\s*(?:,\s*\[(?P<list>[^\[\]]*)\]\s*)?")


def builtin_family(key: str) -> Family:
    """The family a catalog key names, read as family text; KeyError otherwise.

    Keys: schur, vdw(k), moreira(k[,[p;...]]), bowen-sabok(k),
    quotient-poly(a[,[p;...]]), product-poly(a[,[p;...]]), question-hs.
    Each list entry p is the term ``x + p``, e.g. ``quotient-poly(2,[t;t^2])``
    is ``x; x / y^2; x + t; x + t^2``; without a list the tails are
    ``x + t, ..., x + k*t``, or ``x + t`` alone.  Every term is read by the
    term grammar, offsets disabled.
    """
    m = _KEY_RE.match(key.strip())
    try:
        if m is None or m.group("name") not in _CATALOG:
            raise ValueError("not a catalog family")
        name = m.group("name")
        head, arg, rule = _CATALOG[name]
        args = _ARGS_RE.fullmatch(m.group("args") or "")
        if args is None:
            raise ValueError("arguments must read n or n,[p;...]")
        digits, entries = args.group("n"), args.group("list")
        if bool(digits) != bool(arg) or (entries is not None and not rule):
            raise ValueError("wrong arguments")
        if digits:
            try:
                n = read_exponent(digits)  # never converts a long digit string
            except ValueError:
                raise ValueError(f"{name} argument above the cap {MAX_EXPONENT}") from None
            if n < 1:
                raise ValueError(f"{name} needs an argument >= 1")
        if entries is None:
            tails = [f"{i}*t" for i in range(1, (n if arg == "k" else 1) + 1)]
        else:
            tails = entries.split(";")
            if rule == "k" and len(tails) != n:
                raise ValueError(f"{name} got k={n} but {len(tails)} polynomials")
            if not all(p.strip() for p in tails):
                raise ValueError("empty list entry")
        texts = head.format(digits).split(";") + [f"x + {p}" for p in tails]
        return _family([_parse_term(t, False) for t in texts])
    except ValueError as exc:
        raise KeyError(f"bad catalog key {key!r}: {exc}") from None
