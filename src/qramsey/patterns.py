"""Two-variable pattern families and their text DSL.

A family is a finite set of terms in the variables x and y.  Term shapes:

* ``x`` and ``y`` themselves;
* affine terms ``c1*x + P(c2*y)`` with c1 nonzero and P a polynomial with
  zero constant term (written in ``t`` or ``y``, e.g. ``x + t^2 - t``);
* power terms ``x * y^a`` / ``x / y^a`` with nonzero integer exponent;
* offset terms ``x + c`` with c a nonzero constant.  These sit outside the
  affine grammar on purpose and parse only when explicitly enabled; they
  exist so that deliberately non-partition-regular families like
  ``{x, x + 3}`` can be expressed.

Instantiating a family at a point (x, y) requires y nonzero, and x nonzero
whenever a power term is present (or the family is marked strict).

Family text is a catalog key (see builtin_family) or terms joined by ';',
e.g. ``"x; y; x + t"`` or ``"x; x / y^1; x + t"``.

Every term has two evaluations.  ``value`` is the exact Fraction reference.
``pair_parts`` serves the candidate table: it evaluates, once per window
element, whatever part of the term depends on x alone or on y alone, as
window indices or as reduced (numerator, denominator) integer pairs, and
names the integer operation (sum or product) that joins an x part and a y
part.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .arith import (
    PolynomialQ,
    format_polynomial,
    format_rational,
    parse_polynomial,
    parse_rational,
)
from .windows import Pair, pair_key


class PatternSyntaxError(ValueError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (position {position})")
        self.position = position


class InvalidInstantiationError(ValueError):
    pass


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


@dataclass(frozen=True)
class VarX:
    def value(self, x: Fraction, y: Fraction) -> Fraction:
        return x

    def pair_parts(self, xs: Values, ys: Values, index: PairIndex) -> PairParts:
        return PairParts(X_ONLY, [index.get(pair_key(x)) for x in xs], None)

    uses_y = False

    def text(self) -> str:
        return "x"


@dataclass(frozen=True)
class VarY:
    def value(self, x: Fraction, y: Fraction) -> Fraction:
        return y

    def pair_parts(self, xs: Values, ys: Values, index: PairIndex) -> PairParts:
        return PairParts(Y_ONLY, None, [index.get(pair_key(y)) for y in ys])

    uses_y = True

    def text(self) -> str:
        return "y"


@dataclass(frozen=True)
class PowerTerm:
    """x * y^exponent; negative exponents divide."""

    exponent: int

    def __post_init__(self) -> None:
        if self.exponent == 0:
            raise ValueError("power term exponent must be nonzero")

    def value(self, x: Fraction, y: Fraction) -> Fraction:
        return x * y**self.exponent

    def pair_parts(self, xs: Values, ys: Values, index: PairIndex) -> PairParts:
        return PairParts(
            PRODUCT, [pair_key(x) for x in xs], [pair_key(y**self.exponent) for y in ys]
        )

    uses_y = True

    def text(self) -> str:
        if self.exponent > 0:
            return f"x * y^{self.exponent}"
        return f"x / y^{-self.exponent}"


@dataclass(frozen=True)
class AffineTerm:
    """x_coef * x + poly(y_coef * y), with poly constant-free."""

    x_coef: Fraction
    poly: PolynomialQ
    y_coef: Fraction = field(default=Fraction(1))

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_coef", Fraction(self.x_coef))
        object.__setattr__(self, "y_coef", Fraction(self.y_coef))
        if self.x_coef == 0:
            raise ValueError("affine term needs a nonzero x coefficient")
        if not self.poly.has_zero_constant_term:
            raise ValueError("affine term polynomial must have zero constant term")

    def value(self, x: Fraction, y: Fraction) -> Fraction:
        return self.x_coef * x + self.poly.eval(self.y_coef * y)

    def pair_parts(self, xs: Values, ys: Values, index: PairIndex) -> PairParts:
        if not self.uses_y:
            return PairParts(X_ONLY, [index.get(pair_key(self.x_coef * x)) for x in xs], None)
        return PairParts(
            SUM,
            [pair_key(self.x_coef * x) for x in xs],
            [pair_key(self.poly.eval(self.y_coef * y)) for y in ys],
        )

    @property
    def uses_y(self) -> bool:
        return bool(self.poly.coeffs)

    def text(self) -> str:
        xpart = "x" if self.x_coef == 1 else f"{format_rational(self.x_coef)}*x"
        var = "t" if self.y_coef == 1 else f"({format_rational(self.y_coef)}*y)"
        ptext = format_polynomial(self.poly, var)
        if ptext.startswith("-"):
            return f"{xpart} - {ptext[1:].lstrip()}"
        return f"{xpart} + {ptext}"


@dataclass(frozen=True)
class OffsetTerm:
    """x + offset, the gated constant-offset variant."""

    offset: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "offset", Fraction(self.offset))
        if self.offset == 0:
            raise ValueError("offset must be nonzero")

    def value(self, x: Fraction, y: Fraction) -> Fraction:
        return x + self.offset

    def pair_parts(self, xs: Values, ys: Values, index: PairIndex) -> PairParts:
        return PairParts(X_ONLY, [index.get(pair_key(x + self.offset)) for x in xs], None)

    uses_y = False

    def text(self) -> str:
        if self.offset > 0:
            return f"x + {format_rational(self.offset)}"
        return f"x - {format_rational(-self.offset)}"


PatternTerm = VarX | VarY | PowerTerm | AffineTerm | OffsetTerm


@dataclass(frozen=True)
class Family:
    terms: tuple[PatternTerm, ...]
    require_distinct_values: bool = False
    strict_nonzero_x: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("family needs at least one term")
        if len(set(self.terms)) != len(self.terms):
            raise ValueError("duplicate terms in family")

    @property
    def requires_nonzero_x(self) -> bool:
        return self.strict_nonzero_x or any(
            isinstance(t, PowerTerm) for t in self.terms
        )

    @property
    def uses_y(self) -> bool:
        return any(t.uses_y for t in self.terms)

    def has_offsets(self) -> bool:
        return any(isinstance(t, OffsetTerm) for t in self.terms)

    def serialize(self) -> str:
        return "; ".join(t.text() for t in self.terms)

    def __str__(self) -> str:
        return self.serialize()


@dataclass(frozen=True)
class Witness:
    """A monochromatic instantiation: values in term order, all one color."""

    x: Fraction
    y: Fraction
    color: int
    values: tuple[Fraction, ...]


def instantiate(family: Family, x: Fraction | int, y: Fraction | int) -> tuple[Fraction, ...]:
    """Evaluate every term at (x, y), in term order."""
    x, y = Fraction(x), Fraction(y)
    if y == 0:
        raise InvalidInstantiationError("invalid instantiation point: y must be nonzero")
    if x == 0 and family.requires_nonzero_x:
        raise InvalidInstantiationError(
            "invalid instantiation point: x must be nonzero for this family"
        )
    return tuple(t.value(x, y) for t in family.terms)


_RAT = r"-?\d+(?:/\d+)?"
_POWER_RE = re.compile(rf"^x\s*(?P<op>[*/])\s*y\s*(?:\^\s*(?P<exp>-?\d+))?$")
_AFFINE_RE = re.compile(rf"^(?:(?P<c1>{_RAT})\s*\*\s*)?x\s*(?P<op>[+-])\s*(?P<rest>.+)$")
_Y_ATOM_RE = re.compile(rf"\(\s*(?P<c2>{_RAT})\s*\*\s*y\s*\)")


def _parse_term(chunk: str, offset: int, allow_offsets: bool) -> PatternTerm:
    s = chunk.strip()
    offset += len(chunk) - len(chunk.lstrip())
    if not s:
        raise PatternSyntaxError("empty term", offset)
    if s == "x":
        return VarX()
    if s == "y":
        return VarY()
    m = _POWER_RE.match(s)
    if m:
        exp = int(m.group("exp")) if m.group("exp") is not None else 1
        if m.group("op") == "/":
            exp = -exp
        if exp == 0:
            raise PatternSyntaxError("exponent must be nonzero", offset)
        return PowerTerm(exp)
    m = _AFFINE_RE.match(s)
    if m:
        c1 = parse_rational(m.group("c1")) if m.group("c1") else Fraction(1)
        if c1 == 0:
            raise PatternSyntaxError("x coefficient must be nonzero", offset)
        rest = m.group("rest").strip()
        if m.group("op") == "-":
            rest = "-" + rest
        atoms = {a.group("c2") for a in _Y_ATOM_RE.finditer(rest)}
        if len(atoms) > 1:
            raise PatternSyntaxError("mixed y scalings in one term", offset)
        if atoms:
            y_coef = parse_rational(atoms.pop())
            body = _Y_ATOM_RE.sub("u", rest)
            if re.search(r"\b[ty]\b", body):
                raise PatternSyntaxError("mix of scaled and bare variables", offset)
            var = "u"
        else:
            y_coef = Fraction(1)
            has_t = re.search(r"\bt\b", rest)
            has_y = re.search(r"\by\b", rest)
            if has_t and has_y:
                raise PatternSyntaxError("mix of t and y in polynomial part", offset)
            body = re.sub(r"\by\b", "t", rest) if has_y else rest
            var = "t"
        try:
            poly = parse_polynomial(body, var=var)
        except ValueError as exc:
            raise PatternSyntaxError(f"bad polynomial part: {exc}", offset) from None
        if poly.has_zero_constant_term:
            return AffineTerm(c1, poly, y_coef)
        if poly.degree == 0 and c1 == 1 and y_coef == 1:
            if allow_offsets:
                return OffsetTerm(poly.constant_term)
            raise PatternSyntaxError(
                "constant term must be zero (offset terms are disabled)", offset
            )
        raise PatternSyntaxError("constant term must be zero", offset)
    raise PatternSyntaxError(f"unrecognized term {s!r}", offset)


def parse_family(
    text: str,
    *,
    allow_offsets: bool = False,
    require_distinct_values: bool = False,
    strict_nonzero_x: bool = False,
) -> Family:
    """Parse a catalog key or ';'-separated term text into a Family; a bad key
    raises builtin_family's KeyError.  The distinct and strict flags apply to both."""
    m = _KEY_RE.match(text.strip())
    terms: list[PatternTerm] = []
    if m and m.group("name") in _CATALOG:
        terms.extend(builtin_family(text).terms)
    else:
        offset = 0
        for chunk in text.split(";"):
            terms.append(_parse_term(chunk, offset, allow_offsets))
            offset += len(chunk) + 1
    return Family(
        tuple(terms),
        require_distinct_values=require_distinct_values,
        strict_nonzero_x=strict_nonzero_x,
    )


# ---------------------------------------------------------------------------
# Built-in catalog


def _linears(k: int) -> list[PolynomialQ]:
    return [PolynomialQ([0, i]) for i in range(1, k + 1)]


class _Entry(NamedTuple):
    """One catalog family: x, y or power head terms, then x + p(t) per tail p."""

    arity: int  # integer arguments, each at least 1
    polys: str  # "" takes no list, "any" a list, "k" a list of exactly k
    head: Callable[..., tuple[PatternTerm, ...]]
    tail: Callable[..., list[PolynomialQ]]  # the polynomials when no list is given


_CATALOG = {
    "schur": _Entry(0, "", lambda: (VarX(), VarY()), lambda: _linears(1)),
    "vdw": _Entry(1, "", lambda k: (VarX(),), _linears),
    "moreira": _Entry(1, "k", lambda k: (VarX(), PowerTerm(1)), _linears),
    "bowen-sabok": _Entry(1, "", lambda k: (VarX(), VarY(), PowerTerm(1)), _linears),
    "quotient-poly": _Entry(1, "any", lambda a: (VarX(), PowerTerm(-a)), lambda a: _linears(1)),
    "product-poly": _Entry(1, "any", lambda a: (VarX(), PowerTerm(a)), lambda a: _linears(1)),
    "question-hs": _Entry(0, "", lambda: (VarX(), VarY(), PowerTerm(1)), lambda: _linears(1)),
}

_KEY_RE = re.compile(r"^(?P<name>[a-z-]+)(?:\((?P<args>.*)\))?$")


def builtin_family(key: str) -> Family:
    """Look up a catalog family by key text.

    Keys: schur, vdw(k), moreira(k[,[p;...]]), bowen-sabok(k),
    quotient-poly(a[,[p;...]]), product-poly(a[,[p;...]]), question-hs.
    Polynomial lists are ';'-separated polynomial texts in brackets, e.g.
    ``quotient-poly(2,[t;t^2])``.
    """
    m = _KEY_RE.match(key.strip())
    if not m:
        raise KeyError(f"bad catalog key {key!r}")
    name = m.group("name")
    if name not in _CATALOG:
        raise KeyError(f"unknown catalog family {name!r}")
    entry = _CATALOG[name]
    try:
        ints, polys = _split_key_args(m.group("args"))
        if len(ints) != entry.arity or (polys is not None and not entry.polys):
            raise ValueError("wrong arguments")
        if any(n < 1 for n in ints):
            raise ValueError(f"{name} needs an argument >= 1")
        if polys is None:
            polys = entry.tail(*ints)
        elif entry.polys == "k" and len(polys) != ints[0]:
            raise ValueError(f"{name} got k={ints[0]} but {len(polys)} polynomials")
        return Family(entry.head(*ints) + tuple(AffineTerm(1, p) for p in polys))
    except ValueError as exc:
        raise KeyError(f"bad catalog key {key!r}: {exc}") from None


def _split_key_args(args: str | None) -> tuple[list[int], list[PolynomialQ] | None]:
    if args is None or not args.strip():
        return [], None
    ints: list[int] = []
    polys: list[PolynomialQ] | None = None
    rest = args.strip()
    while rest:
        if rest.startswith("["):
            if polys is not None:
                raise ValueError("more than one polynomial list")
            close = rest.index("]")
            polys = [parse_polynomial(t) for t in rest[1:close].split(";")]
            rest = rest[close + 1 :].lstrip().lstrip(",").lstrip()
        else:
            head, _, tail = rest.partition(",")
            ints.append(int(head.strip()))
            rest = tail.strip()
    return ints, polys


def default_catalog() -> dict[str, Family]:
    """The stock instances exercised by the test suite, keyed by catalog text."""
    keys = [
        "schur",
        "vdw(2)",
        "moreira(1)",
        "bowen-sabok(1)",
        "quotient-poly(1,[t])",
        "product-poly(1,[t])",
        "question-hs",
    ]
    return {k: builtin_family(k) for k in keys}
