"""Finite windows approximating the rationals.

Three window kinds, each with a documented canonical enumeration order:

* IntegerInterval(lo, hi): the integers lo..hi, ascending.
* FareyWindow(n): fractions a/b in lowest terms with |a| <= n, 1 <= b <= n,
  ordered by (denominator, numerator) with 0 listed first.  Zero and the
  negative half are included unless switched off.
* MultiplicativeGrid(primes, bound): products prod p_i^{e_i} with |e_i| <=
  bound, ordered by exponent vector; with signs enabled the negated block
  follows the positive one.  Never contains 0.

Windows enumerate their elements and build their membership index lazily, on
first access.  The index is keyed on (numerator, denominator) integer pairs,
so a value reduced by gcd with a positive denominator is looked up without
building a Fraction.  Enumeration refuses windows of more than ELEMENT_CAP
elements.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Iterable, Iterator

ELEMENT_CAP = 10_000_000


class WindowError(ValueError):
    pass


class CapExceededError(WindowError):
    """Window too large to enumerate under ELEMENT_CAP."""


Pair = tuple[int, int]


def pair_key(q: Fraction | int) -> Pair:
    """The index key of q: its numerator and its positive denominator, in lowest terms."""
    return q.numerator, q.denominator


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


class Window:
    """Common interface: elements(), size(), contains(), index_of(), spec_string()."""

    def __init__(self) -> None:
        self._elements: tuple[Fraction, ...] | None = None
        self._index: dict[Pair, int] | None = None

    def _enumerate(self) -> Iterator[Fraction]:
        raise NotImplementedError

    def size(self) -> int:
        raise NotImplementedError

    def contains(self, q: Fraction | int) -> bool:
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    def _check_cap(self) -> None:
        if self.size() > ELEMENT_CAP:
            raise CapExceededError(
                f"window {self.spec_string()} has {self.size()} elements, cap is {ELEMENT_CAP}"
            )

    def elements(self) -> tuple[Fraction, ...]:
        if self._elements is None:
            self._check_cap()
            self._elements = tuple(self._enumerate())
        return self._elements

    def pair_index(self) -> dict[Pair, int]:
        """Canonical position of each element, keyed on its pair_key."""
        if self._index is None:
            self._index = {pair_key(v): i for i, v in enumerate(self.elements())}
        return self._index

    def index_of(self, q: Fraction | int) -> int | None:
        """Position of q (an int or a Fraction) in canonical order, None when absent."""
        return self.pair_index().get(pair_key(q))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Window) and self.spec_string() == other.spec_string()

    def __hash__(self) -> int:
        return hash(self.spec_string())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec_string()!r})"


class IntegerInterval(Window):
    def __init__(self, lo: int, hi: int) -> None:
        super().__init__()
        if lo > hi:
            raise WindowError(f"empty interval {lo}..{hi}")
        self.lo = lo
        self.hi = hi

    def size(self) -> int:
        return self.hi - self.lo + 1

    def contains(self, q: Fraction | int) -> bool:
        q = Fraction(q)
        return q.denominator == 1 and self.lo <= q.numerator <= self.hi

    def _enumerate(self) -> Iterator[Fraction]:
        for n in range(self.lo, self.hi + 1):
            yield Fraction(n)

    def spec_string(self) -> str:
        return f"int:{self.lo}..{self.hi}"


class FareyWindow(Window):
    def __init__(
        self,
        n: int,
        include_zero: bool = True,
        include_negatives: bool = True,
    ) -> None:
        super().__init__()
        if n < 1:
            raise WindowError("Farey bound must be at least 1")
        self.n = n
        self.include_zero = include_zero
        self.include_negatives = include_negatives
        self._size: int | None = None

    def size(self) -> int:
        if self._size is None:
            positives = sum(
                1
                for b in range(1, self.n + 1)
                for a in range(1, self.n + 1)
                if gcd(a, b) == 1
            )
            total = positives * (2 if self.include_negatives else 1)
            if self.include_zero:
                total += 1
            self._size = total
        return self._size

    def contains(self, q: Fraction | int) -> bool:
        q = Fraction(q)
        if q == 0:
            return self.include_zero
        if q < 0 and not self.include_negatives:
            return False
        return abs(q.numerator) <= self.n and q.denominator <= self.n

    def _enumerate(self) -> Iterator[Fraction]:
        if self.include_zero:
            yield Fraction(0)
        lo = -self.n if self.include_negatives else 1
        for b in range(1, self.n + 1):
            for a in range(lo, self.n + 1):
                if a != 0 and gcd(abs(a), b) == 1:
                    yield Fraction(a, b)

    def spec_string(self) -> str:
        s = f"farey:{self.n}"
        if not self.include_zero:
            s += ":-zero"
        if not self.include_negatives:
            s += ":-neg"
        return s


class MultiplicativeGrid(Window):
    def __init__(
        self,
        primes: Iterable[int],
        bound: int,
        include_sign: bool = False,
    ) -> None:
        super().__init__()
        ps = tuple(primes)
        if not ps:
            raise WindowError("at least one prime required")
        if len(set(ps)) != len(ps):
            raise WindowError(f"primes must be distinct: {ps}")
        for p in ps:
            if not _is_prime(p):
                raise WindowError(f"{p} is not prime")
        if bound < 0:
            raise WindowError("exponent bound must be nonnegative")
        self.primes = ps
        self.bound = bound
        self.include_sign = include_sign

    def size(self) -> int:
        block = (2 * self.bound + 1) ** len(self.primes)
        return block * 2 if self.include_sign else block

    def _exponents_of(self, q: Fraction) -> tuple[int, ...] | None:
        # Factor q over self.primes; None when another prime divides it.
        exps = []
        num, den = q.numerator, q.denominator
        for p in self.primes:
            e = 0
            while num % p == 0:
                num //= p
                e += 1
            while den % p == 0:
                den //= p
                e -= 1
            exps.append(e)
        if abs(num) != 1 or den != 1:
            return None
        return tuple(exps)

    def contains(self, q: Fraction | int) -> bool:
        q = Fraction(q)
        if q == 0:
            return False
        if q < 0 and not self.include_sign:
            return False
        exps = self._exponents_of(abs(q))
        return exps is not None and all(abs(e) <= self.bound for e in exps)

    def _enumerate(self) -> Iterator[Fraction]:
        signs = (1, -1) if self.include_sign else (1,)
        rng = range(-self.bound, self.bound + 1)
        for sign in signs:
            for exps in product(rng, repeat=len(self.primes)):
                v = Fraction(sign)
                for p, e in zip(self.primes, exps):
                    v *= Fraction(p) ** e
                yield v

    def spec_string(self) -> str:
        s = f"mgrid:{','.join(str(p) for p in self.primes)}:{self.bound}"
        if self.include_sign:
            s += ":+sign"
        return s


_INT_RE = re.compile(r"^int:(-?\d+)\.\.(-?\d+)$")

# Spec flags of each window kind: flag -> (constructor keyword, value).
_FLAGS = {
    "farey": {
        "+zero": ("include_zero", True),
        "-zero": ("include_zero", False),
        "+neg": ("include_negatives", True),
        "-neg": ("include_negatives", False),
    },
    "mgrid": {"+sign": ("include_sign", True), "-sign": ("include_sign", False)},
}


def parse_window(spec: str) -> Window:
    """Build a window from its spec string.

    Forms: 'int:lo..hi', 'farey:N[:+zero|:-zero][:+neg|:-neg]',
    'mgrid:p1,p2,...:E[:+sign|:-sign]'.  Flag defaults match the
    constructors: Farey windows include zero and negatives, grids are
    positive only.
    """
    spec = spec.strip()
    m = _INT_RE.match(spec)
    if m:
        return IntegerInterval(int(m.group(1)), int(m.group(2)))
    parts = spec.split(":")
    kind = parts[0]
    if kind == "farey" and len(parts) >= 2:
        try:
            n = int(parts[1])
        except ValueError:
            raise WindowError(f"bad Farey bound in {spec!r}") from None
        make, args, flags = FareyWindow, (n,), parts[2:]
    elif kind == "mgrid" and len(parts) >= 3:
        try:
            primes = [int(p) for p in parts[1].split(",")]
            bound = int(parts[2])
        except ValueError:
            raise WindowError(f"bad grid parameters in {spec!r}") from None
        make, args, flags = MultiplicativeGrid, (primes, bound), parts[3:]
    else:
        raise WindowError(f"unrecognized window spec {spec!r}")
    options = {}
    for flag in flags:
        if flag not in _FLAGS[kind]:
            raise WindowError(f"unknown flag {flag!r} in {spec!r}")
        keyword, value = _FLAGS[kind][flag]
        options[keyword] = value
    return make(*args, **options)
