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
elements, and a grid refuses primes of 2^32 and above and exponent bounds
above MAX_EXPONENT.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Iterable, Iterator

from .arith import MAX_EXPONENT, parse_int

ELEMENT_CAP = 10_000_000


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
    """Common interface: elements(), size(), index_of(), spec_string()."""

    def __init__(self) -> None:
        self._elements: tuple[Fraction, ...] | None = None
        self._index: dict[Pair, int] | None = None

    def _enumerate(self) -> Iterator[Fraction]:
        raise NotImplementedError

    def size(self) -> int:
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    def check_cap(self) -> None:
        if self.size() > ELEMENT_CAP:
            raise ValueError(
                f"window {self.spec_string()} has {self.size()} elements, cap is {ELEMENT_CAP}"
            )

    def elements(self) -> tuple[Fraction, ...]:
        if self._elements is None:
            self.check_cap()
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
            raise ValueError(f"empty interval {lo}..{hi}")
        self.lo = lo
        self.hi = hi

    def size(self) -> int:
        return self.hi - self.lo + 1

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
            raise ValueError("Farey bound must be at least 1")
        self.n = n
        self.include_zero = include_zero
        self.include_negatives = include_negatives
        self._size: int | None = None

    def size(self) -> int:
        if self._size is None:
            # Over n^2 / 2 pairs are coprime (under 0.46 n^2 share a prime),
            # so a window this large is refused before its pairs are counted.
            if self.n * self.n > 2 * ELEMENT_CAP:
                raise ValueError(
                    f"window {self.spec_string()} has over {self.n * self.n // 2} elements,"
                    f" cap is {ELEMENT_CAP}"
                )
            phi = list(range(self.n + 1))  # Euler's totient, by a sieve
            for p in range(2, self.n + 1):
                if phi[p] == p:
                    for k in range(p, self.n + 1, p):
                        phi[k] -= phi[k] // p
            positives = 2 * sum(phi[1:]) - 1  # coprime pairs (a, b), 1 <= a, b <= n
            total = positives * (2 if self.include_negatives else 1)
            if self.include_zero:
                total += 1
            self._size = total
        return self._size

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
            raise ValueError("at least one prime required")
        if len(set(ps)) != len(ps):
            raise ValueError(f"primes must be distinct: {ps}")
        for p in ps:
            if p >= 1 << 32:  # trial division then takes under 2^16 steps
                raise ValueError(f"grid prime {p} is not below 2^32")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        if not 0 <= bound <= MAX_EXPONENT:  # values grow as p^bound
            raise ValueError(f"exponent bound must lie in 0..{MAX_EXPONENT}, got {bound}")
        self.primes = ps
        self.bound = bound
        self.include_sign = include_sign

    def size(self) -> int:
        block = (2 * self.bound + 1) ** len(self.primes)
        return block * 2 if self.include_sign else block

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
        return IntegerInterval(parse_int(m.group(1)), parse_int(m.group(2)))
    parts = spec.split(":")
    kind = parts[0]
    if kind == "farey" and len(parts) >= 2:
        try:
            n = parse_int(parts[1])
        except ValueError:
            raise ValueError(f"bad Farey bound in {spec!r}") from None
        make, args, flags = FareyWindow, (n,), parts[2:]
    elif kind == "mgrid" and len(parts) >= 3:
        try:
            primes = [parse_int(p) for p in parts[1].split(",")]
            bound = parse_int(parts[2])
        except ValueError:
            raise ValueError(f"bad grid parameters in {spec!r}") from None
        make, args, flags = MultiplicativeGrid, (primes, bound), parts[3:]
    else:
        raise ValueError(f"unrecognized window spec {spec!r}")
    options = {}
    for flag in flags:
        if flag not in _FLAGS[kind]:
            raise ValueError(f"unknown flag {flag!r} in {spec!r}")
        keyword, value = _FLAGS[kind][flag]
        options[keyword] = value
    return make(*args, **options)
