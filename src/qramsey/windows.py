"""Finite windows approximating the rationals.

A window is built from its spec by ``parse_window``.  Three spec forms, each
with a documented canonical enumeration order:

* 'int:lo..hi': the integers lo..hi, ascending.
* 'farey:N[:+zero|:-zero][:+neg|:-neg]': fractions a/b in lowest terms with
  |a| <= N, 1 <= b <= N, ordered by (denominator, numerator) with 0 listed
  first.  Zero and the negative half are included unless switched off.
* 'mgrid:p1,p2,...:E[:+sign|:-sign]': products prod p_i^{e_i} with |e_i| <=
  E, ordered by exponent vector; with signs switched on the negated block
  follows the positive one.  Never contains 0.

A later flag overrides an earlier one.  A window is counted when its spec is
read, and it enumerates its elements and builds its membership index on first
use.  The index is keyed on (numerator, denominator) integer pairs, so a value
reduced by gcd with a positive denominator is looked up without building a
Fraction.  Enumeration refuses windows of more than ELEMENT_CAP elements, a
Farey window too large to count is refused when read, and a grid refuses
primes of 2^32 and above and exponent bounds above MAX_EXPONENT.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Callable, Iterator

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
    """A canonical spec, its element count and a callable enumerating the elements."""

    def __init__(self, spec: str, size: int, enumerate: Callable[[], Iterator[Fraction]]) -> None:
        self._spec = spec
        self._size = size
        self._enumerate = enumerate
        self._elements: tuple[Fraction, ...] | None = None
        self._index: dict[Pair, int] | None = None

    def size(self) -> int:
        return self._size

    def spec_string(self) -> str:
        return self._spec

    def check_cap(self) -> None:
        if self._size > ELEMENT_CAP:
            raise ValueError(f"window {self._spec} has {self._size} elements, cap is {ELEMENT_CAP}")

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
        return isinstance(other, Window) and self._spec == other._spec


_INT_RE = re.compile(r"^int:(-?\d+)\.\.(-?\d+)$")

# Spec flags of each window kind and their defaults: '+name' sets one, '-name' clears it.
_FLAGS = {"farey": {"zero": True, "neg": True}, "mgrid": {"sign": False}}


def parse_window(spec: str) -> Window:
    """Build a window from its spec string, in one of the forms the module lists."""
    spec = spec.strip()
    m = _INT_RE.match(spec)
    if m:
        lo, hi = parse_int(m.group(1)), parse_int(m.group(2))
        if lo > hi:
            raise ValueError(f"empty interval {lo}..{hi}")
        return Window(f"int:{lo}..{hi}", hi - lo + 1, lambda: map(Fraction, range(lo, hi + 1)))
    parts = spec.split(":")
    kind = parts[0]
    if kind == "farey" and len(parts) >= 2:
        try:
            n = parse_int(parts[1])
        except ValueError:
            raise ValueError(f"bad Farey bound in {spec!r}") from None
        flags = parts[2:]
    elif kind == "mgrid" and len(parts) >= 3:
        try:
            primes = tuple(parse_int(p) for p in parts[1].split(","))
            bound = parse_int(parts[2])
        except ValueError:
            raise ValueError(f"bad grid parameters in {spec!r}") from None
        flags = parts[3:]
    else:
        raise ValueError(f"unrecognized window spec {spec!r}")
    on = dict(_FLAGS[kind])
    for flag in flags:
        if flag[:1] not in ("+", "-") or flag[1:] not in on:
            raise ValueError(f"unknown flag {flag!r} in {spec!r}")
        on[flag[1:]] = flag[0] == "+"

    if kind == "farey":
        zero, neg = on["zero"], on["neg"]
        if n < 1:
            raise ValueError("Farey bound must be at least 1")
        canonical = f"farey:{n}" + ("" if zero else ":-zero") + ("" if neg else ":-neg")
        # Over n^2 / 2 pairs are coprime (under 0.46 n^2 share a prime),
        # so a window this large is refused before its pairs are counted.
        if n * n > 2 * ELEMENT_CAP:
            raise ValueError(f"window {canonical} has over {n * n // 2} elements, cap is {ELEMENT_CAP}")
        phi = list(range(n + 1))  # Euler's totient, by a sieve
        for p in range(2, n + 1):
            if phi[p] == p:
                for k in range(p, n + 1, p):
                    phi[k] -= phi[k] // p
        positives = 2 * sum(phi[1:]) - 1  # coprime pairs (a, b), 1 <= a, b <= n

        def farey() -> Iterator[Fraction]:
            if zero:
                yield Fraction(0)
            lo = -n if neg else 1
            for b in range(1, n + 1):
                for a in range(lo, n + 1):
                    if a != 0 and gcd(abs(a), b) == 1:
                        yield Fraction(a, b)

        return Window(canonical, positives * (2 if neg else 1) + zero, farey)

    sign = on["sign"]
    if len(set(primes)) != len(primes):
        raise ValueError(f"primes must be distinct: {primes}")
    for p in primes:
        if p >= 1 << 32:  # trial division then takes under 2^16 steps
            raise ValueError(f"grid prime {p} is not below 2^32")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
    if not 0 <= bound <= MAX_EXPONENT:  # values grow as p^bound
        raise ValueError(f"exponent bound must lie in 0..{MAX_EXPONENT}, got {bound}")

    def grid() -> Iterator[Fraction]:
        rng = range(-bound, bound + 1)
        for s in (1, -1) if sign else (1,):
            for exps in product(rng, repeat=len(primes)):
                v = Fraction(s)
                for p, e in zip(primes, exps):
                    v *= Fraction(p) ** e
                yield v

    canonical = f"mgrid:{','.join(map(str, primes))}:{bound}" + (":+sign" if sign else "")
    return Window(canonical, (2 * bound + 1) ** len(primes) * (2 if sign else 1), grid)
