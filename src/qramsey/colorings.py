"""Colorings of a window: dense color arrays indexed by window position.

Text format: ``"<window-spec> r=<colors> [c0,c1,...]"``, for example
``"int:1..4 r=2 [0,1,0,1]"``.

Enumeration supports a symmetry switch.  With symmetry on, only canonical
representatives under color permutation are produced: arrays whose colors
make their first appearance in increasing order (restricted growth up to r).
Every raw coloring maps onto exactly one representative by relabeling.
"""

from __future__ import annotations

import re
from fractions import Fraction
from random import Random
from typing import Iterator, Sequence

from .windows import Window, parse_window


class ColoringError(ValueError):
    pass


class Coloring:
    __slots__ = ("window", "colors", "r")

    def __init__(self, window: Window, colors: Sequence[int], r: int) -> None:
        colors = tuple(colors)
        if r < 1:
            raise ColoringError("need at least one color")
        if len(colors) != window.size():
            raise ColoringError(
                f"{len(colors)} colors for a window of size {window.size()}"
            )
        bad = next((c for c in colors if not 0 <= c < r), None)
        if bad is not None:
            raise ColoringError(f"color {bad} out of range 0..{r - 1}")
        self.window = window
        self.colors = colors
        self.r = r

    def color_of_index(self, i: int) -> int:
        return self.colors[i]

    def color_of(self, q: Fraction | int) -> int:
        i = self.window.index_of(q)
        if i is None:
            raise ColoringError(f"{q} not in window {self.window.spec_string()}")
        return self.colors[i]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Coloring)
            and self.window == other.window
            and self.colors == other.colors
            and self.r == other.r
        )

    def __hash__(self) -> int:
        return hash((self.window, self.colors, self.r))

    def __repr__(self) -> str:
        return f"Coloring({serialize_coloring(self)!r})"


def canonical_form(colors: Sequence[int]) -> tuple[int, ...]:
    """Relabel so colors appear in first-occurrence order."""
    relabel: dict[int, int] = {}
    out = []
    for c in colors:
        if c not in relabel:
            relabel[c] = len(relabel)
        out.append(relabel[c])
    return tuple(out)


def enumerate_colorings(
    window: Window, r: int, symmetry: bool = False
) -> Iterator[Coloring]:
    """Stream colorings in lexicographic color order.

    With symmetry on, only canonical representatives are produced.
    """
    n = window.size()
    work = [0] * n

    def rec(i: int, used: int) -> Iterator[Coloring]:
        if i == n:
            yield Coloring(window, tuple(work), r)
            return
        top = r if not symmetry else min(used + 1, r)
        for c in range(top):
            work[i] = c
            yield from rec(i + 1, max(used, c + 1))
        work[i] = 0

    return rec(0, 0)


def count_colorings(n: int, r: int, symmetry: bool = False) -> int:
    """Closed-form count matching enumerate_colorings."""
    if not symmetry:
        return r**n
    # Restricted growth strings with at most r distinct values: sum of
    # Stirling partition numbers S(n, j) for j = 1..r.
    total = 0
    for j in range(1, min(r, n) + 1):
        total += _stirling2(n, j)
    return total if n > 0 else 1


def _stirling2(n: int, k: int) -> int:
    prev = [1] + [0] * k
    for _ in range(n):
        cur = [0] * (k + 1)
        for j in range(1, k + 1):
            cur[j] = j * prev[j] + prev[j - 1]
        prev = cur
    return prev[k]


def list_colorings(
    window: Window, r: int, symmetry: bool = False, budget: int = 1_000_000
) -> list[Coloring]:
    """Materialize the enumeration; refuses when the count exceeds the budget."""
    total = count_colorings(window.size(), r, symmetry)
    if total > budget:
        raise ColoringError(f"{total} colorings exceed materialization budget {budget}")
    return list(enumerate_colorings(window, r, symmetry))


def random_coloring(window: Window, r: int, rng: Random) -> Coloring:
    return Coloring(window, [rng.randrange(r) for _ in range(window.size())], r)


_COLORING_RE = re.compile(r"^\s*(\S+)\s+r=(\d+)\s*\[([-\d,\s]*)\]\s*$")


def parse_coloring(text: str) -> Coloring:
    m = _COLORING_RE.match(text)
    if m is None:
        raise ColoringError(f"bad coloring text {text!r}")
    window = parse_window(m.group(1))
    r = int(m.group(2))
    body = m.group(3).strip()
    colors = [int(p) for p in body.split(",")] if body else []
    return Coloring(window, colors, r)


def serialize_coloring(coloring: Coloring) -> str:
    body = ",".join(str(c) for c in coloring.colors)
    return f"{coloring.window.spec_string()} r={coloring.r} [{body}]"
