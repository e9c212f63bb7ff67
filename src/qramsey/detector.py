"""Monochromatic-instance detection over a window.

A candidate is a pair (x, y) whose full term list lands inside the window
with the family's constraints satisfied; it is stored as window indices so a
coloring check is pure integer work.  The table is built once per
(family, window) and reused across colorings.

Families whose terms never mention y are special-cased: the y coordinate is
pinned to the first nonzero window element, since term values do not depend
on it.  This keeps tables for families like {x, x + 3} linear in the window
size instead of quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .colorings import Coloring
from .patterns import Family, Witness, instantiate
from .windows import CapExceededError, Window

PAIR_CAP = 25_000_000


@dataclass(frozen=True)
class Candidate:
    x_index: int
    y_index: int
    value_indices: tuple[int, ...]


@dataclass(frozen=True)
class CandidateTable:
    family: Family
    window: Window
    entries: tuple[Candidate, ...]

    def constraint_groups(self) -> tuple[tuple[int, ...], ...]:
        """Distinct index sets, subsumption-pruned, for search and CNF export.

        A candidate forces "these indices are not all one color".  Any
        superset of a kept group is implied by it, so only the minimal sets
        survive.  Sorted by (size, indices); deterministic.
        """
        groups = sorted(
            {tuple(sorted(set(e.value_indices))) for e in self.entries},
            key=lambda g: (len(g), g),
        )
        kept: list[tuple[int, ...]] = []
        kept_set: set[tuple[int, ...]] = set()
        for g in groups:
            # combinations of a sorted tuple are sorted, so they match kept tuples
            if not any(
                sub in kept_set for size in range(1, len(g)) for sub in combinations(g, size)
            ):
                kept.append(g)
                kept_set.add(g)
        return tuple(kept)


def build_candidates(family: Family, window: Window) -> CandidateTable:
    """Enumerate all in-window instantiations, x-major then y in window order.

    A family that uses y needs at most PAIR_CAP (x, y) pairs.
    """
    elems = window.elements()
    need_x = family.requires_nonzero_x
    if family.uses_y:
        if len(elems) * len(elems) > PAIR_CAP:
            raise CapExceededError(
                f"candidate table for {window.spec_string()} needs "
                f"{len(elems) ** 2} pairs, cap is {PAIR_CAP}"
            )
        y_range = list(enumerate(elems))
    else:
        y0 = next(((i, v) for i, v in enumerate(elems) if v != 0), None)
        y_range = [y0] if y0 is not None else []

    entries: list[Candidate] = []
    distinct = family.require_distinct_values
    terms = family.terms
    for xi, x in enumerate(elems):
        if need_x and x == 0:
            continue
        for yi, y in y_range:
            if y == 0:
                continue
            idxs = []
            ok = True
            for t in terms:
                j = window.index_of(t.value(x, y))
                if j is None:
                    ok = False
                    break
                idxs.append(j)
            if not ok:
                continue
            if distinct and len(set(idxs)) != len(idxs):
                continue
            entries.append(Candidate(xi, yi, tuple(idxs)))
    return CandidateTable(family, window, tuple(entries))


def find_witness(
    family: Family, coloring: Coloring, table: CandidateTable | None = None
) -> Witness | None:
    """First monochromatic candidate in table order, or None.

    Complete relative to the table: no witness is missed among in-window
    instantiations.
    """
    found = all_witnesses(family, coloring, limit=1, table=table)
    return found[0] if found else None


def all_witnesses(
    family: Family,
    coloring: Coloring,
    limit: int = 1000,
    table: CandidateTable | None = None,
) -> list[Witness]:
    """Up to ``limit`` witnesses in table order."""
    if table is None:
        table = build_candidates(family, coloring.window)
    _check_table(family, coloring, table)
    colors = coloring.colors
    elems = coloring.window.elements()
    out: list[Witness] = []
    for entry in table.entries:
        if len(out) >= limit:
            break
        color = colors[entry.value_indices[0]]
        if all(colors[j] == color for j in entry.value_indices):
            out.append(_witness(family, coloring, elems, entry, color))
    return out


def _check_table(family: Family, coloring: Coloring, table: CandidateTable) -> None:
    if table.family != family or table.window != coloring.window:
        raise ValueError("candidate table built for a different family or window")


def _witness(
    family: Family,
    coloring: Coloring,
    elems: tuple[Fraction, ...],
    entry: Candidate,
    color: int,
) -> Witness:
    x, y = elems[entry.x_index], elems[entry.y_index]
    values = instantiate(family, x, y)
    assert all(coloring.color_of(v) == color for v in values)
    return Witness(x=x, y=y, color=color, values=values)
