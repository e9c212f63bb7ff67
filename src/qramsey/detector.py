"""Monochromatic-instance detection over a window.

A candidate is a pair (x, y) whose full term list lands inside the window
with the family's constraints satisfied; it is stored as window indices so a
coloring check is pure integer work.  The table is built once per
(family, window) and reused across colorings.

The table is built over exact integer pairs, not Fractions.  Each term's
``pair_parts`` evaluates, once per x and once per y, the part that depends on
that variable alone: a window index for x, y, offset and y-free terms, a
reduced (numerator, denominator) pair for the two halves of an affine or
power term.  The join below then costs, per (x, y) pair and term that mixes
x and y, one integer sum or product of two pairs, one gcd and one lookup in
the window's pair index.
A reduced pair with a positive denominator is exactly the numerator and
denominator of its Fraction, so the lookup finds what ``index_of`` finds.
Every witness is re-checked with ``Term.value`` through ``instantiate``.

Families whose terms never mention y are special-cased: the y coordinate is
pinned to the first nonzero window element, since term values do not depend
on it.  This keeps tables for families like {x, x + 3} linear in the window
size instead of quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import itemgetter

from .colorings import Coloring
from .patterns import PRODUCT, X_ONLY, Y_ONLY, Family, Witness, instantiate
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
    xs = [i for i, v in enumerate(elems) if v != 0 or not need_x]
    if family.uses_y and len(elems) * len(elems) > PAIR_CAP:
        raise CapExceededError(
            f"candidate table for {window.spec_string()} needs "
            f"{len(elems) ** 2} pairs, cap is {PAIR_CAP}"
        )
    ys = [i for i, v in enumerate(elems) if v != 0]
    if not family.uses_y:
        del ys[1:]  # the terms ignore y: pin it to the first nonzero element

    index = window.pair_index()
    x_vals, y_vals = [elems[i] for i in xs], [elems[i] for i in ys]
    parts = [t.pair_parts(x_vals, y_vals, index) for t in family.terms]
    x_only = [k for k, p in enumerate(parts) if p.op == X_ONLY]
    y_only = [k for k, p in enumerate(parts) if p.op == Y_ONLY]
    mixed = [k for k, p in enumerate(parts) if p.op not in (X_ONLY, Y_ONLY)]
    # Indices are gathered x-only, y-only, mixed; this restores term order.
    gathered = x_only + y_only + mixed
    if gathered == sorted(gathered):
        in_term_order = tuple
    else:
        in_term_order = itemgetter(*(gathered.index(k) for k in range(len(parts))))
    products = [parts[k].op == PRODUCT for k in mixed]

    x_rows = []
    for pos, i in enumerate(xs):
        fixed = [parts[k].per_x[pos] for k in x_only]
        if None not in fixed:
            x_rows.append((i, fixed, [parts[k].per_x[pos] for k in mixed]))
    y_rows = []
    for pos, i in enumerate(ys):
        fixed = [parts[k].per_y[pos] for k in y_only]
        if None not in fixed:
            y_rows.append((i, fixed, [parts[k].per_y[pos] for k in mixed]))

    entries: list[Candidate] = []
    distinct = family.require_distinct_values
    lookup = index.get
    for xi, x_fixed, x_mixed in x_rows:
        for yi, y_fixed, y_mixed in y_rows:
            idxs = x_fixed + y_fixed
            for product, (a, b), (c, d) in zip(products, x_mixed, y_mixed):
                num = a * c if product else a * d + c * b
                den = b * d
                g = gcd(num, den)
                j = lookup((num // g, den // g))
                if j is None:
                    break
                idxs.append(j)
            else:
                idxs = in_term_order(idxs)
                if distinct and len(set(idxs)) != len(idxs):
                    continue
                entries.append(Candidate(xi, yi, idxs))
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
    if any(coloring.color_of(v) != color for v in values):
        raise RuntimeError(
            f"candidate table entry {entry} is not monochromatic at "
            f"x={x}, y={y}: values {', '.join(map(str, values))}"
        )
    return Witness(x=x, y=y, color=color, values=values)
