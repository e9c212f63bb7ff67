"""Monochromatic-instance detection over a window.

A candidate is a pair (x, y) whose full term list lands inside the window
with the family's constraints satisfied.  The table stores it as a plain
``(x, y, values)`` triple of window indices, values in term order, the format
of the test suite's brute-force oracle; so a coloring check is pure integer
work, and ``find_witness`` returns the first entry in table order whose
values share one color.  The table is built once per (family, window) and
reused across colorings; wherever a table is taken (``find_witness``,
``search_avoiding``, ``export_cnf``), ``check_table`` rejects one built for
another family or window.  A sweep builds one table per window ladder, its
top row's, and ``CandidateTable.restrict`` cuts it down to each lower row:
whether a pair is a candidate depends only on its values, so the entries
inside a sub-window are that window's table.  An entry whose indices do not
move is shared with the top table, so an ``int:1..n`` ladder, whose rows are
prefixes, holds about one table's entries, not two.

The table is built over exact integer pairs, not Fractions.  Each term's
``pair_parts`` evaluates, once per x and once per y, the part that depends on
that variable alone: a window index for y and for the terms free of y (x
itself, c*x and x + c), a reduced (numerator, denominator) pair for the two
halves of an affine term in y or a power term.

The first sum term c1*x + P(y), if there is one, is solved for y instead
of scanning every pair.  Over D, the lcm of the window's denominators and of
that term's part denominators, every window value and every part is an
integer.  The y rows are grouped by their y part times D; for each x, the
group keys shifted by (c1*x)*D meet the window's values times D in one
C-level set intersection.  Only those pairs are visited, sorted by y position
so that entries stay x-major with y in window order; a family with no sum
term visits every y row in the same loop.  Each other mixed term costs, per
visited pair, one integer sum or product of two pairs, one gcd and one
lookup in the window's pair index.  A reduced pair with a positive
denominator is exactly the numerator and denominator of its Fraction, so the
lookup finds what ``index_of`` finds.  Every witness is re-checked with
``Term.value`` through ``instantiate``.

The join takes a pair index.  ``build_candidates`` feeds it the whole
window's; ``find_witness`` without a table builds none and feeds it each
color class's part instead.  A candidate is monochromatic in color c exactly
when all its values lie in class c, and the join over class c drops the x and
y rows whose x-only or y-only values (x and y themselves, when they are
terms) leave the class, and finds the solved term's targets and the other
terms' values only in the class.  So it yields exactly the table's entries
of color c, in table order, and the least first entry over the classes is
the table scan's first hit.  The term parts, the lcm and the y-key grouping
are computed once for all classes.  ``verify`` and ``import-sat`` check a
coloring this way; callers that hold a table (``search_avoiding``,
``detect``) scan it instead.

Families whose terms never mention y are special-cased: the y coordinate is
pinned to the first nonzero window element, since term values do not depend
on it.  This keeps tables for families like {x, x + 3} linear in the window
size instead of quadratic.
"""

from __future__ import annotations

from itertools import combinations, groupby
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, NamedTuple

from .colorings import Coloring
from .patterns import (
    PRODUCT,
    SUM,
    X_ONLY,
    Y_ONLY,
    Family,
    PairIndex,
    Witness,
    instantiate,
)
from .windows import Window

PAIR_CAP = 25_000_000


class CandidateTable(NamedTuple):
    family: Family
    window: Window
    entries: tuple[tuple[int, int, tuple[int, ...]], ...]  # (x, y, values) index triples

    def constraint_groups(self) -> tuple[tuple[int, ...], ...]:
        """Distinct index sets, subsumption-pruned, for search and CNF export.

        A candidate forces "these indices are not all one color".  Any
        superset of a kept group is implied by it, so only the minimal sets
        survive.  Sorted by (size, indices); deterministic.
        """
        groups = sorted({tuple(sorted(set(values))) for _, _, values in self.entries})
        groups.sort(key=len)  # stable: by (size, indices)
        kept: list[tuple[int, ...]] = []
        kept_set: set[tuple[int, ...]] = set()
        sizes: list[int] = []  # the sizes among kept groups, all below the current one
        for size, same in groupby(groups, len):
            # combinations of a sorted tuple are sorted, so they match kept tuples
            new = [
                g for g in same
                if not any(sub in kept_set for k in sizes for sub in combinations(g, k))
            ]
            if new:
                kept += new
                kept_set.update(new)
                sizes.append(size)
        return tuple(kept)

    def restrict(self, window: Window) -> CandidateTable:
        """This table cut down to a sub-window: what ``build_candidates`` builds there.

        Keeps the entries whose x, y and values all lie in ``window`` and
        re-indexes them into it, in the same order.  A family without y has
        y pinned again, to the first nonzero element of ``window``; with no
        such element, the top table's pin lies outside and no entry is kept.
        Raises ValueError unless every element of ``window`` lies in this
        table's window, in the same relative order, which is what keeps the
        entry order x-major with y in window order.
        """
        # both indexes are keyed on pair_key, in element order
        where = list(map(window.pair_index().get, self.window.pair_index()))
        if [j for j in where if j is not None] != list(range(window.size())):
            raise ValueError(
                f"{window.spec_string()} is not a sub-window of {self.window.spec_string()}"
            )
        pin = None
        if not self.family.uses_y:
            pin = next((j for j, v in enumerate(window.elements()) if v != 0), None)
        get = where.__getitem__
        entries = []
        for entry in self.entries:
            x, y, values = entry
            x, y = where[x], where[y] if pin is None else pin
            if x is None or y is None:
                continue
            mapped = (x, y, tuple(map(get, values)))
            if None not in mapped[2]:
                # an unmoved entry is shared, so a prefix window adds no entries
                entries.append(entry if mapped == entry else mapped)
        return CandidateTable(self.family, window, tuple(entries))


class _JoinPlan(NamedTuple):
    """What the join needs besides a pair index, computed once per family and
    window: the x and y rows and, for the solved sum term, its x parts, the
    lcm D and the y rows grouped by their y part times D."""

    x_rows: list
    y_rows: list
    solved_x: list | None
    big: int
    by_key: dict[int, list]
    products: list[bool]
    in_term_order: Callable
    distinct: bool


def _join_plan(family: Family, window: Window) -> _JoinPlan:
    """Check the caps on the window's size, the element cap first, before
    enumerating it; evaluate each term's parts and arrange the rows."""
    window.check_cap()
    if family.uses_y and window.size() ** 2 > PAIR_CAP:
        raise ValueError(
            f"candidate table for {window.spec_string()} needs "
            f"{window.size() ** 2} pairs, cap is {PAIR_CAP}"
        )
    elems = window.elements()
    need_x = family.requires_nonzero_x
    xs = [i for i, v in enumerate(elems) if v != 0 or not need_x]
    ys = [i for i, v in enumerate(elems) if v != 0]
    if not family.uses_y:
        del ys[1:]  # the terms ignore y: pin it to the first nonzero element

    index = window.pair_index()
    x_vals, y_vals = [elems[i] for i in xs], [elems[i] for i in ys]
    parts = [t.pair_parts(x_vals, y_vals, index) for t in family.terms]
    x_only = [k for k, p in enumerate(parts) if p.op == X_ONLY]
    y_only = [k for k, p in enumerate(parts) if p.op == Y_ONLY]
    mixed = [k for k, p in enumerate(parts) if p.op not in (X_ONLY, Y_ONLY)]
    solved = [k for k in mixed if parts[k].op == SUM][:1]  # the sum term solved for y
    mixed = [k for k in mixed if k not in solved]
    # Indices are gathered x-only, y-only, solved, mixed; this restores term order.
    gathered = x_only + y_only + solved + mixed
    if gathered == sorted(gathered):
        in_term_order = tuple
    else:
        in_term_order = itemgetter(*(gathered.index(k) for k in range(len(parts))))

    x_rows = []
    for pos, i in enumerate(xs):
        fixed = [parts[k].per_x[pos] for k in x_only]
        if None not in fixed:
            x_rows.append((pos, i, fixed, [parts[k].per_x[pos] for k in mixed]))
    y_rows = []
    for pos, i in enumerate(ys):
        fixed = [parts[k].per_y[pos] for k in y_only]
        if None not in fixed:
            y_rows.append((pos, i, fixed, [parts[k].per_y[pos] for k in mixed]))

    solved_x, big, by_key = None, 1, {}
    if solved:
        # With D = big, c1*x + P(y) is the window value w iff P(y)*D == w*D - (c1*x)*D.
        solved_x, sy = parts[solved[0]].per_x, parts[solved[0]].per_y
        big = lcm(*{d for _, d in index}, *{d for _, d in solved_x}, *{d for _, d in sy})
        for row in y_rows:
            n, d = sy[row[0]]
            by_key.setdefault(n * (big // d), []).append(row)
    return _JoinPlan(
        x_rows, y_rows, solved_x, big, by_key, [parts[k].op == PRODUCT for k in mixed],
        in_term_order, family.require_distinct_values,
    )


def _join(plan: _JoinPlan, index: PairIndex) -> list[tuple[int, int, tuple[int, ...]]]:
    """The candidates whose values all lie in ``index``, in table order.

    ``index`` is the window's pair index or a part of it.  The x and y rows
    whose x-only or y-only values leave it are dropped; the solved term's
    targets and the other mixed terms' lookups see only its values.
    """
    inside = set(index.values())
    x_rows = [row for row in plan.x_rows if inside.issuperset(row[2])]
    solved_x, big = plan.solved_x, plan.big
    if solved_x is None:
        y_rows = [row for row in plan.y_rows if inside.issuperset(row[2])]
    else:
        targets = {n * (big // d): j for (n, d), j in index.items()}
        by_key = {}
        for key, rows in plan.by_key.items():
            if kept := [row for row in rows if inside.issuperset(row[2])]:
                by_key[key] = kept
    products, in_term_order, distinct = plan.products, plan.in_term_order, plan.distinct
    entries = []
    lookup = index.get
    for x_pos, xi, x_fixed, x_mixed in x_rows:
        if solved_x is None:
            survivors = y_rows
        else:
            n, d = solved_x[x_pos]
            shift = n * (big // d)
            survivors = [
                (pos, yi, y_fixed + [targets[w]], y_mixed)
                for w in targets.keys() & map(shift.__add__, by_key)
                for pos, yi, y_fixed, y_mixed in by_key[w - shift]
            ]
            survivors.sort(key=itemgetter(0))
        for _, yi, y_fixed, y_mixed in survivors:
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
                entries.append((xi, yi, idxs))
    return entries


def build_candidates(family: Family, window: Window) -> CandidateTable:
    """Enumerate all in-window instantiations, x-major then y in window order.

    A family that uses y needs at most PAIR_CAP (x, y) pairs.
    """
    entries = _join(_join_plan(family, window), window.pair_index())
    return CandidateTable(family, window, tuple(entries))


def find_witness(
    family: Family, coloring: Coloring, table: CandidateTable | None = None
) -> Witness | None:
    """First monochromatic candidate in table order, or None.

    Complete relative to the table: no witness is missed among in-window
    instantiations.  A given table is scanned.  Without one, the join runs
    once per color class, over the class's part of the pair index: it finds
    exactly the table's entries of that color, in table order, so the least
    first entry over the classes is the scan's.  The witness is re-checked
    through ``instantiate``.
    """
    colors = coloring.colors
    if table is None:
        plan = _join_plan(family, coloring.window)
        classes: dict[int, PairIndex] = {}
        for pair, j in coloring.window.pair_index().items():
            classes.setdefault(colors[j], {})[pair] = j
        firsts = [found[0] for part in classes.values() if (found := _join(plan, part))]
        if not firsts:
            return None
        entry = min(firsts)  # triples sort in table order: x, then y
        color = colors[entry[2][0]]
    else:
        check_table(family, coloring.window, table)
        for entry in table.entries:
            color = colors[entry[2][0]]
            if all(colors[j] == color for j in entry[2]):
                break
        else:
            return None
    elems = coloring.window.elements()
    x, y = elems[entry[0]], elems[entry[1]]
    values = instantiate(family, x, y)
    if any(coloring.color_of(v) != color for v in values):
        raise RuntimeError(
            f"candidate table entry {entry} is not monochromatic at "
            f"x={x}, y={y}: values {', '.join(map(str, values))}"
        )
    return Witness(x=x, y=y, color=color, values=values)


def check_table(family: Family, window: Window, table: CandidateTable) -> None:
    """Raise ValueError unless ``table`` was built for this family and window."""
    if table.family != family or table.window != window:
        raise ValueError("candidate table built for a different family or window")
