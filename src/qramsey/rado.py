"""Columns condition for one linear equation, with search cross-validation.

By Rado's theorem the equation c_1 x_1 + ... + c_m x_m = 0 is partition
regular exactly when it satisfies the columns condition: some nonempty
subset of its nonzero coefficients sums to zero.  (Zero coefficients are
free variables; counting them would wrongly certify equations like
0*x1 + x2 = 0.)  columns_condition tries the subsets in bitmask order, so
an equation has at most MAX_COLUMNS columns.  Its witness is the block
partition of the condition: the zero-sum subset, then every other column.
A LinearSystem is one equation, held as its tuple of exact coefficients,
Fractions or ints, and divided only exactly.  parse_equation rejects an
equation over more than MAX_COLUMNS variables before it builds the tuple,
with the same message that columns_condition raises for a wider system
built directly, and then an all-zero equation.

cross_validate maps small equations onto two-variable pattern families and
compares the verdict with finite search outcomes.  Only equations with two
or three active variables fit the pattern grammar; other shapes are
reported with no family and no search rows rather than guessed at.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .arith import format_rational, parse_int, parse_rational, signed_chunks
from .patterns import X, AffineTerm, Family, VarY
from .search import BUDGET_EXCEEDED, EXHAUSTED, check_search_limits, threshold_sweep


MAX_COLUMNS = 20


class LinearSystem(NamedTuple):
    coeffs: tuple[Fraction, ...]


_EQ_TERM_RE = re.compile(r"^(?P<coef>-?\d+(?:/\d+)?)?\s*\*?\s*x(?P<idx>\d+)$")


def parse_equation(text: str) -> LinearSystem:
    """Parse 'c1*x1 + c2*x2 + ... = 0' into its coefficients, x1 first.

    An equation over more than MAX_COLUMNS variables is rejected here,
    before its coefficient tuple is built.
    """
    lhs, sep, rhs = text.partition("=")
    if not sep or rhs.strip() != "0":
        raise ValueError(f"equation must end in '= 0': {text!r}")
    coeffs: dict[int, Fraction] = {}
    for sign, chunk in signed_chunks(lhs.strip()):
        chunk = chunk.strip()
        m = _EQ_TERM_RE.match(chunk)
        if m is None:
            raise ValueError(f"bad term {chunk!r} in equation")
        coef = parse_rational(m.group("coef")) if m.group("coef") else Fraction(1)
        idx = parse_int(m.group("idx"))
        if idx < 1:
            raise ValueError("variables are numbered from x1")
        coeffs[idx] = coeffs.get(idx, Fraction(0)) + sign * coef
    if not coeffs:
        raise ValueError("empty equation")
    width = max(coeffs)
    if width > MAX_COLUMNS:
        raise ValueError(f"{width} columns exceed the cap {MAX_COLUMNS}")
    if not any(coeffs.values()):
        raise ValueError("the equation is all zero")
    return LinearSystem(tuple(coeffs.get(j, Fraction(0)) for j in range(1, width + 1)))


class ColumnsConditionResult(NamedTuple):
    holds: bool
    partition: tuple[tuple[int, ...], ...] | None
    note: str


def columns_condition(system: LinearSystem) -> ColumnsConditionResult:
    """Decide the columns condition and produce a block partition witness."""
    coeffs = system.coeffs
    if len(coeffs) > MAX_COLUMNS:
        raise ValueError(f"{len(coeffs)} columns exceed the cap {MAX_COLUMNS}")
    nonzero = [j for j, c in enumerate(coeffs) if c != 0]
    # Subset-sum over nonzero coefficients, smallest bitmask first.
    for mask in range(1, 1 << len(nonzero)):
        subset = [nonzero[i] for i in range(len(nonzero)) if mask >> i & 1]
        if sum(coeffs[j] for j in subset) == 0:
            rest = tuple(j for j in range(len(coeffs)) if j not in subset)
            partition = (tuple(subset),) + ((rest,) if rest else ())
            return ColumnsConditionResult(True, partition, "nonzero subset sums to zero")
    return ColumnsConditionResult(
        False, None, f"no nonzero coefficient subset of {len(nonzero)} sums to zero"
    )


# ---------------------------------------------------------------------------
# Cross-validation against search


class ValidationRow(NamedTuple):
    n: int
    outcome: str
    nodes: int


class ConsistencyReport(NamedTuple):
    condition: ColumnsConditionResult
    family_text: str | None  # None when the equation's shape fits no family
    rows: tuple[ValidationRow, ...]
    note: str


def system_to_family(system: LinearSystem) -> tuple[Family | None, str]:
    """Express the equation as a two-variable family, if its shape fits.

    Zero coefficients are dropped: a free variable can repeat another
    solution value, so it never affects monochromatic solvability.
    """
    active = [(j, c) for j, c in enumerate(system.coeffs) if c != 0]
    if len(active) < 2:
        return None, "single active variables force the value zero"
    if len(active) == 2:
        (_, c1), (_, c2) = active
        q = Fraction(-c1, c2)
        family = Family((X,) if q == 1 else (X, AffineTerm(q)))
        return family, f"x2 = {format_rational(q)} * x1"
    if len(active) == 3:
        (_, c1), (_, c2), (_, c3) = active
        poly = (Fraction(0), Fraction(-c2, c3))
        family = Family((X, VarY(), AffineTerm(Fraction(-c1, c3), poly)))
        return family, "x3 solved in terms of x1, x2"
    return None, "more than three active variables do not fit the pattern grammar"


def cross_validate(
    system: LinearSystem,
    r: int,
    n_max: int,
    max_nodes: int | None = None,
) -> ConsistencyReport:
    """Compare the columns-condition verdict with integer-window search.

    At a fixed r no finite outcome contradicts either verdict: regularity
    promises exhaustion only for some large enough window, and non-regularity
    promises an avoiding coloring only for some number of colors.  The report
    is therefore always consistent; its note says where the search found the
    family unavoidable, if anywhere.  Each row's search stops after
    ``max_nodes`` nodes (None: no limit).
    """
    check_search_limits(r, max_nodes)
    if n_max < 1:
        raise ValueError(f"need at least one window, got n_max={n_max}")
    condition = columns_condition(system)
    family, note = system_to_family(system)
    if family is None:
        return ConsistencyReport(condition=condition, family_text=None, rows=(), note=note)
    rows = tuple(
        ValidationRow(n, res.outcome, res.nodes)
        for n, _, res in threshold_sweep(family, r, "int", 1, n_max, max_nodes=max_nodes)
    )
    verdict = "regular" if condition.holds else "non-regular"
    exhausted = [row.n for row in rows if row.outcome == EXHAUSTED]
    if exhausted:
        note = f"{verdict}; unavoidable from n={exhausted[0]} at r={r}"
    elif any(row.outcome == BUDGET_EXCEEDED for row in rows):
        note = f"{verdict}; search budget exhausted before a threshold was found"
    elif condition.holds:
        note = f"regular; still avoidable at every n <= {n_max} with r={r}"
    else:
        note = "non-regular and avoidable at every tested n"
    return ConsistencyReport(
        condition=condition, family_text=family.serialize(), rows=rows, note=note
    )
