"""Columns condition for linear systems, with search cross-validation.

A system A x = 0 satisfies the columns condition when its columns split into
ordered blocks B_1, ..., B_t such that the B_1 columns sum to zero and every
later block's column sum lies in the rational span of all earlier columns.

For a single equation this reduces to: some nonempty subset of the nonzero
coefficients sums to zero.  (Zero coefficients are free variables; counting
them would wrongly certify systems like 0*x1 + x2 = 0.)  columns_condition
takes that shortcut for a single equation and the general path for a system
of two or more rows.  The general path enumerates first blocks and then
greedily absorbs zero-excess subsets; the greedy step is complete because
the spans only grow.  Both paths enumerate column subsets, so systems are
limited to MAX_COLUMNS columns.

cross_validate maps small single equations onto two-variable pattern
families and compares the verdict with finite search outcomes.  Only
equations with two or three active variables fit the pattern grammar; other
shapes are reported as unsupported rather than guessed at.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arith import PolynomialQ, format_rational, parse_rational, signed_chunks
from .patterns import AffineTerm, Family, VarX, VarY
from .search import BUDGET_EXCEEDED, EXHAUSTED, SearchBudget, threshold_sweep


MAX_COLUMNS = 20


class RadoError(ValueError):
    pass


@dataclass(frozen=True)
class LinearSystem:
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(Fraction(c) for c in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise RadoError("system needs at least one row")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise RadoError("ragged coefficient matrix")
        if width == 0:
            raise RadoError("system needs at least one column")
        for i, row in enumerate(rows):
            if all(c == 0 for c in row):
                raise RadoError(f"row {i} is all zero")

    @classmethod
    def single(cls, coeffs: Sequence[Fraction | int]) -> "LinearSystem":
        return cls((tuple(Fraction(c) for c in coeffs),))

    @property
    def num_columns(self) -> int:
        return len(self.rows[0])

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.rows)


_EQ_TERM_RE = re.compile(r"^(?P<coef>-?\d+(?:/\d+)?)?\s*\*?\s*x(?P<idx>\d+)$")


def parse_equation(text: str) -> LinearSystem:
    """Parse 'c1*x1 + c2*x2 + ... = 0' into a single-row system."""
    lhs, sep, rhs = text.partition("=")
    if not sep or rhs.strip() != "0":
        raise RadoError(f"equation must end in '= 0': {text!r}")
    coeffs: dict[int, Fraction] = {}
    for sign, chunk, _ in signed_chunks(lhs.strip()):
        chunk = chunk.strip()
        m = _EQ_TERM_RE.match(chunk)
        if m is None:
            raise RadoError(f"bad term {chunk!r} in equation")
        coef = parse_rational(m.group("coef")) if m.group("coef") else Fraction(1)
        idx = int(m.group("idx"))
        if idx < 1:
            raise RadoError("variables are numbered from x1")
        coeffs[idx] = coeffs.get(idx, Fraction(0)) + sign * coef
    if not coeffs:
        raise RadoError("empty equation")
    width = max(coeffs)
    return LinearSystem.single([coeffs.get(j, Fraction(0)) for j in range(1, width + 1)])


@dataclass(frozen=True)
class ColumnsConditionResult:
    holds: bool
    partition: tuple[tuple[int, ...], ...] | None
    note: str


def _reduce(vec: tuple[Fraction, ...], basis: list[tuple[Fraction, ...]]) -> list[Fraction]:
    """What is left of vec after elimination by the basis rows.

    The basis rows are kept in echelon form (leading entries normalized).
    """
    residue = list(vec)
    for brow in basis:
        lead = next(i for i, v in enumerate(brow) if v != 0)
        if residue[lead] != 0:
            f = residue[lead]
            for i in range(len(residue)):
                residue[i] -= f * brow[i]
    return residue


def _in_span(vec: tuple[Fraction, ...], basis: list[tuple[Fraction, ...]]) -> bool:
    return not any(_reduce(vec, basis))


def _extend_basis(
    basis: list[tuple[Fraction, ...]], vec: tuple[Fraction, ...]
) -> list[tuple[Fraction, ...]]:
    residue = _reduce(vec, basis)
    lead = next((i for i, v in enumerate(residue) if v != 0), None)
    if lead is None:
        return basis
    f = residue[lead]
    return basis + [tuple(v / f for v in residue)]


def columns_condition(system: LinearSystem) -> ColumnsConditionResult:
    """Decide the columns condition and produce a block partition witness.

    A single equation takes the subset-sum shortcut, a system the general
    block search.
    """
    if system.num_columns > MAX_COLUMNS:
        raise RadoError(f"{system.num_columns} columns exceed the cap {MAX_COLUMNS}")
    if len(system.rows) == 1:
        return _shortcut(system.rows[0])
    return _general(system)


def _shortcut(coeffs: tuple[Fraction, ...]) -> ColumnsConditionResult:
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


def _general(system: LinearSystem) -> ColumnsConditionResult:
    n = system.num_columns
    cols = [system.column(j) for j in range(n)]
    zero = tuple(Fraction(0) for _ in system.rows)
    # Subset sums once per call; masks index subsets of all columns.
    sums: list[tuple[Fraction, ...]] = [zero] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        j = low.bit_length() - 1
        prev = sums[mask ^ low]
        sums[mask] = tuple(p + c for p, c in zip(prev, cols[j]))

    full = (1 << n) - 1
    first_blocks = [m for m in range(1, 1 << n) if sums[m] == zero]
    for b1 in first_blocks:
        blocks = [b1]
        used = b1
        basis: list[tuple[Fraction, ...]] = []
        for j in range(n):
            if b1 >> j & 1:
                basis = _extend_basis(basis, cols[j])
        while used != full:
            rem = full ^ used
            # Any nonempty subset of the remainder whose sum lies in the
            # current span can be the next block; spans only grow, so taking
            # the first one found never loses a completion.
            sub = rem
            chosen = 0
            while sub:
                if _in_span(sums[sub], basis):
                    chosen = sub
                    break
                sub = (sub - 1) & rem
            if not chosen:
                break
            blocks.append(chosen)
            used |= chosen
            for j in range(n):
                if chosen >> j & 1:
                    basis = _extend_basis(basis, cols[j])
        if used == full:
            partition = tuple(
                tuple(j for j in range(n) if b >> j & 1) for b in blocks
            )
            return ColumnsConditionResult(True, partition, "block partition found")
    return ColumnsConditionResult(
        False, None, f"exhausted {len(first_blocks)} candidate first blocks"
    )


# ---------------------------------------------------------------------------
# Cross-validation against search


@dataclass(frozen=True)
class ValidationRow:
    n: int
    outcome: str
    nodes: int


@dataclass(frozen=True)
class ConsistencyReport:
    condition: ColumnsConditionResult
    supported: bool
    family_text: str | None
    rows: tuple[ValidationRow, ...]
    consistent: bool
    note: str


def system_to_family(system: LinearSystem) -> tuple[Family | None, str]:
    """Express a single equation as a two-variable family, if its shape fits.

    Zero coefficients are dropped: a free variable can repeat another
    solution value, so it never affects monochromatic solvability.
    """
    if len(system.rows) != 1:
        return None, "multi-row systems are outside the pattern fragment"
    coeffs = system.rows[0]
    active = [(j, c) for j, c in enumerate(coeffs) if c != 0]
    if len(active) < 2:
        return None, "single active variables force the value zero"
    if len(active) == 2:
        (_, c1), (_, c2) = active
        q = -c1 / c2
        family = Family((VarX(), AffineTerm(q, PolynomialQ(), Fraction(1))))
        return family, f"x2 = {format_rational(q)} * x1"
    if len(active) == 3:
        (_, c1), (_, c2), (_, c3) = active
        xc = -c1 / c3
        yc = -c2 / c3
        family = Family(
            (VarX(), VarY(), AffineTerm(xc, PolynomialQ([Fraction(0), yc]), Fraction(1)))
        )
        return family, "x3 solved in terms of x1, x2"
    return None, "more than three active variables do not fit the pattern grammar"


def cross_validate(
    system: LinearSystem,
    r: int,
    n_max: int,
    budget: SearchBudget | None = None,
) -> ConsistencyReport:
    """Compare the columns-condition verdict with integer-window search.

    At a fixed r no finite outcome contradicts either verdict: regularity
    promises exhaustion only for some large enough window, and non-regularity
    promises an avoiding coloring only for some number of colors.  The report
    is therefore always consistent; its note says where the search found the
    family unavoidable, if anywhere.
    """
    if r < 1:
        raise ValueError(f"need at least one color, got r={r}")
    if n_max < 1:
        raise ValueError(f"need at least one window, got n_max={n_max}")
    condition = columns_condition(system)
    family, note = system_to_family(system)
    if family is None:
        return ConsistencyReport(
            condition=condition,
            supported=False,
            family_text=None,
            rows=(),
            consistent=True,
            note=note,
        )
    rows = tuple(
        ValidationRow(n, res.outcome, res.nodes)
        for n, _, res in threshold_sweep(family, r, "int", 1, n_max, budget=budget)
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
        condition=condition,
        supported=True,
        family_text=family.serialize(),
        rows=rows,
        consistent=True,
        note=note,
    )
