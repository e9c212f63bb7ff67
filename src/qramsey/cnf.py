"""CNF export of the avoiding-coloring decision, DIMACS style.

Of r colors, k = min(r, n) are encoded for a window of n elements, as the
search does: a coloring of n elements uses at most n colors, and colors are
interchangeable, so an avoiding r-coloring exists exactly when an avoiding
k-coloring does.  Variable v(e, c) = e*k + c + 1 asserts "element e has
color c".  Clauses:

* one at-least-one clause per element;
* for every candidate constraint and every color, a clause forbidding all
  members simultaneously true in that color.

At-most-one-color clauses are deliberately left out.  Any satisfying
assignment may mark several colors true for an element; reading off the
least true color per element still yields an avoiding coloring, because
dropping the extra trues can only shrink the per-color true sets and every
forbidden clause stays satisfied.  import_assignment applies exactly that
least-index rule, so the instance is equisatisfiable with the search.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .arith import parse_int
from .colorings import Coloring, check_colors
from .detector import CandidateTable, build_candidates, check_table
from .patterns import Family
from .windows import Window


class CnfInstance(NamedTuple):
    family: Family
    window: Window
    r: int
    clauses: tuple[tuple[int, ...], ...]

    @property
    def colors(self) -> int:
        """The colors encoded: min(r, window size)."""
        return min(self.r, self.window.size())

    @property
    def num_vars(self) -> int:
        return self.window.size() * self.colors


def _var(element: int, color: int, r: int) -> int:
    return element * r + color + 1


def export_cnf(
    family: Family, window: Window, r: int, table: CandidateTable | None = None
) -> CnfInstance:
    check_colors(r)
    if table is None:
        table = build_candidates(family, window)
    else:
        check_table(family, window, table)
    n = window.size()
    k = min(r, n)
    clauses: list[tuple[int, ...]] = []
    for e in range(n):
        clauses.append(tuple(_var(e, c, k) for c in range(k)))
    for group in table.constraint_groups():
        for c in range(k):
            clauses.append(tuple(-_var(e, c, k) for e in group))
    return CnfInstance(family=family, window=window, r=r, clauses=tuple(clauses))


def to_dimacs(cnf: CnfInstance) -> str:
    k = cnf.colors
    if k == cnf.r:
        colors = f"{k}; var(e,c) = e*r + c + 1"
    else:
        colors = f"{k} of {cnf.r}; var(e,c) = e*{k} + c + 1"
    lines = [
        f"c family: {cnf.family.serialize()}",
        f"c window: {cnf.window.spec_string()}",
        f"c colors: {colors}",
        f"p cnf {cnf.num_vars} {len(cnf.clauses)}",
    ]
    for clause in cnf.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


# Status lines that come with no model: minisat's result file (UNSAT, INDET)
# and the competition format (s ...).
_NO_MODEL = (["UNSAT"], ["INDET"], ["s", "UNSATISFIABLE"], ["s", "UNKNOWN"])


def parse_assignment(text: str) -> list[int]:
    """Collect signed literals from solver output.

    Accepts raw literal lines as well as minisat/picosat style 'v ' lines;
    comment lines, status lines (minisat's result file opens with SAT) and
    the trailing 0 are ignored.  A status without a model (UNSAT, or INDET
    when the solver gave up) raises ValueError.
    """
    lits: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if line.split() in _NO_MODEL:
            raise ValueError(f"the solver found no model ({line})")
        if not line or line == "SAT" or line.startswith(("c", "s")):
            continue
        if line.startswith("v"):
            line = line[1:]
        lits += [lit for lit in map(parse_int, line.split()) if lit]
    return lits


def import_assignment(window: Window, r: int, literals: Iterable[int]) -> Coloring:
    """Read a total satisfying assignment of ``export_cnf``'s encoding, whose
    numbering depends on the window size and r only, back into a coloring.

    Each element takes its least true color among the encoded ones.  An
    element with no true color violates the at-least-one clause and is
    rejected.
    """
    check_colors(r)
    n = window.size()
    k = min(r, n)
    truth: dict[int, bool] = {}
    for lit in literals:
        var = abs(lit)
        if not 1 <= var <= n * k:
            raise ValueError(f"literal {lit} outside 1..{n * k}")
        truth[var] = lit > 0
    missing = next((v for v in range(1, n * k + 1) if v not in truth), None)
    if missing is not None:
        raise ValueError(f"assignment not total: variable {missing} unset")
    colors = []
    for e in range(n):
        chosen = next((c for c in range(k) if truth[_var(e, c, k)]), None)
        if chosen is None:
            raise ValueError(f"assignment violates at-least-one clause for element {e}")
        colors.append(chosen)
    return Coloring(window, colors, r)
