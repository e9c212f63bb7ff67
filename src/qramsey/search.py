"""Exhaustive search for avoiding colorings.

The solver assigns colors to window elements by backtracking over the
candidate constraints ("these indices may not be monochromatic"):

* assignment order is most-constrained-first (descending candidate degree,
  index as tie-break);
* propagation is forced-color elimination: when all but one member of a
  constraint share a color, that color is struck from the last member;
* symmetry breaking fixes the first assigned element to color 0 and only
  admits a brand-new color directly after the existing ones.

Outcomes: an avoiding coloring (re-checked through the detector before it is
returned), exhaustion of the tree (with node count and a hash of the decision
trace), or budget exceeded.  The search is one sequential depth-first pass
from the root, so the node count and the trace hash depend only on the
instance.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

from .colorings import Coloring
from .detector import CandidateTable, build_candidates, find_witness
from .patterns import Family
from .windows import FareyWindow, IntegerInterval, MultiplicativeGrid, Window

AVOIDING = "avoiding"
EXHAUSTED = "exhausted"
BUDGET_EXCEEDED = "budget-exceeded"

# The node and time budget is checked once every this many nodes.
_CHECK_EVERY = 64


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int | None = None
    max_seconds: float | None = None


@dataclass(frozen=True)
class SearchResult:
    outcome: str
    coloring: Coloring | None
    nodes: int
    proof_log_hash: str | None
    wall_time: float
    family: Family
    family_text: str
    window_spec: str
    r: int
    budget: SearchBudget


class _BudgetHit(Exception):
    pass


class _Search:
    """Backtracking state: colors, domains, constraint counts and the trail."""

    def __init__(
        self,
        members: tuple[tuple[int, ...], ...],
        cons_of: list[list[int]],
        order: list[int],
        n: int,
        r: int,
        budget: SearchBudget,
    ) -> None:
        self.members = members
        self.cons_of = cons_of
        self.order = order
        self.r = r
        self.max_nodes = budget.max_nodes
        self.deadline = (
            time.monotonic() + budget.max_seconds if budget.max_seconds is not None else None
        )
        self.colors = [-1] * n
        self.domain = [(1 << r) - 1] * n
        self.ccount = [0] * len(members)
        self.ccolor = [-1] * len(members)  # -1 empty, >=0 uniform, -2 mixed
        self.trail: list[tuple] = []
        self.nodes = 0
        self.trace = hashlib.sha256()

    def _node(self, e: int, c: int) -> None:
        self.nodes += 1
        self.trace.update(b"%d:%d;" % (e, c))
        if self.nodes % _CHECK_EVERY == 0:
            if self.max_nodes is not None and self.nodes > self.max_nodes:
                raise _BudgetHit
            if self.deadline is not None and time.monotonic() > self.deadline:
                raise _BudgetHit

    def _apply(self, e: int, c: int) -> bool:
        colors, domain = self.colors, self.domain
        colors[e] = c
        self.trail.append(("a", e))
        for ci in self.cons_of[e]:
            oldc, oldu = self.ccount[ci], self.ccolor[ci]
            self.trail.append(("k", ci, oldc, oldu))
            cnt = oldc + 1
            self.ccount[ci] = cnt
            u = c if oldc == 0 else (c if oldu == c else -2)
            self.ccolor[ci] = u
            if u >= 0:
                size = len(self.members[ci])
                if cnt == size:
                    return False
                if cnt == size - 1:
                    free = -1
                    for t in self.members[ci]:
                        if colors[t] < 0:
                            free = t
                            break
                    bit = 1 << u
                    if domain[free] & bit:
                        domain[free] &= ~bit
                        self.trail.append(("d", free, bit))
                        if domain[free] == 0:
                            return False
        return True

    def _undo(self, mark: int) -> None:
        trail = self.trail
        while len(trail) > mark:
            step = trail.pop()
            if step[0] == "a":
                self.colors[step[1]] = -1
            elif step[0] == "k":
                self.ccount[step[1]] = step[2]
                self.ccolor[step[1]] = step[3]
            else:
                self.domain[step[1]] |= step[2]

    def _dfs(self, depth: int, used: int) -> bool:
        if depth == len(self.order):
            return True
        e = self.order[depth]
        top = min(used + 1, self.r)
        for c in range(top):
            if not (self.domain[e] >> c) & 1:
                continue
            self._node(e, c)
            mark = len(self.trail)
            if self._apply(e, c) and self._dfs(depth + 1, max(used, c + 1)):
                return True
            self._undo(mark)
        return False

    def run(self) -> list[int] | None:
        """Colors of an avoiding coloring, or None once the tree is exhausted."""
        if self._dfs(0, 0):
            return [c if c >= 0 else 0 for c in self.colors]
        return None


def search_avoiding(
    family: Family,
    window: Window,
    r: int,
    budget: SearchBudget | None = None,
    table: CandidateTable | None = None,
) -> SearchResult:
    """Decide whether an r-coloring of the window avoids the family."""
    if r < 1:
        raise ValueError(f"need at least one color, got r={r}")
    budget = budget or SearchBudget()
    start = time.perf_counter()
    if table is None:
        table = build_candidates(family, window)
    groups = table.constraint_groups()
    n = window.size()

    def result(outcome: str, coloring: Coloring | None, nodes: int, digest: str | None) -> SearchResult:
        return SearchResult(
            outcome=outcome,
            coloring=coloring,
            nodes=nodes,
            proof_log_hash=digest,
            wall_time=time.perf_counter() - start,
            family=family,
            family_text=family.serialize(),
            window_spec=window.spec_string(),
            r=r,
            budget=budget,
        )

    if not groups:
        coloring = Coloring(window, [0] * n, r)
        assert find_witness(family, coloring, table) is None
        return result(AVOIDING, coloring, 0, None)
    if len(groups[0]) == 1:
        # A single-index constraint is monochromatic under every coloring.
        digest = hashlib.sha256(b"singleton:%d" % groups[0][0]).hexdigest()
        return result(EXHAUSTED, None, 0, digest)

    cons_of: list[list[int]] = [[] for _ in range(n)]
    for ci, g in enumerate(groups):
        for e in g:
            cons_of[e].append(ci)
    constrained = [e for e in range(n) if cons_of[e]]
    order = sorted(constrained, key=lambda e: (-len(cons_of[e]), e))

    search = _Search(groups, cons_of, order, n, r, budget)
    try:
        colors = search.run()
    except _BudgetHit:
        return result(BUDGET_EXCEEDED, None, search.nodes, None)
    if colors is None:
        # Hashing the trace digest once more keeps every exhaustion hash equal
        # to the single-worker value of versions that split the tree.
        digest = hashlib.sha256(search.trace.digest()).hexdigest()
        return result(EXHAUSTED, None, search.nodes, digest)
    coloring = Coloring(window, colors, r)
    if find_witness(family, coloring, table) is not None:
        raise RuntimeError("internal error: search returned a colorable witness")
    return result(AVOIDING, coloring, search.nodes, None)


# ---------------------------------------------------------------------------
# Threshold sweeps


@dataclass(frozen=True)
class SweepRow:
    n: int
    window_spec: str
    window_size: int
    outcome: str
    nodes: int
    seconds: float
    certificate_path: str


@dataclass(frozen=True)
class ThresholdReport:
    family_text: str
    r: int
    template: str
    rows: tuple[SweepRow, ...]
    minimal_exhausted_n: int | None


def window_for_template(template: str, n: int) -> Window:
    """Instantiate the n-th window of a sweep template.

    Templates: 'int' (int:1..n), 'farey' (farey:n), 'mgrid:p1,p2,...'
    (exponent bound n).
    """
    if template == "int":
        return IntegerInterval(1, n)
    if template == "farey":
        return FareyWindow(n)
    if template.startswith("mgrid:"):
        primes = [int(p) for p in template.split(":", 1)[1].split(",")]
        return MultiplicativeGrid(primes, n)
    raise ValueError(f"unknown sweep template {template!r}")


def threshold_sweep(
    family: Family,
    r: int,
    template: str,
    n_lo: int,
    n_hi: int,
    budget: SearchBudget | None = None,
    cert_dir: str | None = None,
    stop_at_exhausted: bool = False,
) -> ThresholdReport:
    """Run search_avoiding over a window ladder, one row per size parameter.

    No monotonicity is assumed: the minimal exhausted n is reported but rows
    after it are still computed unless stop_at_exhausted is set.
    """
    from . import certificates  # local import keeps module dependencies one-way

    rows: list[SweepRow] = []
    minimal: int | None = None
    for n in range(n_lo, n_hi + 1):
        window = window_for_template(template, n)
        res = search_avoiding(family, window, r, budget=budget)
        cert_path = ""
        if cert_dir is not None and res.outcome in (AVOIDING, EXHAUSTED):
            cert = certificates.certificate_for_result(res)
            cert_path = certificates.write_certificate(
                cert, cert_dir, f"{template.replace(':', '_').replace(',', '_')}-{n}"
            )
        rows.append(
            SweepRow(
                n=n,
                window_spec=window.spec_string(),
                window_size=window.size(),
                outcome=res.outcome,
                nodes=res.nodes,
                seconds=res.wall_time,
                certificate_path=cert_path,
            )
        )
        if res.outcome == EXHAUSTED and minimal is None:
            minimal = n
            if stop_at_exhausted:
                break
    return ThresholdReport(
        family_text=family.serialize(),
        r=r,
        template=template,
        rows=tuple(rows),
        minimal_exhausted_n=minimal,
    )
