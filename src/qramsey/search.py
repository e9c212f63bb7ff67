"""Exhaustive search for avoiding colorings.

The solver assigns colors to window elements by backtracking over the
constraint groups of the candidate table ("these indices may not all share
one color"):

* assignment order is smallest domain first: each node branches on the
  uncolored element with the fewest open colors, ties broken by descending
  group count, then by index (fail-first; DSATUR for graph coloring);
* propagation is forced-color elimination: after an element takes color c,
  the other members of every group holding it are scanned, and a group whose
  members all have color c but one uncolored member has c struck from that
  member's domain.  So no element ever takes a color that makes a group of
  two or more monochromatic, and every conflict is a domain that loses its
  last color (or a singleton group, which ``search_avoiding`` decides first);
* symmetry breaking fixes the first assigned element to color 0 and only
  admits a brand-new color directly after the existing ones.

The search state is the color of each element, a bitmask domain of the
colors still open to it, the uncolored elements in degree order and one
trail of strikes.  Every strike a node makes is of that node's own color
bit, so its undo uncolors the element and sets that bit again on each
element struck since.  ``_search`` is one loop over an explicit stack, a
frame per colored ancestor (element, place in the degree order, colors used,
colors left, trail mark, color bit): it never recurses, and it leaves the
interpreter's recursion limit alone.  When an element is first selected, its
groups' other members are sorted into four lists, as look-ahead SAT solvers
keep binary and ternary clauses apart (Knuth, TAOCP 4B, 7.2.2.2): the one
other member of each group of 2, the pairs of groups of 3, the triples of
groups of 4, and the tuples of larger groups.  A node runs one loop per list,
with the test unrolled for the first three, so it never reads its own element
and reads a second or third member only when the first has the node's color
or none.  The order of the scans does not shape the tree: every strike a node
makes is of its own color, a conflict undoes them all, and nothing cascades
within a node.  Elements never selected build no lists.

Outcomes: an avoiding coloring (re-checked through the detector before it is
returned), exhaustion of the tree (with node count and a hash of the decision
trace), or budget exceeded.  The node count and the trace hash are those of
one depth-first pass from the root, so they depend only on the instance, not
on how many processes walked the tree.  A search with no budget that has
counted ``_SPLIT_AT`` nodes forks at its next node no deeper than
``_SPLIT_DEPTH``, and its workers claim the subtrees rooted at that depth,
as the ``split`` module describes; budgeted searches stay sequential.  The
only budget is a node count, never the clock: a budget of N stops the search
with exactly N nodes counted, so every outcome, the budget-exceeded one
included, is the same on every machine.

The trace hash is the SHA-256 of the interpreter's own module, ``_sha2`` (or
``_sha256`` before Python 3.12), the way ``random`` takes its sha512;
``hashlib`` is imported only where neither exists.  The digests are the
same, but ``hashlib`` loads and sets up OpenSSL's libcrypto, which grew a
bare Python 3.11 by 3.7 MB and a command's peak memory by 0.6 to 1.6 MB.

``threshold_sweep`` runs the search over a window ladder and yields each
row's result as it is decided.  It writes nothing: certificates are built
from a result by the ``certificates`` module, which imports this one.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from typing import NamedTuple

try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.11
    except ImportError:  # an interpreter built without either
        from hashlib import sha256

from .colorings import Coloring, check_colors
from .detector import CandidateTable, build_candidates, check_table, find_witness
from .patterns import Family
from .split import _fork
from .windows import Window, parse_window

AVOIDING = "avoiding"
EXHAUSTED = "exhausted"
BUDGET_EXCEEDED = "budget-exceeded"


def check_search_limits(r: int, max_nodes: int | None) -> None:
    """Reject a node budget that is not None or a non-negative int, then a
    color count below one."""
    if max_nodes is not None and (type(max_nodes) is not int or max_nodes < 0):
        raise ValueError(f"node budget must be a non-negative integer, got {max_nodes!r}")
    check_colors(r)


class SearchResult(NamedTuple):
    outcome: str
    coloring: Coloring | None
    nodes: int
    proof_log_hash: str | None
    wall_time: float
    family: Family
    window_spec: str
    r: int
    max_nodes: int | None


_SPLIT_AT = 1024  # nodes a search counts on its own before it forks
_SPLIT_DEPTH = 6  # depth of the subtree roots the workers claim


def _search(
    groups: tuple[tuple[int, ...], ...], n: int, r: int, max_nodes: int | None
) -> tuple[str, list[int] | None, int, str | None]:
    """(outcome, colors, nodes, digest) of the tree of r colors: the colors of
    an avoiding coloring and the trace digest of an exhausted tree, else None.
    The groups come sorted by size, as ``constraint_groups`` returns them."""
    # cons_of[e]: the groups holding e, by size; from e's first selection on,
    # the other members of its groups of 2, 3, 4 and more, in four lists
    cons_of: list[list[tuple[int, ...]] | tuple[list, ...]] = [[] for _ in range(n)]
    for group in groups:
        for e in group:
            cons_of[e].append(group)
    # the uncolored elements that are in some group, by descending degree
    todo = sorted((e for e in range(n) if cons_of[e]), key=lambda e: (-len(cons_of[e]), e))
    colors = [-1] * n
    domain = [(1 << r) - 1] * n
    trail: list[int] = []
    labels: list[list[bytes] | None] = [None] * n
    nodes = 0
    trace = sha256()
    feed = trace.update
    stack: list[tuple[int, int, int, int, int, int]] = []  # the colored ancestors
    used = 0
    # a budget, or else _SPLIT_AT nodes, stops the walk at node count `stop`;
    # from there a node at depth `cut` or above forks, or asks `split`
    # whether to walk it
    stop = _SPLIT_AT if max_nodes is None else max_nodes
    cut = -1
    split = None  # a split._Split once the search forks
    try:
        while True:  # one pass per level: branch on the uncolored element of fewest colors
            if not todo:
                found = [c if c >= 0 else 0 for c in colors]
                if split is None:
                    return AVOIDING, found, nodes, None
                found, nodes, digest = split.finish(found, nodes)
                return (EXHAUSTED if found is None else AVOIDING), found, nodes, digest
            e, best = -1, r + 1
            for t in todo:
                size = domain[t].bit_count()
                if size < best:
                    e, best = t, size
                    if size == 1:
                        break
            at = todo.index(e)
            del todo[at]
            labels_e = labels[e]
            if labels_e is None:
                labels_e = labels[e] = [b"%d:%d;" % (e, c) for c in range(r)]
                held = cons_of[e]
                # cut by size (counted, not bisected: the bisect module's code
                # pages would add to the memory of every command)
                sizes = list(map(len, held))
                i = sizes.count(1) + sizes.count(2)
                j = i + sizes.count(3)
                k = j + sizes.count(4)
                cons_of[e] = (
                    # a singleton group (e,) gives e itself: color c, a conflict
                    [g[-1] if g[0] == e else g[0] for g in held[:i]],
                    [(b, d) if a == e else (a, d) if b == e else (a, b) for a, b, d in held[i:j]],
                    [
                        (b, d, f) if a == e else (a, d, f) if b == e else
                        (a, b, f) if d == e else (a, b, d)
                        for a, b, d, f in held[j:k]
                    ],
                    [g[:x] + g[x + 1:] for g in held[k:] for x in (g.index(e),)],
                )
            ones, twos, threes, rest = cons_of[e]
            # e's colors to try: those open to it, and one brand-new color at most
            opens = domain[e] & ((2 << used) - 1)
            while True:  # try e's next color, or backtrack to a level that has one
                if opens:
                    bit = opens & -opens
                    opens ^= bit
                    if nodes == stop or len(stack) <= cut:
                        if nodes == max_nodes:
                            return BUDGET_EXCEEDED, None, nodes, None
                        if split is None:  # fork at the first node no deeper than cut
                            stop, cut = -1, _SPLIT_DEPTH
                            if len(stack) <= cut:
                                split = _fork(trace, nodes, r, cut)
                                if split is None:
                                    cut = -1
                                else:
                                    feed = split.buffer.extend
                        if split is not None and not split.walks(len(stack), nodes):
                            continue
                    nodes += 1
                    c = bit.bit_length() - 1
                    feed(labels_e[c])
                    colors[e] = c
                    mark = len(trail)
                    # One loop per group size, over the other members of e's
                    # groups: if all but one member `free` have color c, c is
                    # struck from free when it is uncolored.  No group of two
                    # or more is ever all of color c, since c was struck from
                    # e when its other members all took it, so a conflict is
                    # a domain losing its last color, or a singleton group.
                    # A loop breaks at a conflict, and its else runs the next.
                    for free in ones:
                        cf = colors[free]
                        if cf == c:
                            break  # conflict: the whole group has color c
                        if cf < 0:
                            d = domain[free]
                            if d & bit:
                                domain[free] = d ^ bit
                                trail.append(free)
                                if d == bit:
                                    break  # conflict: free has no color left
                    else:
                        for a, b in twos:
                            if colors[a] == c:
                                free = b
                            elif colors[b] == c:
                                free = a
                            else:
                                continue
                            if colors[free] < 0:
                                d = domain[free]
                                if d & bit:
                                    domain[free] = d ^ bit
                                    trail.append(free)
                                    if d == bit:
                                        break
                        else:
                            for a, b, f in threes:  # branches on colors[a] first
                                if colors[a] == c:
                                    if colors[b] == c:
                                        free = f
                                    elif colors[f] == c:
                                        free = b
                                    else:
                                        continue
                                elif colors[b] == c and colors[f] == c:
                                    free = a
                                else:
                                    continue
                                if colors[free] < 0:
                                    d = domain[free]
                                    if d & bit:
                                        domain[free] = d ^ bit
                                        trail.append(free)
                                        if d == bit:
                                            break
                            else:
                                for group in rest:
                                    free = -1
                                    for t in group:
                                        ct = colors[t]
                                        if ct == c:
                                            continue
                                        if ct >= 0 or free >= 0:
                                            break  # another color, or a second uncolored member
                                        free = t
                                    else:
                                        d = domain[free]
                                        if d & bit:
                                            domain[free] = d ^ bit
                                            trail.append(free)
                                            if d == bit:
                                                break
                                else:
                                    stack.append((e, at, used, opens, mark, bit))
                                    used = max(used, c + 1)
                                    break
                else:
                    todo.insert(at, e)
                    if not stack:
                        if split is None:
                            return EXHAUSTED, None, nodes, trace.hexdigest()
                        found, nodes, digest = split.finish(None, nodes)
                        return (EXHAUSTED if found is None else AVOIDING), found, nodes, digest
                    e, at, used, opens, mark, bit = stack.pop()
                    labels_e = labels[e]
                    ones, twos, threes, rest = cons_of[e]
                colors[e] = -1
                for t in trail[mark:]:
                    domain[t] |= bit
                del trail[mark:]
    finally:
        if split is not None:
            split.close()


def search_avoiding(
    family: Family,
    window: Window,
    r: int,
    max_nodes: int | None = None,
    table: CandidateTable | None = None,
) -> SearchResult:
    """Decide whether an r-coloring of the window avoids the family, in at
    most ``max_nodes`` nodes (None: no limit).

    A given table must be the one built for this family and window.
    """
    check_search_limits(r, max_nodes)
    start = time.perf_counter()
    if table is None:
        table = build_candidates(family, window)
    else:
        check_table(family, window, table)
    groups = table.constraint_groups()

    def result(outcome: str, coloring: Coloring | None, nodes: int, digest: str | None) -> SearchResult:
        return SearchResult(
            outcome=outcome,
            coloring=coloring,
            nodes=nodes,
            proof_log_hash=digest,
            wall_time=time.perf_counter() - start,
            family=family,
            window_spec=window.spec_string(),
            r=r,
            max_nodes=max_nodes,
        )

    if groups and len(groups[0]) == 1:
        # A single-index constraint is monochromatic under every coloring.
        digest = sha256(b"singleton:%d" % groups[0][0]).hexdigest()
        return result(EXHAUSTED, None, 0, digest)

    # No child takes a color >= n, nor does any domain lose all colors < n: at
    # most n - 1 elements are colored.  So min(r, n) colors give r's tree.
    n = window.size()
    outcome, colors, nodes, digest = _search(groups, n, min(r, n), max_nodes)
    if colors is None:
        return result(outcome, None, nodes, digest)
    coloring = Coloring(window, colors, r)
    if find_witness(family, coloring, table) is not None:
        raise RuntimeError("internal error: search returned a colorable witness")
    return result(AVOIDING, coloring, nodes, None)


# ---------------------------------------------------------------------------
# Threshold sweeps


def window_for_template(template: str, n: int) -> Window:
    """Instantiate the n-th window of a sweep template.

    Templates: 'int' (int:1..n), 'farey' (farey:n), 'mgrid:p1,p2,...'
    (exponent bound n).
    """
    if template == "int":
        spec = f"int:1..{n}"
    elif template == "farey":
        spec = f"farey:{n}"
    elif template.startswith("mgrid:"):
        spec = f"{template}:{n}"
    else:
        raise ValueError(f"unknown sweep template {template!r}")
    return parse_window(spec)


def threshold_sweep(
    family: Family,
    r: int,
    template: str,
    n_lo: int,
    n_hi: int,
    max_nodes: int | None = None,
) -> Iterator[tuple[int, Window, SearchResult]]:
    """Yield (n, window, result) for each row of a window ladder, lowest n first.

    No monotonicity is assumed and nothing is stored: the caller keeps what
    it needs and may stop at any row, for example the first exhausted one.
    A bad ladder, color count or node budget raises on the first ``next()``,
    before the top table is built.

    Each row's window lies inside the top row's, in the same order, so the
    sweep builds one candidate table, the top row's, and restricts it to
    each lower row.  A top row over the pair or element cap raises
    ValueError before any row is searched.
    """
    check_search_limits(r, max_nodes)
    if n_lo > n_hi:
        raise ValueError(f"empty sweep: lo={n_lo} is above hi={n_hi}")
    window_for_template(template, n_lo)  # a bad bound fails before the top table is built
    top = build_candidates(family, window_for_template(template, n_hi))
    for n in range(n_lo, n_hi + 1):
        window = window_for_template(template, n)
        # Not kept: a row's restricted table is freed when its search returns.
        yield n, window, search_avoiding(
            family,
            window,
            r,
            max_nodes=max_nodes,
            table=top if n == n_hi else top.restrict(window),
        )
