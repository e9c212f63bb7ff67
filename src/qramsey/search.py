"""Exhaustive search for avoiding colorings.

The solver assigns colors to window elements by backtracking over the
constraint groups of the candidate table ("these indices may not all share
one color"):

* assignment order is smallest domain first: each node branches on the
  uncolored element with the fewest open colors, ties broken by descending
  group count, then by index (fail-first; DSATUR for graph coloring);
* propagation is forced-color elimination: after an element takes color c,
  every group holding it is scanned, and a group whose members all have
  color c but one uncolored member has c struck from that member's domain;
  a group all of color c is a conflict;
* symmetry breaking fixes the first assigned element to color 0 and only
  admits a brand-new color directly after the existing ones.

The search state is the color of each element, a bitmask domain of the
colors still open to it, the uncolored elements in degree order and one
trail of strikes.  Every strike a node makes is of that node's own color
bit, so its undo uncolors the element and sets that bit again on each
element struck since.  ``_search`` is one loop over an explicit stack, a
frame per colored ancestor (element, place in the degree order, colors used,
colors left, trail mark, color bit): it never recurses, and it leaves the
interpreter's recursion limit alone.  An element propagates through the
shared group tuples that hold it until it is first uncolored with another of
its colors to try next, and from then on through each group's other members,
so that it no longer reads itself; either form skips the members of the
node's own color.  So no such lists are built after a last open color fails.

Outcomes: an avoiding coloring (re-checked through the detector before it is
returned), exhaustion of the tree (with node count and a hash of the decision
trace), or budget exceeded.  The node count and the trace hash are those of
one depth-first pass from the root, so they depend only on the instance, not
on how many processes walked the tree.  A search with no budget that has
counted ``_SPLIT_AT`` nodes forks at its next node no deeper than
``_SPLIT_DEPTH``, one worker per further CPU it may run on, and the process
that forked is worker 0.  Before the fork it writes the index of every
subtree that can be rooted at that depth into one pipe.  From there each
worker walks the levels above ``_SPLIT_DEPTH`` itself, and at each subtree
rooted at that depth it reads the next index from the pipe unless it holds
one not yet reached, and walks the subtree if it holds that subtree's index.
So a worker that ends a subtree takes the next one that nobody has, and no
worker idles while one is left.  A walk that ends at an avoiding coloring
empties the pipe, so no later subtree is taken.  Every worker keeps one
record per subtree it takes, its node count and trace bytes.  At the end of
its walk each other worker sends all of them to worker 0 at once and ends,
and worker 0 joins every record in depth-first order into the one hash it
has fed since the root.  So the count, the hash and the avoiding coloring,
the first in subtree order, are the sequential ones.  Budgeted searches, a
single CPU, platforms without ``os.fork``, processes with other live
threads and indices that overflow a pipe stay sequential.  The only budget
is a node count, never the clock: a budget of N stops the search with
exactly N nodes counted, so every outcome, the budget-exceeded one
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

import marshal
import os
import sys
import time
from collections.abc import Iterator
from dataclasses import dataclass

try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.11
    except ImportError:  # an interpreter built without either
        from hashlib import sha256

from .colorings import Coloring
from .detector import CandidateTable, build_candidates, check_table, find_witness
from .patterns import Family
from .windows import Window, parse_window

AVOIDING = "avoiding"
EXHAUSTED = "exhausted"
BUDGET_EXCEEDED = "budget-exceeded"


def check_node_budget(max_nodes: int | None) -> None:
    """Reject a node budget that is not None or a non-negative int."""
    if max_nodes is not None and (type(max_nodes) is not int or max_nodes < 0):
        raise ValueError(f"node budget must be a non-negative integer, got {max_nodes!r}")


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
    max_nodes: int | None


_SPLIT_AT = 1024  # nodes a search counts on its own before it forks
_SPLIT_DEPTH = 6  # depth of the subtree roots the workers claim


def _fork(trace, nodes: int, r: int) -> _Split | None:
    """Fork the workers of a split search of r colors at a node no deeper
    than ``_SPLIT_DEPTH`` with ``nodes`` counted, or None where it stays
    sequential: one CPU, no ``os.fork``, another live thread, more subtree
    indices than a pipe holds, or a pipe or fork that failed."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return None
    if hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:
        workers = os.cpu_count() or 1
    if workers < 2:
        return None
    # at depth d the symmetry rule leaves at most d + 1 colors to a node
    count = 1
    for d in range(_SPLIT_DEPTH + 1):
        count *= min(d + 1, r)
    tokens = b"".join(k.to_bytes(4, "little") for k in range(count))
    split = _Split(trace, nodes)
    try:
        split.tokens, wfd = os.pipe()
        try:
            os.set_blocking(wfd, False)
            written = os.write(wfd, tokens)
        finally:
            os.close(wfd)
        if written < len(tokens):  # the pipe is full
            raise BlockingIOError
        for w in range(1, workers):
            rfd, wfd = os.pipe()
            split.fds.append(rfd)
            try:
                pid = os.fork()
            except OSError:
                os.close(wfd)
                raise
            if pid == 0:
                split.me = w  # first, so that split.close() ends this process
                for fd in split.fds:
                    os.close(fd)
                split.out, split.pids, split.fds = wfd, [], []
                return split
            os.close(wfd)
            split.pids.append(pid)
    except OSError:
        split.close()
        return None
    return split


class _Split:
    """One worker's part of a search split over forked processes.

    After the fork every worker walks the levels above ``_SPLIT_DEPTH``
    itself, in the same DFS order, and numbers the subtrees rooted at that
    depth as it meets them.  Before the fork worker 0, the process that
    forks, wrote every index such a subtree can have into one pipe, 4 bytes
    each, and closed its write end: a read takes the next index no worker
    has claimed, and the end of the pipe means none is left.  A worker
    whose last claim is below the subtree it reaches claims again, and
    walks the subtree if the index it holds is that subtree's.  A walk that
    ends at an avoiding coloring empties the pipe, so no later subtree is
    claimed.  Every worker keeps one record per subtree it walks, (nodes,
    trace bytes, last), by index: the levels above the split depth it
    walked since the subtree root before k, then subtree k.  The walk's last
    record is that of the subtree it ends in, or of the levels after the
    last subtree root, and its ``last`` is the colors of an avoiding
    coloring or True; any other record's is None.  At the end of its walk
    another worker sends its records to worker 0 at once and ends.  Worker 0
    reads each worker's pipe to its end, reaps that worker, and joins every
    record in index order into the node count and the trace hash it held at
    the fork, so the result is the sequential one.  No worker waits for
    another to claim or send: the pipe of indices is full or at its end,
    and another worker ends at a claim once worker 0 has ended.
    """

    def __init__(self, trace, nodes: int) -> None:
        self.me = 0
        self.parent = os.getpid()  # worker 0
        self.next = 0  # index of the next subtree root
        self.claimed = -1  # the index this worker last claimed
        self.open: int | None = None  # the subtree being walked
        self.start = nodes  # node count where the record being kept began
        self.buffer = bytearray()  # trace bytes of the record being kept
        self.tokens = -1  # read end of the pipe of subtree indices
        self.out = -1  # another worker: write end of its pipe to worker 0
        # worker 0: the trace hash and node count the records join into; one
        # pipe per other worker still to send, and its pid
        self.trace = trace
        self.nodes = nodes
        self.pids: list[int] = []
        self.fds: list[int] = []
        self.records: dict[int, tuple[int, bytes, list[int] | bool | None]] = {}

    def walks(self, depth: int, nodes: int) -> bool:
        """Whether the worker walks the node it is about to try at ``depth``,
        at most ``_SPLIT_DEPTH``, with ``nodes`` counted."""
        if self.open is not None:  # the node ends the open subtree
            self._keep(self.open, nodes)
            self.open = None
        if depth < _SPLIT_DEPTH:
            return True
        k = self.next
        if self.claimed < k:
            self.claimed = self._claim()
        self.next = k + 1
        if self.claimed == k:
            self.open = k
            return True
        self.start = nodes
        self.buffer.clear()
        return False

    def finish(
        self, colors: list[int] | None, nodes: int
    ) -> tuple[str, list[int] | None, int, str | None]:
        """The result of the walk's end, an avoiding coloring or the tree's;
        another worker sends its records and ends here."""
        if colors is not None:
            while os.read(self.tokens, 1 << 16):  # no later subtree is claimed
                pass
        self._keep(self.next if self.open is None else self.open, nodes,
                   True if colors is None else colors)
        if self.me:
            with open(self.out, "wb") as fh:
                fh.write(marshal.dumps(self.records))
            os._exit(0)
        while self.pids:
            w = len(self.pids)
            with open(self.fds.pop(), "rb") as fh:
                data = fh.read()
            status = os.waitpid(self.pids.pop(), 0)[1]
            if status:
                raise RuntimeError(f"search worker {w} failed with wait status {status}")
            self.records.update(marshal.loads(data))
        for k in range(len(self.records) + 1):  # a last record comes by then
            if k not in self.records:
                raise RuntimeError(f"search workers sent no record of subtree {k}")
            count, data, last = self.records[k]
            self.nodes += count
            if type(last) is list:
                return AVOIDING, last, self.nodes, None
            self.trace.update(data)
            if last:
                break
        return EXHAUSTED, None, self.nodes, self.trace.hexdigest()

    def close(self) -> None:
        """End another worker; in worker 0, kill and reap every other one."""
        if self.me:
            os._exit(1)
        if self.pids:  # a search that ended early, or a failed fork
            import signal  # here, not at the top: its import costs about 1 ms

            for pid in self.pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for fd in self.fds:
            os.close(fd)
        if self.tokens >= 0:
            os.close(self.tokens)

    def _claim(self) -> int:
        """The next subtree index no worker has claimed, or one past every
        index once none is left; another worker ends here once worker 0 has."""
        if self.me and os.getppid() != self.parent:
            os._exit(1)
        token = os.read(self.tokens, 4)
        return int.from_bytes(token, "little") if token else sys.maxsize

    def _keep(self, k: int, nodes: int, last: list[int] | bool | None = None) -> None:
        """Keep record k, of the nodes and trace bytes since the last one."""
        self.records[k] = (nodes - self.start, bytes(self.buffer), last)
        self.start = nodes
        self.buffer.clear()


def _search(
    groups: tuple[tuple[int, ...], ...], n: int, r: int, max_nodes: int | None
) -> tuple[str, list[int] | None, int, str | None]:
    """(outcome, colors, nodes, digest) of the tree of r colors: the colors of
    an avoiding coloring and the trace digest of an exhausted tree, else None."""
    # cons_of[e]: the groups holding e, narrowed to their other members once e
    # is uncolored with another of its colors still to try
    cons_of: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for group in groups:
        for e in group:
            cons_of[e].append(group)
    narrowed = bytearray(n)
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
    split: _Split | None = None
    try:
        while True:  # one pass per level: branch on the uncolored element of fewest colors
            if not todo:
                found = [c if c >= 0 else 0 for c in colors]
                if split is None:
                    return AVOIDING, found, nodes, None
                return split.finish(found, nodes)
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
                                split = _fork(trace, nodes, r)
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
                    for group in cons_of[e]:
                        free = -1
                        for t in group:
                            ct = colors[t]
                            if ct == c:
                                continue
                            if ct >= 0 or free >= 0:
                                break  # another color, or a second uncolored member
                            free = t
                        else:
                            if free < 0:
                                break  # conflict: the whole group has color c
                            d = domain[free]
                            if d & bit:
                                domain[free] = d ^ bit
                                trail.append(free)
                                if d == bit:
                                    break  # conflict: free has no color left
                    else:
                        stack.append((e, at, used, opens, mark, bit))
                        used = max(used, c + 1)
                        break
                else:
                    todo.insert(at, e)
                    if not stack:
                        if split is None:
                            return EXHAUSTED, None, nodes, trace.hexdigest()
                        return split.finish(None, nodes)
                    e, at, used, opens, mark, bit = stack.pop()
                    labels_e = labels[e]
                colors[e] = -1
                for t in trail[mark:]:
                    domain[t] |= bit
                del trail[mark:]
                if opens and not narrowed[e]:
                    narrowed[e] = 1
                    cons_of[e] = [g[:i] + g[i + 1:] for g in cons_of[e] for i in (g.index(e),)]
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
    check_node_budget(max_nodes)
    if r < 1:
        raise ValueError(f"need at least one color, got r={r}")
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
            family_text=family.serialize(),
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
    A bad ladder raises on the first ``next()``.

    Each row's window lies inside the top row's, in the same order, so the
    sweep builds one candidate table, the top row's, and restricts it to
    each lower row.  A top row over the pair or element cap raises
    ValueError before any row is searched.
    """
    check_node_budget(max_nodes)
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
