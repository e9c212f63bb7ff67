"""A search split over forked worker processes.

A search with no budget that has counted enough nodes forks at its next node
no deeper than the split depth, one worker per further CPU it may run on,
and the process that forked is worker 0.  Before the fork it writes the index
of every subtree that can be rooted at that depth into one pipe.  From there
each worker walks the levels above the split depth itself, and at each
subtree rooted at that depth it reads the next index from the pipe unless it
holds one not yet reached, and walks the subtree if it holds that subtree's
index.  So a worker that ends a subtree takes the next one that nobody has,
and no worker idles while one is left.  A walk that ends at an avoiding
coloring empties the pipe, so no later subtree is taken.  Every worker keeps
one record per subtree it takes, its node count and trace bytes.  At the end
of its walk each other worker sends all of them to worker 0 at once and
ends, and worker 0 joins every record in depth-first order into the one hash
it has fed since the root.  So the count, the hash and the avoiding
coloring, the first in subtree order, are those of one sequential pass.
Single CPUs, platforms without ``os.fork``, processes with other live
threads and indices that overflow a pipe stay sequential.

The walk itself is ``search._search``, which decides where to fork and asks
a ``_Split`` at each node down to the split depth whether to walk it.  This
module is kept apart from ``search`` so that no module of the package is
large to compile: the parser's scratch memory for the largest module stays
behind as free heap in a process that imports the package from source, and
every command the benchmark forks from that process inherits it.
"""

from __future__ import annotations

import marshal
import os
import sys


def _fork(trace, nodes: int, r: int, depth: int) -> _Split | None:
    """Fork the workers of a split search of r colors, whose subtree roots lie
    at ``depth``, at a node no deeper than that with ``nodes`` counted, or
    None where it stays sequential: one CPU, no ``os.fork``, another live
    thread, more subtree indices than a pipe holds, or a pipe or fork that
    failed."""
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
    for d in range(depth + 1):
        count *= min(d + 1, r)
    tokens = b"".join(k.to_bytes(4, "little") for k in range(count))
    split = _Split(trace, nodes, depth)
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

    After the fork every worker walks the levels above the split depth
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

    def __init__(self, trace, nodes: int, depth: int) -> None:
        self.me = 0
        self.root_depth = depth  # of the subtree roots
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
        at most the split depth, with ``nodes`` counted."""
        if self.open is not None:  # the node ends the open subtree
            self._keep(self.open, nodes)
            self.open = None
        if depth < self.root_depth:
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
    ) -> tuple[list[int] | None, int, str | None]:
        """(colors, nodes, digest) of the search whose walk ended at
        ``colors``, an avoiding coloring, or at the end of the tree (None):
        the colors of the first avoiding coloring in subtree order, else the
        trace digest of the whole tree.  Another worker sends its records and
        ends here."""
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
                try:  # item by item, so the pipe's bytes are never held whole
                    records = marshal.load(fh)
                except (EOFError, ValueError):  # cut short: the status says why
                    records = {}
            status = os.waitpid(self.pids.pop(), 0)[1]
            if status:
                raise RuntimeError(f"search worker {w} failed with wait status {status}")
            self.records.update(records)
        for k in range(len(self.records) + 1):  # a last record comes by then
            if k not in self.records:
                raise RuntimeError(f"search workers sent no record of subtree {k}")
            count, data, last = self.records[k]
            self.nodes += count
            if type(last) is list:
                return last, self.nodes, None
            self.trace.update(data)
            if last:
                break
        return None, self.nodes, self.trace.hexdigest()

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
