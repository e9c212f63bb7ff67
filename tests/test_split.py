"""A search split over forked workers gives the sequential result, byte for byte.

``_SPLIT_AT = 0`` forks before the first node and a patched
``os.sched_getaffinity`` names two CPUs (three in some tests), so every search
below splits, on any host.  Workers claim subtrees as they reach them, by
reading the next index from a pipe filled before the fork, so which worker
walks which subtree depends on timing; some tests patch ``_Split._claim`` with
a rule that returns the next index a worker walks, to fix it.  After each
split the test process must have no child left, finished or running, and no
descriptor left open.
"""

import contextlib
import errno
import hashlib
import io
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from qramsey import search
from qramsey.cli import main
from qramsey.detector import build_candidates
from qramsey.patterns import builtin_family, parse_family
from qramsey.search import AVOIDING, BUDGET_EXCEEDED, EXHAUSTED, search_avoiding
from qramsey.split import _Split
from qramsey.windows import parse_window

import test_fuzz
import test_golden
from _stock import STOCK_KEYS

DEPTHS = [0, 1, 2, 4, 6]
# The integer searches of the benchmark: (family, window, r, nodes, digest).
INTEGER_SEARCHES = [
    ("x; x + 2*t; x + 3*t", "int:1..39", 3, 4412, None),
    ("x; x + t; x + 4*t; x + 5*t", "int:1..45", 2, 24103,
     "dc66d16ba9554710da30e59275437680570c6f4f4e84d2a7ff80ac591e77c7dc"),
    ("x; x + t; x + 3*t; x + 6*t", "int:1..52", 2, 20347,
     "79170de1e2057ad0e3713e1b1e59b0aaf9f48afb760f1b642db547e8f89d93da"),
]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    """The descriptors open in this process, or None where /proc/self/fd is missing."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def running(pid):
    """Whether process pid runs: it exists and, where /proc tells, is no zombie."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:  # it ended since, or there is no /proc to tell
        return not os.path.isdir("/proc/self")


def ends(pid, seconds=10):
    """Whether process pid stops running within ``seconds``: a process whose
    descriptors are closed may still be ending."""
    until = time.monotonic() + seconds
    while running(pid):
        if time.monotonic() > until:
            return False
        time.sleep(0.01)
    return True


@contextlib.contextmanager
def deadline(seconds):
    """Fail a test that runs longer than ``seconds`` instead of letting it hang."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def cpus(monkeypatch, k):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)


@pytest.fixture
def forced(monkeypatch):
    """Set the split depth; the split then happens before the first node."""
    cpus(monkeypatch, 2)
    monkeypatch.setattr(search, "_SPLIT_AT", 0)

    def at_depth(depth):
        monkeypatch.setattr(search, "_SPLIT_DEPTH", depth)

    return at_depth


@pytest.fixture
def no_fork(monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)


@pytest.fixture
def forks(monkeypatch):
    """The list of forks the test process makes, one entry each."""
    parent, made = os.getpid(), []
    fork = os.fork

    def counted():
        if os.getpid() == parent:
            made.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return made


# Claim rules patched over _Split._claim to fix the worker that walks each
# subtree: the next index the worker walks, from the subtree root it reaches,
# split.next, on; sys.maxsize for none.
def round_robin(split):
    k = split.next
    return k + (k % 2 != split.me)


def to_the_child(split):
    return split.next if split.me == 1 else sys.maxsize


def to_worker_0(split):  # the child walks only the levels above the split depth
    return split.next if split.me == 0 else sys.maxsize


def sequential(groups, n, r):
    saved = search._SPLIT_AT
    search._SPLIT_AT = -1  # a node count never reached
    try:
        return search._search(groups, n, r, None)
    finally:
        search._SPLIT_AT = saved


def instance(text, spec):
    family = parse_family(text)
    window = parse_window(spec)
    return build_candidates(family, window).constraint_groups(), window.size()


def small_instances():
    """(groups, n, r) of the fuzz draws and of the catalog on small windows."""
    cases = []
    for draw in range(test_fuzz.DRAWS):
        family, window, r = test_fuzz.draw_case(draw)
        cases.append((family, window, r))
    for key in sorted(STOCK_KEYS):
        for spec in ("int:1..8", "farey:3", "mgrid:2,3:2"):
            for r in (2, 3):
                cases.append((builtin_family(key), parse_window(spec), r))
    out = []
    for family, window, r in cases:
        groups = build_candidates(family, window).constraint_groups()
        if not groups or len(groups[0]) > 1:  # search_avoiding decides these without a search
            out.append((groups, window.size(), min(r, window.size())))
    return out


class TestSameResult:
    @pytest.mark.parametrize("depth", DEPTHS)
    def test_fuzz_draws_and_catalog(self, forced, monkeypatch, depth):
        cases = small_instances()
        want = [sequential(*case) for case in cases]
        forced(depth)
        for k in (2, 3):
            cpus(monkeypatch, k)
            assert [search._search(*case, None) for case in cases] == want
            assert_no_child_left()

    @pytest.mark.parametrize("rule", [to_the_child, to_worker_0], ids=["child", "worker 0"])
    def test_one_worker_claims_every_subtree(self, forced, monkeypatch, rule):
        cases = small_instances()
        want = [sequential(*case) for case in cases]
        forced(1)
        monkeypatch.setattr(_Split, "_claim", rule)
        assert [search._search(*case, None) for case in cases] == want
        assert_no_child_left()

    @pytest.mark.parametrize("split_at", [None, 0])
    def test_integer_searches_through_the_cli(self, monkeypatch, split_at):
        cpus(monkeypatch, 2)
        if split_at is not None:
            monkeypatch.setattr(search, "_SPLIT_AT", split_at)
        for text, spec, r, nodes, digest in INTEGER_SEARCHES:
            out = io.StringIO()
            with contextlib.redirect_stderr(io.StringIO()):
                assert main(["search", text, spec, "-r", str(r)], out=out) == 0
            payload = json.loads(out.getvalue())
            assert (payload["nodes"], payload["proof_log_hash"]) == (nodes, digest)
            assert payload["outcome"] == (EXHAUSTED if digest else AVOIDING)
        assert_no_child_left()

    @pytest.mark.parametrize("split_at", [-1, 0], ids=["sequential", "split"])
    @pytest.mark.parametrize("max_nodes, outcome, nodes, colors", [
        (None, AVOIDING, 1463, "69b395a903ca05bd7ef8ad3dfc5d88013fe1f8c4bb38238903b0d0f596b9512f"),
        (700, BUDGET_EXCEEDED, 700, None),
    ])
    def test_groups_of_five_members(self, monkeypatch, split_at, max_nodes, outcome, nodes, colors):
        # Every group has 5 members, which only the generic loop over other
        # members reads; the fuzz draws reach at most 4.
        cpus(monkeypatch, 2)
        monkeypatch.setattr(search, "_SPLIT_AT", split_at)
        groups, n = instance("x; x + t; x + 2*t; x + 4*t; x + 5*t", "int:1..70")
        assert {len(g) for g in groups} == {5}
        got, found, count, digest = search._search(groups, n, 2, max_nodes)
        assert (got, count, digest) == (outcome, nodes, None)
        assert (found and hashlib.sha256(bytes(found)).hexdigest()) == colors
        assert_no_child_left()

    @pytest.mark.parametrize("depth", [1, 4])
    def test_golden_records(self, forced, monkeypatch, tmp_path, depth):
        forced(depth)
        with open(test_golden.GOLDEN, encoding="utf-8") as fh:
            expected = json.load(fh)
        for k in (2, 3):
            cpus(monkeypatch, k)
            (tmp_path / str(k)).mkdir()
            assert test_golden.run_steps(str(tmp_path / str(k))) == expected
            assert_no_child_left()


class _Trace:
    """Stands in for the trace hash and keeps each node's label."""

    def __init__(self):
        self.labels = []

    def update(self, label):
        self.labels.append(bytes(label))

    def hexdigest(self):
        return ""


def coloring_subtree(labels, split_at, depth):
    """The index of the subtree at ``depth`` in which a split finds the
    coloring that the sequential search reached at its last node, or None
    for a coloring above that depth: read from the sequential node labels
    alone.  A node of an element already on the path takes that element's
    level; any other node is one level deeper than the last.  The split
    forks at the first node from ``split_at`` on that is no deeper than
    ``depth``, and numbers the subtrees from there."""
    path, levels = [], []
    for label in labels:
        e = label.split(b":")[0]
        if e in path:
            del path[path.index(e) + 1:]
        else:
            path.append(e)
        levels.append(len(path) - 1)
    fork = next(i for i in range(split_at, len(levels)) if levels[i] <= depth)
    subtree, dealt = None, 0
    for level in levels[fork:]:
        if level < depth:
            subtree = None
        elif level == depth:
            subtree, dealt = dealt, dealt + 1
    return subtree


def place(labels, split_at, depth):
    """Where the split of two workers under ``round_robin`` finds the coloring."""
    subtree = coloring_subtree(labels, split_at, depth)
    if subtree is None:
        return "above the split depth"
    return "parent's subtree" if subtree % 2 == 0 else "child's subtree"


def sequential_labels(monkeypatch, groups, n, r):
    """The sequential result and the label of each of its nodes."""
    trace = _Trace()
    with monkeypatch.context() as m:
        m.setattr(search, "sha256", lambda: trace)
        return sequential(groups, n, r), trace.labels


class TestDefaultDepth:
    @pytest.mark.parametrize("spec", ["mgrid:2:3", "mgrid:2,3:1", "pairs:8"])
    def test_seven_colors_write_every_index(self, monkeypatch, spec):
        # With 7 colors or more a search may meet 7! = 5040 subtree roots at
        # the default depth 6, and the pipe holds every index before the fork,
        # whether the search finds a coloring or not.  The x; y; x*y windows
        # hold the singleton {1}, which search_avoiding decides before any
        # search: their other groups take 7 colors.  Eight elements that
        # differ pairwise cannot.
        monkeypatch.setattr(search, "_SPLIT_AT", 0)
        if spec == "pairs:8":
            groups, n = tuple(itertools.combinations(range(8), 2)), 8
            outcome = EXHAUSTED
        else:
            groups, n = instance("x; y; x*y", spec)
            groups, outcome = tuple(g for g in groups if len(g) > 1), AVOIDING
        want = sequential(groups, n, 7)
        assert want[0] == outcome
        parent, writes = os.getpid(), []
        write = os.write

        def logged(fd, data):
            if os.getpid() == parent:
                writes.append(len(data))
            return write(fd, data)

        monkeypatch.setattr(os, "write", logged)
        for k in (2, 3):
            cpus(monkeypatch, k)
            writes.clear()
            assert search._search(groups, n, 7, None) == want
            assert writes == [4 * 5040]
            assert_no_child_left()


class TestAvoidingColorings:
    @pytest.mark.parametrize("text, spec, r, split_at, depth, nodes, where", [
        ("x; x + 2*t; x + 3*t", "int:1..39", 3, 1, 4, 4412, "parent's subtree"),
        ("x; x + t; x + 2*t; x + 3*t", "int:1..34", 2, 3, 4, 446, "child's subtree"),
        ("x; x + 2*t; x + 3*t", "int:1..9", 2, 0, 4, 11, "child's subtree"),
        ("x; x + t; x + 4*t; x + 5*t", "int:1..6", 2, 1, 4, 4, "above the split depth"),
    ])
    def test_first_coloring_in_subtree_order(
        self, forced, monkeypatch, text, spec, r, split_at, depth, nodes, where
    ):
        groups, n = instance(text, spec)
        want, labels = sequential_labels(monkeypatch, groups, n, r)
        assert (want[0], want[2], len(labels)) == (AVOIDING, nodes, nodes)
        assert place(labels, split_at, depth) == where
        monkeypatch.setattr(search, "_SPLIT_AT", split_at)
        forced(depth)
        for rule in (round_robin, to_the_child, to_worker_0, _Split._claim):
            monkeypatch.setattr(_Split, "_claim", rule)
            assert search._search(groups, n, r, None) == want
            assert_no_child_left()

    def test_worker_0_takes_no_subtree_after_a_known_coloring(self, forced, monkeypatch):
        # Worker 0 claims its first subtree only once the child has ended, so
        # the child claims subtrees 0 to f in turn, finds the coloring in f
        # and empties the pipe: worker 0's one claim finds no index left.
        groups, n = instance("x; x + t; x + 2*t; x + 3*t", "int:1..34")
        want, labels = sequential_labels(monkeypatch, groups, n, 2)
        f = coloring_subtree(labels, 3, 4)
        assert (want[0], f) == (AVOIDING, 3)
        monkeypatch.setattr(search, "_SPLIT_AT", 3)
        forced(4)
        claim, claimed = _Split._claim, []

        def logged(split):
            if split.me == 0:
                if not claimed:
                    os.waitid(os.P_PID, split.pids[0], os.WEXITED | os.WNOWAIT)
                claimed.append(claim(split))
                return claimed[-1]
            return claim(split)

        monkeypatch.setattr(_Split, "_claim", logged)
        with deadline(60):
            assert search._search(groups, n, 2, None) == want
        assert claimed == [sys.maxsize]
        assert_no_child_left()

    def test_pinned_coloring_with_the_default_split(self, monkeypatch):
        cpus(monkeypatch, 2)
        res = search_avoiding(parse_family("x; x + 2*t; x + 3*t"), parse_window("int:1..39"), 3)
        assert (res.outcome, res.nodes) == (AVOIDING, 4412)
        assert hashlib.sha256(bytes(res.coloring.colors)).hexdigest() == (
            "011416c6d2db2589931768de8cc7909dcebe857881aa5fd37d171096459e8f06")
        assert_no_child_left()


class TestNoProcessLeft:
    def test_interrupted_parent_reaps_its_children(self, forced, monkeypatch):
        forced(4)
        parent = os.getpid()
        walks = _Split.walks
        calls = []

        def interrupted(self, depth, nodes):
            if os.getpid() == parent:
                calls.append(depth)
                if len(calls) == 5:
                    raise KeyboardInterrupt
            return walks(self, depth, nodes)

        monkeypatch.setattr(_Split, "walks", interrupted)
        groups, n = instance("x; x + t; x + 4*t; x + 5*t", "int:1..40")
        with pytest.raises(KeyboardInterrupt):
            search._search(groups, n, 2, None)
        assert len(calls) == 5
        assert_no_child_left()

    @pytest.mark.parametrize("text, spec, r", [
        ("x; x + t; x + 2*t; x + 3*t", "int:1..34", 2),  # a child finds the coloring
        ("x; x + t; x + 4*t; x + 5*t", "int:1..45", 2),  # exhausted
    ])
    def test_children_end_without_flushing_or_writing(self, tmp_path, text, spec, r):
        # Block-buffered stdout holds "before" when the search forks: a child
        # that flushed it, or went on to print the result or write a
        # certificate, would show up twice.
        script = (
            "import os, sys\n"
            "from qramsey import search\n"
            "from qramsey.cli import main\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "search._SPLIT_AT, search._SPLIT_DEPTH = 0, 2\n"
            "print('before')\n"
            f"code = main(['search', {text!r}, {spec!r}, '-r', '{r}', '--cert-dir', 'certs'])\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no child left')\n"
            "sys.exit(code)\n"
        )
        src = os.path.dirname(os.path.dirname(search.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.count("before") == 1
        assert done.stdout.count('"outcome"') == 1
        assert done.stdout.endswith("no child left\n")
        assert done.stderr.count("certificate: ") == 1
        assert len(os.listdir(tmp_path / "certs")) == 1


class TestLiveness:
    """No worker waits for another to claim or send, and worker 0 waits only
    for a pipe that ends once its worker has."""

    def test_finished_worker_is_not_waited_for(self, forced, monkeypatch):
        # Worker 1 claims every subtree and worker 2 none, so worker 2 ends
        # first; worker 1 keeps no record until worker 0 has ended its walk
        # with worker 2 ended, and worker 0 must take in both.
        forced(2)
        cpus(monkeypatch, 3)
        monkeypatch.setattr(_Split, "_claim", to_the_child)
        keep, finish = _Split._keep, _Split.finish
        before = open_fds()
        gate_r, gate_w = os.pipe()

        def gated_keep(split, k, nodes, last=None):
            if split.me == 1 and not hasattr(split, "opened"):
                split.opened = os.read(gate_r, 1)
            keep(split, k, nodes, last)

        def gated_finish(split, colors, nodes):
            if split.me == 0:
                os.waitid(os.P_PID, split.pids[1], os.WEXITED | os.WNOWAIT)
                os.write(gate_w, b"g")
            return finish(split, colors, nodes)

        monkeypatch.setattr(_Split, "_keep", gated_keep)
        monkeypatch.setattr(_Split, "finish", gated_finish)
        groups, n = instance("x; x + t; x + 4*t; x + 5*t", "int:1..45")
        try:
            with deadline(60):
                assert search._search(groups, n, 2, None) == sequential(groups, n, 2)
        finally:
            os.close(gate_r)
            os.close(gate_w)
        assert open_fds() == before
        assert_no_child_left()

    @pytest.mark.parametrize("k, claimed", [(2, True), (3, True), (2, False), (3, False)])
    def test_killed_worker_raises_in_worker_0(self, forced, monkeypatch, k, claimed):
        # Worker 1 is killed at its first subtree root, before or after it
        # claims an index, and worker 0 claims its own first subtree only
        # once worker 1 has ended.  Worker 0 raises; it never waits forever.
        forced(4)
        cpus(monkeypatch, k)
        claim = _Split._claim

        def dying(split):
            if split.me == 0 and not hasattr(split, "waited"):
                split.waited = os.waitid(os.P_PID, split.pids[0], os.WEXITED | os.WNOWAIT)
            elif split.me == 1:
                if claimed:
                    claim(split)
                os.kill(os.getpid(), signal.SIGKILL)
            return claim(split)

        monkeypatch.setattr(_Split, "_claim", dying)
        groups, n = instance("x; x + t; x + 4*t; x + 5*t", "int:1..45")
        before = open_fds()
        with deadline(60), pytest.raises(RuntimeError, match="search worker 1 failed"):
            search._search(groups, n, 2, None)
        assert open_fds() == before
        assert_no_child_left()

    def test_lost_record_raises_in_worker_0(self, forced, monkeypatch):
        # The child claims every subtree and sends its records, but not that
        # of subtree 2: worker 0 raises at the gap.
        forced(4)
        monkeypatch.setattr(_Split, "_claim", to_the_child)
        keep = _Split._keep

        def lossy(split, k, nodes, last=None):
            if split.me == 0 or k != 2:
                keep(split, k, nodes, last)

        monkeypatch.setattr(_Split, "_keep", lossy)
        groups, n = instance("x; x + t; x + 4*t; x + 5*t", "int:1..45")
        before = open_fds()
        with deadline(60), pytest.raises(RuntimeError, match="no record of subtree 2"):
            search._search(groups, n, 2, None)
        assert open_fds() == before
        assert_no_child_left()

    def test_killed_worker_0_ends_a_waiting_worker(self, tmp_path):
        # Each of two children, at its first claim, waits until worker 0 has
        # ended, and then claims; worker 0 waits for both and is killed.  A
        # child must end at that claim.  Worker 0 has ended once the child is
        # no longer its child: its pipes close before it is reparented.  The
        # children hold the script's stdout, so the output ends only once
        # they have ended too.
        script = (
            "import os, signal, time\n"
            "from qramsey import search\n"
            "from qramsey.split import _Split\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "search._SPLIT_AT, search._SPLIT_DEPTH = 0, 4\n"
            "ready_r, ready_w = os.pipe()\n"
            "claim = _Split._claim\n"
            "def wait_then_claim(split):\n"
            "    if split.me:\n"
            "        os.write(ready_w, b'w')\n"
            "        while os.getppid() == split.parent:\n"
            "            time.sleep(0.001)\n"
            "        claim(split)\n"
            "        print('claimed after worker 0 ended', flush=True)\n"
            "        os._exit(0)\n"
            "    ready = b''\n"
            "    while len(ready) < 2:\n"
            "        ready += os.read(ready_r, 2 - len(ready))\n"
            "    print(*split.pids, flush=True)\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
            "_Split._claim = wait_then_claim\n"
            "from qramsey.cli import main\n"
            "main(['search', 'x; x + t; x + 4*t; x + 5*t', 'int:1..45', '-r', '2'])\n"
        )
        src = os.path.dirname(os.path.dirname(search.__file__))
        before = open_fds()
        worker_0 = subprocess.Popen(
            [sys.executable, "-c", script], cwd=tmp_path, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=src),
            start_new_session=True,
        )
        try:
            out, err = worker_0.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(worker_0.pid, signal.SIGKILL)
            worker_0.communicate()
            raise
        assert worker_0.returncode == -signal.SIGKILL, err
        assert "claimed after worker 0 ended" not in out
        children = [int(pid) for pid in out.split()]
        assert len(children) == 2
        assert all(ends(pid) for pid in children)
        assert open_fds() == before
        assert_no_child_left()


class TestGuards:
    def test_budgeted_search_never_forks(self, forced, no_fork):
        forced(2)
        res = search_avoiding(parse_family("x; x + t; x + 4*t; x + 5*t"),
                              parse_window("int:1..45"), 2, max_nodes=30000)
        assert (res.outcome, res.nodes) == (EXHAUSTED, 24103)
        res = search_avoiding(parse_family("x; x + t; x + 4*t; x + 5*t"),
                              parse_window("int:1..45"), 2, max_nodes=10000)
        assert (res.outcome, res.nodes) == (BUDGET_EXCEEDED, 10000)

    def test_one_cpu_never_forks(self, forced, monkeypatch, no_fork):
        forced(2)
        cpus(monkeypatch, 1)
        groups, n = instance("x; x + t; x + 4*t; x + 5*t", "int:1..30")
        assert search._search(groups, n, 2, None) == sequential(groups, n, 2)

    def test_no_fork_on_the_platform(self, forced, monkeypatch):
        forced(2)
        monkeypatch.delattr(os, "fork")
        groups, n = instance("x; x + t; x + 4*t; x + 5*t", "int:1..30")
        assert search._search(groups, n, 2, None) == sequential(groups, n, 2)

    def test_another_live_thread_never_forks(self, forced, no_fork):
        forced(2)
        release = threading.Event()
        waiting = threading.Thread(target=release.wait, args=(60,))
        waiting.start()
        try:
            groups, n = instance("x; x + t; x + 4*t; x + 5*t", "int:1..30")
            assert search._search(groups, n, 2, None) == sequential(groups, n, 2)
        finally:
            release.set()
            waiting.join(timeout=60)
        assert not waiting.is_alive()

    def test_searches_under_the_split_size_never_fork(self, monkeypatch, no_fork):
        cpus(monkeypatch, 2)
        res = search_avoiding(builtin_family("vdw(2)"), parse_window("farey:10"), 3)
        assert (res.outcome, res.nodes) == (EXHAUSTED, 988)
        assert res.nodes < search._SPLIT_AT

    def test_no_fork_inside_the_subtree_of_the_coloring(self, monkeypatch, forks):
        # From node 1024 to the coloring the search never climbs back to the
        # split depth, so it never forks.
        cpus(monkeypatch, 2)
        family = parse_family("x; x / y^1; x + t", require_distinct_values=True)
        res = search_avoiding(family, parse_window("farey:9"), 4)
        assert (res.outcome, res.nodes) == (AVOIDING, 24763)
        assert forks == []
        assert_no_child_left()

    def test_the_largest_sweep_search_forks(self, monkeypatch, forks):
        # The largest search of the benchmark's tables-and-sweeps workload.
        cpus(monkeypatch, 2)
        res = search_avoiding(builtin_family("vdw(2)"), parse_window("int:1..27"), 3)
        assert (res.outcome, res.nodes, res.proof_log_hash) == (
            EXHAUSTED, 2611, "24851e1729882c4650fc44908287366d33d632f1ccab22701f1f325d57300156")
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("k", [2, 3])
    def test_failed_fork_falls_back_to_one_process(self, forced, monkeypatch, k):
        # The last of the k - 1 forks fails; a worker already forked is reaped.
        parent, forks = os.getpid(), []
        fork = os.fork

        def failing():
            if os.getpid() == parent:
                forks.append(1)
                if len(forks) == k - 1:
                    raise BlockingIOError("no process left")
            return fork()

        forced(2)
        cpus(monkeypatch, k)
        monkeypatch.setattr(os, "fork", failing)
        groups, n = instance("x; x + t; x + 4*t; x + 5*t", "int:1..30")
        before = open_fds()
        assert search._search(groups, n, 2, None) == sequential(groups, n, 2)
        assert len(forks) == k - 1
        assert open_fds() == before
        assert_no_child_left()

    def test_failed_pipe_falls_back_to_one_process(self, forced, monkeypatch, forks):
        # With three CPUs the pipe of worker 2 fails, after worker 1 is forked.
        forced(2)
        cpus(monkeypatch, 3)
        groups, n = instance("x; x + t; x + 4*t; x + 5*t", "int:1..30")
        want = sequential(groups, n, 2)
        parent, pipes = os.getpid(), []
        pipe = os.pipe

        def failing():
            if os.getpid() == parent:
                pipes.append(1)
                if len(pipes) == 3:  # the pipe of subtree indices, worker 1's, worker 2's
                    raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
            return pipe()

        monkeypatch.setattr(os, "pipe", failing)
        before = open_fds()
        assert search._search(groups, n, 2, None) == want
        assert (len(pipes), len(forks)) == (3, 1)
        assert open_fds() == before
        assert_no_child_left()

    def test_indices_that_overflow_the_pipe_fall_back_to_one_process(self, forced, no_fork):
        # At depth 8 with 9 colors a search may meet 9! subtree roots: their
        # indices, 4 bytes each, fill no pipe of a default size.
        forced(8)
        groups, n = instance("x; x + t; x + 4*t; x + 5*t", "int:1..30")
        want = sequential(groups, n, 9)
        before = open_fds()
        assert search._search(groups, n, 9, None) == want
        assert open_fds() == before
        assert_no_child_left()

    @pytest.mark.parametrize("count, made", [(3, 2), (None, 0)])
    def test_cpu_count_where_affinity_is_unknown(self, forced, monkeypatch, forks, count, made):
        forced(2)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        groups, n = instance("x; x + t; x + 4*t; x + 5*t", "int:1..30")
        assert search._search(groups, n, 2, None) == sequential(groups, n, 2)
        assert len(forks) == made
        assert_no_child_left()

    @pytest.mark.parametrize("k, depth", [(2, 2), (3, 0), (3, 1), (3, 2), (3, 4), (4, 4)])
    def test_one_worker_per_cpu(self, forced, monkeypatch, forks, k, depth):
        forced(depth)
        cpus(monkeypatch, k)
        groups, n = instance("x; x + t; x + 4*t; x + 5*t", "int:1..30")
        assert search._search(groups, n, 2, None) == sequential(groups, n, 2)
        assert len(forks) == k - 1
        assert_no_child_left()
