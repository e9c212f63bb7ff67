"""A search split over forked workers gives the sequential result, byte for byte.

``_SPLIT_AT = 0`` forks before the first node and a patched
``os.sched_getaffinity`` names two CPUs (three in some tests), so every search
below splits, on any host.  After each split the test process must have no
child left, finished or running.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
from types import SimpleNamespace

import pytest

from qramsey import search
from qramsey.cli import main
from qramsey.detector import build_candidates
from qramsey.patterns import builtin_family, default_catalog, parse_family
from qramsey.search import AVOIDING, BUDGET_EXCEEDED, EXHAUSTED, search_avoiding
from qramsey.windows import parse_window

import test_fuzz
import test_golden

DEPTHS = [0, 1, 2, 4]
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
    for key in sorted(default_catalog()):
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
    def test_fuzz_draws_and_catalog(self, forced, depth):
        cases = small_instances()
        want = [sequential(*case) for case in cases]
        forced(depth)
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

    @pytest.mark.parametrize("depth", [1, 4])
    def test_golden_records(self, forced, tmp_path, depth):
        forced(depth)
        with open(test_golden.GOLDEN, encoding="utf-8") as fh:
            expected = json.load(fh)
        assert test_golden.run_steps(str(tmp_path)) == expected
        assert_no_child_left()


class _Trace:
    """Stands in for the trace hash and keeps each node's label."""

    def __init__(self):
        self.labels = []

    def update(self, label):
        self.labels.append(bytes(label))

    def hexdigest(self):
        return ""


def place(labels, split_at, depth):
    """Where the split of two workers finds the coloring that the sequential
    search reached at its last node: read from the sequential node labels
    alone.  A node of an element already on the path takes that element's
    level; any other node is one level deeper than the last."""
    path, levels = [], []
    for label in labels:
        e = label.split(b":")[0]
        if e in path:
            del path[path.index(e) + 1:]
        else:
            path.append(e)
        levels.append(len(path) - 1)
    inside = levels[split_at] > depth
    subtree, dealt = (0, 1) if inside else (None, 0)
    for level in levels[split_at:]:
        if level < depth:
            subtree = None
        elif level == depth:
            subtree, dealt = dealt, dealt + 1
    if subtree is None:
        return "above the split depth"
    if inside and subtree == 0:
        return "subtree in progress at the fork"
    return "parent's subtree" if subtree % 2 == 0 else "child's subtree"


class TestAvoidingColorings:
    @pytest.mark.parametrize("text, spec, r, split_at, depth, nodes, where", [
        ("x; x + 2*t; x + 3*t", "int:1..39", 3, 1, 4, 4412, "parent's subtree"),
        ("x; x + 2*t; x + 3*t", "int:1..39", 3, 20, 1, 4412, "subtree in progress at the fork"),
        ("x; x + t; x + 2*t; x + 3*t", "int:1..34", 2, 5, 4, 446, "child's subtree"),
        ("x; x + 2*t; x + 3*t", "int:1..9", 2, 0, 4, 11, "child's subtree"),
        ("x; x + t; x + 4*t; x + 5*t", "int:1..6", 2, 1, 4, 4, "above the split depth"),
    ])
    def test_first_coloring_in_subtree_order(
        self, forced, monkeypatch, text, spec, r, split_at, depth, nodes, where
    ):
        groups, n = instance(text, spec)
        trace = _Trace()
        with monkeypatch.context() as m:
            m.setattr(search, "hashlib", SimpleNamespace(sha256=lambda: trace))
            want = sequential(groups, n, r)
        assert (want[0], want[2], len(trace.labels)) == (AVOIDING, nodes, nodes)
        assert place(trace.labels, split_at, depth) == where
        monkeypatch.setattr(search, "_SPLIT_AT", split_at)
        forced(depth)
        assert search._search(groups, n, r, None) == want
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
        leaves = search._Split.leaves
        calls = []

        def interrupted(self, depth, nodes):
            if os.getpid() == parent:
                calls.append(depth)
                if len(calls) == 5:
                    raise KeyboardInterrupt
            return leaves(self, depth, nodes)

        monkeypatch.setattr(search._Split, "leaves", interrupted)
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
        # The largest search of the benchmark's tables-and-sweeps workload.
        cpus(monkeypatch, 2)
        res = search_avoiding(builtin_family("vdw(2)"), parse_window("int:1..27"), 3)
        assert (res.outcome, res.nodes) == (EXHAUSTED, 2611)
        assert res.nodes < search._SPLIT_AT

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
        open_fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else []
        assert search._search(groups, n, 2, None) == sequential(groups, n, 2)
        assert len(forks) == k - 1
        if open_fds:
            assert len(os.listdir("/proc/self/fd")) == len(open_fds)
        assert_no_child_left()

    @pytest.mark.parametrize("k, depth", [(2, 2), (3, 0), (3, 1), (3, 2), (3, 4)])
    def test_one_worker_per_cpu(self, forced, monkeypatch, k, depth):
        forced(depth)
        cpus(monkeypatch, k)
        parent, forks = os.getpid(), []
        fork = os.fork

        def counted():
            if os.getpid() == parent:
                forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        groups, n = instance("x; x + t; x + 4*t; x + 5*t", "int:1..30")
        assert search._search(groups, n, 2, None) == sequential(groups, n, 2)
        assert len(forks) == k - 1
        assert_no_child_left()
