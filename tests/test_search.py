"""Backtracking search: correctness against brute force, budgets, sweeps."""

import hashlib
import os
import time

import pytest

from qramsey import search
from qramsey.certificates import (
    certificate_for_result,
    load_certificate,
    verify_certificate,
    write_certificate,
)
from qramsey.detector import build_candidates, find_witness
from qramsey.patterns import builtin_family, parse_family
from qramsey.search import (
    AVOIDING,
    BUDGET_EXCEEDED,
    EXHAUSTED,
    search_avoiding,
    threshold_sweep,
    window_for_template,
)
from qramsey.windows import parse_window

import _brute
from _stock import STOCK_KEYS


class TestAgainstEnumeration:
    @pytest.mark.parametrize("key", sorted(STOCK_KEYS))
    @pytest.mark.parametrize("r", [2, 3])
    def test_small_integer_windows(self, key, r):
        family = builtin_family(key)
        for n in range(1, 6):
            window = parse_window(f"int:1..{n}")
            table = build_candidates(family, window)
            res = search_avoiding(family, window, r, table=table)
            want = AVOIDING if _brute.avoidable(family, window, r) else EXHAUSTED
            assert res.outcome == want, (key, r, n)

    def test_small_farey_windows(self):
        family = builtin_family("quotient-poly(1,[t])")
        for n in (1, 2, 3):
            window = parse_window(f"farey:{n}")
            table = build_candidates(family, window)
            res = search_avoiding(family, window, 2, table=table)
            want = AVOIDING if _brute.avoidable(family, window, 2) else EXHAUSTED
            assert res.outcome == want, n


class TestOutcomes:
    def test_avoiding_coloring_is_verified(self):
        family = builtin_family("schur")
        res = search_avoiding(family, parse_window("int:1..4"), 2)
        assert res.outcome == AVOIDING
        assert find_witness(family, res.coloring) is None
        assert res.proof_log_hash is None

    def test_exhausted_has_digest_and_no_coloring(self):
        family = builtin_family("schur")
        res = search_avoiding(family, parse_window("int:1..5"), 2)
        assert res.outcome == EXHAUSTED
        assert res.coloring is None
        assert len(res.proof_log_hash) == 64
        assert res.nodes > 0

    @pytest.mark.parametrize("r", [3, 7, 200])
    def test_more_colors_than_elements(self, r):
        # One group, {1, 2}; symmetry breaking opens only colors 0 and 1.
        family = builtin_family("schur")
        res = search_avoiding(family, parse_window("int:1..3"), r)
        assert res.outcome == AVOIDING
        assert res.nodes == 2
        assert res.coloring.colors == (0, 1, 0)
        assert res.coloring.r == r

    def test_colors_beyond_the_window_change_nothing(self):
        # The search never opens more colors than the window has elements.
        family = builtin_family("schur")
        window = parse_window("int:1..60")
        start = time.perf_counter()
        res = search_avoiding(family, window, 4 * 10**6)
        assert time.perf_counter() - start < 0.5
        want = search_avoiding(family, window, 60)
        assert (res.outcome, res.nodes, res.coloring.colors) == (
            want.outcome, want.nodes, want.coloring.colors)
        assert (res.r, res.coloring.r) == (4 * 10**6, 4 * 10**6)

    @pytest.mark.parametrize("spec, text", [
        ("int:1..9", "vdw(3)"), ("farey:3", "x; x / y^1; x + t"), ("int:1..5", "schur"),
    ])
    def test_tree_is_the_one_with_every_color(self, spec, text):
        family = parse_family(text, require_distinct_values=True)
        window = parse_window(spec)
        groups = build_candidates(family, window).constraint_groups()
        n = window.size()
        for r in (n - 1, n, n + 1, n + 7):
            outcome, colors, nodes, digest = search._search(groups, n, r, None)
            res = search_avoiding(family, window, r)
            assert (res.outcome, res.nodes, res.proof_log_hash) == (outcome, nodes, digest)
            if colors is not None:
                assert list(res.coloring.colors) == colors

    def test_no_candidates_means_trivially_avoiding(self):
        # x + y overflows the window for every pair, so no constraints exist.
        family = builtin_family("schur")
        res = search_avoiding(family, parse_window("int:6..9"), 2)
        assert res.outcome == AVOIDING
        assert res.nodes == 0

    def test_singleton_group_exhausts_immediately(self):
        family = parse_family("x")
        res = search_avoiding(family, parse_window("int:1..3"), 5)
        assert res.outcome == EXHAUSTED
        assert res.nodes == 0
        assert res.proof_log_hash == hashlib.sha256(b"singleton:0").hexdigest() == (
            "aefb623b82e285616fc2dddcb14d60c9d05ef0198c7aa64746ab58580dd6c9e1")

    def test_node_budget(self):
        family = builtin_family("schur")
        res = search_avoiding(family, parse_window("int:1..14"), 3, max_nodes=1)
        assert res.outcome == BUDGET_EXCEEDED
        assert res.nodes == 1
        assert res.coloring is None
        assert res.proof_log_hash is None

    @pytest.mark.parametrize("max_nodes", [0, 10, 20, 21, 100, 194, 2610])
    def test_node_budget_is_exact(self, max_nodes):
        # The full search takes 2611 nodes.  It first backtracks after node 20,
        # so node 21 is the first to follow an undo of strikes;
        # the root element, of top degree, is backtracked over after node 2611.
        res = search_avoiding(
            builtin_family("vdw(2)"), parse_window("int:1..27"), 3, max_nodes=max_nodes
        )
        assert res.outcome == BUDGET_EXCEEDED
        assert res.nodes == max_nodes

    def test_node_budget_hit_mid_tree(self):
        # Deep in the 24103-node refutation of test_pinned_exhaustion_trace,
        # with many levels on the stack and a trail to leave behind.
        res = search_avoiding(
            parse_family("x; x + t; x + 4*t; x + 5*t"), parse_window("int:1..45"), 2, max_nodes=10000
        )
        assert (res.outcome, res.nodes, res.coloring, res.proof_log_hash) == (
            BUDGET_EXCEEDED, 10000, None, None)

    def test_node_budget_equal_to_tree_size_completes(self):
        res = search_avoiding(builtin_family("vdw(2)"), parse_window("int:1..27"), 3, max_nodes=2611)
        assert res.outcome == EXHAUSTED
        assert res.nodes == 2611

    @pytest.mark.parametrize("max_nodes", [-1, 2.5, True],
                             ids=["negative-nodes", "fractional-nodes", "bool-nodes"])
    def test_invalid_budget_rejected(self, max_nodes):
        message = f"^node budget must be a non-negative integer, got {max_nodes!r}$"
        with pytest.raises(ValueError, match=message):
            search_avoiding(builtin_family("schur"), parse_window("int:1..5"), 2, max_nodes=max_nodes)

    def test_result_metadata(self):
        family = builtin_family("vdw(2)")
        res = search_avoiding(family, parse_window("int:1..8"), 2)
        assert res.family is family
        assert res.window_spec == "int:1..8"
        assert res.r == 2
        # No field reads the clock, so two runs compare equal; an exhausted
        # one, since Coloring defines no __eq__.
        family, window = builtin_family("schur"), parse_window("int:1..5")
        res = search_avoiding(family, window, 2)
        assert res.outcome == EXHAUSTED
        assert res == search_avoiding(family, window, 2)

    def test_table_of_another_family_rejected(self):
        # With schur's table, vdw(2) on 1..8 would read as exhausted; it is avoidable.
        window = parse_window("int:1..8")
        table = build_candidates(builtin_family("schur"), window)
        with pytest.raises(ValueError, match="different family or window"):
            search_avoiding(builtin_family("vdw(2)"), window, 2, table=table)
        assert search_avoiding(builtin_family("vdw(2)"), window, 2).outcome == AVOIDING

    def test_table_of_another_window_rejected(self):
        family = builtin_family("schur")
        table = build_candidates(family, parse_window("int:1..5"))
        with pytest.raises(ValueError, match="different family or window"):
            search_avoiding(family, parse_window("int:1..6"), 2, table=table)


class TestDeterminism:
    def test_repeat_runs_reproduce_digest(self):
        family = builtin_family("schur")
        a = search_avoiding(family, parse_window("int:1..5"), 2)
        b = search_avoiding(family, parse_window("int:1..5"), 2)
        assert a.proof_log_hash == b.proof_log_hash
        assert a.nodes == b.nodes

    def test_outcome_at_schur_threshold(self):
        family = builtin_family("schur")
        assert search_avoiding(family, parse_window("int:1..5"), 2).outcome == EXHAUSTED
        res4 = search_avoiding(family, parse_window("int:1..4"), 2)
        assert res4.outcome == AVOIDING
        assert find_witness(family, res4.coloring) is None

    def test_pinned_exhaustion_trace(self):
        # Node count and trace hash of the smallest-domain-first search:
        # W(3;3) = 27, the benchmark's int:1..45 refutation at r = 2, and the
        # quotient family {x, x/y, x + y} with distinct values on farey:7.
        cases = [
            (
                builtin_family("vdw(2)"), parse_window("int:1..27"), 3, 2611,
                "24851e1729882c4650fc44908287366d33d632f1ccab22701f1f325d57300156",
            ),
            (
                parse_family("x; x + t; x + 4*t; x + 5*t"), parse_window("int:1..45"), 2, 24103,
                "dc66d16ba9554710da30e59275437680570c6f4f4e84d2a7ff80ac591e77c7dc",
            ),
            (
                parse_family("x; x / y^1; x + t", require_distinct_values=True),
                parse_window("farey:7"), 3, 1353,
                "4a6873015486a7d225eecf1a7825fd765668749de68464dd20925d989204b1da",
            ),
        ]
        for family, window, r, nodes, digest in cases:
            res = search_avoiding(family, window, r)
            assert res.outcome == EXHAUSTED
            assert res.nodes == nodes
            assert res.proof_log_hash == digest

    def test_pinned_avoiding_coloring(self):
        # The benchmark's avoiding integer search: node count and the SHA-256
        # of the coloring's colors, one byte each.
        family, window = parse_family("x; x + 2*t; x + 3*t"), parse_window("int:1..39")
        res = search_avoiding(family, window, 3)
        assert (res.outcome, res.nodes) == (AVOIDING, 4412)
        assert hashlib.sha256(bytes(res.coloring.colors)).hexdigest() == (
            "011416c6d2db2589931768de8cc7909dcebe857881aa5fd37d171096459e8f06")
        # The search tests no group for one color: read each group's colors
        # straight from the coloring, not through find_witness.
        colors = res.coloring.colors
        for group in build_candidates(family, window).constraint_groups():
            assert len({colors[i] for i in group}) > 1, group


class TestWindowTemplates:
    def test_templates(self):
        assert window_for_template("int", 7) == parse_window("int:1..7")
        assert window_for_template("farey", 3) == parse_window("farey:3")
        assert window_for_template("mgrid:2,3", 2) == parse_window("mgrid:2,3:2")

    def test_unknown_template(self):
        with pytest.raises(ValueError, match="template"):
            window_for_template("mystery", 3)


class TestThresholdSweep:
    def test_schur_ladder(self, tmp_path):
        family = builtin_family("schur")
        rows = list(threshold_sweep(family, 2, "int", 1, 6))
        assert [n for n, _, _ in rows] == [1, 2, 3, 4, 5, 6]
        assert [res.outcome for _, _, res in rows] == [AVOIDING] * 4 + [EXHAUSTED] * 2
        assert min(n for n, _, res in rows if res.outcome == EXHAUSTED) == 5
        for n, window, res in rows:
            assert window == parse_window(f"int:1..{n}")
            path = write_certificate(certificate_for_result(res), str(tmp_path), f"int-{n}")
            assert os.path.exists(path)
            assert verify_certificate(load_certificate(path), rerun=True).ok, n
        assert [window.size() for _, window, _ in rows] == [1, 2, 3, 4, 5, 6]

    def test_stop_at_exhausted(self, monkeypatch):
        searched = []

        def counting(family, window, *args, **kwargs):
            searched.append(window.size())
            return search_avoiding(family, window, *args, **kwargs)

        monkeypatch.setattr(search, "search_avoiding", counting)
        rows = []
        for n, _, res in threshold_sweep(builtin_family("schur"), 2, "int", 1, 9):
            rows.append(n)
            if res.outcome == EXHAUSTED:
                break
        assert rows == [1, 2, 3, 4, 5]
        assert searched == [1, 2, 3, 4, 5]  # the rows above the stop are never searched

    def test_empty_ladder_rejected(self):
        rows = threshold_sweep(builtin_family("schur"), 2, "int", 5, 3)
        with pytest.raises(ValueError, match="empty sweep: lo=5 is above hi=3"):
            next(rows)

    @pytest.mark.parametrize("max_nodes", [-1, 2.5, True],
                             ids=["negative-nodes", "fractional-nodes", "bool-nodes"])
    def test_invalid_budget_rejected_before_the_table(self, monkeypatch, max_nodes):
        built = []
        monkeypatch.setattr(search, "build_candidates", lambda *args: built.append(args))
        rows = threshold_sweep(builtin_family("schur"), 2, "int", 1, 5, max_nodes=max_nodes)
        with pytest.raises(ValueError, match="^node budget must be a non-negative integer"):
            next(rows)
        assert built == []

    def test_budget_rows_have_no_certificate(self):
        family = builtin_family("schur")
        ((n, _, res),) = threshold_sweep(family, 3, "int", 14, 14, max_nodes=1)
        assert n == 14
        assert res.outcome == BUDGET_EXCEEDED
        with pytest.raises(ValueError, match="no certificate for outcome 'budget-exceeded'"):
            certificate_for_result(res)
