"""CNF export/import checked against an independent DPLL oracle."""

import pytest

from qramsey.cnf import (
    export_cnf,
    import_assignment,
    parse_assignment,
    to_dimacs,
)
from qramsey.detector import build_candidates, find_witness
from qramsey.patterns import builtin_family
from qramsey.search import AVOIDING, EXHAUSTED, search_avoiding
from qramsey.windows import parse_window

import _brute
from _dpll import model_literals, solve
from _stock import STOCK_KEYS


class TestStructure:
    def test_variable_layout(self):
        cnf = export_cnf(builtin_family("schur"), parse_window("int:1..4"), 3)
        assert cnf.num_vars == 12
        # element e in color c is variable e*r + c + 1: the at-least-one rows
        assert cnf.clauses[:4] == ((1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12))

    def test_clause_counts(self):
        family = builtin_family("schur")
        window = parse_window("int:1..6")
        r = 2
        table = build_candidates(family, window)
        cnf = export_cnf(family, window, r, table=table)
        groups = table.constraint_groups()
        assert len(cnf.clauses) == window.size() + r * len(groups)
        # Leading clauses are the at-least-one rows.
        for e in range(window.size()):
            assert cnf.clauses[e] == tuple(e * r + c + 1 for c in range(r))
        # The rest are all-negative per group and color.
        for cl in cnf.clauses[window.size() :]:
            assert all(lit < 0 for lit in cl)

    def test_dimacs_shape(self):
        cnf = export_cnf(builtin_family("vdw(2)"), parse_window("int:1..5"), 2)
        text = to_dimacs(cnf)
        lines = text.strip().split("\n")
        comments = [l for l in lines if l.startswith("c ")]
        assert any("family:" in l for l in comments)
        assert any("window:" in l for l in comments)
        p = next(l for l in lines if l.startswith("p cnf "))
        nv, nc = map(int, p.split()[2:])
        assert nv == cnf.num_vars
        clause_lines = [l for l in lines if not l.startswith(("c", "p"))]
        assert len(clause_lines) == nc == len(cnf.clauses)
        assert all(l.endswith(" 0") for l in clause_lines)

    @pytest.mark.parametrize("r", [0, -1])
    def test_no_colors_rejected(self, r):
        with pytest.raises(ValueError, match=f"need at least one color, got r={r}"):
            export_cnf(builtin_family("schur"), parse_window("int:1..5"), r)

    def test_table_of_another_family_rejected(self):
        window = parse_window("int:1..8")
        table = build_candidates(builtin_family("schur"), window)
        with pytest.raises(ValueError, match="different family or window"):
            export_cnf(builtin_family("vdw(2)"), window, 2, table=table)


SMALL_WINDOWS = [parse_window("int:1..6"), parse_window("int:1..10"), parse_window("farey:2")]


class TestOracleEquivalence:
    @pytest.mark.parametrize("key", sorted(STOCK_KEYS))
    def test_sat_iff_native_search_avoiding(self, key):
        family = builtin_family(key)
        for window in SMALL_WINDOWS:
            table = build_candidates(family, window)
            cnf = export_cnf(family, window, 2, table=table)
            model = solve(cnf.num_vars, cnf.clauses)
            res = search_avoiding(family, window, 2, table=table)
            if res.outcome == AVOIDING:
                assert model is not None, (key, window.spec_string())
            else:
                assert res.outcome == EXHAUSTED
                assert model is None, (key, window.spec_string())
            if model is not None:
                coloring = import_assignment(window, 2, model_literals(model))
                assert find_witness(family, coloring, table) is None
                instances = _brute.instances(family, window)
                assert _brute.monochromatic(instances, coloring.colors) == []


class TestAssignmentText:
    def test_parse_forms(self):
        text = "c comment\ns SATISFIABLE\nv 1 -2 3 0\nv -4\n5 -6 0\n"
        assert parse_assignment(text) == [1, -2, 3, -4, 5, -6]

    def test_parse_skips_blank_lines(self):
        assert parse_assignment("\n\nv 2 0\n") == [2]

    def test_leading_zeros_are_not_converted(self):
        zeros = "0" * 5000
        assert parse_assignment(f"v {zeros}5 -{zeros}2 {zeros}\n") == [5, -2]

    def test_bad_literal_rejected(self):
        with pytest.raises(ValueError, match="^not an integer: 'x'$"):
            parse_assignment("v 1 x 0\n")

    def test_parse_minisat_result_file(self):
        assert parse_assignment("SAT\n1 -2 3 -4 0\n") == [1, -2, 3, -4]

    @pytest.mark.parametrize(
        "text",
        ["UNSAT\n", "INDET\n", "s UNSATISFIABLE\n", "c minisat\ns  UNSATISFIABLE\n", "s UNKNOWN"],
    )
    def test_parse_status_without_a_model_raises(self, text):
        status = text.strip().splitlines()[-1]
        with pytest.raises(ValueError, match=f"^the solver found no model \\({status}\\)$"):
            parse_assignment(text)


class TestImport:
    WINDOW = parse_window("int:1..2")  # two elements, two colors: variables 1..4

    def test_least_true_color_wins(self):
        # Every variable true: each element keeps color 0.
        coloring = import_assignment(self.WINDOW, 2, [1, 2, 3, 4])
        assert coloring.colors == (0, 0)

    def test_out_of_range_literal(self):
        with pytest.raises(ValueError, match="^literal 99 outside 1..4$"):
            import_assignment(self.WINDOW, 2, [1, 2, 3, 4, 99])

    def test_partial_assignment_rejected(self):
        with pytest.raises(ValueError, match="^assignment not total: variable 4 unset$"):
            import_assignment(self.WINDOW, 2, [1, -2, 3])

    def test_all_false_element_rejected(self):
        with pytest.raises(ValueError, match="^assignment violates at-least-one clause for element 0$"):
            import_assignment(self.WINDOW, 2, [-1, -2, 3, -4])

    @pytest.mark.parametrize("r", [0, -1])
    def test_no_colors_rejected(self, r):
        with pytest.raises(ValueError, match=f"^need at least one color, got r={r}$"):
            import_assignment(self.WINDOW, r, [1, 2, 3, 4])

    def test_round_trip_through_dimacs_text(self):
        cnf = export_cnf(builtin_family("schur"), parse_window("int:1..4"), 2)
        model = solve(cnf.num_vars, cnf.clauses)
        assert model is not None
        text = "v " + " ".join(str(l) for l in model_literals(model)) + " 0\n"
        coloring = import_assignment(parse_window("int:1..4"), 2, parse_assignment(text))
        assert find_witness(builtin_family("schur"), coloring) is None
