"""Columns condition against a brute ordered-partition oracle.

The oracle shares no code with ``qramsey.rado``: it reads the columns off
``system.coeffs`` and tries every ordered block partition of them.
"""

import itertools
from fractions import Fraction

import pytest

from qramsey.patterns import X, AffineTerm
from qramsey.rado import (
    LinearSystem,
    columns_condition,
    cross_validate,
    parse_equation,
    system_to_family,
)
from qramsey.search import AVOIDING, EXHAUSTED


# ---------------------------------------------------------------------------
# Independent oracle: enumerate every ordered block partition directly.


def _rank(vectors):
    rows = [list(v) for v in vectors]
    if not rows:
        return 0
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [v / lead for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _in_span(vec, basis_vectors):
    return _rank(list(basis_vectors) + [vec]) == _rank(list(basis_vectors))


def _colsum(cols, block):
    total = [Fraction(0)] * len(cols[0])
    for j in block:
        for i, v in enumerate(cols[j]):
            total[i] += v
    return tuple(total)


def _ordered_partitions(indices):
    if not indices:
        yield ()
        return
    n = len(indices)
    for mask in range(1, 1 << n):
        block = tuple(indices[i] for i in range(n) if mask >> i & 1)
        rest = [indices[i] for i in range(n) if not mask >> i & 1]
        for tail in _ordered_partitions(rest):
            yield (block,) + tail


def _columns(system):
    return [(c,) for c in system.coeffs]


def _partition_ok(system, partition):
    cols = _columns(system)
    zero = (Fraction(0),)
    if _colsum(cols, partition[0]) != zero:
        return False
    earlier = list(partition[0])
    for block in partition[1:]:
        if not _in_span(_colsum(cols, block), [cols[j] for j in earlier]):
            return False
        earlier.extend(block)
    return sorted(earlier) == list(range(len(cols)))


def oracle_columns_condition(system):
    return any(
        _partition_ok(system, part)
        for part in _ordered_partitions(list(range(len(system.coeffs))))
    )


# ---------------------------------------------------------------------------


class TestParseEquation:
    def test_basic(self):
        sys_ = parse_equation("x1 + x2 - x3 = 0")
        assert sys_.coeffs == (Fraction(1), Fraction(1), Fraction(-1))

    def test_missing_variables_default_to_zero(self):
        sys_ = parse_equation("2*x1 - x3 = 0")
        assert sys_.coeffs == (Fraction(2), Fraction(0), Fraction(-1))

    def test_fraction_coefficients(self):
        sys_ = parse_equation("1/2*x1 + x2 = 0")
        assert sys_.coeffs == (Fraction(1, 2), Fraction(1))

    def test_repeated_variable_accumulates(self):
        sys_ = parse_equation("x1 + x1 - x2 = 0")
        assert sys_.coeffs == (Fraction(2), Fraction(-1))

    def test_nonzero_rhs_rejected(self):
        with pytest.raises(ValueError, match=r"^equation must end in '= 0': 'x1 \+ x2 = 1'$"):
            parse_equation("x1 + x2 = 1")

    def test_garbage_term_rejected(self):
        with pytest.raises(ValueError, match="^bad term 'q' in equation$"):
            parse_equation("x1 + q = 0")

    def test_zero_indexed_variable_rejected(self):
        with pytest.raises(ValueError, match="^variables are numbered from x1$"):
            parse_equation("x0 + x1 = 0")

    def test_leading_zeros_in_an_index(self):
        zeros = "0" * 5000
        assert parse_equation(f"x{zeros}1 + x2 - x{zeros}3 = 0") == parse_equation("x1 + x2 - x3 = 0")
        with pytest.raises(ValueError, match="^variables are numbered from x1$"):
            parse_equation(f"x{zeros} + x1 = 0")

    def test_column_cap_at_parse_time(self):
        assert len(parse_equation("x1 - x20 = 0").coeffs) == 20
        with pytest.raises(ValueError, match="^21 columns exceed the cap 20$"):
            parse_equation("x1 - x21 = 0")


class TestSystemValidation:
    def test_all_zero_row(self):
        for text in ("0*x1 + 0*x2 = 0", "x1 - x1 = 0"):
            with pytest.raises(ValueError, match="^the equation is all zero$"):
                parse_equation(text)

    def test_column_cap(self):
        wide = LinearSystem((1,) * 21)
        with pytest.raises(ValueError, match="^21 columns exceed the cap 20$"):
            columns_condition(wide)


class TestFrozenVerdicts:
    def test_sum_equation_holds(self):
        res = columns_condition(LinearSystem((1, 1, -1)))
        assert res.holds is True
        assert res.partition == ((0, 2), (1,))
        assert res.note == "nonzero subset sums to zero"

    def test_triple_equation_fails(self):
        res = columns_condition(LinearSystem((1, 1, -3)))
        assert res.holds is False
        assert res.partition is None

    def test_equality_holds(self):
        assert columns_condition(LinearSystem((1, -1))).holds is True

    def test_doubling_fails(self):
        assert columns_condition(LinearSystem((2, -1))).holds is False

    def test_all_positive_fails(self):
        assert columns_condition(LinearSystem((1, 1, 1))).holds is False

    def test_zero_coefficient_not_counted(self):
        # A zero column must not serve as a zero-sum first block certificate.
        res = columns_condition(LinearSystem((0, 1)))
        assert res.holds is False
        assert oracle_columns_condition(LinearSystem((0, 1))) is False


class TestMethodAgreement:
    def test_exhaustive_small_equations(self):
        for width in (2, 3, 4):
            for coeffs in itertools.product(range(-3, 4), repeat=width):
                if all(c == 0 for c in coeffs):
                    continue
                sys_ = LinearSystem(coeffs)
                res = columns_condition(sys_)
                assert res.holds == oracle_columns_condition(sys_), coeffs
                if res.holds:
                    assert _partition_ok(sys_, res.partition), (coeffs, res)


class TestSystemToFamily:
    def test_two_active_variables(self):
        family, note = system_to_family(parse_equation("x1 - x2 = 0"))
        assert family is not None
        assert family.terms == (X,)
        assert family.serialize() == "x"
        assert "x2" in note

    def test_two_active_scaling(self):
        family, _ = system_to_family(LinearSystem((2, -1)))
        assert family.terms == (X, AffineTerm(Fraction(2)))
        assert family.serialize() == "x; 2*x + 0"

    def test_three_active_variables(self):
        family, _ = system_to_family(parse_equation("x1 + x2 - x3 = 0"))
        assert family.serialize() == "x; y; x + t"

    def test_zero_coefficients_dropped(self):
        family, _ = system_to_family(LinearSystem((1, 0, 1, -1)))
        assert family is not None
        assert family.serialize() == "x; y; x + t"

    def test_int_coefficients_stay_exact(self):
        # a system built from ints is divided exactly: no float reaches a family
        for coeffs in ((2, -1), (1, 1, -1), (3, 2, -4)):
            family, _ = system_to_family(LinearSystem(coeffs))
            assert all(
                type(c) is Fraction
                for t in family.terms if isinstance(t, AffineTerm)
                for c in (t.x_coef, *t.poly)
            ), coeffs
        report = cross_validate(LinearSystem((3, 2, -4)), r=2, n_max=4)
        assert report.family_text == "x; y; 3/4*x + 1/2*t"
        assert report == cross_validate(parse_equation("3*x1 + 2*x2 - 4*x3 = 0"), r=2, n_max=4)

    def test_single_active_unsupported(self):
        family, note = system_to_family(LinearSystem((0, 2)))
        assert family is None
        assert "zero" in note

    def test_four_active_unsupported(self):
        family, note = system_to_family(LinearSystem((1, 1, 1, -1)))
        assert family is None
        assert "three" in note


class TestCrossValidate:
    def test_regular_equation_hits_threshold(self):
        report = cross_validate(LinearSystem((1, 1, -1)), r=2, n_max=6)
        assert report.condition.holds is True
        assert report.family_text == "x; y; x + t"
        outcomes = [row.outcome for row in report.rows]
        assert outcomes == [AVOIDING] * 4 + [EXHAUSTED] * 2
        assert report.note == "regular; unavoidable from n=5 at r=2"

    def test_non_regular_equation_stays_avoidable(self):
        report = cross_validate(LinearSystem((1, 1, -3)), r=2, n_max=6)
        assert report.condition.holds is False
        assert all(row.outcome == AVOIDING for row in report.rows)
        assert report.note == "non-regular and avoidable at every tested n"

    def test_non_regular_equation_exhausted_at_fixed_r(self):
        # Non-regularity promises an avoiding coloring for some number of
        # colors, not for r = 2, so an exhausted row contradicts nothing.
        report = cross_validate(LinearSystem((1, 1, -3)), r=2, n_max=9)
        assert report.condition.holds is False
        outcomes = [row.outcome for row in report.rows]
        assert outcomes == [AVOIDING] * 8 + [EXHAUSTED]
        assert report.note == "non-regular; unavoidable from n=9 at r=2"

    @pytest.mark.parametrize(
        "coeffs", [[1, 1, -1], [1, 1, 1, -1]], ids=["supported", "unsupported"]
    )
    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"n_max": 0}, "need at least one window, got n_max=0"),
            ({"n_max": -2}, "need at least one window, got n_max=-2"),
            ({"r": 0}, "need at least one color, got r=0"),
            ({"max_nodes": -1}, "node budget must be a non-negative integer, got -1"),
        ],
        ids=["0", "-2", "r=0", "max_nodes=-1"],
    )
    def test_no_window_rejected(self, coeffs, bad, message):
        """No window, no color or a negative node budget is rejected whether
        or not the equation has a family to search."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            cross_validate(LinearSystem(coeffs), **{"r": 2, "n_max": 6, **bad})

    def test_unsupported_shape_reported(self):
        report = cross_validate(LinearSystem((1, 1, 1, -1)), r=2, n_max=4)
        assert report.family_text is None
        assert report.rows == ()
