"""Rational and polynomial layer."""

import random
from fractions import Fraction

import pytest

from qramsey.arith import (
    format_polynomial,
    format_rational,
    parse_int,
    parse_rational,
    polynomial,
    read_monomials,
)
from qramsey.patterns import X, AffineTerm, parse_family


def rand_fraction(rng, span=50):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_poly(rng, max_deg=4):
    return polynomial([rand_fraction(rng, 9) for _ in range(rng.randint(0, max_deg + 1))])


class TestIntegerText:
    @pytest.mark.parametrize(
        "text,value",
        [("7", 7), ("-12", -12), ("+3", 3), (" 05 ", 5), ("000", 0), ("-0", 0)],
    )
    def test_parse(self, text, value):
        assert parse_int(text) == value

    @pytest.mark.parametrize("bad", ["", "-", "x", "1.5", "1/2", "1 2", "--1", "1_0"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError) as ei:
            parse_int(bad)
        assert str(ei.value) == f"not an integer: {bad!r}"

    def test_leading_zeros_are_not_converted(self):
        zeros = "0" * 5000
        assert parse_int(f"-{zeros}7") == -7
        assert parse_int(f"+{zeros}") == 0


class TestRationalText:
    @pytest.mark.parametrize(
        "text,value",
        [("3", Fraction(3)), ("-5", Fraction(-5)), ("3/4", Fraction(3, 4)),
         ("-6/4", Fraction(-3, 2)), (" 2 / 3 ", Fraction(2, 3)), ("0", Fraction(0)),
         ("6/-4", Fraction(-3, 2))],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["1/0", "0/0", "-3/-0"])
    def test_zero_denominator_rejected(self, text):
        with pytest.raises(ValueError, match="^degenerate rational: zero denominator$"):
            parse_rational(text)

    @pytest.mark.parametrize("bad", ["", "x", "1.5", "1/0", "1//2", "2/-3x"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_leading_zeros_are_not_converted(self):
        # int() refuses more than 4300 digits, leading zeros counted; only the
        # digits after them are converted
        zeros = "0" * 5000
        assert parse_rational(f"1/{zeros}1") == 1
        assert parse_rational(f"-{zeros}3 / -{zeros}6") == Fraction(1, 2)
        assert parse_rational(zeros) == 0
        with pytest.raises(ValueError, match="^degenerate rational: zero denominator$"):
            parse_rational(f"1/-{zeros}")
        assert parse_family(f"x; x + 1/{zeros}1*t").serialize() == "x; x + t"
        assert list(read_monomials(f"t^{zeros}1")) == [("t", 1, 1)]

    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(300):
            q = rand_fraction(rng)
            assert parse_rational(format_rational(q)) == q

    def test_format_integer_has_no_slash(self):
        assert format_rational(Fraction(8, 4)) == "2"
        assert format_rational(Fraction(-7, 7)) == "-1"


class TestPolynomialBasics:
    def test_trailing_zeros_stripped(self):
        p = polynomial([1, 2, 0, 0])
        assert p == (Fraction(1), Fraction(2))
        assert all(type(c) is Fraction for c in p)

    def test_zero_polynomial_is_empty(self):
        assert polynomial([0, 0]) == ()
        assert AffineTerm(1, [0, 0]).value(Fraction(2), Fraction(5, 3)) == 2

    def test_eval_matches_naive_sum(self):
        # AffineTerm evaluates the coefficient tuple; its constant must be zero
        rng = random.Random(23)
        for _ in range(200):
            p = polynomial([0, *rand_poly(rng)[1:]])
            x, t = rand_fraction(rng, 12), rand_fraction(rng, 12)
            naive = sum((c * t**i for i, c in enumerate(p)), Fraction(0))
            assert AffineTerm(Fraction(3, 2), p).value(x, t) == Fraction(3, 2) * x + naive

    def test_hash_consistent_with_eq(self):
        assert polynomial([1, 2]) == polynomial([Fraction(1), Fraction(2), 0])
        assert hash(polynomial([1, 2])) == hash(polynomial([1, 2, 0]))


class TestPolynomialText:
    @pytest.mark.parametrize(
        "p,text",
        [
            (polynomial([0, Fraction(-3, 2), 1]), "t^2 - 3/2*t"),
            (polynomial([0, 1]), "t"),
            (polynomial([0, -1]), "-t"),
            (polynomial([5]), "5"),
            ((), "0"),
            (polynomial([Fraction(1, 2), 0, 2]), "2*t^2 + 1/2"),
        ],
    )
    def test_format_frozen(self, p, text):
        assert format_polynomial(p) == text

    # Polynomial text is read by the term grammar, as the P of a term x + P.
    def test_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(300):
            p = polynomial([0, *rand_poly(rng)[1:]])  # a nonzero constant is an offset
            if p:
                term = AffineTerm(1, p)
                assert parse_family(f"x; {term.text()}").terms == (X, term)

    def test_parse_accumulates_repeated_exponents(self):
        assert parse_family("x + t + t").terms == (AffineTerm(1, polynomial([0, 2])),)
        assert parse_family("x + t^2 - t^2").terms == (X,)

    def test_parse_error_positions(self):
        # the grammar names the position of the term; read_monomials names none
        with pytest.raises(
            ValueError,
            match=r"^bad polynomial part: unknown variable 'q', expected t, y or \(c\*y\) \(position 3\)$",
        ):
            parse_family("x; x + t + q")
        with pytest.raises(ValueError, match=r"^bad polynomial part: bad monomial 't\^' \(position 0\)$"):
            parse_family("x + t^")
        for text, message in [("", "empty polynomial"), ("t + 2 ** t", "bad monomial '2 ** t'")]:
            with pytest.raises(ValueError) as ei:
                list(read_monomials(text))
            assert (type(ei.value), str(ei.value)) == (ValueError, message)
