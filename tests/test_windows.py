"""Window kinds: enumeration order, membership, spec round trips."""

import hashlib
import time
from fractions import Fraction
from math import gcd

import pytest

from qramsey.arith import MAX_EXPONENT
from qramsey.windows import parse_window


def brute_farey_set(n, include_zero=True, include_negatives=True):
    # Independent of the window class: collect every a/b in range and let
    # Fraction normalization collapse duplicates.
    out = set()
    if include_zero:
        out.add(Fraction(0))
    lo = -n if include_negatives else 1
    for a in range(lo, n + 1):
        for b in range(1, n + 1):
            q = Fraction(a, b)
            if q != 0 and abs(q.numerator) <= n and q.denominator <= n:
                out.add(q)
    return out


class TestIntegerInterval:
    def test_basics(self):
        w = parse_window("int:-2..3")
        assert w.size() == 6
        assert list(w.elements()) == [Fraction(k) for k in range(-2, 4)]
        assert all(w.index_of(q) is not None for q in (0, -2, 3))
        assert w.index_of(4) is None
        assert w.index_of(Fraction(1, 2)) is None

    def test_index_of_matches_enumeration(self):
        w = parse_window("int:5..25")
        for i, v in enumerate(w.elements()):
            assert w.index_of(v) == i
        assert w.index_of(4) is None
        assert w.index_of(Fraction(11, 2)) is None

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match=r"^empty interval 3\.\.2$"):
            parse_window("int:3..2")

    def test_spec_round_trip(self):
        w = parse_window("int:-4..17")
        assert parse_window(w.spec_string()) == w


class TestFareyWindow:
    @pytest.mark.parametrize("n,size", [(1, 3), (2, 7), (3, 15), (8, 87)])
    def test_frozen_sizes(self, n, size):
        # Cross-checked below against the brute-force set.
        assert parse_window(f"farey:{n}").size() == size

    @pytest.mark.parametrize("include_zero", [True, False])
    @pytest.mark.parametrize("include_negatives", [True, False])
    def test_size_is_the_coprime_count(self, include_zero, include_negatives):
        for n in range(1, 61):
            pairs = sum(gcd(a, b) == 1 for a in range(1, n + 1) for b in range(1, n + 1))
            w = parse_window(f"farey:{n}" + ":-zero" * (not include_zero) + ":-neg" * (not include_negatives))
            assert w.size() == pairs * (2 if include_negatives else 1) + include_zero

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_matches_brute_force_set(self, n):
        w = parse_window(f"farey:{n}")
        elems = w.elements()
        assert set(elems) == brute_farey_set(n)
        assert len(elems) == len(set(elems))
        assert len(elems) == w.size()

    def test_order_zero_first_then_by_denominator(self):
        w = parse_window("farey:2")
        assert list(w.elements()) == [
            Fraction(0),
            Fraction(-2), Fraction(-1), Fraction(1), Fraction(2),
            Fraction(-1, 2), Fraction(1, 2),
        ]

    def test_flags(self):
        w = parse_window("farey:2:-zero:-neg")
        assert set(w.elements()) == brute_farey_set(2, False, False)
        assert w.index_of(0) is None
        assert w.index_of(Fraction(-1, 2)) is None
        assert w.index_of(Fraction(1, 2)) is not None

    def test_contains_checks_lowest_terms_bound(self):
        w = parse_window("farey:3")
        assert w.index_of(Fraction(2, 3)) is not None
        assert w.index_of(Fraction(1, 4)) is None
        assert w.index_of(4) is None
        # 2/4 normalizes to 1/2, which is inside.
        assert w.index_of(Fraction(2, 4)) is not None

    def test_index_of_matches_enumeration(self):
        w = parse_window("farey:4")
        for i, v in enumerate(w.elements()):
            assert w.index_of(v) == i

    def test_spec_round_trips(self):
        for w in (
            parse_window("farey:5"),
            parse_window("farey:5:-zero"),
            parse_window("farey:5:-neg"),
            parse_window("farey:5:-zero:-neg"),
        ):
            assert parse_window(w.spec_string()) == w

    def test_bound_validated(self):
        with pytest.raises(ValueError, match="^Farey bound must be at least 1$"):
            parse_window("farey:0")


class TestMultiplicativeGrid:
    def test_frozen_enumeration_two_primes(self):
        w = parse_window("mgrid:2,3:1")
        want = [
            Fraction(1, 6), Fraction(1, 2), Fraction(3, 2),
            Fraction(1, 3), Fraction(1), Fraction(3),
            Fraction(2, 3), Fraction(2), Fraction(6),
        ]
        assert list(w.elements()) == want
        assert w.size() == 9

    def test_contains(self):
        w = parse_window("mgrid:2,3:2")
        assert w.index_of(Fraction(4, 9)) is not None
        assert w.index_of(12) is not None  # 2^2 * 3
        assert w.index_of(8) is None  # exponent 3 over bound
        assert w.index_of(5) is None
        assert w.index_of(0) is None
        assert w.index_of(-2) is None

    def test_signed_grid(self):
        w = parse_window("mgrid:2:1:+sign")
        assert list(w.elements()) == [
            Fraction(1, 2), Fraction(1), Fraction(2),
            Fraction(-1, 2), Fraction(-1), Fraction(-2),
        ]
        assert w.index_of(-2) is not None
        assert w.index_of(0) is None

    def test_never_contains_zero(self):
        for w in (parse_window("mgrid:5:3"), parse_window("mgrid:2,7:1:+sign")):
            assert w.index_of(0) is None
            assert Fraction(0) not in w.elements()

    def test_validation(self):
        with pytest.raises(ValueError, match="^4 is not prime$"):
            parse_window("mgrid:4:1")
        with pytest.raises(ValueError, match=r"^primes must be distinct: \(3, 3\)$"):
            parse_window("mgrid:3,3:1")
        with pytest.raises(ValueError, match="^exponent bound must lie in 0..64, got -1$"):
            parse_window("mgrid:2:-1")

    def test_primes_of_2_to_the_32_and_above_rejected_at_once(self):
        start = time.perf_counter()
        assert parse_window("mgrid:4294967291:1").size() == 3  # the largest prime below 2^32
        for p in (2**32 + 15, 1000000016000000063, 1000000000000000003):
            with pytest.raises(ValueError, match=rf"^grid prime {p} is not below 2\^32$"):
                parse_window(f"mgrid:{p}:1")
        assert time.perf_counter() - start < 1

    def test_exponent_bound_capped(self):
        # Values grow as p^bound, so memory would grow with the bound, not
        # only with the element count that ELEMENT_CAP bounds.
        assert parse_window(f"mgrid:2:{MAX_EXPONENT}").elements()[-1] == 2**MAX_EXPONENT
        for spec in ("mgrid:2:65", "mgrid:2:40000", "mgrid:2,3:20000:+sign"):
            bound = spec.split(":")[2]
            with pytest.raises(ValueError, match=f"^exponent bound must lie in 0..64, got {bound}$"):
                parse_window(spec)

    def test_spec_round_trips(self):
        for w in (parse_window("mgrid:2,3:2"), parse_window("mgrid:5:1:+sign")):
            assert parse_window(w.spec_string()) == w


# Each spec that parse_window rejects, with its error message.
REJECTED_SPECS = {
    "": "unrecognized window spec ''",
    "int:9..1": "empty interval 9..1",
    "int:a..b": "unrecognized window spec 'int:a..b'",
    "farey:x": "bad Farey bound in 'farey:x'",
    "farey:2:?": "unknown flag '?' in 'farey:2:?'",
    "mgrid:6:1": "6 is not prime",
    "mgrid:2:1:loud": "unknown flag 'loud' in 'mgrid:2:1:loud'",
    "interval:1..2": "unrecognized window spec 'interval:1..2'",
    "mgrid:a:1": "bad grid parameters in 'mgrid:a:1'",
    "mgrid:1:2": "1 is not prime",
    "mgrid::1": "bad grid parameters in 'mgrid::1'",
}


class TestParseWindow:
    @pytest.mark.parametrize(
        "spec", ["int:1..9", "int:-3..3", "farey:4", "farey:4:-zero:-neg", "mgrid:2,3:1", "mgrid:7:2:+sign"]
    )
    def test_accepts(self, spec):
        w = parse_window(spec)
        assert w.size() >= 1

    @pytest.mark.parametrize("bad", list(REJECTED_SPECS))
    def test_rejects(self, bad):
        with pytest.raises(ValueError) as ei:
            parse_window(bad)
        assert str(ei.value) == REJECTED_SPECS[bad]

    @pytest.mark.parametrize("spec", ["farey:2:+sign", "mgrid:2:1:-zero", "mgrid:2:1:+neg"])
    def test_flag_of_another_kind_rejected(self, spec):
        with pytest.raises(ValueError) as ei:
            parse_window(spec)
        assert str(ei.value) == f"unknown flag {spec.rsplit(':', 1)[1]!r} in {spec!r}"

    def test_leading_zeros_are_not_converted(self):
        # int() refuses more than 4300 digits, leading zeros counted; only the
        # digits after them are converted
        zeros = "0" * 5000
        for spec, canonical in [
            (f"int:1..{zeros}5", "int:1..5"),
            (f"int:-{zeros}2..{zeros}", "int:-2..0"),
            (f"farey:{zeros}3", "farey:3"),
            (f"farey:{zeros}3:-zero", "farey:3:-zero"),
            (f"mgrid:{zeros}2:1", "mgrid:2:1"),
            (f"mgrid:2,{zeros}3:{zeros}1:+sign", "mgrid:2,3:1:+sign"),
        ]:
            assert parse_window(spec).spec_string() == canonical

    def test_later_flag_wins(self):
        assert parse_window("farey:2:-zero:+zero:-neg").spec_string() == "farey:2:-neg"
        assert parse_window("mgrid:2:1:+sign:-sign").spec_string() == "mgrid:2:1"


class TestCap:
    def test_size_is_cheap_but_enumeration_is_capped(self):
        w = parse_window("int:1..100000000")
        assert w.size() == 10**8
        with pytest.raises(
            ValueError, match="^window int:1..100000000 has 100000000 elements, cap is 10000000$"
        ):
            w.elements()

    @pytest.mark.parametrize("spec", ["farey:4473", "farey:1000000", "farey:1000000:-zero:-neg"])
    def test_farey_window_over_the_cap_is_refused_before_counting(self, spec):
        # when its spec is read, before anything asks for its size or elements
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^window {spec} has over .* elements, cap is 10000000$"):
            parse_window(spec)
        assert time.perf_counter() - start < 1


def spec_corpus():
    zeros = "0" * 40
    specs = [f"int:{lo}..{hi}" for lo in range(-4, 5) for hi in range(-4, 6)]
    specs += [f"int:{zeros}1..{zeros}7", f"int:-{zeros}3..0003", "int:-0..-0", "int:007..7",
              f"int:1..{zeros}", "int:1..10000001"]
    farey_flags = ["", ":-zero", ":+zero", ":-neg", ":+neg", ":-zero:-neg", ":-neg:-zero",
                   ":-zero:+zero", ":+neg:-neg:+neg", ":+sign", ":-zero:?", ":"]
    for n in ["0", "1", "2", "3", "5", "12", "-1", "x", "", "0005", "4473", "1000000"]:
        specs += [f"farey:{n}{flags}" for flags in farey_flags]
    grid_flags = ["", ":+sign", ":-sign", ":+sign:-sign", ":-sign:+sign", ":-zero", ":+sign:x"]
    for primes in ["2", "3", "2,3", "5,2", "2,3,5", "2,3,5,7", "4", "3,3", "1", "",
                   "2,x", "0002,3", "4294967291", "4294967311", "-2"]:
        for bound in ["0", "1", "2", "-1", "65", "x", "", "01"]:
            specs += [f"mgrid:{primes}:{bound}{flags}" for flags in grid_flags]
    specs += [" int:1..3 ", "interval:1..2", "farey", "mgrid:2", "int:1..2..3", "INT:1..2"]
    return specs


def spec_outcome(spec):
    try:
        w = parse_window(spec)
        return (w.spec_string(), w.size(), [str(q) for q in w.elements()], list(w.pair_index().items()))
    except ValueError as e:
        return str(e)


def test_spec_corpus_digest_is_pinned():
    # Each spec's canonical spec, size, elements and pair index, or the
    # message of the error it raises on the way: a change in how any window
    # is read, counted or enumerated changes the digest.
    specs = spec_corpus()
    digest = hashlib.sha256()
    for spec in specs:
        digest.update(repr((spec, spec_outcome(spec))).encode())
    assert len(specs) == 1086
    assert digest.hexdigest() == "94eb250381effc5a47bb8260dc541b7bb7d74c5c34c806dbfd123478244a56e5"
