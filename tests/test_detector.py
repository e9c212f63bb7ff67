"""Witness detection against the independent brute-force oracle.

``_brute`` imports nothing from qramsey: it walks every (x, y) pair,
evaluates each term's exact value and matches it to a window position with
a plain dict.  Slow and obviously correct.
"""

import hashlib
import random
from fractions import Fraction

import pytest

import _brute
from qramsey.colorings import Coloring
from qramsey.detector import Candidate, CandidateTable, build_candidates, find_witness
from qramsey.patterns import builtin_family, instantiate, parse_family
from qramsey.windows import (
    FareyWindow,
    IntegerInterval,
    MultiplicativeGrid,
    parse_window,
)


def oracle_has_witness(family, coloring):
    """True iff some instance of the family is monochromatic."""
    instances = _brute.instances(family, coloring.window)
    return bool(_brute.monochromatic(instances, coloring.colors))


ORACLE_SETUPS = [
    ("schur", IntegerInterval(1, 14)),
    ("vdw(2)", IntegerInterval(1, 14)),
    ("moreira(1)", IntegerInterval(1, 10)),
    ("bowen-sabok(1)", FareyWindow(2)),
    ("quotient-poly(1,[t])", FareyWindow(2)),
    ("product-poly(1,[t])", MultiplicativeGrid([2, 3], 1)),
    ("question-hs", MultiplicativeGrid([2, 3], 1)),
]


class TestAgainstOracle:
    @pytest.mark.parametrize("key,window", ORACLE_SETUPS, ids=[k for k, _ in ORACLE_SETUPS])
    def test_random_colorings_agree(self, key, window):
        family = builtin_family(key)
        table = build_candidates(family, window)
        rng = random.Random(sum(map(ord, key)))
        for i in range(150):
            r = 2 if i % 2 == 0 else 3
            coloring = Coloring(window, [rng.randrange(r) for _ in range(window.size())], r)
            got = find_witness(family, coloring, table)
            want = oracle_has_witness(family, coloring)
            assert (got is not None) == want, (key, coloring)

    def test_distinct_value_flag_agrees(self):
        family = parse_family("x; y; x + t", require_distinct_values=True)
        window = IntegerInterval(1, 12)
        table = build_candidates(family, window)
        rng = random.Random(99)
        for _ in range(100):
            coloring = Coloring(window, [rng.randrange(2) for _ in range(window.size())], 2)
            got = find_witness(family, coloring, table)
            assert (got is not None) == oracle_has_witness(family, coloring)

    def test_offset_family_agrees(self):
        family = parse_family("x; x + 3", allow_offsets=True)
        window = IntegerInterval(1, 30)
        table = build_candidates(family, window)
        rng = random.Random(17)
        for _ in range(100):
            coloring = Coloring(window, [rng.randrange(2) for _ in range(window.size())], 2)
            got = find_witness(family, coloring, table)
            assert (got is not None) == oracle_has_witness(family, coloring)


class TestWitnessContents:
    def test_witness_is_monochromatic_and_faithful(self):
        family = builtin_family("schur")
        window = IntegerInterval(1, 9)
        coloring = Coloring(window, [0] * 9, 1)
        w = find_witness(family, coloring)
        assert w is not None
        assert w.values == instantiate(family, w.x, w.y)
        assert all(coloring.color_of(v) == w.color for v in w.values)

    def test_first_witness_in_table_order(self):
        family = builtin_family("schur")
        window = IntegerInterval(1, 4)
        coloring = Coloring(window, [0, 0, 0, 0], 1)
        w = find_witness(family, coloring)
        # x-major, y-inner: smallest x then smallest y; 1 + 1 = 2 leads.
        assert (w.x, w.y) == (Fraction(1), Fraction(1))

    @pytest.mark.parametrize("key,window", ORACLE_SETUPS, ids=[k for k, _ in ORACLE_SETUPS])
    def test_first_monochromatic_brute_entry(self, key, window):
        family = builtin_family(key)
        table = build_candidates(family, window)
        entries = _brute.entries(family, window)
        elems = window.elements()
        rng = random.Random(sum(map(ord, key)) + 1)
        for i in range(60):
            r = 2 if i % 2 == 0 else 3
            colors = [rng.randrange(r) for _ in range(window.size())]
            got = find_witness(family, Coloring(window, colors, r), table)
            first = next((e for e in entries if len({colors[j] for j in e[2]}) == 1), None)
            if first is None:
                assert got is None, (key, colors)
            else:
                assert (got.x, got.y) == (elems[first[0]], elems[first[1]]), (key, colors)

    def test_wrong_table_entry_raises(self):
        family = builtin_family("schur")
        window = IntegerInterval(1, 6)
        coloring = Coloring(window, [0, 0, 0, 1, 1, 1], 2)
        # x = 1, y = 5 gives 1, 5, 6, but the entry names 1, 2, 3, all color 0.
        wrong = CandidateTable(family, window, (Candidate(0, 4, (0, 1, 2)),))
        with pytest.raises(RuntimeError, match="not monochromatic"):
            find_witness(family, coloring, wrong)

    def test_no_witness_on_avoiding_coloring(self):
        family = builtin_family("schur")
        window = IntegerInterval(1, 4)
        coloring = Coloring(window, [0, 1, 1, 0], 2)
        assert find_witness(family, coloring) is None


class TestTableStructure:
    def test_y_collapse_for_y_free_families(self):
        family = parse_family("x; x + 3", allow_offsets=True)
        window = IntegerInterval(1, 50)
        table = build_candidates(family, window)
        # One candidate per x with x+3 in range; no quadratic blowup.
        assert len(table.entries) == 47
        assert len({e.y_index for e in table.entries}) == 1

    def test_candidates_skip_zero_y(self):
        family = builtin_family("schur")
        window = IntegerInterval(-2, 2)
        table = build_candidates(family, window)
        zero = window.index_of(0)
        assert all(e.y_index != zero for e in table.entries)

    def test_candidates_skip_zero_x_when_required(self):
        family = builtin_family("moreira(1)")
        window = IntegerInterval(-3, 3)
        table = build_candidates(family, window)
        zero = window.index_of(0)
        assert all(e.x_index != zero for e in table.entries)

    def test_constraint_groups_minimal_and_sorted(self):
        family = builtin_family("schur")
        window = IntegerInterval(1, 12)
        groups = build_candidates(family, window).constraint_groups()
        assert groups == tuple(sorted(groups, key=lambda g: (len(g), g)))
        sets = [frozenset(g) for g in groups]
        for i, a in enumerate(sets):
            for j, b in enumerate(sets):
                if i != j:
                    assert not a < b, "group subsumed by a kept subset"

    def test_every_candidate_implied_by_some_group(self):
        family = builtin_family("vdw(2)")
        window = IntegerInterval(1, 15)
        table = build_candidates(family, window)
        groups = [frozenset(g) for g in table.constraint_groups()]
        for e in table.entries:
            s = frozenset(e.value_indices)
            assert any(g <= s for g in groups)

    def test_table_reuse_guard(self):
        family = builtin_family("schur")
        table = build_candidates(family, IntegerInterval(1, 5))
        other = Coloring(IntegerInterval(1, 6), [0] * 6, 1)
        with pytest.raises(ValueError, match="different family or window"):
            find_witness(family, other, table)

    def test_pair_cap(self):
        family = builtin_family("schur")
        window = IntegerInterval(1, 6000)
        with pytest.raises(
            ValueError, match="^candidate table for int:1..6000 needs 36000000 pairs, cap is 25000000$"
        ):
            build_candidates(family, window)

    def test_pair_cap_refuses_before_enumerating(self):
        window = FareyWindow(2000)  # the count comes from a totient sieve
        with pytest.raises(
            ValueError, match="^candidate table for farey:2000 needs 23681372055201 pairs, cap is 25000000$"
        ):
            build_candidates(builtin_family("schur"), window)
        assert window._elements is None

    def test_element_cap_reported_before_the_pair_cap(self):
        with pytest.raises(
            ValueError, match="^window int:1..100000000 has 100000000 elements, cap is 10000000$"
        ):
            build_candidates(builtin_family("schur"), IntegerInterval(1, 10**8))

    def test_distinct_filter_drops_collapsing_pairs(self):
        fam_loose = parse_family("x; y; x + t")
        fam_strict = parse_family("x; y; x + t", require_distinct_values=True)
        window = IntegerInterval(1, 8)
        loose = build_candidates(fam_loose, window)
        strict = build_candidates(fam_strict, window)
        assert len(strict.entries) < len(loose.entries)
        elems = window.elements()
        for e in strict.entries:
            values = instantiate(fam_strict, elems[e.x_index], elems[e.y_index])
            assert len(set(values)) == len(values)


# The benchmark's rational tables, pinned by entry count and the SHA-256 of
# repr(entries) as the Fraction-built table gave them.  Their numerators and
# denominators are larger than the fuzz windows reach.
PINNED_TABLES = [
    ("schur", "farey:12", 5932,
     "499cd48fff4d798bb85aa81937a0d12bc9513bda917bc60bdd0f65498046d24b"),
    ("question-hs", "farey:10", 956,
     "76f629daa6558aeb3da1adc1b635cd6fe1493bc3e288b518bc8f018189f1985f"),
    ("bowen-sabok(1)", "farey:12", 1536,
     "cbefc80a0ce1d40f36007b551f48253f421b65af7b9c6c0394acca2983c72490"),
    ("quotient-poly(1,[t])", "mgrid:2,3:6", 928,
     "de2957cce0cbaf63d0e5bfe3b0a2761e1d77a2160b096442bf17df3472e96332"),
]


@pytest.mark.parametrize("key,spec,count,digest", PINNED_TABLES)
def test_benchmark_table_pinned(key, spec, count, digest):
    table = build_candidates(parse_family(key), parse_window(spec))
    assert len(table.entries) == count
    assert hashlib.sha256(repr(table.entries).encode()).hexdigest() == digest


# Paper-sized tables with --distinct, pinned as the pair-scanning join gave
# them: larger windows, large common denominators, negative grid elements.
PINNED_DISTINCT_TABLES = [
    ("quotient-poly(1,[t])", "farey:16", 11635,
     "9583be9a0ef26f77eb1873a500e714633ae904be1bd60d8f95ebdce33f7fd8bc"),
    ("quotient-poly(2,[t;t^2])", "farey:16", 704,
     "e08538b5ffd226f69ae52cc1484c1da6186432e0a38bd347410e3b51b5815026"),
    ("product-poly(1,[t])", "mgrid:2,3:4:+sign", 814,
     "60861eb46f3a00ea268680a8e47165232340f6c602bd42e5f00df5749fa54076"),
    ("product-poly(2,[t^2])", "mgrid:2,3:4:+sign", 176,
     "87850eb72d2d9e098abe2ee9ae407833f0b6708ee99cde04cfe26ad99f23ee8c"),
    ("x; x / y^2; x + t", "farey:20", 3880,
     "9529d788dec58a08b62a55ccf25a58834afb4203089f111415403e4964201a3c"),
]


@pytest.mark.parametrize("key,spec,count,digest", PINNED_DISTINCT_TABLES)
def test_paper_table_pinned(key, spec, count, digest):
    family = parse_family(key, require_distinct_values=True)
    table = build_candidates(family, parse_window(spec))
    assert len(table.entries) == count
    assert hashlib.sha256(repr(table.entries).encode()).hexdigest() == digest
