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
from qramsey.detector import CandidateTable, build_candidates, find_witness
from qramsey.patterns import builtin_family, instantiate, parse_family
from qramsey.windows import parse_window


def oracle_has_witness(family, coloring):
    """True iff some instance of the family is monochromatic."""
    instances = _brute.instances(family, coloring.window)
    return bool(_brute.monochromatic(instances, coloring.colors))


ORACLE_SETUPS = [
    ("schur", parse_window("int:1..14")),
    ("vdw(2)", parse_window("int:1..14")),
    ("moreira(1)", parse_window("int:1..10")),
    ("bowen-sabok(1)", parse_window("farey:2")),
    ("quotient-poly(1,[t])", parse_window("farey:2")),
    ("product-poly(1,[t])", parse_window("mgrid:2,3:1")),
    ("question-hs", parse_window("mgrid:2,3:1")),
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
        window = parse_window("int:1..12")
        table = build_candidates(family, window)
        rng = random.Random(99)
        for _ in range(100):
            coloring = Coloring(window, [rng.randrange(2) for _ in range(window.size())], 2)
            got = find_witness(family, coloring, table)
            assert (got is not None) == oracle_has_witness(family, coloring)

    def test_offset_family_agrees(self):
        family = parse_family("x; x + 3", allow_offsets=True)
        window = parse_window("int:1..30")
        table = build_candidates(family, window)
        rng = random.Random(17)
        for _ in range(100):
            coloring = Coloring(window, [rng.randrange(2) for _ in range(window.size())], 2)
            got = find_witness(family, coloring, table)
            assert (got is not None) == oracle_has_witness(family, coloring)


class TestWitnessContents:
    def test_witness_is_monochromatic_and_faithful(self):
        family = builtin_family("schur")
        window = parse_window("int:1..9")
        coloring = Coloring(window, [0] * 9, 1)
        w = find_witness(family, coloring)
        assert w is not None
        assert w.values == instantiate(family, w.x, w.y)
        assert all(coloring.color_of(v) == w.color for v in w.values)

    def test_first_witness_in_table_order(self):
        family = builtin_family("schur")
        window = parse_window("int:1..4")
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
        window = parse_window("int:1..6")
        coloring = Coloring(window, [0, 0, 0, 1, 1, 1], 2)
        # x = 1, y = 5 gives 1, 5, 6, but the entry names 1, 2, 3, all color 0.
        wrong = CandidateTable(family, window, ((0, 4, (0, 1, 2)),))
        with pytest.raises(RuntimeError, match="not monochromatic"):
            find_witness(family, coloring, wrong)

    def test_no_witness_on_avoiding_coloring(self):
        family = builtin_family("schur")
        window = parse_window("int:1..4")
        coloring = Coloring(window, [0, 1, 1, 0], 2)
        assert find_witness(family, coloring) is None


class TestTableStructure:
    def test_y_collapse_for_y_free_families(self):
        family = parse_family("x; x + 3", allow_offsets=True)
        window = parse_window("int:1..50")
        table = build_candidates(family, window)
        # One candidate per x with x+3 in range; no quadratic blowup.
        assert len(table.entries) == 47
        assert len({y for _, y, _ in table.entries}) == 1

    def test_candidates_skip_zero_y(self):
        family = builtin_family("schur")
        window = parse_window("int:-2..2")
        table = build_candidates(family, window)
        zero = window.index_of(0)
        assert all(y != zero for _, y, _ in table.entries)

    def test_candidates_skip_zero_x_when_required(self):
        family = builtin_family("moreira(1)")
        window = parse_window("int:-3..3")
        table = build_candidates(family, window)
        zero = window.index_of(0)
        assert all(x != zero for x, _, _ in table.entries)

    def test_constraint_groups_minimal_and_sorted(self):
        family = builtin_family("schur")
        window = parse_window("int:1..12")
        groups = build_candidates(family, window).constraint_groups()
        assert groups == tuple(sorted(groups, key=lambda g: (len(g), g)))
        sets = [frozenset(g) for g in groups]
        for i, a in enumerate(sets):
            for j, b in enumerate(sets):
                if i != j:
                    assert not a < b, "group subsumed by a kept subset"

    def test_every_candidate_implied_by_some_group(self):
        family = builtin_family("vdw(2)")
        window = parse_window("int:1..15")
        table = build_candidates(family, window)
        groups = [frozenset(g) for g in table.constraint_groups()]
        for _, _, values in table.entries:
            s = frozenset(values)
            assert any(g <= s for g in groups)

    def test_table_reuse_guard(self):
        family = builtin_family("schur")
        table = build_candidates(family, parse_window("int:1..5"))
        other = Coloring(parse_window("int:1..6"), [0] * 6, 1)
        with pytest.raises(ValueError, match="different family or window"):
            find_witness(family, other, table)

    def test_pair_cap(self):
        family = builtin_family("schur")
        window = parse_window("int:1..6000")
        with pytest.raises(
            ValueError, match="^candidate table for int:1..6000 needs 36000000 pairs, cap is 25000000$"
        ):
            build_candidates(family, window)

    def test_pair_cap_refuses_before_enumerating(self):
        window = parse_window("farey:2000")  # the count comes from a totient sieve
        with pytest.raises(
            ValueError, match="^candidate table for farey:2000 needs 23681372055201 pairs, cap is 25000000$"
        ):
            build_candidates(builtin_family("schur"), window)
        assert window._elements is None

    def test_element_cap_reported_before_the_pair_cap(self):
        with pytest.raises(
            ValueError, match="^window int:1..100000000 has 100000000 elements, cap is 10000000$"
        ):
            build_candidates(builtin_family("schur"), parse_window("int:1..100000000"))

    def test_distinct_filter_drops_collapsing_pairs(self):
        fam_loose = parse_family("x; y; x + t")
        fam_strict = parse_family("x; y; x + t", require_distinct_values=True)
        window = parse_window("int:1..8")
        loose = build_candidates(fam_loose, window)
        strict = build_candidates(fam_strict, window)
        assert len(strict.entries) < len(loose.entries)
        elems = window.elements()
        for x, y, _ in strict.entries:
            values = instantiate(fam_strict, elems[x], elems[y])
            assert len(set(values)) == len(values)


# The benchmark's rational tables, pinned by entry count and the SHA-256 of
# repr(entries) as the Fraction-built table gave them.  Their numerators and
# denominators are larger than the fuzz windows reach.  Each row holds two
# digests.  The first is the pin from when an entry was a frozen dataclass
# Candidate(x_index, y_index, value_indices), checked over that repr; the
# second, of the (x, y, values) triples, equals the SHA-256 of
# repr(tuple((e.x_index, e.y_index, e.value_indices) for e in table.entries))
# over the Candidate entries.  So the contents are unchanged.
PINNED_TABLES = [
    ("schur", "farey:12", 5932,
     "499cd48fff4d798bb85aa81937a0d12bc9513bda917bc60bdd0f65498046d24b",
     "ba8b9ddac24318b692f10ff14fdca619f28a025cd397627004bf8f6250a1a1f1"),
    ("question-hs", "farey:10", 956,
     "76f629daa6558aeb3da1adc1b635cd6fe1493bc3e288b518bc8f018189f1985f",
     "1de948641f376f97192e3f347dae1c9a8746b9131b53f675b0a3f972475777f6"),
    ("bowen-sabok(1)", "farey:12", 1536,
     "cbefc80a0ce1d40f36007b551f48253f421b65af7b9c6c0394acca2983c72490",
     "5ead07663dae19ffb024dc88752b2cc957592268b8c7fb215d7d88246cb98eaa"),
    ("quotient-poly(1,[t])", "mgrid:2,3:6", 928,
     "de2957cce0cbaf63d0e5bfe3b0a2761e1d77a2160b096442bf17df3472e96332",
     "344143745efbb42d10f9e8b83bf4f6d5c3384f39d8363e90cf2126bdd5317a20"),
]


def _record_repr(entries):
    """repr(entries) as it read when each entry was a Candidate."""
    items = [f"Candidate(x_index={x}, y_index={y}, value_indices={v})" for x, y, v in entries]
    return f"({', '.join(items)}{',' * (len(items) == 1)})"


def _check_pinned(table, count, record_digest, digest):
    assert len(table.entries) == count
    assert hashlib.sha256(_record_repr(table.entries).encode()).hexdigest() == record_digest
    assert hashlib.sha256(repr(table.entries).encode()).hexdigest() == digest


def _pin_ids(rows):
    """The test ids from before the triple digests: key, spec, count, record digest."""
    return ["-".join(map(str, row[:4])) for row in rows]


@pytest.mark.parametrize(
    "key,spec,count,record_digest,digest", PINNED_TABLES, ids=_pin_ids(PINNED_TABLES)
)
def test_benchmark_table_pinned(key, spec, count, record_digest, digest):
    table = build_candidates(parse_family(key), parse_window(spec))
    _check_pinned(table, count, record_digest, digest)


# Paper-sized tables with --distinct, pinned as the pair-scanning join gave
# them: larger windows, large common denominators, negative grid elements.
# Two digests per row, as in PINNED_TABLES.
PINNED_DISTINCT_TABLES = [
    ("quotient-poly(1,[t])", "farey:16", 11635,
     "9583be9a0ef26f77eb1873a500e714633ae904be1bd60d8f95ebdce33f7fd8bc",
     "bb297ca6c31fcb1932d7e0e91e5e63418d80287136da51fef110edd9b9a4214f"),
    ("quotient-poly(2,[t;t^2])", "farey:16", 704,
     "e08538b5ffd226f69ae52cc1484c1da6186432e0a38bd347410e3b51b5815026",
     "f34271e8fd89a6bab0256527621efccd1e0de8123c5c2c410f49393c8ba87b73"),
    ("product-poly(1,[t])", "mgrid:2,3:4:+sign", 814,
     "60861eb46f3a00ea268680a8e47165232340f6c602bd42e5f00df5749fa54076",
     "e0fdd503aa447d87e06c8cb48d45043d904c536baef252449e0609387f5dda10"),
    ("product-poly(2,[t^2])", "mgrid:2,3:4:+sign", 176,
     "87850eb72d2d9e098abe2ee9ae407833f0b6708ee99cde04cfe26ad99f23ee8c",
     "428c0fc88bc6a0d42bc029e294be34b5084932471940c249b8488ab910b13abc"),
    ("x; x / y^2; x + t", "farey:20", 3880,
     "9529d788dec58a08b62a55ccf25a58834afb4203089f111415403e4964201a3c",
     "a68e04d15c221e21e3dbce10499bc6177da400f41913a31ed6a6507bba57019f"),
]


@pytest.mark.parametrize(
    "key,spec,count,record_digest,digest",
    PINNED_DISTINCT_TABLES,
    ids=_pin_ids(PINNED_DISTINCT_TABLES),
)
def test_paper_table_pinned(key, spec, count, record_digest, digest):
    family = parse_family(key, require_distinct_values=True)
    table = build_candidates(family, parse_window(spec))
    _check_pinned(table, count, record_digest, digest)
