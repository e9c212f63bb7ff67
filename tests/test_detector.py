"""Witness detection against an independent double-loop oracle.

The oracle below shares nothing with the candidate-table machinery: it
walks every (x, y) pair, evaluates terms through instantiate, and checks
colors one value at a time.  Slow and obviously correct.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from qramsey.colorings import Coloring, random_coloring
from qramsey.detector import (
    Candidate,
    CandidateTable,
    all_witnesses,
    build_candidates,
    find_witness,
)
from qramsey.patterns import (
    InvalidInstantiationError,
    builtin_family,
    default_catalog,
    instantiate,
    parse_family,
)
from qramsey.windows import (
    CapExceededError,
    FareyWindow,
    IntegerInterval,
    MultiplicativeGrid,
    parse_window,
)


def oracle_has_witness(family, coloring):
    """Exhaustive pair scan; True iff some instantiation is monochromatic."""
    window = coloring.window
    elems = window.elements()
    for x in elems:
        for y in elems:
            try:
                values = instantiate(family, x, y)
            except InvalidInstantiationError:
                continue
            if not all(window.contains(v) for v in values):
                continue
            if family.require_distinct_values and len(set(values)) != len(values):
                continue
            colors = {coloring.color_of(v) for v in values}
            if len(colors) == 1:
                return True
    return False


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
            coloring = random_coloring(window, r, rng)
            got = find_witness(family, coloring, table)
            want = oracle_has_witness(family, coloring)
            assert (got is not None) == want, (key, coloring)

    def test_distinct_value_flag_agrees(self):
        family = parse_family("x; y; x + t", require_distinct_values=True)
        window = IntegerInterval(1, 12)
        table = build_candidates(family, window)
        rng = random.Random(99)
        for _ in range(100):
            coloring = random_coloring(window, 2, rng)
            got = find_witness(family, coloring, table)
            assert (got is not None) == oracle_has_witness(family, coloring)

    def test_offset_family_agrees(self):
        family = parse_family("x; x + 3", allow_offsets=True)
        window = IntegerInterval(1, 30)
        table = build_candidates(family, window)
        rng = random.Random(17)
        for _ in range(100):
            coloring = random_coloring(window, 2, rng)
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

    def test_all_witnesses_limit_and_order(self):
        family = builtin_family("schur")
        window = IntegerInterval(1, 9)
        coloring = Coloring(window, [0] * 9, 1)
        top = all_witnesses(family, coloring, limit=5)
        assert len(top) == 5
        full = all_witnesses(family, coloring, limit=10**6)
        assert top == full[:5]
        assert all(len({coloring.color_of(v) for v in w.values}) == 1 for w in full)

    def test_all_witnesses_limit_zero(self):
        family = builtin_family("schur")
        coloring = Coloring(IntegerInterval(1, 5), [0] * 5, 1)
        assert all_witnesses(family, coloring, limit=0) == []
        assert len(all_witnesses(family, coloring, limit=1)) == 1

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
        assert all_witnesses(family, coloring) == []


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
        with pytest.raises(CapExceededError, match="pairs"):
            build_candidates(family, window)

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
