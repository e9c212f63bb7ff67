"""Colorings, canonical forms, and the symmetry-reduced enumeration."""

import random
from itertools import product

import pytest

from qramsey.colorings import (
    Coloring,
    ColoringError,
    canonical_form,
    count_colorings,
    enumerate_colorings,
    list_colorings,
    parse_coloring,
    random_coloring,
    serialize_coloring,
)
from qramsey.windows import IntegerInterval


class TestColoring:
    def test_valid(self):
        w = IntegerInterval(1, 4)
        c = Coloring(w, [0, 1, 1, 0], 2)
        assert c.color_of(2) == 1
        assert c.color_of_index(3) == 0

    def test_length_mismatch(self):
        with pytest.raises(ColoringError, match="window of size 4"):
            Coloring(IntegerInterval(1, 4), [0, 1], 2)

    def test_color_out_of_range(self):
        with pytest.raises(ColoringError, match="out of range"):
            Coloring(IntegerInterval(1, 3), [0, 1, 2], 2)
        with pytest.raises(ColoringError):
            Coloring(IntegerInterval(1, 3), [0, -1, 0], 2)

    def test_color_of_absent_element(self):
        c = Coloring(IntegerInterval(1, 3), [0, 0, 1], 2)
        with pytest.raises(ColoringError, match="not in window"):
            c.color_of(9)

    def test_at_least_one_color(self):
        with pytest.raises(ColoringError):
            Coloring(IntegerInterval(1, 1), [0], 0)


class TestCanonicalForm:
    @pytest.mark.parametrize(
        "colors,want",
        [([1, 0, 1], (0, 1, 0)), ([2, 2, 0, 1], (0, 0, 1, 2)), ([], ()), ([5], (0,))],
    )
    def test_frozen(self, colors, want):
        assert canonical_form(colors) == want

    def test_idempotent_and_relabel_invariant(self):
        rng = random.Random(9)
        for _ in range(200):
            colors = [rng.randrange(4) for _ in range(rng.randrange(1, 10))]
            canon = canonical_form(colors)
            assert canonical_form(canon) == canon
            perm = list(range(4))
            rng.shuffle(perm)
            assert canonical_form([perm[c] for c in colors]) == canon


class TestEnumeration:
    def test_plain_count(self):
        w = IntegerInterval(1, 4)
        all_c = list(enumerate_colorings(w, 3))
        assert len(all_c) == 3**4 == count_colorings(4, 3)
        assert len(set(c.colors for c in all_c)) == len(all_c)

    def test_symmetry_count_frozen(self):
        # Partitions of 5 labeled cells into at most 3 blocks.
        w = IntegerInterval(1, 5)
        reduced = list(enumerate_colorings(w, 3, symmetry=True))
        assert len(reduced) == 41 == count_colorings(5, 3, symmetry=True)

    @pytest.mark.parametrize("n,r", [(1, 1), (3, 2), (4, 3), (5, 2), (6, 4)])
    def test_symmetry_matches_brute_canonicalization(self, n, r):
        w = IntegerInterval(1, n)
        brute = {canonical_form(t) for t in product(range(r), repeat=n)}
        reduced = [tuple(c.colors) for c in enumerate_colorings(w, r, symmetry=True)]
        assert set(reduced) == brute
        assert len(reduced) == len(brute)
        for t in reduced:
            assert canonical_form(t) == t

    def test_list_budget(self):
        with pytest.raises(ColoringError, match="budget"):
            list_colorings(IntegerInterval(1, 30), 2, budget=1000)

    def test_random_coloring_is_seed_deterministic(self):
        w = IntegerInterval(1, 12)
        a = random_coloring(w, 3, random.Random(42))
        b = random_coloring(w, 3, random.Random(42))
        assert a == b


class TestText:
    def test_round_trip(self):
        c = Coloring(IntegerInterval(1, 4), [0, 1, 0, 1], 2)
        assert parse_coloring(serialize_coloring(c)) == c

    def test_explicit_form(self):
        c = parse_coloring("int:1..4 r=2 [0,1,0,1]")
        assert c.colors == (0, 1, 0, 1)
        assert c.r == 2

    def test_bad_text(self):
        with pytest.raises(ColoringError):
            parse_coloring("int:1..4 [0,1]")
