"""Finite largeness notions: thickness, syndeticity, IP structure, localization."""

import itertools
import random
from fractions import Fraction

import pytest

from qramsey.colorings import Coloring
from qramsey.largesets import (
    FS_CAP,
    MODE_ADD,
    MODE_MUL,
    CoreNotInteriorError,
    IpSetSpec,
    LargeSetError,
    LocalizationReport,
    Monomial,
    PolynomialMapping,
    ShapeF,
    evaluate_mapping,
    find_ip_r,
    finite_sums,
    group_identity,
    group_op,
    group_untranslate,
    interior,
    is_syndetic_for,
    is_thick_for,
    localize_colors,
    piecewise_syndetic_witness,
)
from qramsey.windows import FareyWindow, IntegerInterval, MultiplicativeGrid

F = Fraction


def _all_thick_witnesses(A, window, shape):
    aset = {F(v) for v in A}
    out = []
    for x in window.elements():
        if shape.mode == MODE_MUL and x == 0:
            continue
        if all(group_op(shape.mode, f, x) in aset for f in shape.elements):
            out.append(x)
    return out


class TestGroupHelpers:
    def test_identities(self):
        assert group_identity(MODE_ADD) == 0
        assert group_identity(MODE_MUL) == 1

    def test_untranslate_inverts_op(self):
        rng = random.Random(11)
        for _ in range(200):
            a = F(rng.randint(-9, 9), rng.randint(1, 9))
            b = F(rng.randint(1, 9), rng.randint(1, 9))
            for mode in (MODE_ADD, MODE_MUL):
                assert group_op(mode, group_untranslate(mode, a, b), b) == a

    def test_bad_mode(self):
        with pytest.raises(LargeSetError, match="mode"):
            group_identity("-")


class TestShapeF:
    def test_sorted_dedup(self):
        assert ShapeF((F(2), F(1), F(1))).elements == (F(1), F(2))

    def test_len(self):
        assert len(ShapeF((0, 1, 2))) == 3

    def test_empty_rejected(self):
        with pytest.raises(LargeSetError, match="nonempty"):
            ShapeF(())

    def test_multiplicative_zero_rejected(self):
        with pytest.raises(LargeSetError, match="zero"):
            ShapeF((0, 1), MODE_MUL)


class TestFiniteSums:
    def test_additive_pair(self):
        assert finite_sums(IpSetSpec((1, 2))) == {F(1), F(2), F(3)}

    def test_repeated_generator_collapses(self):
        assert finite_sums(IpSetSpec((1, 1))) == {F(1), F(2)}

    def test_multiplicative_pair(self):
        assert finite_sums(IpSetSpec((2, 3), MODE_MUL)) == {F(2), F(3), F(6)}

    def test_binary_generators_fill_interval(self):
        assert finite_sums(IpSetSpec((1, 2, 4))) == {F(k) for k in range(1, 8)}

    def test_size_bound(self):
        rng = random.Random(313)
        for _ in range(1000):
            mode = rng.choice((MODE_ADD, MODE_MUL))
            r = rng.randint(1, 6)
            gens = []
            while len(gens) < r:
                g = F(rng.randint(-6, 6), rng.randint(1, 4))
                if mode == MODE_MUL and g == 0:
                    continue
                gens.append(g)
            spec = IpSetSpec(tuple(gens), mode)
            assert 1 <= len(finite_sums(spec)) <= 2**r - 1

    def test_generator_cap(self):
        with pytest.raises(LargeSetError, match="cap"):
            IpSetSpec((1,) * (FS_CAP + 1))

    def test_no_generators(self):
        with pytest.raises(LargeSetError, match="generator"):
            IpSetSpec(())

    def test_multiplicative_zero_generator(self):
        with pytest.raises(LargeSetError, match="zero"):
            IpSetSpec((2, 0), MODE_MUL)


class TestThickness:
    def test_first_witness_in_window_order(self):
        w = IntegerInterval(1, 10)
        assert is_thick_for({3, 4, 5, 6}, w, ShapeF((0, 1))) == 3

    def test_evens_not_thick_for_consecutive(self):
        w = IntegerInterval(1, 10)
        assert is_thick_for({2, 4, 6, 8, 10}, w, ShapeF((0, 1))) is None

    def test_multiplicative_witness(self):
        grid = MultiplicativeGrid([2], 2)
        shape = ShapeF((1, 2), MODE_MUL)
        assert is_thick_for({F(1), F(2)}, grid, shape) == 1

    def test_set_outside_window_rejected(self):
        with pytest.raises(LargeSetError, match="outside"):
            is_thick_for({3, 99}, IntegerInterval(1, 10), ShapeF((0,)))

    def test_zero_skipped_in_multiplicative_mode(self):
        w = IntegerInterval(-2, 2)
        witness = is_thick_for({-2, -1, 0, 1, 2}, w, ShapeF((1,), MODE_MUL))
        assert witness == -2


class TestThicknessRemoval:
    def test_spare_witnesses_survive_removal(self):
        # Each removed element destroys at most |F| witnesses, so a set with
        # more than |F| * |X| witnesses stays thick after X is removed.
        rng = random.Random(271)
        w = IntegerInterval(1, 20)
        shapes = [ShapeF((0, 1)), ShapeF((0, 2)), ShapeF((0, 1, 2))]
        checked = 0
        for _ in range(500):
            A = {F(v) for v in range(1, 21) if rng.random() < 0.55}
            if not A:
                continue
            shape = rng.choice(shapes)
            X = set(rng.sample(sorted(A), k=min(len(A), rng.randint(1, 2))))
            witnesses = _all_thick_witnesses(A, w, shape)
            if len(witnesses) > len(shape) * len(X):
                checked += 1
                assert is_thick_for(A - X, w, shape) is not None
        assert checked > 50

    def test_bound_is_sharp(self):
        # Exactly |F| * |X| witnesses is not enough: both die here.
        w = IntegerInterval(1, 10)
        A = {F(4), F(5), F(6)}
        shape = ShapeF((0, 1))
        assert _all_thick_witnesses(A, w, shape) == [4, 5]
        assert is_thick_for(A - {F(5)}, w, shape) is None


class TestSyndetic:
    def test_evens_cover_interior_core(self):
        w = IntegerInterval(1, 10)
        ok, uncovered = is_syndetic_for(
            {2, 4, 6, 8, 10}, w, ShapeF((0, 1)), core=[4, 5, 6]
        )
        assert ok is True
        assert uncovered == ()

    def test_uncovered_elements_reported(self):
        w = IntegerInterval(1, 10)
        ok, uncovered = is_syndetic_for({2}, w, ShapeF((0, 1)), core=[3, 5])
        assert ok is False
        assert uncovered == (F(5),)

    def test_core_must_be_interior(self):
        w = IntegerInterval(1, 10)
        with pytest.raises(CoreNotInteriorError, match="pre-translate"):
            is_syndetic_for({2, 4}, w, ShapeF((0, 1)), core=[1])

    def test_multiplicative_cover(self):
        grid = MultiplicativeGrid([2], 2)
        ok, uncovered = is_syndetic_for(
            {F(1), F(2)}, grid, ShapeF((1, 2), MODE_MUL), core=[F(2), F(4)]
        )
        assert ok is True
        assert uncovered == ()

    def test_interior_additive(self):
        assert interior(IntegerInterval(1, 6), ShapeF((0, 2))) == (F(3), F(4), F(5), F(6))

    def test_interior_multiplicative_skips_zero(self):
        farey = FareyWindow(2)
        assert interior(farey, ShapeF((1, 2), MODE_MUL)) == (F(-2), F(-1), F(1), F(2))

    def test_interior_is_a_valid_core(self):
        grid = MultiplicativeGrid([2, 3], 1)
        shape = ShapeF((1, 2), MODE_MUL)
        core = interior(grid, shape)
        assert len(core) == 6
        assert is_syndetic_for(grid.elements(), grid, shape, core) == (True, ())


class TestPiecewiseSyndetic:
    def test_thick_set_needs_only_identity(self):
        w = IntegerInterval(1, 10)
        fs = piecewise_syndetic_witness({3, 4, 5}, w, 2, ShapeF((0, 1)))
        assert fs is not None
        assert fs.elements == (F(0),)

    def test_odds_need_two_translates(self):
        w = IntegerInterval(1, 10)
        fs = piecewise_syndetic_witness({1, 3, 5, 7, 9}, w, 2, ShapeF((0, 1)))
        assert fs is not None
        assert fs.elements == (F(0), F(1))

    def test_hopeless_set(self):
        w = IntegerInterval(1, 10)
        assert piecewise_syndetic_witness({1}, w, 1, ShapeF((0, 5))) is None

    def test_max_f_validated(self):
        with pytest.raises(LargeSetError, match="max_f"):
            piecewise_syndetic_witness({1}, IntegerInterval(1, 3), 0, ShapeF((0,)))


class TestUnionSplitting:
    """Splitting a piecewise syndetic set leaves one piecewise syndetic half.

    If F o (A u B) is thick for T at some x, then either every T-translate
    of x already lands in F o B, or one lands in F o A at f0 o a0, in which
    case composing F with T-quotients re-centers all of T o x onto a0.  So B
    works with the same F, or A works with translates drawn from
    {f o t o u^-1} and a budget of |F| * |T|.
    """

    def _run(self, window, thick_shape, seed, trials=100):
        rng = random.Random(seed)
        mode = thick_shape.mode
        elems = [v for v in window.elements() if not (mode == MODE_MUL and v == 0)]
        hits = 0
        for _ in range(trials):
            S = {v for v in elems if rng.random() < 0.5}
            if not S:
                continue
            fs = piecewise_syndetic_witness(S, window, 2, thick_shape)
            if fs is None:
                continue
            hits += 1
            A = {v for v in S if rng.random() < 0.5}
            B = S - A
            same_pool = fs.elements
            in_b = piecewise_syndetic_witness(
                B, window, len(fs), thick_shape, pool=same_pool
            )
            if in_b is not None:
                continue
            quotient_pool = []
            for f in fs.elements:
                for t in thick_shape.elements:
                    for u in thick_shape.elements:
                        quotient_pool.append(
                            group_op(mode, f, group_untranslate(mode, t, u))
                        )
            in_a = piecewise_syndetic_witness(
                A,
                window,
                len(fs) * len(thick_shape),
                thick_shape,
                pool=quotient_pool,
            )
            assert in_a is not None, (sorted(S), sorted(A), fs.elements)
        assert hits > 10

    def test_integer_window(self):
        self._run(IntegerInterval(1, 12), ShapeF((0, 1)), seed=101)

    def test_signed_integer_window(self):
        self._run(IntegerInterval(-11, 12), ShapeF((0, 1, 3)), seed=102)

    def test_multiplicative_grid(self):
        self._run(MultiplicativeGrid([2, 3], 1), ShapeF((1, 2), MODE_MUL), seed=103)

    def test_farey_window(self):
        self._run(FareyWindow(2), ShapeF((F(0), F(1, 2))), seed=104)


class TestIpStructure:
    def test_full_interval_smallest_generators(self):
        assert find_ip_r(range(1, 17), 4) == (F(1),) * 4

    def test_odds_have_no_additive_pair(self):
        assert find_ip_r({1, 3, 5, 7, 9}, 2) is None

    def test_multiplicative_powers(self):
        A = {F(2), F(4), F(8), F(16), F(32), F(64)}
        assert find_ip_r(A, 3, MODE_MUL) == (F(2), F(2), F(2))

    def test_random_fallback_finds_trivial_generator(self):
        assert find_ip_r({F(1)}, 5, MODE_MUL) == (F(1),) * 5

    def test_random_fallback_gives_up(self):
        # 1+1+1 = 3 is missing and 2+2 = 4 is missing: no IP_5 at all.
        assert find_ip_r({1, 2}, 5) is None

    def test_five_generators_found_past_a_gap(self):
        A = set(range(1, 6)) | set(range(100, 201))
        assert find_ip_r(A, 5) == (F(1),) * 5

    def test_exhaustive_none_for_many_generators(self):
        assert find_ip_r(range(1, 7), 7) is None
        assert find_ip_r(range(1, 8), 7) == (F(1),) * 7

    def test_zero_discarded_in_multiplicative_mode(self):
        assert find_ip_r({0, 2, 4}, 2, MODE_MUL) == (F(2), F(2))

    def test_empty_set(self):
        assert find_ip_r(set(), 2) is None

    def test_validation(self):
        with pytest.raises(LargeSetError, match="at least 1"):
            find_ip_r({1}, 0)
        with pytest.raises(LargeSetError, match="cap"):
            find_ip_r({1}, FS_CAP + 1)

    def test_found_generators_really_generate(self):
        rng = random.Random(55)
        for _ in range(150):
            A = {F(rng.randint(1, 30)) for _ in range(rng.randint(3, 12))}
            gens = find_ip_r(A, 3)
            if gens is None:
                continue
            assert list(gens) == sorted(gens)
            assert finite_sums(IpSetSpec(gens)) <= A


class TestPolynomialMappings:
    def _linear(self):
        mono = Monomial(1, {(F(1),): F(3), (F(2),): F(5)})
        return PolynomialMapping((F(1), F(2)), (mono,))

    def test_linear_evaluation(self):
        pm = self._linear()
        assert evaluate_mapping(pm, {F(1)}) == 3
        assert evaluate_mapping(pm, {F(2)}) == 5
        assert evaluate_mapping(pm, {F(1), F(2)}) == 8
        assert evaluate_mapping(pm, ()) == 0

    def test_quadratic_evaluation(self):
        vals = {
            (F(1), F(1)): F(1),
            (F(1), F(2)): F(10),
            (F(2), F(1)): F(100),
            (F(2), F(2)): F(1000),
        }
        pm = PolynomialMapping((F(1), F(2)), (Monomial(2, vals),))
        assert evaluate_mapping(pm, {F(1)}) == 1
        assert evaluate_mapping(pm, {F(2)}) == 1000
        assert evaluate_mapping(pm, {F(1), F(2)}) == 1111

    def test_multiplicative_mode(self):
        mono = Monomial(1, {(F(1),): F(2), (F(3),): F(5)})
        pm = PolynomialMapping((F(1), F(3)), (mono,), MODE_MUL)
        assert evaluate_mapping(pm, {F(1), F(3)}) == 10
        assert evaluate_mapping(pm, ()) == 1

    def test_incomplete_table_rejected(self):
        mono = Monomial(1, {(F(1),): F(3)})
        with pytest.raises(LargeSetError, match="missing"):
            PolynomialMapping((F(1), F(2)), (mono,))

    def test_constant_monomial_breaks_identity_rule(self):
        with pytest.raises(LargeSetError, match="identity"):
            PolynomialMapping((F(1),), (Monomial(0, {(): F(7)}),))

    def test_multiplicative_zero_value_rejected(self):
        mono = Monomial(1, {(F(1),): F(0)})
        with pytest.raises(LargeSetError, match="zero"):
            PolynomialMapping((F(1),), (mono,), MODE_MUL)

    def test_stray_argument_rejected(self):
        with pytest.raises(LargeSetError, match="index set"):
            evaluate_mapping(self._linear(), {F(9)})

    def test_negative_degree_rejected(self):
        with pytest.raises(LargeSetError, match="degree"):
            Monomial(-1, {})

    def test_empty_set_maps_to_identity(self):
        rng = random.Random(808)
        for _ in range(300):
            mode = rng.choice((MODE_ADD, MODE_MUL))
            idx = tuple(F(v) for v in rng.sample(range(1, 9), rng.randint(1, 3)))
            monos = []
            for _ in range(rng.randint(1, 2)):
                d = rng.randint(1, 2)
                vals = {}
                for key in itertools.product(idx, repeat=d):
                    v = F(rng.randint(-5, 5))
                    if mode == MODE_MUL and v == 0:
                        v = F(1)
                    vals[key] = v
                monos.append(Monomial(d, vals))
            pm = PolynomialMapping(idx, tuple(monos), mode)
            assert evaluate_mapping(pm, ()) == group_identity(mode)


class TestLocalization:
    GRID = MultiplicativeGrid([2, 3], 1)
    SHAPE = ShapeF((1, 2), MODE_MUL)

    def _recheck(self, report, coloring):
        window = coloring.window
        elems = window.elements()
        classes = [set() for _ in range(coloring.r)]
        for v, c in zip(elems, coloring.colors):
            classes[c].add(v)
        assert len(report.color_sets) == len(report.thickness_witnesses)
        for sub, witness in zip(report.color_sets, report.thickness_witnesses):
            union = set().union(*(classes[m] for m in sub))
            assert all(
                group_op(MODE_MUL, t, witness) in union for t in self.SHAPE.elements
            )
        fs = report.translates.elements
        expected_core = tuple(
            x for x in elems if all(window.contains(x / f) for f in fs)
        )
        assert report.core == expected_core
        covered = dict(report.coverage)
        for x in report.core:
            assert x in covered
            l = covered[x][0]
            for m in report.color_sets[l]:
                assert any(x / f in classes[m] for f in fs)

    def test_reports_survive_independent_recheck(self):
        rng = random.Random(909)
        produced = 0
        for _ in range(60):
            colors = [rng.randrange(3) for _ in range(self.GRID.size())]
            coloring = Coloring(self.GRID, colors, 3)
            report = localize_colors(coloring, self.SHAPE, max_f=3)
            if report is None:
                continue
            produced += 1
            assert isinstance(report, LocalizationReport)
            self._recheck(report, coloring)
        assert produced > 10

    def test_single_color_grid(self):
        coloring = Coloring(self.GRID, [0] * self.GRID.size(), 1)
        report = localize_colors(coloring, self.SHAPE, max_f=2)
        assert report is not None
        assert report.color_sets == ((0,),)
        self._recheck(report, coloring)

    def test_requires_multiplicative_grid(self):
        coloring = Coloring(IntegerInterval(1, 4), [0, 1, 0, 1], 2)
        with pytest.raises(LargeSetError, match="grid"):
            localize_colors(coloring, self.SHAPE, max_f=2)

    def test_requires_multiplicative_shape(self):
        coloring = Coloring(self.GRID, [0] * self.GRID.size(), 1)
        with pytest.raises(LargeSetError, match="multiplicative"):
            localize_colors(coloring, ShapeF((0, 1)), max_f=2)

    def test_max_f_validated(self):
        coloring = Coloring(self.GRID, [0] * self.GRID.size(), 1)
        with pytest.raises(LargeSetError, match="max_f"):
            localize_colors(coloring, self.SHAPE, max_f=0)

    def test_translates_past_the_exhaustive_size(self):
        # No set of up to 3 translates localizes i % 5 on 2^-4..2^4; the first
        # four grid elements do.
        grid = MultiplicativeGrid([2], 4)
        coloring = Coloring(grid, [i % 5 for i in range(grid.size())], 5)
        shape = ShapeF((1, 2, 4, 8), MODE_MUL)
        assert localize_colors(coloring, shape, max_f=3) is None
        report = localize_colors(coloring, shape, max_f=4)
        assert report is not None
        assert report.translates.elements == tuple(
            Fraction(1, d) for d in (16, 8, 4, 2)
        )
