"""Differential fuzz gate: the search against brute force and an independent DPLL.

Families are drawn from the whole term grammar (affine terms of degree 1-2
with scaled y, power terms, gated offsets, the distinct and strict flags),
windows of at most 9 elements from all three kinds, and r in {1, 2, 3}.
Each draw is seeded by its index, so a failing draw reproduces on its own.
The brute force (``_brute``) tries every coloring, with no symmetry rule.

Every candidate table, of the draws and of the catalog on a few signed and
fractional windows, is also compared with the brute force's Fraction-built
entries.  The top table of each sweep ladder, restricted to each row, is
compared with that row's own table.  The per-color-class check of
``find_witness`` without a table is compared with the scan of the table.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from qramsey import detector, search
from qramsey.arith import polynomial
from qramsey.certificates import certificate_for_result, dumps_certificate
from qramsey.cnf import export_cnf, import_assignment
from qramsey.colorings import Coloring
from qramsey.detector import build_candidates, find_witness
from qramsey.patterns import (
    X,
    AffineTerm,
    Family,
    PowerTerm,
    VarY,
    builtin_family,
    parse_family,
)
from qramsey.search import AVOIDING, EXHAUSTED, _search, search_avoiding, window_for_template
from qramsey.windows import parse_window

import _brute
from _dpll import model_literals, solve
from _stock import STOCK_KEYS

DRAWS = 300
SCALARS = [Fraction(1), Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)]
WINDOWS = [
    "farey:1",
    "farey:2",
    "farey:2:-neg",
    "farey:3:-neg:-zero",
    "mgrid:2,3:1",
    "mgrid:2:2",
    "mgrid:3:1:+sign",
]


def draw_term(rng, allow_offsets):
    kinds = ["x", "y", "affine", "affine", "affine", "power"]
    kind = rng.choice(kinds + ["offset"] * allow_offsets)
    if kind == "x":
        return X
    if kind == "y":
        return VarY()
    if kind == "power":
        return PowerTerm(rng.choice([1, -1, 2, -2]))
    if kind == "offset":
        return AffineTerm(1, polynomial([rng.choice([1, -1, 2, Fraction(1, 2)])]))
    coeffs = [0, rng.choice(SCALARS)]
    if rng.random() < 0.4:
        coeffs[1] = rng.choice([0, coeffs[1]])
        coeffs.append(rng.choice(SCALARS))
    x_coef, scale = rng.choice(SCALARS), rng.choice(SCALARS)
    return AffineTerm(x_coef, polynomial([c * scale**i for i, c in enumerate(coeffs)]))


def draw_family(rng):
    allow_offsets = rng.random() < 0.3
    terms = [X] if rng.random() < 0.8 else []
    for _ in range(rng.randint(2, 3)):
        term = draw_term(rng, allow_offsets)
        if term not in terms:
            terms.append(term)
    return Family(
        tuple(terms),
        require_distinct_values=rng.random() < 0.3,
        strict_nonzero_x=rng.random() < 0.3,
    )


def draw_window(rng):
    if rng.random() < 0.6:
        lo = rng.choice([-4, -2, 0, 1, 1, 1, 2, 3])
        return parse_window(f"int:{lo}..{lo + rng.randint(4, 8)}")
    return parse_window(rng.choice(WINDOWS))


def draw_case(draw):
    rng = random.Random(7001 + draw)
    family = draw_family(rng)
    window = draw_window(rng)
    return family, window, rng.choice([1, 2, 2, 3])


@pytest.mark.parametrize("draw", range(DRAWS))
def test_search_agrees_with_independent_deciders(draw):
    family, window, r = draw_case(draw)
    assert window.size() <= 9
    case = (family.serialize(), window.spec_string(), r)

    assert parse_family(
        family.serialize(),
        allow_offsets=family.has_offsets(),
        require_distinct_values=family.require_distinct_values,
        strict_nonzero_x=family.strict_nonzero_x,
    ) == family, case

    table = build_candidates(family, window)
    assert list(table.entries) == _brute.entries(family, window), case
    res = search_avoiding(family, window, r, table=table)
    assert res.outcome in (AVOIDING, EXHAUSTED), case
    avoidable = _brute.avoidable(family, window, r)
    assert (res.outcome == AVOIDING) == avoidable, case

    cnf = export_cnf(family, window, r, table=table)
    model = solve(cnf.num_vars, cnf.clauses)
    assert (model is not None) == avoidable, case
    if model is not None:
        coloring = import_assignment(window, r, model_literals(model))
        assert find_witness(family, coloring, table) is None, case

    again = search_avoiding(family, window, r)
    assert dumps_certificate(certificate_for_result(res)) == dumps_certificate(
        certificate_for_result(again)
    ), case


def test_search_trees_of_the_draws_are_pinned():
    # (outcome, nodes, digest, colors) of _search on every draw's groups with
    # no budget and budgets 3 and 17: each tree node for node, and each stop.
    # A draw with a singleton group, which comes first, is decided by
    # search_avoiding without a search; the others reach groups of 2 to 4.
    runs, sizes, singletons = [], set(), 0
    for draw in range(DRAWS):
        family, window, r = draw_case(draw)
        groups = build_candidates(family, window).constraint_groups()
        if groups and len(groups[0]) == 1:
            res = search_avoiding(family, window, r)
            assert (res.outcome, res.nodes) == (EXHAUSTED, 0), draw
            singletons += 1
            continue
        sizes.update(map(len, groups))
        n = window.size()
        for budget in (None, 3, 17):
            runs.append(_search(groups, n, min(r, n), budget))
    assert sizes == {2, 3, 4}
    assert len(runs) == 3 * (DRAWS - singletons) == 735
    assert hashlib.sha256(repr(runs).encode()).hexdigest() == (
        "1e43b8b6cbae5d4972c507a96a3ac5788ca0d1e24aca8a7c39605aa32ac057d8")


def test_no_avoiding_search_makes_a_group_monochromatic():
    # Forced-color elimination strikes c from the last uncolored member of a
    # group whose other members all have color c, so _search tests no group
    # for one color.  A missed conflict changes a pinned tree, or it leaves
    # an avoiding coloring with a monochromatic group: each group's colors
    # are read here straight from the result.
    avoiding = 0
    for draw in range(DRAWS):
        family, window, r = draw_case(draw)
        groups = build_candidates(family, window).constraint_groups()
        if groups and len(groups[0]) == 1:
            continue  # search_avoiding decides it without a search
        n = window.size()
        outcome, colors, _, _ = _search(groups, n, min(r, n), None)
        if outcome == AVOIDING:
            avoiding += 1
            for group in groups:
                assert len({colors[i] for i in group}) > 1, (draw, group)
    assert avoiding > DRAWS // 10


def test_search_avoiding_passes_no_singleton_to_the_search(monkeypatch):
    # _search is called only with groups of two or more members, on which
    # every conflict is a domain losing its last color.
    kernel, searched = search._search, []

    def checked(groups, n, r, max_nodes):
        assert all(len(g) >= 2 for g in groups), groups
        searched.append(groups)
        return kernel(groups, n, r, max_nodes)

    monkeypatch.setattr(search, "_search", checked)
    cases = [draw_case(draw) for draw in range(DRAWS)]
    cases += [
        (builtin_family(key), parse_window(spec), r)
        for key in sorted(STOCK_KEYS)
        for spec in ("int:1..8", "farey:3", "mgrid:2,3:2")
        for r in (2, 3)
    ]
    for family, window, r in cases:
        search_avoiding(family, window, r)
    assert 0 < len(searched) < len(cases)  # singleton instances were decided without a search


def per_color_disagreements():
    """The draws' colorings on which find_witness without a table, which
    joins once per color class, differs from the scan of the whole table;
    and how many of the colorings have a witness."""
    differ, witnesses = [], 0
    for draw in range(DRAWS):
        family, window, r = draw_case(draw)
        table = build_candidates(family, window)
        rng = random.Random(9001 + draw)
        colorings = [
            Coloring(window, [rng.randrange(k) for _ in range(window.size())], k)
            for k in (1, 2, 3, 4)
        ]
        res = search_avoiding(family, window, r, table=table)
        if res.outcome == AVOIDING:
            colorings.append(res.coloring)
        for coloring in colorings:
            scanned = find_witness(family, coloring, table)
            witnesses += scanned is not None
            if find_witness(family, coloring) != scanned:
                differ.append((family.serialize(), window.spec_string(), coloring.colors))
    return differ, witnesses


def test_per_color_check_matches_the_table_scan():
    differ, witnesses = per_color_disagreements()
    assert differ == []
    assert witnesses > 500  # x, y, color and values are compared, not only None


def _skips_classes(join):
    # Only the class of the window's first element is joined; the whole
    # window's index holds position 0 too, so build_candidates is unharmed.
    return lambda plan, index: join(plan, index) if 0 in index.values() else []


def _last_hit_first(join):
    return lambda plan, index: join(plan, index)[::-1]


@pytest.mark.parametrize("mutant", [_skips_classes, _last_hit_first])
def test_per_color_gate_catches_a_broken_join(monkeypatch, mutant):
    monkeypatch.setattr(detector, "_join", mutant(detector._join))
    differ, _ = per_color_disagreements()
    assert differ


TABLE_WINDOWS = ["int:-4..4", "farey:4:-zero", "farey:4:-neg", "mgrid:2,3:1:+sign"]
TABLE_FAMILIES = [
    *STOCK_KEYS,
    "quotient-poly(2,[t;t^2])",
    "product-poly(2,[t^2])",
    "x; x / y^2; -1/2*x + (2*y)^2 - (2*y)",
    "x * y^-1; -2*x + (1/2*y); y; x",
    "x + 1/2; x + t; x - 2; 3*x + 0*t",
    "x; x * y^2",
    "x; x / y^3; y",
    "x; 1/2*x + 1/2*(2*y)^3 - (2*y)",
    "x; -1/2*x + 2*t^2 - 1/3*t",
    "x; x / y^2; x + t; x - t^2",
    "y; x + (0*y)",
    "x; x / y; 2*x - (0*y)^2",
]


FLAGS = [(False, False), (True, False), (False, True)]  # (--distinct, --strict-x)


@pytest.mark.parametrize("spec", TABLE_WINDOWS)
@pytest.mark.parametrize("text", TABLE_FAMILIES)
@pytest.mark.parametrize("flags", FLAGS)
def test_table_matches_fraction_reference(text, spec, flags):
    distinct, strict = flags
    family = parse_family(
        text, allow_offsets=True, require_distinct_values=distinct, strict_nonzero_x=strict
    )
    window = parse_window(spec)
    assert list(build_candidates(family, window).entries) == _brute.entries(family, window)


def naive_groups(entries):
    """Distinct index sets with a proper subset among them dropped, by (size, indices)."""
    sets = {frozenset(indices) for _, _, indices in entries}
    minimal = [tuple(sorted(g)) for g in sets if not any(h < g for h in sets)]
    return sorted(minimal, key=lambda g: (len(g), g))


def test_constraint_groups_match_naive_filter():
    cases = [draw_case(draw)[:2] for draw in range(DRAWS)]
    cases += [
        (parse_family(text, allow_offsets=True), parse_window(spec))
        for text in TABLE_FAMILIES
        for spec in TABLE_WINDOWS
    ]
    pruned = 0
    for family, window in cases:
        entries = _brute.entries(family, window)
        groups = build_candidates(family, window).constraint_groups()
        assert list(groups) == naive_groups(entries), (family.serialize(), window.spec_string())
        pruned += len(groups) < len({frozenset(indices) for _, _, indices in entries})
    assert pruned > 50  # the filter has supersets to drop


LADDERS = [("int", 1, 9), ("farey", 1, 4), ("mgrid:2,3", 0, 2)]
NO_Y_FAMILIES = ["x; 2*x + 0", "x; -1*x + 0; x + 1/2"]


@pytest.mark.parametrize("template, lo, hi", LADDERS)
def test_restricted_table_matches_direct_build(template, lo, hi):
    families = [draw_case(draw)[0] for draw in range(DRAWS)]
    families += [
        parse_family(
            text, allow_offsets=True, require_distinct_values=distinct, strict_nonzero_x=strict
        )
        for text in TABLE_FAMILIES + NO_Y_FAMILIES
        for distinct, strict in FLAGS
    ]
    for family in families:
        top = build_candidates(family, window_for_template(template, hi))
        for n in range(lo, hi + 1):
            row = window_for_template(template, n)
            assert top.restrict(row) == build_candidates(family, row), (
                family.serialize(), row.spec_string()
            )
    assert sum(not family.uses_y for family in families) > len(NO_Y_FAMILIES) * len(FLAGS)


@pytest.mark.parametrize(
    "outer, inner",
    [
        ("int:1..9", "int:0..3"),  # 0 lies outside
        ("farey:3", "farey:4"),
        ("farey:3:-neg", "farey:2"),
        ("mgrid:2,3:2", "mgrid:3,2:1"),  # the same elements in another order
    ],
)
def test_restrict_rejects_a_window_not_inside_in_order(outer, inner):
    for text in ("schur", "x; 2*x + 0"):
        table = build_candidates(parse_family(text), parse_window(outer))
        with pytest.raises(ValueError, match="is not a sub-window of"):
            table.restrict(parse_window(inner))


def test_restrict_of_a_y_free_family_to_zero_alone():
    # int:0..0 has no nonzero element to pin y to, so its table is empty
    row = parse_window("int:0..0")
    for text in NO_Y_FAMILIES:
        family = parse_family(text, allow_offsets=True)
        top = build_candidates(family, parse_window("int:-2..2"))
        assert top.restrict(row) == build_candidates(family, row)
        assert top.restrict(row).entries == ()


def test_restrict_to_a_prefix_shares_every_entry():
    # An int row is a prefix of the top row, so no index moves and the row
    # holds the top table's own entries rather than copies of them.
    for text in ("schur", "x; 2*x + 0"):
        top = build_candidates(parse_family(text), parse_window("int:1..30"))
        row = top.restrict(parse_window("int:1..20"))
        shared = {id(entry) for entry in top.entries}
        assert row.entries and all(id(entry) in shared for entry in row.entries)
