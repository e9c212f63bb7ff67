"""Differential fuzz gate: the search against brute force and an independent DPLL.

Families are drawn from the whole term grammar (affine terms of degree 1-2
with scaled y, power terms, gated offsets, the distinct and strict flags),
windows of at most 9 elements from all three kinds, and r in {1, 2, 3}.
Each draw is seeded by its index, so a failing draw reproduces on its own.

Every candidate table, of the draws and of the catalog on a few signed and
fractional windows, is also compared with a Fraction-built reference.
"""

import random
from fractions import Fraction

import pytest

from qramsey.arith import PolynomialQ
from qramsey.certificates import certificate_for_result, dumps_certificate
from qramsey.cnf import export_cnf, import_assignment
from qramsey.colorings import enumerate_colorings
from qramsey.detector import Candidate, build_candidates, find_witness
from qramsey.patterns import (
    AffineTerm,
    Family,
    OffsetTerm,
    PowerTerm,
    VarX,
    VarY,
    default_catalog,
    parse_family,
)
from qramsey.search import AVOIDING, EXHAUSTED, search_avoiding
from qramsey.windows import parse_window

from _dpll import model_literals, solve

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
        return VarX()
    if kind == "y":
        return VarY()
    if kind == "power":
        return PowerTerm(rng.choice([1, -1, 2, -2]))
    if kind == "offset":
        return OffsetTerm(rng.choice([1, -1, 2, Fraction(1, 2)]))
    coeffs = [0, rng.choice(SCALARS)]
    if rng.random() < 0.4:
        coeffs[1] = rng.choice([0, coeffs[1]])
        coeffs.append(rng.choice(SCALARS))
    return AffineTerm(rng.choice(SCALARS), PolynomialQ(coeffs), rng.choice(SCALARS))


def draw_family(rng):
    allow_offsets = rng.random() < 0.3
    terms = [VarX()] if rng.random() < 0.8 else []
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


def reference_entries(family, window):
    """The candidate table by Fraction evaluation: Term.value, index_of, distinct filter."""
    elems = window.elements()
    y_range = [(i, y) for i, y in enumerate(elems) if y != 0]
    if not family.uses_y:
        y_range = y_range[:1]
    entries = []
    for xi, x in enumerate(elems):
        if family.requires_nonzero_x and x == 0:
            continue
        for yi, y in y_range:
            idxs = tuple(window.index_of(t.value(x, y)) for t in family.terms)
            if None in idxs:
                continue
            if family.require_distinct_values and len(set(idxs)) != len(idxs):
                continue
            entries.append(Candidate(xi, yi, idxs))
    return tuple(entries)


def brute_force_avoidable(family, window, r, table):
    return any(
        find_witness(family, c, table) is None
        for c in enumerate_colorings(window, r, symmetry=True)
    )


@pytest.mark.parametrize("draw", range(DRAWS))
def test_search_agrees_with_independent_deciders(draw):
    rng = random.Random(7001 + draw)
    family = draw_family(rng)
    window = draw_window(rng)
    r = rng.choice([1, 2, 2, 3])
    assert window.size() <= 9
    case = (family.serialize(), window.spec_string(), r)

    assert parse_family(
        family.serialize(),
        allow_offsets=family.has_offsets(),
        require_distinct_values=family.require_distinct_values,
        strict_nonzero_x=family.strict_nonzero_x,
    ) == family, case

    table = build_candidates(family, window)
    assert table.entries == reference_entries(family, window), case
    res = search_avoiding(family, window, r, table=table)
    assert res.outcome in (AVOIDING, EXHAUSTED), case
    avoidable = brute_force_avoidable(family, window, r, table)
    assert (res.outcome == AVOIDING) == avoidable, case

    cnf = export_cnf(family, window, r, table=table)
    model = solve(cnf.num_vars, cnf.clauses)
    assert (model is not None) == avoidable, case
    if model is not None:
        coloring = import_assignment(cnf, model_literals(model))
        assert find_witness(family, coloring, table) is None, case

    again = search_avoiding(family, window, r)
    assert dumps_certificate(certificate_for_result(res)) == dumps_certificate(
        certificate_for_result(again)
    ), case


TABLE_WINDOWS = ["int:-4..4", "farey:4:-zero", "farey:4:-neg", "mgrid:2,3:1:+sign"]
TABLE_FAMILIES = [
    *default_catalog(),
    "quotient-poly(2,[t;t^2])",
    "product-poly(2,[t^2])",
    "x; x / y^2; -1/2*x + (2*y)^2 - (2*y)",
    "x * y^-1; -2*x + (1/2*y); y; x",
    "x + 1/2; x + t; x - 2; 3*x + 0*t",
]


@pytest.mark.parametrize("spec", TABLE_WINDOWS)
@pytest.mark.parametrize("text", TABLE_FAMILIES)
@pytest.mark.parametrize("flags", [(False, False), (True, False), (False, True)])
def test_table_matches_fraction_reference(text, spec, flags):
    distinct, strict = flags
    family = parse_family(
        text, allow_offsets=True, require_distinct_values=distinct, strict_nonzero_x=strict
    )
    window = parse_window(spec)
    assert build_candidates(family, window).entries == reference_entries(family, window)
