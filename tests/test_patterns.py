"""Family term grammar, instantiation rules, and the built-in catalog."""

import random
from fractions import Fraction

import pytest

from qramsey.arith import polynomial
from qramsey.patterns import (
    X,
    AffineTerm,
    PowerTerm,
    VarY,
    builtin_family,
    instantiate,
    parse_family,
)

from _stock import STOCK_KEYS


class TestTermValues:
    def test_schur_instantiation(self):
        fam = builtin_family("schur")
        assert instantiate(fam, 2, 3) == (Fraction(2), Fraction(3), Fraction(5))

    def test_power_term_divides_for_negative_exponent(self):
        t = PowerTerm(-2)
        assert t.value(Fraction(3), Fraction(2)) == Fraction(3, 4)

    def test_affine_term_scales_y_before_polynomial(self):
        # 2x + p(3y) with p = t^2 - t: at (1, 2) gives 2 + 36 - 6.
        (t,) = parse_family("2*x + (3*y)^2 - (3*y)").terms
        assert t == AffineTerm(Fraction(2), polynomial([0, -3, 9]))
        assert t.value(Fraction(1), Fraction(2)) == Fraction(32)
        for y in (Fraction(-1, 3), Fraction(5, 7)):
            assert t.value(Fraction(1), y) == 2 + (3 * y) ** 2 - 3 * y

    def test_offset_term_ignores_y(self):
        t = AffineTerm(1, polynomial([3]))
        assert t.value(Fraction(5), Fraction(99)) == Fraction(8)
        assert not t.uses_y


X_MUST_BE_NONZERO = "invalid instantiation point: x must be nonzero for this family"


class TestInstantiationGuards:
    def test_zero_y_rejected(self):
        with pytest.raises(ValueError, match="^invalid instantiation point: y must be nonzero$"):
            instantiate(builtin_family("schur"), 1, 0)

    def test_zero_x_rejected_with_power_terms(self):
        with pytest.raises(ValueError, match=f"^{X_MUST_BE_NONZERO}$"):
            instantiate(builtin_family("moreira(1)"), 0, 1)

    def test_zero_x_allowed_without_power_terms(self):
        vals = instantiate(builtin_family("schur"), 0, 2)
        assert vals == (Fraction(0), Fraction(2), Fraction(2))

    def test_strict_flag_forces_nonzero_x(self):
        fam = parse_family("x; y", strict_nonzero_x=True)
        with pytest.raises(ValueError, match=f"^{X_MUST_BE_NONZERO}$"):
            instantiate(fam, 0, 1)


class TestFamilyValidation:
    """The readers check what the record constructors take unchecked."""

    def test_duplicate_terms_rejected(self):
        # text and catalog keys pass through the one duplicate check
        with pytest.raises(ValueError, match="^duplicate terms in family$"):
            parse_family("x; x")
        with pytest.raises(
            ValueError, match=r"^bad catalog key 'quotient-poly\(1,\[t;t\]\)': duplicate terms in family$"
        ):
            parse_family("quotient-poly(1,[t;t])")

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match=r"^empty term \(position 0\)$"):
            parse_family("")

    def test_affine_constant_term_rejected(self):
        # an offset has x coefficient 1
        with pytest.raises(ValueError, match=r"^constant term must be zero \(position 0\)$"):
            parse_family("2*x + 3", allow_offsets=True)

    def test_the_reader_owns_the_normal_form(self):
        # trailing zeros are stripped and coefficients are Fractions, so equal
        # terms compare and hash equal
        (a,) = parse_family("x + 2*t + 0*t^3").terms
        b = AffineTerm(Fraction(1), (Fraction(0), Fraction(2)))
        assert a == b
        assert hash(a) == hash(b)
        assert all(type(c) is Fraction for c in (a.x_coef, *a.poly))
        with pytest.raises(ValueError, match="^duplicate terms in family$"):
            parse_family("x + 2*t; x + 2*t + 0*t^3")

    def test_term_types_never_compare_equal(self):
        # records compare as plain tuples; the term types have 0, 1 and 2 fields
        terms = [VarY(), PowerTerm(1), X, AffineTerm(Fraction(2))]
        for i, a in enumerate(terms):
            for b in terms[i + 1:]:
                assert a != b, (a, b)


class TestParse:
    @pytest.mark.parametrize(
        "text,terms",
        [
            ("x", (X,)),
            ("y", (VarY(),)),
            ("x * y^3", (PowerTerm(3),)),
            ("x / y^2", (PowerTerm(-2),)),
            ("x * y", (PowerTerm(1),)),
            ("x + t", (AffineTerm(Fraction(1), polynomial([0, 1])),)),
            ("x - t^2", (AffineTerm(Fraction(1), polynomial([0, 0, -1])),)),
            ("2*x + 3*t", (AffineTerm(Fraction(2), polynomial([0, 3])),)),
            (
                "1/2*x + t^2 - t",
                (AffineTerm(Fraction(1, 2), polynomial([0, -1, 1])),),
            ),
        ],
    )
    def test_single_terms(self, text, terms):
        assert parse_family(text).terms == terms

    def test_bare_y_means_linear_argument(self):
        assert parse_family("x + y") == parse_family("x + t")
        assert parse_family("x + y^2 - y") == parse_family("x + t^2 - t")

    def test_scaled_y_atom(self):
        fam = parse_family("x + (2*y)^2")
        (term,) = fam.terms
        assert term == AffineTerm(Fraction(1), polynomial([0, 0, 4]))
        assert term.value(Fraction(1), Fraction(3)) == Fraction(37)

    def test_mixed_scalings_rejected(self):
        with pytest.raises(ValueError, match=r"^mixed y scalings in one term \(position 0\)$"):
            parse_family("x + (2*y)^2 + (3*y)")
        with pytest.raises(ValueError, match=r"^mix of scaled and bare variables \(position 0\)$"):
            parse_family("x + (2*y)^2 + t")

    @pytest.mark.parametrize(
        "text", ["x; x + 0", "x; x + (2*y); x + 2*t", "x; x + (0*y)", "x; x + t; x + 1*t"]
    )
    def test_a_term_spelled_twice_is_a_duplicate(self, text):
        with pytest.raises(ValueError, match="duplicate terms in family"):
            parse_family(text)

    def test_mixed_t_and_y_rejected(self):
        with pytest.raises(ValueError, match=r"^mix of t and y in polynomial part \(position 0\)$"):
            parse_family("x + t + y")

    def test_offsets_gated(self):
        with pytest.raises(
            ValueError, match=r"^constant term must be zero \(offset terms are disabled\) \(position 3\)$"
        ):
            parse_family("x; x + 3")
        fam = parse_family("x; x + 3", allow_offsets=True)
        assert fam.terms == (X, AffineTerm(1, polynomial([3])))
        assert fam.has_offsets()
        # a canceled monomial leaves an offset; (1*y) is the bare variable
        assert parse_family("x; x + 3 + 0*(1*y)", allow_offsets=True) == fam

    def test_nonzero_constant_in_polynomial_rejected(self):
        with pytest.raises(ValueError, match=r"^constant term must be zero \(position 0\)$"):
            parse_family("x + t + 1", allow_offsets=True)
        with pytest.raises(ValueError, match=r"^constant term must be zero \(position 0\)$"):
            parse_family("x + 3 + 0*(2*y)", allow_offsets=True)  # a scaled term

    def test_error_position_is_absolute(self):
        with pytest.raises(ValueError, match=r"^unrecognized term 'qq' \(position 6\)$"):
            parse_family("x; y; qq")

    @pytest.mark.parametrize(
        "text, error",
        [
            ("x * y^65", "exponent above the cap 64"),
            ("x / y^100000000", "exponent above the cap 64"),
            ("x * y^-" + "9" * 5000, "exponent above the cap 64"),  # never converted
            pytest.param("x * y^" + "0" * 5000 + "65", "exponent above the cap 64",
                         id="leading-zeros"),
            ("x + t^65", "bad polynomial part: exponent above the cap 64"),
            ("x + (2*y)^1000000", "bad polynomial part: exponent above the cap 64"),
        ],
    )
    def test_exponent_over_the_cap_rejected(self, text, error):
        with pytest.raises(ValueError) as ei:
            parse_family("y; " + text)
        assert str(ei.value) == f"{error} (position 3)"

    def test_exponent_at_the_cap_accepted(self):
        text = "x; x * y^64; x / y^64; x + t^64 - t"
        assert parse_family(text).serialize() == text
        assert parse_family("x * y^-064").terms == (PowerTerm(-64),)
        # only the digits after the leading zeros are converted: int() refuses
        # more than 4300 digits, leading zeros counted
        assert parse_family("x; x * y^" + "0" * 5000 + "1").serialize() == "x; x * y^1"

    @pytest.mark.parametrize(
        "term, message",
        [("x * y^0", "exponent must be nonzero"), ("0*x + t", "x coefficient must be nonzero")],
    )
    def test_zero_exponent_or_x_coefficient_rejected(self, term, message):
        with pytest.raises(ValueError, match=f"^{message} \\(position 3\\)$"):
            parse_family(f"x; {term}")

    def test_empty_term_rejected(self):
        with pytest.raises(ValueError, match=r"^empty term \(position 2\)$"):
            parse_family("x;; y")

    def test_flags_carried(self):
        fam = parse_family("x; y", require_distinct_values=True, strict_nonzero_x=True)
        assert fam.require_distinct_values
        assert fam.strict_nonzero_x

    def test_catalog_key_takes_flags(self):
        fam = parse_family(
            " quotient-poly(1,[t])", require_distinct_values=True, strict_nonzero_x=True
        )
        assert fam.terms == builtin_family("quotient-poly(1,[t])").terms
        assert fam.require_distinct_values
        assert fam.strict_nonzero_x

    def test_bad_catalog_key_raises_its_keyerror(self):
        # builtin_family's KeyError, raised as ValueError with its message
        with pytest.raises(
            ValueError, match=r"^bad catalog key 'moreira\(2,\[t\]\)': moreira got k=2 but 1 polynomials$"
        ):
            parse_family("moreira(2,[t])")

    def test_names_outside_the_catalog_are_terms(self):
        with pytest.raises(ValueError, match=r"^unrecognized term 'nope' \(position 0\)$"):
            parse_family("nope")
        with pytest.raises(KeyError):
            builtin_family("x; y; x + t")


class TestSerializeRoundTrip:
    def test_catalog_round_trips(self):
        for key in STOCK_KEYS:
            fam = builtin_family(key)
            again = parse_family(fam.serialize())
            assert again == fam, key

    def test_offset_family_round_trips(self):
        fam = parse_family("x; x + 3; x - 1/2", allow_offsets=True)
        assert parse_family(fam.serialize(), allow_offsets=True) == fam

    def test_scaled_atom_round_trips(self):
        for text in ("2*x + (1/3*y)^2 - (1/3*y)", "x + (2*y) - (2*y)"):  # the second serializes as x
            fam = parse_family(text)
            assert parse_family(fam.serialize()) == fam, text


class TestCatalog:
    @pytest.mark.parametrize(
        "key,text",
        [
            ("schur", "x; y; x + t"),
            ("vdw(2)", "x; x + t; x + 2*t"),
            ("vdw(3)", "x; x + t; x + 2*t; x + 3*t"),
            ("moreira(1)", "x; x * y^1; x + t"),
            ("moreira(2,[t;t^2])", "x; x * y^1; x + t; x + t^2"),
            ("bowen-sabok(1)", "x; y; x * y^1; x + t"),
            ("quotient-poly(1,[t])", "x; x / y^1; x + t"),
            ("quotient-poly(2,[t;t^2])", "x; x / y^2; x + t; x + t^2"),
            ("quotient-poly(2,[t; t^2])", "x; x / y^2; x + t; x + t^2"),
            ("quotient-poly(2,[t; -t^2])", "x; x / y^2; x + t; x - t^2"),
            ("product-poly(1,[t])", "x; x * y^1; x + t"),
            ("question-hs", "x; y; x * y^1; x + t"),
            ("schur()", "x; y; x + t"),
            ("vdw(1)", "x; x + t"),
            ("bowen-sabok(2)", "x; y; x * y^1; x + t; x + 2*t"),
            ("moreira(2)", "x; x * y^1; x + t; x + 2*t"),
            ("quotient-poly(2)", "x; x / y^2; x + t"),
            ("product-poly(3,[t^2;-t])", "x; x * y^3; x + t^2; x - t"),
        ],
    )
    def test_catalog_serializations(self, key, text):
        assert builtin_family(key).serialize() == text
        assert builtin_family(key) == parse_family(text)

    # A list entry p is read as the term x + p, where t and y name one variable.
    @pytest.mark.parametrize(
        "key,spelled_in_t",
        [
            ("quotient-poly(1,[y])", "quotient-poly(1,[t])"),
            ("quotient-poly(1,[2y])", "quotient-poly(1,[2*t])"),
            ("quotient-poly(1,[(2*y)])", "quotient-poly(1,[2*t])"),
            ("moreira(2,[y; (2*y)^2 - (2*y)])", "moreira(2,[t; 4*t^2 - 2*t])"),
        ],
    )
    def test_list_entries_spelled_in_y(self, key, spelled_in_t):
        assert builtin_family(key) == builtin_family(spelled_in_t)

    @pytest.mark.parametrize(
        "bad",
        [
            "nope",
            "schur(1)",
            "vdw",
            "vdw(0)",
            "vdw(1,2)",
            "moreira(2,[t)",
            "vdw(x)",
            "quotient-poly(0,[t])",
            "moreira(2,[t])",
            "moreira(1,[t + 1])",
            "quotient-poly(1,[t;t])",
            "product-poly(0)",
            "bowen-sabok(1,[t])",
            "quotient-poly(1,[t],[t])",
            "vdw(65)",
            "moreira(100000000)",
            "bowen-sabok(65)",
            "quotient-poly(100000000)",
            "product-poly(1,[t^65])",
            "quotient-poly(1,[1])",
            "moreira(1,[0])",
            "quotient-poly(1,[u])",
            "quotient-poly(1,[])",
            "quotient-poly(1,[t;])",
            "quotient-poly([t],2)",
            "quotient-poly(1,[t],)",
            "vdw(-1)",
            "x; y; x + t",
        ],
    )
    def test_bad_keys_raise_keyerror(self, bad):
        with pytest.raises(KeyError) as ei:
            builtin_family(bad)
        assert ei.value.args[0].startswith(f"bad catalog key {bad!r}: ")

    @pytest.mark.parametrize(
        "bad,reason",
        [
            ("moreira(1,[t + 1])", "constant term must be zero"),
            ("quotient-poly(1,[1])", "constant term must be zero (offset terms are disabled)"),
            ("quotient-poly(1,[u])", "bad polynomial part: unknown variable 'u', expected t, y or (c*y)"),
            ("quotient-poly(1,[])", "empty list entry"),
            ("quotient-poly(1,[t;])", "empty list entry"),
            ("product-poly(1,[t^65])", "bad polynomial part: exponent above the cap 64"),
            ("moreira(2,[t)", "arguments must read n or n,[p;...]"),
            ("quotient-poly([t],2)", "arguments must read n or n,[p;...]"),
            ("vdw(65)", "vdw argument above the cap 64"),
            ("vdw(0)", "vdw needs an argument >= 1"),
            ("schur(1)", "wrong arguments"),
            ("quotient-poly(1,[t;t])", "duplicate terms in family"),
            ("nope", "not a catalog family"),
        ],
    )
    def test_bad_key_reasons(self, bad, reason):
        # every term is read alone, so no position in the expanded text shows
        with pytest.raises(KeyError) as ei:
            builtin_family(bad)
        assert ei.value.args[0] == f"bad catalog key {bad!r}: {reason}"

    def test_arguments_at_the_cap_accepted(self):
        assert len(builtin_family("vdw(64)").terms) == 65
        assert builtin_family("vdw(" + "0" * 5000 + "1)") == builtin_family("vdw(1)")
        assert builtin_family("product-poly(64,[t^64])").serialize() == "x; x * y^64; x + t^64"

    def test_power_families_require_nonzero_x(self):
        assert builtin_family("moreira(1)").requires_nonzero_x
        assert builtin_family("quotient-poly(1,[t])").requires_nonzero_x
        assert not builtin_family("schur").requires_nonzero_x

    def test_y_usage_flag(self):
        assert builtin_family("schur").uses_y
        assert not parse_family("x; x + 3", allow_offsets=True).uses_y


# A t or y is the variable only as a word of its own: next to a letter, a
# digit, an underscore or a non-ASCII letter it is part of a longer word, so a
# coefficient may stand directly before it.  These outcomes are pinned,
# accepted text and error message alike; every error names the position of
# the term.
BOUNDARY_TEXTS = [
    ("x + 2t", "x + 2*t", None),
    ("x + 2y", "x + 2*t", None),
    ("x + 3y^2 - y", "x + 3*t^2 - t", None),
    ("x + tt", None, "bad polynomial part: unknown variable 'tt', expected t, y or (c*y)"),
    ("x + t_1", None, "bad polynomial part: unknown variable 't_1', expected t, y or (c*y)"),
    ("x + t + y", None, "mix of t and y in polynomial part"),
    ("x + 2t + y", None, "mix of t and y in polynomial part"),
    ("x + (2*y) + t", None, "mix of scaled and bare variables"),
    ("x + (2*y) + u", None, "bad polynomial part: unknown variable 'u', expected t, y or (c*y)"),
    ("x + (2*y) + (4/2*y)", "x + 4*t", None),
    ("x + (2*y)^2", "x + 4*t^2", None),
    ("x + (-1*y)^2", "x + t^2", None),
    ("x + tµ", None, "bad polynomial part: unknown variable 'tµ', expected t, y or (c*y)"),
    ("x + µt", None, "bad polynomial part: bad monomial 'µt'"),
    ("x + é*t", None, "bad polynomial part: bad monomial 'é*t'"),
    ("x + y_t", None, "bad polynomial part: unknown variable 'y_t', expected t, y or (c*y)"),
    ("x + t*y", None, "bad polynomial part: bad monomial 't*y'"),
    ("1/0*x + t", None, "degenerate rational: zero denominator"),
]


class TestStandaloneWords:
    @pytest.mark.parametrize("text, accepted, error", BOUNDARY_TEXTS)
    @pytest.mark.parametrize("prefix", ["", "y; "])
    def test_boundary_texts(self, prefix, text, accepted, error):
        if accepted is not None:
            assert parse_family(prefix + text).serialize() == prefix + accepted
            return
        with pytest.raises(ValueError) as ei:
            parse_family(prefix + text)
        assert str(ei.value) == f"{error} (position {len(prefix)})"


# Term texts drawn from the whole affine grammar: c1*x, then monomials in one
# kind of variable (t, y or one scaling (c2*y), each scaling in several
# spellings), written as c*V, cV, c V, V or V^k, with random spaces and a
# leading minus.  The expected term is built from the draw, not parsed.
C1_SPELLINGS = [("", 1), ("2*", 2), ("1/2 * ", Fraction(1, 2)), ("-1*", -1), ("-3/2*", Fraction(-3, 2))]
SCALINGS = {
    2: ["(2*y)", "(4/2*y)", "( 2 * y )"],
    -1: ["(-1*y)", "(-2/2*y)"],
    Fraction(1, 3): ["(1/3*y)", "(2/6*y)"],
}
COEFFS = [("1", 1), ("2", 2), ("1/2", Fraction(1, 2)), ("3 / 4", Fraction(3, 4)), ("10", 10)]


def draw_monomial(rng, spellings):
    """(text, coefficient, exponent) of one unsigned monomial in one of the spellings."""
    space = lambda: rng.choice(["", " "])  # noqa: E731
    c_text, c = rng.choice(COEFFS)
    k = rng.randint(1, 3)
    power = "" if k == 1 and rng.random() < 0.5 else f"{space()}^{space()}{k}"
    form = rng.choice(["c*V", "cV", "c V", "V"])
    if form == "V":
        c_text, c = "", 1
    elif form == "c*V":
        c_text += f"{space()}*{space()}"
    elif form == "c V":
        c_text += " "
    return c_text + rng.choice(spellings) + power, c, k


def draw_term_text(rng):
    """(term text, the AffineTerm it denotes, the spellings of its variable)."""
    c1_text, c1 = rng.choice(C1_SPELLINGS)
    y_coef = rng.choice([1, *SCALINGS])
    spellings = SCALINGS.get(y_coef) or [rng.choice("ty")]
    text, coeffs = f"{c1_text}x", {}
    for i in range(rng.randint(1, 4)):
        mono, c, k = draw_monomial(rng, spellings)
        sign = rng.choice([1, -1])
        joint = "+" if sign > 0 else "-"
        if i == 0 and sign < 0 and rng.random() < 0.3:
            joint = "+ -"
        text += rng.choice(["", " "]) + joint + rng.choice(["", " "]) + mono
        coeffs[k] = coeffs.get(k, 0) + sign * c * Fraction(y_coef) ** k
    poly = polynomial(coeffs.get(e, 0) for e in range(max(coeffs) + 1))
    return text, AffineTerm(Fraction(c1), poly), spellings


class TestTermTextFuzz:
    def test_drawn_texts_parse_to_the_drawn_term(self):
        rng = random.Random(2020)
        for _ in range(3000):
            text, term, _ = draw_term_text(rng)
            fam = parse_family(text)
            assert fam.terms == (term,), text
            again = parse_family(fam.serialize())
            assert again == fam, text
            assert again.serialize() == fam.serialize(), text

    def test_a_second_kind_of_variable_is_rejected(self):
        rng = random.Random(2021)
        for _ in range(3000):
            text, _, spellings = draw_term_text(rng)
            intruder = rng.choice([v for v in ["t", "y", "(3*y)", "u", "z", "tt"] if v not in spellings])
            mono, _, _ = draw_monomial(rng, [intruder])
            at = rng.choice([i for i, ch in enumerate(text) if ch in "+-" and i > 0] + [len(text)])
            bad = f"{text[:at]} {rng.choice('+-')} {mono} {text[at:]}"
            with pytest.raises(ValueError, match=r" \(position 0\)$"):
                parse_family(bad)
