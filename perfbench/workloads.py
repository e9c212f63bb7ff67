"""The benchmark's workloads: fixed mathematical instances plus a seeded draw.

Each decide operation carries the family twice: as the text the qramsey
command line reads and as an oracle spec that the independent checker
evaluates.  The README explains why each instance was chosen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from oracle import Fam, equation_family

X, Y = ("x",), ("y",)


def aff(*coeffs, c1=1, c2=1) -> tuple:
    return ("aff", c1, tuple(coeffs), c2)


@dataclass(frozen=True)
class Instance:
    family: str  # catalog key or family text, as passed to the command line
    fam: Fam
    r: int
    flags: tuple[str, ...] = ()
    published: str | None = None  # key of oracle.PUBLISHED_LARGEST_AVOIDABLE
    anchor: str | None = None  # small window whose refutation covers larger ones


@dataclass(frozen=True)
class Search:
    inst: Instance
    window: str
    kind = "search"

    def argv(self, cert_dir: str) -> list[str]:
        return [
            "search", self.inst.family, self.window, "-r", str(self.inst.r),
            *self.inst.flags, "--cert-dir", cert_dir, "--cert-stem", "result",
        ]


@dataclass(frozen=True)
class Sweep:
    inst: Instance
    template: str
    lo: int
    hi: int
    min_exhausted: int | None = None  # published minimal exhausted n, when known
    kind = "sweep"

    def argv(self, cert_dir: str) -> list[str]:
        return [
            "sweep", self.inst.family, "-r", str(self.inst.r), "--template", self.template,
            "--lo", str(self.lo), "--hi", str(self.hi), *self.inst.flags, "--cert-dir", cert_dir,
        ]


@dataclass(frozen=True)
class Rado:
    equation: str
    coeffs: tuple[int, int, int]
    r: int
    n_max: int
    known_fault: bool = False  # cross_validate calls an exhausted row a contradiction
    kind = "rado"

    @property
    def inst(self) -> Instance:
        return Instance(self.equation, equation_family(self.coeffs), self.r)

    def argv(self, cert_dir: str) -> list[str]:
        return ["rado", self.equation, "--validate", "-r", str(self.r), "--n-max", str(self.n_max)]


def row_spec(template: str, n: int) -> str:
    """Window spec of row n of a sweep ladder, as the command line builds it."""
    if template == "int":
        return f"int:1..{n}"
    if template == "farey":
        return f"farey:{n}"
    return f"{template}:{n}"


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    # Verify a certificate forged from this round's first upper bound, claiming
    # Schur is unavoidable on int:1..4 at r = 2.  Plain verify accepts it today.
    forged_verify: bool = False


SCHUR = Fam((X, Y, aff(1)))
QUESTION_HS = Fam((X, Y, ("pow", 1), aff(1)))
BOWEN_SABOK_1 = QUESTION_HS  # the catalog spells both as x; y; x * y^1; x + t
QUOTIENT_POLY_1 = Fam((X, ("pow", -1), aff(1)))
MOREIRA_1 = Fam((X, ("pow", 1), aff(1)))
VDW_2 = Fam((X, aff(1), aff(2)))
VDW_3 = Fam((X, aff(1), aff(2), aff(3)))
GAPPED_AP = Fam((X, aff(2), aff(3)))
OFFSETS_0145 = Fam((X, aff(1), aff(4), aff(5)))
OFFSETS_0136 = Fam((X, aff(1), aff(3), aff(6)))
WEAK_SCHUR = Fam((X, Y, aff(1)), distinct=True)


# Large rational windows: the candidate table is nearly all of their time.
RATIONAL_SEARCHES = (
    Search(Instance("schur", SCHUR, 2, published="schur", anchor="int:1..5"), "farey:12"),
    Search(Instance("question-hs", QUESTION_HS, 2, anchor="farey:5"), "farey:10"),
    Search(Instance("bowen-sabok(1)", BOWEN_SABOK_1, 3), "farey:12"),
    Search(Instance("quotient-poly(1,[t])", QUOTIENT_POLY_1, 2, anchor="mgrid:2,3:1"),
           "mgrid:2,3:6"),
)

# Ladders up to published thresholds: many small decisions, where per-call
# set-up and certificate I/O weigh most.
THRESHOLD_SWEEPS = (
    Sweep(Instance("vdw(2)", VDW_2, 3, published="vdw3"), "int", 1, 27, min_exhausted=27),
    Sweep(Instance("vdw(3)", VDW_3, 2, published="vdw4"), "int", 1, 35, min_exhausted=35),
    Sweep(Instance("schur", SCHUR, 3, published="schur"), "int", 1, 14, min_exhausted=14),
    Sweep(Instance("x; y; x + t", WEAK_SCHUR, 3, ("--distinct",), published="weak-schur"),
          "int", 1, 24, min_exhausted=24),
    Sweep(Instance("question-hs", QUESTION_HS, 2, anchor="farey:5"), "farey", 1, 10),
    Sweep(Instance("moreira(1)", MOREIRA_1, 2), "mgrid:2,3", 0, 6),
)

RADO_CHECKS = (
    Rado("x1 + x2 - x3 = 0", (1, 1, -1), 2, 20),
    Rado("x1 + x2 - 3*x3 = 0", (1, 1, -3), 2, 12, known_fault=True),
)


def tables_and_sweeps(seed: int) -> Workload:
    return Workload("tables-and-sweeps",
                    RATIONAL_SEARCHES + THRESHOLD_SWEEPS + random_sweeps(seed) + RADO_CHECKS)


# Integer searches of one to three seconds, one avoiding and two exhausted,
# whose time goes to the search.  Short enough for a run to repeat them.
INTEGER_SEARCHES = (
    Search(Instance("x; x + 2*t; x + 3*t", GAPPED_AP, 3), "int:1..39"),
    Search(Instance("x; x + t; x + 4*t; x + 5*t", OFFSETS_0145, 2), "int:1..45"),
    Search(Instance("x; x + t; x + 3*t; x + 6*t", OFFSETS_0136, 2), "int:1..52"),
)


def integer_search(seed: int) -> Workload:
    return Workload("integer-search", INTEGER_SEARCHES, forged_verify=True)


WORKLOADS = {
    "tables-and-sweeps": tables_and_sweeps,
    "integer-search": integer_search,
}


# ---------------------------------------------------------------------------
# Seeded draw of small random families

# Ladders of the draw: three families on each.  Every window stays at or
# below 25 elements so that the oracle can refute the first exhausted row.
RANDOM_LADDERS = (("int", 1, 10), ("farey", 1, 4), ("mgrid:2,3", 0, 2))
FAMILIES_PER_LADDER = 3

_SMALL = (Fraction(1), Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2))


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def term_text(term: tuple) -> str:
    """Render an oracle term spec in the family grammar of the command line."""
    kind = term[0]
    if kind in ("x", "y"):
        return kind
    if kind == "pow":
        a = term[1]
        return f"x * y^{a}" if a > 0 else f"x / y^{-a}"
    if kind == "off":
        c = Fraction(term[1])
        return f"x + {_fmt(c)}" if c > 0 else f"x - {_fmt(-c)}"
    _, c1, coeffs, c2 = term
    c1, c2 = Fraction(c1), Fraction(c2)
    text = "x" if c1 == 1 else f"{_fmt(c1)}*x"
    var = "t" if c2 == 1 else f"({_fmt(c2)}*y)"
    for k, a in enumerate(coeffs, start=1):
        a = Fraction(a)
        if a == 0:
            continue
        head = var if k == 1 else f"{var}^{k}"
        body = head if abs(a) == 1 else f"{_fmt(abs(a))}*{head}"
        text += f" + {body}" if a > 0 else f" - {body}"
    return text


def _random_term(rng: random.Random, allow_offsets: bool) -> tuple:
    kinds = ["y", "pow", "aff", "aff"] + (["off"] if allow_offsets else [])
    kind = rng.choice(kinds)
    if kind == "y":
        return Y
    if kind == "pow":
        return ("pow", rng.choice((1, -1, 2, -2)))
    if kind == "off":
        return ("off", rng.choice(_SMALL))
    degree = rng.choice((1, 1, 2))
    coeffs = tuple(rng.choice((0,) + _SMALL) for _ in range(degree - 1)) + (rng.choice(_SMALL),)
    c1 = rng.choice((1, 1, 1, 2, -1, Fraction(1, 2)))
    c2 = rng.choice((1, 1, 1, 2, Fraction(1, 2)))
    return ("aff", Fraction(c1), coeffs, Fraction(c2))


def random_family(rng: random.Random, r: int) -> Instance:
    """x plus one to three random terms, with random --distinct/--strict-x/--allow-offsets."""
    allow_offsets = rng.random() < 0.25
    distinct = rng.random() < 0.25
    strict = rng.random() < 0.2
    terms = [X]
    for _ in range(rng.randint(1, 3)):
        term = _random_term(rng, allow_offsets)
        if term_text(term) not in {term_text(t) for t in terms}:
            terms.append(term)
    flags = tuple(
        flag
        for flag, on in (("--allow-offsets", allow_offsets), ("--distinct", distinct),
                         ("--strict-x", strict))
        if on
    )
    text = "; ".join(term_text(t) for t in terms)
    return Instance(text, Fam(tuple(terms), distinct, strict), r, flags)


def random_sweeps(seed: int) -> tuple[Sweep, ...]:
    rng = random.Random(seed)
    return tuple(
        Sweep(random_family(rng, rng.choice((2, 3))), template, lo, hi)
        for template, lo, hi in RANDOM_LADDERS
        for _ in range(FAMILIES_PER_LADDER)
    )
