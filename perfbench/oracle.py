"""Independent answer checker for the benchmark.

Nothing here imports qramsey.  Windows, family instantiation and the
refutation solver are written from the definitions in the README of the
package, so a fault in the program's detector, term evaluation or search
cannot hide itself by being reused to check its own answers.

A family is a tuple of term specs plus flags:

* ``("x",)`` and ``("y",)``;
* ``("pow", a)``: x * y^a, a a nonzero integer;
* ``("aff", c1, (a1, a2, ...), c2)``: c1*x + a1*(c2*y) + a2*(c2*y)^2 + ...;
* ``("off", c)``: x + c.

An instance is a pair (x, y) of window elements with y != 0, x != 0 when a
power term is present or the family is strict, every term value inside the
window and, for distinct families, all values pairwise different.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

# Largest n such that int:1..n still has an avoiding r-coloring.  Sources
# are listed in the README next to this directory's run.py.
PUBLISHED_LARGEST_AVOIDABLE = {
    ("schur", 2): 4,  # S(2) = 4
    ("schur", 3): 13,  # S(3) = 13
    ("schur", 4): 44,  # S(4) = 44
    ("vdw3", 3): 26,  # W(3;3) = 27
    ("vdw4", 2): 34,  # W(4;2) = 35
    ("weak-schur", 3): 23,  # WS(3) = 23
}


class OracleError(Exception):
    """An answer of the program disagrees with the independent check."""


# ---------------------------------------------------------------------------
# Windows


@dataclass(frozen=True)
class Win:
    spec: str
    elements: tuple[Fraction, ...]

    @property
    def index(self) -> dict[Fraction, int]:
        idx = self.__dict__.get("_index")
        if idx is None:
            idx = {v: i for i, v in enumerate(self.elements)}
            object.__setattr__(self, "_index", idx)
        return idx

    def __len__(self) -> int:
        return len(self.elements)

    def contains_window(self, other: "Win") -> bool:
        return all(v in self.index for v in other.elements)


def int_window(lo: int, hi: int) -> Win:
    return Win(f"int:{lo}..{hi}", tuple(Fraction(n) for n in range(lo, hi + 1)))


def farey_window(n: int) -> Win:
    """0 first, then a/b in lowest terms ordered by (b, a), |a| <= n, b <= n."""
    elems = [Fraction(0)]
    for b in range(1, n + 1):
        for a in range(-n, n + 1):
            if a != 0 and gcd(abs(a), b) == 1:
                elems.append(Fraction(a, b))
    return Win(f"farey:{n}", tuple(elems))


def mgrid_window(primes: tuple[int, ...], bound: int) -> Win:
    """prod p_i^e_i with |e_i| <= bound, exponent vectors in lexicographic order."""
    elems = []
    for exps in product(range(-bound, bound + 1), repeat=len(primes)):
        v = Fraction(1)
        for p, e in zip(primes, exps):
            v *= Fraction(p) ** e
        elems.append(v)
    spec = f"mgrid:{','.join(map(str, primes))}:{bound}"
    return Win(spec, tuple(elems))


def window_from_spec(spec: str) -> Win:
    kind, _, rest = spec.partition(":")
    if kind == "int":
        lo, _, hi = rest.partition("..")
        return int_window(int(lo), int(hi))
    if kind == "farey":
        return farey_window(int(rest))
    if kind == "mgrid":
        primes, _, bound = rest.partition(":")
        return mgrid_window(tuple(int(p) for p in primes.split(",")), int(bound))
    raise ValueError(f"unknown window spec {spec!r}")


# ---------------------------------------------------------------------------
# Families


@dataclass(frozen=True)
class Fam:
    terms: tuple[tuple, ...]
    distinct: bool = False
    strict: bool = False

    @property
    def needs_nonzero_x(self) -> bool:
        return self.strict or any(t[0] == "pow" for t in self.terms)


def fam_from_json(terms, distinct: bool = False, strict: bool = False) -> Fam:
    """A Fam from term specs read back from JSON, where tuples became lists."""

    def tup(v):
        return tuple(tup(x) for x in v) if isinstance(v, list) else v

    return Fam(tup(terms), distinct, strict)


def _term_value(term: tuple, x: Fraction, y: Fraction) -> Fraction:
    kind = term[0]
    if kind == "x":
        return x
    if kind == "y":
        return y
    if kind == "pow":
        return x * y ** term[1]
    if kind == "aff":
        _, c1, coeffs, c2 = term
        u = Fraction(c2) * y
        total = Fraction(c1) * x
        power = Fraction(1)
        for a in coeffs:
            power *= u
            total += Fraction(a) * power
        return total
    if kind == "off":
        return x + Fraction(term[1])
    raise ValueError(f"unknown term {term!r}")


def instances(fam: Fam, win: Win):
    """Yield the index tuple of every instance of fam inside win."""
    index = win.index
    for x in win.elements:
        if x == 0 and fam.needs_nonzero_x:
            continue
        for y in win.elements:
            if y == 0:
                continue
            idxs = []
            for term in fam.terms:
                j = index.get(_term_value(term, x, y))
                if j is None:
                    break
                idxs.append(j)
            else:
                if fam.distinct and len(set(idxs)) != len(idxs):
                    continue
                yield tuple(idxs)


def monochromatic_instance(fam: Fam, win: Win, colors, r: int):
    """First instance all of one color, or None.  Checks the coloring's shape."""
    colors = list(colors)
    if len(colors) != len(win):
        raise OracleError(f"{len(colors)} colors for {win.spec} of size {len(win)}")
    if any(not isinstance(c, int) or not 0 <= c < r for c in colors):
        raise OracleError(f"coloring of {win.spec} uses a color outside 0..{r - 1}")
    for idxs in instances(fam, win):
        first = colors[idxs[0]]
        if all(colors[j] == first for j in idxs):
            return idxs
    return None


def check_avoiding(fam: Fam, win: Win, colors, r: int) -> None:
    hit = monochromatic_instance(fam, win, colors, r)
    if hit is not None:
        values = [str(win.elements[j]) for j in hit]
        raise OracleError(f"claimed avoiding coloring of {win.spec} is monochromatic on {values}")


# ---------------------------------------------------------------------------
# Refutation solver


def avoidance_clauses(fam: Fam, win: Win, r: int) -> tuple[int, list[list[int]]]:
    """CNF whose models are avoiding colorings; variable e*r + c + 1 is 'e has color c'.

    One at-least-one clause per element and, for each instance and color, a
    clause forbidding the whole instance in that color.  The first element
    that occurs in an instance is fixed to color 0, which loses no model up
    to a permutation of the colors.
    """
    sets = {frozenset(idxs) for idxs in instances(fam, win)}
    clauses = [[e * r + c + 1 for c in range(r)] for e in range(len(win))]
    for s in sorted(sets, key=lambda s: (len(s), sorted(s))):
        for c in range(r):
            clauses.append([-(e * r + c + 1) for e in sorted(s)])
    if sets:
        first = min(min(s) for s in sets)
        clauses.append([first * r + 1])
    return len(win) * r, clauses


class BudgetExceeded(OracleError):
    """The solver gave up, so the answer it was asked about stays unconfirmed."""


def dpll(num_vars: int, clauses: list[list[int]], choose, max_decisions: int | None = None):
    """Chronological-backtracking DPLL with two watched literals.

    ``choose(val)`` returns the next variable to try as true, or None when
    the assignment so far (unassigned variables read as false) satisfies
    every clause.  Returns the set of true variables, or None when the
    clauses are unsatisfiable.
    """
    val = [0] * (num_vars + 1)  # 1 true, -1 false, 0 unassigned
    watches: dict[int, list[list[int]]] = {}
    units: list[int] = []
    for cl in clauses:
        cl = list(dict.fromkeys(cl))
        if not cl:
            return None
        if len(cl) == 1:
            units.append(cl[0])
        else:
            watches.setdefault(cl[0], []).append(cl)
            watches.setdefault(cl[1], []).append(cl)
    trail: list[int] = []

    def lit_val(lit: int) -> int:
        v = val[abs(lit)]
        return v if lit > 0 else -v

    def enqueue(lit: int) -> bool:
        v = lit_val(lit)
        if v == -1:
            return False
        if v == 0:
            val[abs(lit)] = 1 if lit > 0 else -1
            trail.append(lit)
        return True

    def propagate(head: int) -> bool:
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            watching = watches.get(false_lit, [])
            keep = []
            conflict = False
            for k, cl in enumerate(watching):
                if conflict:
                    keep.append(cl)
                    continue
                if cl[0] == false_lit:
                    cl[0], cl[1] = cl[1], cl[0]
                if lit_val(cl[0]) == 1:
                    keep.append(cl)
                    continue
                for i in range(2, len(cl)):
                    if lit_val(cl[i]) != -1:
                        cl[1], cl[i] = cl[i], cl[1]
                        watches.setdefault(cl[1], []).append(cl)
                        break
                else:
                    keep.append(cl)
                    if not enqueue(cl[0]):
                        conflict = True
            watches[false_lit] = keep
            if conflict:
                return False
        return True

    for lit in units:
        if not enqueue(lit):
            return None
    if not propagate(0):
        return None

    decisions: list[tuple[int, int, bool]] = []  # (trail length, literal, flipped)
    count = 0
    while True:
        var = choose(val)
        if var is None:
            return {v for v in range(1, num_vars + 1) if val[v] == 1}
        count += 1
        if max_decisions is not None and count > max_decisions:
            raise BudgetExceeded(f"more than {max_decisions} decisions")
        mark = len(trail)
        decisions.append((mark, var, False))
        enqueue(var)
        ok = propagate(mark)
        while not ok:
            while decisions and decisions[-1][2]:
                decisions.pop()
            if not decisions:
                return None
            mark, lit, _ = decisions.pop()
            while len(trail) > mark:
                val[abs(trail.pop())] = 0
            decisions.append((mark, -lit, True))
            enqueue(-lit)
            ok = propagate(mark)


def solve_avoidance(fam: Fam, win: Win, r: int, max_decisions: int | None = None):
    """An avoiding coloring as a color list, or None when none exists."""
    num_vars, clauses = avoidance_clauses(fam, win, r)
    degree = [0] * len(win)
    for cl in clauses:
        if len(cl) > 1 and cl[0] < 0:
            for lit in cl:
                degree[(-lit - 1) // r] += 1
    order = sorted(range(len(win)), key=lambda e: (-degree[e], e))

    def choose(val):
        # First element without a true color, in most-constrained order.
        for e in order:
            cols = val[e * r + 1 : e * r + r + 1]
            if 1 not in cols:
                return e * r + cols.index(0) + 1
        return None

    model = dpll(num_vars, clauses, choose, max_decisions)
    if model is None:
        return None
    colors = [next(c for c in range(r) if e * r + c + 1 in model) for e in range(len(win))]
    check_avoiding(fam, win, colors, r)
    return colors


# ---------------------------------------------------------------------------
# Linear equations


def equation_family(coeffs: tuple[Fraction, Fraction, Fraction]) -> Fam:
    """Monochromatic solutions of a1*x1 + a2*x2 + a3*x3 = 0 with x1=x, x2=y."""
    a1, a2, a3 = (Fraction(c) for c in coeffs)
    return Fam((("x",), ("y",), ("aff", -a1 / a3, (-a2 / a3,), 1)))


def single_equation_regular(coeffs) -> bool:
    """Rado: a single equation is partition regular iff some nonempty subset of
    its nonzero coefficients sums to zero."""
    nz = [Fraction(c) for c in coeffs if c != 0]
    return any(
        sum(c for i, c in enumerate(nz) if mask >> i & 1) == 0
        for mask in range(1, 1 << len(nz))
    )
