"""Finite analogues of largeness notions for subsets of a window.

Everything here works relative to a window and a finite shape F in one of
two group modes: '+' (rationals under addition) and '*' (nonzero rationals
under multiplication).

* thick: some translate F o x sits inside A;
* syndetic: finitely many translates of A cover a designated core;
* piecewise syndetic: some small F makes F o A thick;
* IP_r: r generators whose nonempty finite sums (or products) stay in A.

Polynomial mappings send finite subsets of an index set into the group: a
monomial of degree d contributes the combination of its table values over
all d-tuples of the argument, and the empty argument always evaluates to the
group identity.

localize_colors searches, for a coloring of a multiplicative grid, a finite
translate set F and color index sets Y_1..Y_M such that every color union
over an Y_l is shape-thick and every core element is F-covered by all
classes of some Y_l simultaneously.  Reports are re-verified from scratch
before they are returned; a failed verification yields None, never an
unverified report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Mapping, Sequence

from .colorings import Coloring
from .windows import MultiplicativeGrid, Window

MODE_ADD = "+"
MODE_MUL = "*"

FS_CAP = 24

# localize_colors tries every translate set up to this size; a larger set is
# the first size - 1 grid elements plus one later element.
LOCALIZE_EXHAUSTIVE = 3


class LargeSetError(ValueError):
    pass


class CoreNotInteriorError(LargeSetError):
    pass


def _check_mode(mode: str) -> None:
    if mode not in (MODE_ADD, MODE_MUL):
        raise LargeSetError(f"mode must be '+' or '*', got {mode!r}")


def group_identity(mode: str) -> Fraction:
    _check_mode(mode)
    return Fraction(0) if mode == MODE_ADD else Fraction(1)


def group_op(mode: str, a: Fraction, b: Fraction) -> Fraction:
    return a + b if mode == MODE_ADD else a * b


def group_untranslate(mode: str, a: Fraction, b: Fraction) -> Fraction:
    """b^{-1} o a: the element whose b-translate is a."""
    return a - b if mode == MODE_ADD else a / b


@dataclass(frozen=True)
class ShapeF:
    """A finite translation shape; elements are stored sorted."""

    elements: tuple[Fraction, ...]
    mode: str = MODE_ADD

    def __post_init__(self) -> None:
        _check_mode(self.mode)
        elems = tuple(sorted({Fraction(e) for e in self.elements}))
        if not elems:
            raise LargeSetError("shape must be nonempty")
        if self.mode == MODE_MUL and Fraction(0) in elems:
            raise LargeSetError("multiplicative shape cannot contain zero")
        object.__setattr__(self, "elements", elems)

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class IpSetSpec:
    """Generators for an IP_r structure; order is kept, repeats allowed."""

    generators: tuple[Fraction, ...]
    mode: str = MODE_ADD

    def __post_init__(self) -> None:
        _check_mode(self.mode)
        gens = tuple(Fraction(g) for g in self.generators)
        if not gens:
            raise LargeSetError("need at least one generator")
        if len(gens) > FS_CAP:
            raise LargeSetError(f"{len(gens)} generators exceed the cap {FS_CAP}")
        if self.mode == MODE_MUL and Fraction(0) in gens:
            raise LargeSetError("multiplicative generators cannot include zero")
        object.__setattr__(self, "generators", gens)


def finite_sums(spec: IpSetSpec) -> frozenset[Fraction]:
    """All nonempty-subset combinations of the generators; duplicates collapse."""
    sums: set[Fraction] = set()
    for g in spec.generators:
        sums |= {g} | {group_op(spec.mode, s, g) for s in sums}
    return frozenset(sums)


def _window_iter(window: Window, mode: str) -> Iterable[Fraction]:
    for v in window.elements():
        if mode == MODE_MUL and v == 0:
            continue
        yield v


def is_thick_for(A: Iterable[Fraction], window: Window, shape: ShapeF) -> Fraction | None:
    """First x in window order with every shape translate of x inside A."""
    aset = _subset_of_window(A, window)
    for x in _window_iter(window, shape.mode):
        if all(group_op(shape.mode, f, x) in aset for f in shape.elements):
            return x
    return None


def interior(window: Window, shape: ShapeF) -> tuple[Fraction, ...]:
    """Window elements, in window order, whose pre-translates under every
    shape element lie in the window."""
    return tuple(
        x
        for x in _window_iter(window, shape.mode)
        if all(window.contains(group_untranslate(shape.mode, x, f)) for f in shape.elements)
    )


def is_syndetic_for(
    A: Iterable[Fraction],
    window: Window,
    shape: ShapeF,
    core: Sequence[Fraction],
) -> tuple[bool, tuple[Fraction, ...]]:
    """Does F o A cover the core?  Returns the verdict and the uncovered part.

    The core must be interior to the window under F: for every core element
    x and shape element f, the pre-translate f^{-1} o x has to lie in the
    window, otherwise window truncation would fake failures.
    """
    aset = _subset_of_window(A, window)
    core = tuple(Fraction(x) for x in core)
    for x in core:
        for f in shape.elements:
            if not window.contains(group_untranslate(shape.mode, x, f)):
                raise CoreNotInteriorError(
                    f"core element {x} has pre-translate under {f} outside the window"
                )
    uncovered = tuple(
        x
        for x in core
        if not any(
            group_untranslate(shape.mode, x, f) in aset for f in shape.elements
        )
    )
    return (not uncovered, uncovered)


def piecewise_syndetic_witness(
    A: Iterable[Fraction],
    window: Window,
    max_f: int,
    thick_shape: ShapeF,
    pool: Sequence[Fraction] | None = None,
) -> ShapeF | None:
    """Smallest translate set F (from the pool, sizes ascending, lexicographic)
    such that F o A is thick for ``thick_shape``; None if no F of size at
    most max_f works.

    The default pool is the group identity followed by the window elements.
    A caller chasing translates that leave the window (union-splitting
    arguments need F composed with shape quotients) passes its own pool.
    """
    if max_f < 1:
        raise LargeSetError("max_f must be at least 1")
    mode = thick_shape.mode
    aset = _subset_of_window(A, window)
    if pool is None:
        pool_list = [group_identity(mode)]
        pool_list += [v for v in _window_iter(window, mode) if v != pool_list[0]]
    else:
        pool_list = []
        for v in pool:
            v = Fraction(v)
            if mode == MODE_MUL and v == 0:
                continue
            if v not in pool_list:
                pool_list.append(v)
    translate: dict[Fraction, frozenset[Fraction]] = {}
    for f in pool_list:
        translate[f] = frozenset(group_op(mode, f, a) for a in aset)
    for size in range(1, max_f + 1):
        for fs in combinations(pool_list, size):
            union: set[Fraction] = set()
            for f in fs:
                union |= translate[f]
            for x in _window_iter(window, mode):
                if all(group_op(mode, t, x) in union for t in thick_shape.elements):
                    return ShapeF(fs, mode)
    return None


def find_ip_r(
    A: Iterable[Fraction], r: int, mode: str = MODE_ADD
) -> tuple[Fraction, ...] | None:
    """Generators (nondecreasing, repeats allowed) of an IP_r inside A.

    The search is exhaustive over nondecreasing generator tuples, which
    covers every IP_r since finite sums (or products) do not depend on the
    order of the generators.  None means A has no IP_r.  The answer is
    deterministic, but the search may take long on large sets.
    """
    _check_mode(mode)
    if r < 1:
        raise LargeSetError("r must be at least 1")
    if r > FS_CAP:
        raise LargeSetError(f"r={r} exceeds the cap {FS_CAP}")
    aset = {Fraction(v) for v in A}
    if mode == MODE_MUL:
        aset.discard(Fraction(0))
    return _ip_dfs(sorted(aset), aset, r, mode, 0, (), set())


def _ip_dfs(
    elems: list[Fraction],
    aset: set[Fraction],
    r: int,
    mode: str,
    start: int,
    chosen: tuple[Fraction, ...],
    sums: set[Fraction],
) -> tuple[Fraction, ...] | None:
    if len(chosen) == r:
        return chosen
    for i in range(start, len(elems)):
        g = elems[i]
        new = {g} | {group_op(mode, s, g) for s in sums}
        if all(v in aset for v in new):
            found = _ip_dfs(elems, aset, r, mode, i, chosen + (g,), sums | new)
            if found is not None:
                return found
    return None


def _subset_of_window(A: Iterable[Fraction], window: Window) -> frozenset[Fraction]:
    aset = frozenset(Fraction(v) for v in A)
    bad = next((v for v in aset if not window.contains(v)), None)
    if bad is not None:
        raise LargeSetError(f"set element {bad} lies outside the window")
    return aset


# ---------------------------------------------------------------------------
# Polynomial mappings


@dataclass(frozen=True)
class Monomial:
    """Degree-d table piece: combines its values over all d-tuples of the input."""

    degree: int
    values: Mapping[tuple[Fraction, ...], Fraction]

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise LargeSetError("monomial degree must be nonnegative")
        vals = {
            tuple(Fraction(x) for x in key): Fraction(v)
            for key, v in dict(self.values).items()
        }
        object.__setattr__(self, "values", vals)

    def __hash__(self) -> int:
        return hash((self.degree, tuple(sorted(self.values.items()))))


@dataclass(frozen=True)
class PolynomialMapping:
    index_set: tuple[Fraction, ...]
    monomials: tuple[Monomial, ...]
    mode: str = MODE_ADD

    def __post_init__(self) -> None:
        _check_mode(self.mode)
        idx = tuple(sorted({Fraction(s) for s in self.index_set}))
        object.__setattr__(self, "index_set", idx)
        for mono in self.monomials:
            for key in product(idx, repeat=mono.degree):
                if key not in mono.values:
                    raise LargeSetError(
                        f"monomial table of degree {mono.degree} missing entry {key}"
                    )
            if self.mode == MODE_MUL and any(v == 0 for v in mono.values.values()):
                raise LargeSetError("multiplicative table values cannot be zero")
        if evaluate_mapping(self, ()) != group_identity(self.mode):
            raise LargeSetError("mapping must send the empty set to the identity")


def evaluate_mapping(pm: PolynomialMapping, subset: Iterable[Fraction]) -> Fraction:
    """Value at a finite subset of the index set; the empty set gives the identity."""
    alpha = sorted({Fraction(s) for s in subset})
    stray = next((s for s in alpha if s not in pm.index_set), None)
    if stray is not None:
        raise LargeSetError(f"{stray} is not in the mapping's index set")
    acc = group_identity(pm.mode)
    for mono in pm.monomials:
        for key in product(alpha, repeat=mono.degree):
            acc = group_op(pm.mode, acc, mono.values[key])
    return acc


# ---------------------------------------------------------------------------
# Color localization on multiplicative grids


@dataclass(frozen=True)
class LocalizationReport:
    color_sets: tuple[tuple[int, ...], ...]
    translates: ShapeF
    core: tuple[Fraction, ...]
    thickness_witnesses: tuple[Fraction, ...]
    coverage: tuple[tuple[Fraction, tuple[int, ...]], ...]


def localize_colors(
    coloring: Coloring,
    thick_shape: ShapeF,
    max_f: int,
) -> LocalizationReport | None:
    """Find translates F and color index sets satisfying both localization legs.

    (a) for every reported Y_l, the union of the classes with colors in Y_l
        is thick for ``thick_shape``;
    (b) every core element x (core: all pre-translates under F stay on the
        grid) has some Y_l with x in F o C_m for every color m in Y_l.

    The search is exhaustive over translate sets up to min(max_f,
    LOCALIZE_EXHAUSTIVE) drawn from the grid.  Each larger size up to max_f
    tries only the first size - 1 grid elements plus one later element.
    Whatever is found is re-verified from scratch; on any verification
    failure the answer is None.
    """
    window = coloring.window
    if not isinstance(window, MultiplicativeGrid):
        raise LargeSetError("localization runs on multiplicative grid windows")
    if thick_shape.mode != MODE_MUL:
        raise LargeSetError("localization uses a multiplicative thickness shape")
    if max_f < 1:
        raise LargeSetError("max_f must be at least 1")

    elems = window.elements()
    r = coloring.r
    classes = [set() for _ in range(r)]
    for v, c in zip(elems, coloring.colors):
        classes[c].add(v)

    # Color subsets whose class union is thick, kept minimal: thickness is
    # monotone in the union, so any superset of a thick set is redundant.
    thick: list[tuple[tuple[int, ...], Fraction]] = []
    subsets = sorted(
        (s for k in range(1, r + 1) for s in combinations(range(r), k)),
        key=lambda s: (len(s), s),
    )
    for sub in subsets:
        if any(set(t[0]) <= set(sub) for t in thick):
            continue
        union = set().union(*(classes[m] for m in sub))
        witness = is_thick_for(union, window, thick_shape)
        if witness is not None:
            thick.append((sub, witness))
    if not thick:
        return None

    color_of = {v: c for v, c in zip(elems, coloring.colors)}

    def attempt(fs: tuple[Fraction, ...]) -> LocalizationReport | None:
        translates = ShapeF(fs, MODE_MUL)
        core = interior(window, translates)
        if not core:
            return None
        coverage = []
        for x in core:
            reachable = {color_of[x / f] for f in fs}
            ls = tuple(
                l for l, (sub, _) in enumerate(thick) if set(sub) <= reachable
            )
            if not ls:
                return None
            coverage.append((x, ls))
        report = LocalizationReport(
            color_sets=tuple(sub for sub, _ in thick),
            translates=translates,
            core=core,
            thickness_witnesses=tuple(w for _, w in thick),
            coverage=tuple(coverage),
        )
        return report if _verify_localization(report, coloring, thick_shape) else None

    for size in range(1, min(max_f, LOCALIZE_EXHAUSTIVE) + 1):
        for fs in combinations(elems, size):
            report = attempt(fs)
            if report is not None:
                return report
    for size in range(LOCALIZE_EXHAUSTIVE + 1, max_f + 1):
        for f in elems[size - 1 :]:
            report = attempt(elems[: size - 1] + (f,))
            if report is not None:
                return report
    return None


def _verify_localization(
    report: LocalizationReport, coloring: Coloring, thick_shape: ShapeF
) -> bool:
    """Recheck both legs directly against the coloring."""
    window = coloring.window
    elems = window.elements()
    classes = [set() for _ in range(coloring.r)]
    for v, c in zip(elems, coloring.colors):
        classes[c].add(v)
    for sub in report.color_sets:
        union = set().union(*(classes[m] for m in sub))
        if is_thick_for(union, window, thick_shape) is None:
            return False
    fs = report.translates.elements
    for x in report.core:
        ok = False
        for sub in report.color_sets:
            if all(any(x / f in classes[m] for f in fs) for m in sub):
                ok = True
                break
        if not ok:
            return False
    return True
