"""A deliberately naive brute-force oracle for candidate tables and avoidance.

Nothing here imports qramsey.  A family is read only through its declared
data: its terms, each term's exact Fraction ``value`` and ``uses_y``, and
its two flags.  Window elements are matched to positions by a plain dict,
and every r-coloring is tried, with no symmetry rule: exponential, fine at
the sizes the tests use.
"""

from __future__ import annotations

from itertools import product


def entries(family, window):
    """(x index, y index, value indices) of every valid instance.

    Pairs come x-major, each in window order.  y is nonzero, and so is x
    when the family is strict or has a power term (the only term with an
    exponent).  A family that does not use y takes only the first nonzero y.
    With distinct values required, instances with a repeated value are
    dropped.
    """
    elems = window.elements()
    index = {v: i for i, v in enumerate(elems)}
    nonzero_x = family.strict_nonzero_x or any(hasattr(t, "exponent") for t in family.terms)
    ys = [(i, y) for i, y in enumerate(elems) if y != 0]
    if not any(t.uses_y for t in family.terms):
        ys = ys[:1]
    out = []
    for xi, x in enumerate(elems):
        if nonzero_x and x == 0:
            continue
        for yi, y in ys:
            idxs = tuple(index.get(t.value(x, y)) for t in family.terms)
            if None in idxs:
                continue
            if family.require_distinct_values and len(set(idxs)) != len(idxs):
                continue
            out.append((xi, yi, idxs))
    return out


def instances(family, window):
    """The value indices of every valid instance, as ``entries`` lists them."""
    return [idxs for _, _, idxs in entries(family, window)]


def monochromatic(instances, colors):
    """The instances that ``colors`` paints in one color."""
    return [inst for inst in instances if len({colors[i] for i in inst}) == 1]


def avoidable(family, window, r):
    """Whether some r-coloring of the window paints no instance in one color."""
    groups = {frozenset(inst) for inst in instances(family, window)}
    return any(
        all(len({colors[i] for i in g}) > 1 for g in groups)
        for colors in product(range(r), repeat=len(window.elements()))
    )
