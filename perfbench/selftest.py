"""Self-test of the oracle: it must reject known-bad answers and accept good ones.

Runs at the start of every benchmark run, and alone with

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from itertools import product

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
from workloads import SCHUR, WEAK_SCHUR, term_text  # noqa: E402


def _expect(cond: bool) -> None:
    if not cond:
        raise AssertionError("oracle self-test failed")


def _rejects(fam, win, colors, r) -> bool:
    try:
        oracle.check_avoiding(fam, win, colors, r)
    except oracle.OracleError:
        return True
    return False


def run() -> None:
    w4, w5 = oracle.int_window(1, 4), oracle.int_window(1, 5)
    # A monochromatic coloring and a coloring with 1 + 1 = 2 in one class.
    _expect(_rejects(SCHUR, w4, [0, 0, 0, 0], 2))
    _expect(_rejects(SCHUR, w4, [0, 0, 1, 1], 2))
    # Malformed answers: wrong length, color out of range.
    _expect(_rejects(SCHUR, w4, [0, 1, 1], 2))
    _expect(_rejects(SCHUR, w4, [0, 1, 2, 0], 2))
    # S(2) = 4: 1..4 avoids, every coloring of 1..5 is rejected.
    _expect(not _rejects(SCHUR, w4, [0, 1, 1, 0], 2))
    _expect(all(_rejects(SCHUR, w5, list(c), 2) for c in product(range(2), repeat=5)))
    _expect(oracle.solve_avoidance(SCHUR, w5, 2) is None)
    # The forged certificate's claim is false: Schur is avoidable on 1..4.
    _expect(oracle.solve_avoidance(SCHUR, w4, 2) is not None)
    # The weak Schur family ignores x = y, so 1..8 is 2-avoidable (WS(2) = 8).
    _expect(oracle.solve_avoidance(WEAK_SCHUR, oracle.int_window(1, 8), 2) is not None)
    _expect(oracle.solve_avoidance(WEAK_SCHUR, oracle.int_window(1, 9), 2) is None)
    # Canonical window orders, as the windows module documents them.
    _expect(oracle.farey_window(1).elements == (0, -1, 1))
    _expect(oracle.farey_window(2).elements == (0, -2, -1, 1, 2, Fraction(-1, 2), Fraction(1, 2)))
    _expect(oracle.mgrid_window((2,), 1).elements == (Fraction(1, 2), 1, 2))
    _expect(len(oracle.mgrid_window((2, 3), 6)) == 169)
    _expect(oracle.int_window(1, 44).contains_window(oracle.int_window(1, 5)))
    _expect(oracle.farey_window(10).contains_window(oracle.farey_window(5)))
    # Columns condition of a single equation.
    _expect(oracle.single_equation_regular((1, 1, -1)))
    _expect(not oracle.single_equation_regular((1, 1, -3)))
    # Term rendering matches the family grammar.
    _expect(term_text(("aff", Fraction(-1), (0, Fraction(1, 2)), Fraction(2))) == "-1*x + 1/2*(2*y)^2")
    _expect(term_text(("pow", -2)) == "x / y^2")
    _expect(term_text(("off", Fraction(-1, 2))) == "x - 1/2")


if __name__ == "__main__":
    run()
    print("oracle self-test ok")
