"""Acceptance gate: one test per criterion, each run at its stated tolerance.

Every test times itself and fails when it exceeds the budget for the
criterion it covers.  Expected values come from the brute-force oracle in
``_brute`` or from the classical threshold anchors reproduced by the
package's own exhaustive search.
"""

import io
import json
import random
import time
from fractions import Fraction

from qramsey.cli import main as cli_main
from qramsey.cnf import export_cnf, import_assignment
from qramsey.colorings import Coloring
from qramsey.detector import build_candidates, find_witness
from qramsey.patterns import builtin_family, parse_family
from qramsey.rado import LinearSystem, columns_condition, cross_validate, system_to_family
from qramsey.search import AVOIDING, EXHAUSTED, search_avoiding, threshold_sweep
from qramsey.certificates import (
    certificate_for_result,
    load_certificate,
    verify_certificate,
    write_certificate,
)
from qramsey.windows import parse_window

import _brute
from _dpll import model_literals, solve
from _stock import STOCK_KEYS

F = Fraction


def _run_cli(argv):
    buf = io.StringIO()
    code = cli_main(argv, out=buf)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------


def test_criterion_01_schur_threshold_anchor():
    family = builtin_family("schur")
    t0 = time.perf_counter()
    res4 = search_avoiding(family, parse_window("int:1..4"), 2)
    res5 = search_avoiding(family, parse_window("int:1..5"), 2)
    small = time.perf_counter() - t0
    assert res4.outcome == AVOIDING
    assert find_witness(family, res4.coloring) is None
    assert res5.outcome == EXHAUSTED
    assert not _brute.avoidable(family, parse_window("int:1..5"), 2)
    assert _brute.avoidable(family, parse_window("int:1..4"), 2)
    assert small < 1.0, f"two-color anchor took {small:.3f}s"

    t0 = time.perf_counter()
    res13 = search_avoiding(family, parse_window("int:1..13"), 3)
    res14 = search_avoiding(family, parse_window("int:1..14"), 3)
    big = time.perf_counter() - t0
    assert res13.outcome == AVOIDING
    assert find_witness(family, res13.coloring) is None
    assert res14.outcome == EXHAUSTED
    assert big < 60.0, f"three-color anchor took {big:.3f}s"
    print(f"criterion 1: thresholds 4/5 and 13/14 in {small:.3f}s + {big:.3f}s")


def test_criterion_02_progression_threshold_anchor():
    family = builtin_family("vdw(2)")
    t0 = time.perf_counter()
    res8 = search_avoiding(family, parse_window("int:1..8"), 2)
    res9 = search_avoiding(family, parse_window("int:1..9"), 2)
    elapsed = time.perf_counter() - t0
    assert res8.outcome == AVOIDING
    assert find_witness(family, res8.coloring) is None
    assert res9.outcome == EXHAUSTED
    assert not _brute.avoidable(family, parse_window("int:1..9"), 2)
    assert _brute.avoidable(family, parse_window("int:1..8"), 2)
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"criterion 2: threshold 8/9 in {elapsed:.3f}s")


def test_criterion_03_offset_family_stays_avoidable():
    family = parse_family("x; x + 3", allow_offsets=True)
    t0 = time.perf_counter()
    window = parse_window("int:1..10000")
    colors = [((v - 1) // 3) % 2 for v in range(1, 10_001)]
    coloring = Coloring(window, colors, 2)
    assert find_witness(family, coloring) is None
    for n in range(1, 101):
        res = search_avoiding(family, parse_window(f"int:1..{n}"), 2)
        assert res.outcome == AVOIDING, f"unexpected outcome at n={n}"
        assert find_witness(family, res.coloring) is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.3f}s"
    print(f"criterion 3: no witness at 10^4, avoidable through n=100, {elapsed:.3f}s")


def test_criterion_04_columns_condition_consistency():
    t0 = time.perf_counter()
    regular = columns_condition(LinearSystem((1, 1, -1)))
    assert regular.holds is True
    report = cross_validate(LinearSystem((1, 1, -1)), r=2, n_max=6)
    exhausted = [row.n for row in report.rows if row.outcome == EXHAUSTED]
    assert exhausted and exhausted[0] == 5  # same threshold as criterion 1

    non_regular = columns_condition(LinearSystem((1, 1, -3)))
    assert non_regular.holds is False
    family, _ = system_to_family(LinearSystem((1, 1, -3)))
    res = search_avoiding(family, parse_window("int:1..30"), 4)
    assert res.outcome == AVOIDING
    assert find_witness(family, res.coloring) is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.3f}s"
    print(f"criterion 4: verdicts consistent, 4-coloring found at n=30, {elapsed:.3f}s")


def test_criterion_05_cnf_matches_native_search():
    windows = [
        parse_window("int:1..6"),
        parse_window("int:1..10"),
        parse_window("int:1..16"),
        parse_window("farey:2"),
        parse_window("mgrid:2,3:1"),
    ]
    t0 = time.perf_counter()
    checked = sat_count = 0
    for key in sorted(STOCK_KEYS):
        family = builtin_family(key)
        for window in windows:
            assert window.size() <= 16
            table = build_candidates(family, window)
            cnf = export_cnf(family, window, 2, table=table)
            model = solve(cnf.num_vars, cnf.clauses)
            native = search_avoiding(family, window, 2, table=table)
            assert (model is not None) == (native.outcome == AVOIDING), (
                key,
                window.spec_string(),
            )
            if model is not None:
                sat_count += 1
                coloring = import_assignment(window, 2, model_literals(model))
                assert find_witness(family, coloring, table) is None
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 35
    assert elapsed < 60.0, f"took {elapsed:.3f}s"
    print(f"criterion 5: {checked} instances agree ({sat_count} sat), {elapsed:.3f}s")


def test_criterion_06_detector_agrees_with_oracle():
    setups = {
        "schur": parse_window("int:1..40"),
        "vdw(2)": parse_window("int:1..40"),
        "moreira(1)": parse_window("int:1..24"),
        "bowen-sabok(1)": parse_window("mgrid:2,3:1"),
        "question-hs": parse_window("mgrid:2,3:1"),
        "quotient-poly(1,[t])": parse_window("farey:3"),
        "product-poly(1,[t])": parse_window("farey:3"),
    }
    assert set(setups) == set(STOCK_KEYS)
    t0 = time.perf_counter()
    for key, window in setups.items():
        assert window.size() <= 40
        family = builtin_family(key)
        table = build_candidates(family, window)
        instances = _brute.instances(family, window)
        rng = random.Random(sum(map(ord, key)))
        n = window.size()
        for i in range(1000):
            r = 2 if i % 2 == 0 else 3
            coloring = Coloring(window, [rng.randrange(r) for _ in range(n)], r)
            witness = find_witness(family, coloring, table)
            oracle = _brute.monochromatic(instances, coloring.colors)
            assert (witness is not None) == bool(oracle), (key, i)
            if witness is not None:
                assert len({coloring.color_of(v) for v in witness.values}) == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.3f}s"
    print(f"criterion 6: 7000 colorings agree with the brute force, {elapsed:.3f}s")


def test_criterion_07_farey_sweep_with_certificates(tmp_path):
    t0 = time.perf_counter()
    minima = {}
    for key in ("quotient-poly(1,[t])", "product-poly(1,[t])"):
        family = builtin_family(key)
        cert_dir = tmp_path / key.replace("(", "_").replace(")", "").replace(",", "-")
        ns, exhausted = [], []
        for n, window, res in threshold_sweep(family, 2, "farey", 1, 8):
            ns.append(n)
            assert window == parse_window(f"farey:{n}")
            assert res.outcome in (AVOIDING, EXHAUSTED)
            if res.outcome == EXHAUSTED:
                exhausted.append(n)
            path = write_certificate(certificate_for_result(res), str(cert_dir), f"farey-{n}")
            cert = load_certificate(path)
            check = verify_certificate(cert, rerun=True)
            assert check.ok, f"{key} n={n}: {check.message}"
        assert ns == list(range(1, 9))
        minima[key] = exhausted[0] if exhausted else None

    quotient = builtin_family("quotient-poly(1,[t])")
    product = builtin_family("product-poly(1,[t])")
    rng = random.Random(1861)
    agree_affine_at_inverse = 0
    for _ in range(10_000):
        x = F(rng.randint(-15, 15), rng.randint(1, 15))
        y = F(0)
        while y == 0:
            y = F(rng.randint(-15, 15), rng.randint(1, 15))
        inv = 1 / y
        assert quotient.terms[0].value(x, y) == product.terms[0].value(x, inv) == x
        assert quotient.terms[1].value(x, y) == product.terms[1].value(x, inv)
        assert quotient.terms[2].value(x, y) == product.terms[2].value(x, y)
        affine_matches = quotient.terms[2].value(x, y) == product.terms[2].value(x, inv)
        assert affine_matches == (y * y == 1)
        if affine_matches:
            agree_affine_at_inverse += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"took {elapsed:.3f}s"
    print(f"criterion 7: sweeps verified, minima {minima}, {elapsed:.3f}s")


def test_criterion_10_reproducibility():
    anchors = [
        ["search", "schur", "int:1..4", "-r", "2"],
        ["search", "schur", "int:1..5", "-r", "2"],
        ["search", "vdw(2)", "int:1..8", "-r", "2"],
        ["search", "vdw(2)", "int:1..9", "-r", "2"],
    ]
    for argv in anchors:
        first = _run_cli(argv)
        second = _run_cli(argv)
        assert first == second, argv
        assert first[0] == 0
        json.loads(first[1])  # stdout is valid JSON

    cases = [
        (builtin_family("schur"), parse_window("int:1..4"), AVOIDING),
        (builtin_family("schur"), parse_window("int:1..5"), EXHAUSTED),
        (builtin_family("vdw(2)"), parse_window("int:1..8"), AVOIDING),
        (builtin_family("vdw(2)"), parse_window("int:1..9"), EXHAUSTED),
    ]
    for family, window, expected in cases:
        res = search_avoiding(family, window, 2)
        assert res.outcome == expected, window.spec_string()
    print("criterion 10: byte-identical JSON and expected outcomes")


def test_criterion_11_schur_number_four():
    # S(4) = 44 (Baumert, 1965): the first check of the value-symmetry rule
    # under smallest-domain branching with four colors.
    family = builtin_family("schur")
    t0 = time.perf_counter()
    res44 = search_avoiding(family, parse_window("int:1..44"), 4)
    res45 = search_avoiding(family, parse_window("int:1..45"), 4)
    elapsed = time.perf_counter() - t0
    assert res44.outcome == AVOIDING
    assert find_witness(family, res44.coloring) is None
    assert _brute.monochromatic(_brute.instances(family, res44.coloring.window),
                                res44.coloring.colors) == []
    assert res45.outcome == EXHAUSTED
    assert res45.nodes == 387670
    assert res45.proof_log_hash == (
        "e039413d3157009b06c719fc90981a0a08ab62e70cc0578cd924c8cf680faf77"
    )
    assert elapsed < 60.0, f"took {elapsed:.3f}s"
    print(f"criterion 11: S(4) = 44, {res45.nodes} nodes at 45, {elapsed:.3f}s")


def test_criterion_12_quotient_family_three_colors():
    # The paper's family {x, x/y, x + y} with distinct values: some 3-coloring
    # of farey:6 avoids it, none of farey:7 does.
    family = parse_family("quotient-poly(1,[t])", require_distinct_values=True)
    t0 = time.perf_counter()
    res6 = search_avoiding(family, parse_window("farey:6"), 3)
    res7 = search_avoiding(family, parse_window("farey:7"), 3)
    elapsed = time.perf_counter() - t0
    assert (res6.outcome, res6.nodes) == (AVOIDING, 817)
    assert find_witness(family, res6.coloring) is None
    assert _brute.monochromatic(_brute.instances(family, res6.coloring.window),
                                res6.coloring.colors) == []
    assert (res7.outcome, res7.nodes) == (EXHAUSTED, 1353)
    assert elapsed < 60.0, f"took {elapsed:.3f}s"
    print(f"criterion 12: farey:6 avoiding, farey:7 exhausted at r=3, {elapsed:.3f}s")
