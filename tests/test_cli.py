"""End-to-end runs of the command line interface."""

import argparse
import ast
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time

import pytest

from qramsey import cli, commands, detector, search
from qramsey.cli import main, parse_args
from qramsey.cnf import export_cnf
from qramsey.patterns import builtin_family
from qramsey.windows import parse_window

from _dpll import model_literals, solve


def run_cli(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def run_json(argv):
    code, text = run_cli(argv)
    return code, json.loads(text)


class TestDetect:
    def test_witness_found(self):
        code, payload = run_json(
            ["detect", "schur", "int:1..4", "--colors", "[0,1,0,1]"]
        )
        assert code == 0
        assert payload["family"] == "x; y; x + t"
        assert payload["window"] == "int:1..4"
        w = payload["witness"]
        assert w is not None
        colors = [0, 1, 0, 1]
        for v in w["values"]:
            assert colors[int(v) - 1] == w["color"]

    def test_avoiding_coloring(self):
        code, payload = run_json(
            ["detect", "schur", "int:1..4", "--colors", "0 1 1 0"]
        )
        assert code == 0
        assert payload["witness"] is None
        assert payload["candidates"] > 0

    def test_color_list_spellings(self):
        argv = ["detect", "schur", "int:1..4", "--colors"]
        spellings = ["0 1 1 0", "[0, 1, 1, 0]", "[0,1,1,0]", " [ 0 ,1, 1 , 0 ] "]
        assert len({run_cli([*argv, colors]) for colors in spellings}) == 1

    def test_leading_zeros_in_a_color(self):
        zeros = "0" * 5000
        padded = run_cli(["detect", "schur", "int:1..4", "--colors", f"[0,1,1,{zeros}0]"])
        assert padded == run_cli(["detect", "schur", "int:1..4", "--colors", "[0,1,1,0]"])


class TestSearch:
    def test_exhausted(self):
        code, payload = run_json(["search", "schur", "int:1..5", "-r", "2"])
        assert code == 0
        assert payload["outcome"] == "exhausted"
        assert payload["coloring"] is None
        assert len(payload["proof_log_hash"]) == 64
        assert payload["nodes"] >= 1
        assert payload["budget"] == {"max_nodes": None}

    def test_avoiding_round_trips_through_detect(self):
        code, payload = run_json(["search", "schur", "int:1..4", "-r", "2"])
        assert code == 0
        assert payload["outcome"] == "avoiding"
        colors = ",".join(str(c) for c in payload["coloring"])
        code2, check = run_json(["detect", "schur", "int:1..4", "--colors", colors, "-r", "2"])
        assert code2 == 0
        assert check["witness"] is None

    def test_node_budget_stops_at_exactly_n_nodes(self, tmp_path):
        code, payload = run_json(
            ["search", "vdw(2)", "int:1..27", "-r", "3", "--nodes", "100",
             "--cert-dir", str(tmp_path)]
        )
        assert code == 0
        assert payload["outcome"] == "budget-exceeded"
        assert payload["nodes"] == 100
        assert payload["budget"] == {"max_nodes": 100}
        assert list(tmp_path.iterdir()) == []

    def test_byte_identical_repeat(self):
        argv = ["search", "vdw(2)", "int:1..8", "-r", "2"]
        assert run_cli(argv) == run_cli(argv)

    def test_catalog_key_takes_distinct(self, tmp_path):
        code, payload = run_json(
            ["search", "quotient-poly(1,[t])", "farey:3", "-r", "2", "--distinct",
             "--cert-dir", str(tmp_path), "--cert-stem", "qd"]
        )
        code2, written_out = run_json(
            ["search", "x; x / y^1; x + t", "farey:3", "-r", "2", "--distinct"]
        )
        assert code == code2 == 0
        assert payload["nodes"] == written_out["nodes"] == 14
        cert = json.loads((tmp_path / "qd.upper-bound.json").read_text())
        assert cert["family_flags"]["require_distinct_values"] is True

    def test_catalog_key_takes_strict_x(self):
        code, payload = run_json(["search", "schur", "int:-3..6", "-r", "2", "--strict-x"])
        assert code == 0
        assert payload["nodes"] == 4

    @pytest.mark.parametrize("key", ["moreira(2,[t])", "quotient-poly(0)"])
    def test_bad_catalog_key_reports_reason(self, key, capsys):
        code, text = run_cli(["search", key, "int:1..5", "-r", "2"])
        assert code == 2
        assert text == ""
        assert f"error: bad catalog key '{key}': " in capsys.readouterr().err

    def test_bad_catalog_key_line_is_exact(self, capsys):
        assert run_cli(["search", "moreira(2,[t])", "int:1..5", "-r", "2"]) == (2, "")
        assert capsys.readouterr().err == (
            "error: bad catalog key 'moreira(2,[t])': moreira got k=2 but 1 polynomials\n"
        )

    def test_unclosed_key_list_line_is_exact(self, capsys):
        assert run_cli(["search", "moreira(2,[t)", "int:1..5", "-r", "2"]) == (2, "")
        assert capsys.readouterr().err == (
            "error: bad catalog key 'moreira(2,[t)': arguments must read n or n,[p;...]\n"
        )

    def test_keyerror_from_a_fault_propagates(self, monkeypatch):
        # only rejected input exits 2; a KeyError is a fault in the program
        def fault(spec):
            raise KeyError("fault")

        monkeypatch.setattr(commands, "parse_window", fault)
        with pytest.raises(KeyError, match="fault"):
            run_cli(["search", "schur", "int:1..5", "-r", "2"])

    def test_deeper_than_the_default_recursion_limit(self, tmp_path):
        # 3000 colored elements, each a frame on the search's own stack; the
        # interpreter's recursion limit stays as it is
        limit = sys.getrecursionlimit()
        code, payload = run_json(
            ["search", "x; x + 1", "int:1..3000", "-r", "2", "--allow-offsets",
             "--cert-dir", str(tmp_path), "--cert-stem", "deep"]
        )
        assert sys.getrecursionlimit() == limit
        assert (code, payload["outcome"]) == (0, "avoiding")
        code, check = run_json(["verify", str(tmp_path / "deep.lower-bound.json")])
        assert (code, check["ok"]) == (0, True)


# Each runs without bound if its exponent or catalog argument is read as given.
UNBOUNDED = [
    ("x; x * y^1000", "farey:30"),
    ("x; x * y^10000", "farey:10"),
    ("x; x * y^100000000", "int:1..5"),
    ("x; x + t^1000000", "int:1..5"),
    ("vdw(100000)", "int:1..5"),
    ("vdw(100000000)", "int:1..5"),
    ("moreira(100000000)", "int:1..5"),
    ("quotient-poly(100000000)", "int:1..5"),
    ("quotient-poly(1,[t^1000000])", "int:1..5"),
]


class TestUnboundedInputs:
    """An exponent or catalog argument above the cap 64 exits 2 at once,
    under every command that reads a family."""

    @pytest.mark.parametrize("family, window", UNBOUNDED)
    @pytest.mark.parametrize("command", ["search", "detect", "export-cnf", "verify"])
    def test_refused_within_a_second(self, tmp_path, capsys, command, family, window):
        if command == "verify":
            cert = {"format_version": 1, "kind": "lower-bound", "family": family,
                    "window": window, "r": 2, "coloring": [0] * parse_window(window).size()}
            path = tmp_path / "cert.json"
            path.write_text(json.dumps(cert))
            argv = ["verify", str(path)]
        else:
            argv = [command, family, window,
                    *(["--colors", "[0,1,0,1,0]"] if command == "detect" else ["-r", "2"])]
        started = time.perf_counter()
        code, text = run_cli(argv)
        assert time.perf_counter() - started < 1.0
        assert (code, text) == (2, "")
        assert "above the cap 64" in capsys.readouterr().err


def _exhaustion(**fields):
    """An edit of an upper bound that changes fields of its exhaustion record."""
    return lambda cert: {**cert, "exhaustion": {**cert["exhaustion"], **fields}}


# Certificates written before a scaled atom (c*y) was read as the polynomial
# in t it denotes: their family text keeps the atom.
SCALED_ATOM_CERTIFICATES = [
    {"coloring": [1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0], "family": "x; x + (1/2*y); x + (-1*y)",
     "family_flags": {"allow_offsets": False, "require_distinct_values": False,
                      "strict_nonzero_x": False},
     "format_version": 1, "kind": "lower-bound", "r": 2, "tool_version": "0.1.0",
     "window": "int:1..12"},
    {"exhaustion": {"nodes": 24, "proof_log_hash":
                    "f95a8e904b0ae0738898b80b865311fe069290449e2e1a05567ec3ec1f3cb805"},
     "family": "x; x + (1/2*y); x + (-1*y)",
     "family_flags": {"allow_offsets": False, "require_distinct_values": False,
                      "strict_nonzero_x": False},
     "format_version": 3, "kind": "upper-bound", "r": 2, "tool_version": "0.1.0",
     "window": "int:1..16"},
]


class TestCertificates:
    def test_upper_bound_verifies(self, tmp_path):
        code, _ = run_json(
            ["search", "schur", "int:1..5", "-r", "2",
             "--cert-dir", str(tmp_path), "--cert-stem", "s5"]
        )
        assert code == 0
        path = tmp_path / "s5.upper-bound.json"
        assert path.exists()
        code, payload = run_json(["verify", str(path)])
        assert code == 3
        assert payload["ok"] is False
        assert "not re-run" in payload["message"]
        code, payload = run_json(["verify", str(path), "--rerun"])
        assert code == 0
        assert payload["ok"] is True
        assert "matching trace hash" in payload["message"]

    @pytest.mark.parametrize("cert", SCALED_ATOM_CERTIFICATES, ids=["lower", "upper"])
    def test_scaled_atom_certificate_still_verifies(self, tmp_path, cert):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(cert))
        code, payload = run_json(["verify", str(path), "--rerun"])
        assert (code, payload["ok"]) == (0, True)
        # a fresh search writes the same certificate, its family text in t
        code, _ = run_cli(["search", cert["family"], cert["window"], "-r", "2",
                           "--cert-dir", str(tmp_path), "--cert-stem", "new"])
        assert code == 0
        fresh = json.loads((tmp_path / f"new.{cert['kind']}.json").read_text())
        assert fresh == {**cert, "family": "x; x + 1/2*t; x - t"}

    def test_lower_bound_verifies(self, tmp_path):
        run_json(
            ["search", "schur", "int:1..4", "-r", "2",
             "--cert-dir", str(tmp_path), "--cert-stem", "s4"]
        )
        path = tmp_path / "s4.lower-bound.json"
        code, payload = run_json(["verify", str(path)])
        assert code == 0
        assert payload["ok"] is True

    def test_corrupted_coloring_fails_verification(self, tmp_path):
        run_json(
            ["search", "schur", "int:1..4", "-r", "2",
             "--cert-dir", str(tmp_path), "--cert-stem", "s4"]
        )
        path = tmp_path / "s4.lower-bound.json"
        cert = json.loads(path.read_text())
        cert["coloring"] = [0, 0, 0, 0]
        path.write_text(json.dumps(cert))
        code, payload = run_json(["verify", str(path)])
        assert code == 1
        assert payload["ok"] is False
        assert payload["witness"] is not None

    def test_tampered_trace_hash_fails_rerun(self, tmp_path):
        run_json(
            ["search", "schur", "int:1..5", "-r", "2",
             "--cert-dir", str(tmp_path), "--cert-stem", "s5"]
        )
        path = tmp_path / "s5.upper-bound.json"
        cert = json.loads(path.read_text())
        cert["exhaustion"]["proof_log_hash"] = "0" * 64
        path.write_text(json.dumps(cert))
        code, payload = run_json(["verify", str(path)])
        assert code == 3  # without a re-run the hash is not tested
        code, payload = run_json(["verify", str(path), "--rerun"])
        assert code == 1
        assert "differs" in payload["message"]


    def test_forged_upper_bound_is_not_checked(self, tmp_path):
        # A false claim: [0, 1, 1, 0] colors int:1..4 without a Schur triple.
        run_json(
            ["search", "schur", "int:1..5", "-r", "2",
             "--cert-dir", str(tmp_path), "--cert-stem", "s5"]
        )
        path = tmp_path / "s5.upper-bound.json"
        cert = json.loads(path.read_text())
        cert.update({"family": "x; y; x + t", "window": "int:1..4", "r": 2})
        path.write_text(json.dumps(cert))
        code, payload = run_json(["verify", str(path)])
        assert code == 3
        assert payload["ok"] is False
        assert "not re-run" in payload["message"]
        code, payload = run_json(["verify", str(path), "--rerun"])
        assert code == 1
        assert payload["message"] == "re-run outcome was avoiding"

    @staticmethod
    def _assert_old_upper_bound_rejected(tmp_path, capsys, version, **exhaustion):
        run_json(
            ["search", "schur", "int:1..5", "-r", "2",
             "--cert-dir", str(tmp_path), "--cert-stem", "s5"]
        )
        path = tmp_path / "s5.upper-bound.json"
        cert = json.loads(path.read_text())
        cert["format_version"] = version
        cert["exhaustion"].update(exhaustion)
        path.write_text(json.dumps(cert))
        for extra in ([], ["--rerun"]):
            capsys.readouterr()
            code, text = run_cli(["verify", str(path)] + extra)
            assert code == 2
            assert text == ""
            err = capsys.readouterr().err
            assert f"format {version} upper-bound certificates are no longer accepted" in err
            assert "branching order of the search changed" in err
            assert "re-run `qramsey search`" in err

    def test_format_1_upper_bound_rejected(self, tmp_path, capsys):
        self._assert_old_upper_bound_rejected(tmp_path, capsys, 1, workers=1)

    def test_format_2_upper_bound_rejected(self, tmp_path, capsys):
        self._assert_old_upper_bound_rejected(tmp_path, capsys, 2)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda cert: 5,
            lambda cert: "lower-bound",
            lambda cert: {**cert, "family_flags": []},
            lambda cert: {**cert, "family_flags": {"strict_nonzero_x": 0}},
            lambda cert: {**cert, "coloring": [0, 1, 1, 0.0]},
            lambda cert: {**cert, "format_version": True},
            lambda cert: {k: v for k, v in cert.items() if k != "coloring"},
            lambda cert: {**cert, "family_flags": {"require_distinct_value": True}},
            lambda cert: {**cert, "r": 0},
            lambda cert: {**cert, "r": -2},
        ],
        ids=["number", "string", "flags-list", "flag-int", "float-color", "bool-version",
             "no-coloring", "flag-unknown", "zero-r", "negative-r"],
    )
    def test_malformed_certificate_exits_2(self, tmp_path, capsys, edit):
        run_json(
            ["search", "schur", "int:1..4", "-r", "2",
             "--cert-dir", str(tmp_path), "--cert-stem", "s4"]
        )
        path = tmp_path / "s4.lower-bound.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        capsys.readouterr()
        code, text = run_cli(["verify", str(path)])
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"kind": "foo"}, "error: unknown certificate kind 'foo'\n"),
            ({"format_version": 2}, "error: unsupported certificate format 2\n"),
        ],
        ids=["kind-foo", "format-2-lower-bound"],
    )
    def test_unknown_kind_or_format_exits_2(self, tmp_path, capsys, field, message):
        run_json(
            ["search", "schur", "int:1..4", "-r", "2",
             "--cert-dir", str(tmp_path), "--cert-stem", "s4"]
        )
        path = tmp_path / "s4.lower-bound.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), **field}))
        capsys.readouterr()
        assert run_cli(["verify", str(path)]) == (2, "")
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize(
        "edit",
        [
            _exhaustion(nodes=False),
            _exhaustion(proof_log_hash=None),
            lambda cert: {**cert, "exhaustion": {
                "proof_log_hash": cert["exhaustion"]["proof_log_hash"]}},
            lambda cert: {**cert, "r": 0},
            lambda cert: {**cert, "r": -2},
            _exhaustion(nodes=-5),
            _exhaustion(proof_log_hash="zz"),
            _exhaustion(proof_log_hash="A" * 64),
            _exhaustion(proof_log_hash="0" * 65),
        ],
        ids=["bool-nodes", "null-hash", "no-nodes", "zero-r", "negative-r", "negative-nodes",
             "short-hash", "upper-hash", "long-hash"],
    )
    def test_malformed_exhaustion_exits_2(self, tmp_path, edit):
        run_json(
            ["search", "schur", "int:1..5", "-r", "2",
             "--cert-dir", str(tmp_path), "--cert-stem", "s5"]
        )
        path = tmp_path / "s5.upper-bound.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        for argv in (["verify", str(path)], ["verify", str(path), "--rerun"]):
            code, text = run_cli(argv)
            assert code == 2
            assert text == ""

    def test_edited_node_count_fails_rerun(self, tmp_path):
        run_json(
            ["search", "schur", "int:1..5", "-r", "2",
             "--cert-dir", str(tmp_path), "--cert-stem", "s5"]
        )
        path = tmp_path / "s5.upper-bound.json"
        cert = json.loads(path.read_text())
        nodes = cert["exhaustion"]["nodes"]
        cert["exhaustion"]["nodes"] = 999999
        path.write_text(json.dumps(cert))
        code, payload = run_json(["verify", str(path), "--rerun"])
        assert code == 1
        assert payload["ok"] is False
        assert payload["message"] == f"re-run took {nodes} nodes, the certificate says 999999"

    def test_certificate_formats(self, tmp_path):
        for window, stem in (("int:1..4", "s4"), ("int:1..5", "s5")):
            run_json(
                ["search", "schur", window, "-r", "2",
                 "--cert-dir", str(tmp_path), "--cert-stem", stem]
            )
        lower = json.loads((tmp_path / "s4.lower-bound.json").read_text())
        upper = json.loads((tmp_path / "s5.upper-bound.json").read_text())
        assert lower["format_version"] == 1
        assert upper["format_version"] == 3
        assert sorted(upper["exhaustion"]) == ["nodes", "proof_log_hash"]


    @pytest.mark.parametrize("kind, evidence", [
        ("lower-bound", {"coloring": [0]}),
        ("upper-bound", {"exhaustion": {"nodes": 1, "proof_log_hash": "0" * 64}}),
    ])
    def test_farey_window_over_the_cap_exits_2_at_once(self, tmp_path, capsys, kind,
                                                        evidence):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "format_version": 1 if kind == "lower-bound" else 3, "kind": kind,
            "family": "x; y; x + t", "window": "farey:1000000", "r": 2, **evidence,
        }))
        start = time.perf_counter()
        assert run_cli(["verify", str(path), "--rerun"]) == (2, "")
        assert run_cli(["search", "schur", "farey:1000000", "-r", "2"]) == (2, "")
        assert time.perf_counter() - start < 1
        assert "window farey:1000000 has over" in capsys.readouterr().err

    def test_farey_window_too_large_to_count_is_reported_before_the_color_count(self, capsys):
        # The window is refused when its spec is read, before r is checked.
        assert run_cli(["search", "schur", "farey:1000000", "-r", "0"]) == (2, "")
        assert capsys.readouterr().err == (
            "error: window farey:1000000 has over 500000000000 elements, cap is 10000000\n"
        )

    @pytest.mark.parametrize("window", [
        "mgrid:1000000016000000063:1",  # (10^9 + 7)(10^9 + 9)
        "mgrid:1000000000000000003:1",
    ])
    def test_grid_prime_over_the_cap_exits_2_at_once(self, tmp_path, capsys, window):
        path = tmp_path / "big.lower-bound.json"
        path.write_text(json.dumps({
            "format_version": 1, "kind": "lower-bound", "family": "x; y; x + t",
            "window": window, "r": 2, "coloring": [0, 0, 0],
        }))
        start = time.perf_counter()
        assert run_cli(["verify", str(path)]) == (2, "")
        assert run_cli(["search", "schur", window, "-r", "2"]) == (2, "")
        assert time.perf_counter() - start < 1
        assert "is not below 2^32" in capsys.readouterr().err

    def test_lower_bound_over_the_pair_cap_exits_2_before_any_join(self, tmp_path, capsys,
                                                                  monkeypatch):
        path = tmp_path / "big.lower-bound.json"
        path.write_text(json.dumps({
            "format_version": 1, "kind": "lower-bound", "family": "x; y; x + t",
            "window": "int:1..9", "r": 2, "coloring": [0, 1] * 4 + [0],
        }))
        monkeypatch.setattr(detector, "PAIR_CAP", 50)  # int:1..9 has 81 pairs
        joins = []
        monkeypatch.setattr(detector, "_join", lambda *args: joins.append(args) or [])
        assert run_cli(["verify", str(path)]) == (2, "")
        assert "error: candidate table for int:1..9 needs 81 pairs" in capsys.readouterr().err
        assert joins == []


def _check_over_the_pair_cap(argv, capsys, monkeypatch):
    """``argv``, on the int:1..9 ladder under a pair cap that int:1..7 is
    below and int:1..9 over, fails on the top row before any search."""
    monkeypatch.setattr(detector, "PAIR_CAP", 50)  # int:1..7 has 49 pairs
    calls = []
    monkeypatch.setattr(search, "search_avoiding", lambda *args, **kwargs: calls.append(args))
    assert run_cli(argv) == (2, "")
    assert "error: candidate table for int:1..9 needs 81 pairs" in capsys.readouterr().err
    assert calls == []


class TestSweep:
    def test_schur_ladder(self, tmp_path):
        code, text = run_cli(
            ["sweep", "schur", "-r", "2", "--lo", "1", "--hi", "5",
             "--cert-dir", str(tmp_path)]
        )
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "n,window_size,outcome,nodes,certificate_path"
        rows = [l.split(",") for l in lines[1:]]
        assert [r[0] for r in rows] == ["1", "2", "3", "4", "5"]
        assert [r[2] for r in rows] == ["avoiding"] * 4 + ["exhausted"]
        for r in rows:
            assert os.path.exists(r[4])

    def test_stop_at_exhausted(self):
        code, text = run_cli(
            ["sweep", "schur", "-r", "2", "--lo", "1", "--hi", "8",
             "--stop-at-exhausted"]
        )
        assert code == 0
        rows = text.strip().split("\n")[1:]
        assert len(rows) == 5
        assert rows[-1].split(",")[2] == "exhausted"

    def test_each_row_notes_its_wall_time(self, capsys):
        assert run_cli(["sweep", "schur", "-r", "2", "--lo", "3", "--hi", "5"])[0] == 0
        notes = capsys.readouterr().err.splitlines()
        assert [re.sub(r"\d+\.\d{3}s$", "_s", line) for line in notes] == [
            "n=3 wall time: _s", "n=4 wall time: _s", "n=5 wall time: _s",
            "minimal exhausted n: 5", "total wall time: _s",
        ]

    def test_top_row_over_the_pair_cap_ends_the_sweep_before_any_row(
        self, tmp_path, capsys, monkeypatch
    ):
        cert_dir = tmp_path / "certs"
        argv = ["sweep", "schur", "-r", "2", "--lo", "1", "--hi", "9", "--cert-dir", str(cert_dir)]
        _check_over_the_pair_cap(argv, capsys, monkeypatch)
        assert not cert_dir.exists()

    def test_zero_colors_rejected_before_the_top_table(self, tmp_path, capsys, monkeypatch):
        def refuse(family, window):
            raise AssertionError("candidate table built")

        monkeypatch.setattr(search, "build_candidates", refuse)
        cert_dir = tmp_path / "certs"
        code, text = run_cli(["sweep", "schur", "-r", "0", "--template", "farey", "--lo", "1",
                              "--hi", "40", "--cert-dir", str(cert_dir)])
        assert (code, text) == (2, "")
        assert not cert_dir.exists()
        assert "error: need at least one color, got r=0" in capsys.readouterr().err

    def test_budget_row_has_no_certificate(self, tmp_path):
        cert_dir = tmp_path / "certs"
        code, text = run_cli(
            ["sweep", "schur", "-r", "3", "--lo", "14", "--hi", "14", "--nodes", "1",
             "--cert-dir", str(cert_dir)]
        )
        assert code == 0
        assert text.split("\n")[1] == "14,14,budget-exceeded,1,"
        assert not cert_dir.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "schur", "int:1..4", "-r", "2"],
            ["sweep", "schur", "-r", "2", "--lo", "1", "--hi", "4"],
        ],
        ids=["search", "sweep"],
    )
    def test_empty_cert_dir_rejected(self, argv):
        code, text = run_cli(argv + ["--cert-dir", ""])
        assert code == 2
        assert text == ""


    def test_byte_identical_stdout(self, tmp_path):
        argv = ["sweep", "vdw(2)", "-r", "2", "--lo", "1", "--hi", "9",
                "--cert-dir", str(tmp_path)]
        first = run_cli(argv)
        second = run_cli(argv)
        assert first[0] == 0
        assert first == second


class TestRado:
    def test_plain_verdict(self):
        code, payload = run_json(["rado", "x1 + x2 - x3 = 0"])
        assert code == 0
        assert payload["columns_condition"] is True
        assert payload["partition"] == [[0, 2], [1]]
        assert payload["family"] == "x; y; x + t"

    def test_validated_run(self):
        code, payload = run_json(
            ["rado", "x1 + x2 - x3 = 0", "--validate", "-r", "2", "--n-max", "6"]
        )
        assert code == 0
        assert payload["consistent"] is True
        assert payload["note"] == "regular; unavoidable from n=5 at r=2"
        assert [row["outcome"] for row in payload["rows"]].count("exhausted") == 2

    @pytest.mark.parametrize(
        "extra, note",
        [
            (["--n-max", "3"], "regular; still avoidable at every n <= 3 with r=2"),
            (["--nodes", "1"], "regular; search budget exhausted before a threshold was found"),
        ],
        ids=["avoidable", "budget"],
    )
    def test_validated_notes(self, extra, note):
        code, payload = run_json(["rado", "x1 + x2 - x3 = 0", "--validate"] + extra)
        assert (code, payload["note"]) == (0, note)

    def test_empty_equation(self, capsys):
        assert run_cli(["rado", " = 0"]) == (2, "")
        assert capsys.readouterr().err == "error: empty equation\n"

    def test_over_the_column_cap(self, capsys):
        # rejected as it is parsed, before a million-long coefficient tuple
        code, text = run_cli(["rado", "x1 - x1000000 = 0"])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "error: 1000000 columns exceed the cap 20\n"

    def test_non_regular(self):
        code, payload = run_json(["rado", "2*x1 - x2 = 0"])
        assert code == 0
        assert payload["columns_condition"] is False
        assert payload["partition"] is None

    def test_top_row_over_the_pair_cap_ends_validation_before_any_row(
        self, capsys, monkeypatch
    ):
        argv = ["rado", "x1 + x2 - x3 = 0", "--validate", "-r", "2", "--n-max", "9"]
        _check_over_the_pair_cap(argv, capsys, monkeypatch)


class TestCnfFlow:
    def test_export_to_stdout(self):
        code, text = run_cli(["export-cnf", "schur", "int:1..4", "-r", "2"])
        assert code == 0
        assert text.startswith("c family:")
        assert "p cnf " in text

    def test_colors_past_the_window_size_are_not_encoded(self):
        # 30 elements use at most 30 colors, so -r 3000 writes -r 30's
        # variables and clauses; only the colors comment says otherwise.
        code, many = run_cli(["export-cnf", "schur", "int:1..30", "-r", "3000"])
        assert code == 0
        code, enough = run_cli(["export-cnf", "schur", "int:1..30", "-r", "30"])
        assert code == 0
        differ = [(a, b) for a, b in zip(many.split("\n"), enough.split("\n")) if a != b]
        assert len(many.split("\n")) == len(enough.split("\n"))
        assert differ == [(
            "c colors: 30 of 3000; var(e,c) = e*30 + c + 1",
            "c colors: 30; var(e,c) = e*r + c + 1",
        )]

    def test_import_past_the_window_size(self, tmp_path):
        cnf = export_cnf(builtin_family("schur"), parse_window("int:1..4"), 9)
        assert (cnf.colors, cnf.num_vars) == (4, 16)
        model = solve(cnf.num_vars, cnf.clauses)
        sol = tmp_path / "model.txt"
        sol.write_text("v " + " ".join(str(l) for l in model_literals(model)) + " 0\n")
        code, payload = run_json(["import-sat", "schur", "int:1..4", "-r", "9", str(sol)])
        assert (code, payload["r"], payload["witness"]) == (0, 9, None)
        assert max(payload["coloring"]) < 4

    def test_export_import_round_trip(self, tmp_path):
        cnf = export_cnf(builtin_family("schur"), parse_window("int:1..4"), 2)
        model = solve(cnf.num_vars, cnf.clauses)
        assert model is not None
        sol = tmp_path / "model.txt"
        sol.write_text(
            "s SATISFIABLE\nv "
            + " ".join(str(l) for l in model_literals(model))
            + " 0\n"
        )
        code, payload = run_json(
            ["import-sat", "schur", "int:1..4", "-r", "2", str(sol)]
        )
        assert code == 0
        assert payload["witness"] is None
        assert len(payload["coloring"]) == 4

    def test_import_reads_a_minisat_result_file(self, tmp_path, capsys):
        # minisat q.cnf q.out writes SAT or UNSAT, then the model on one line
        cnf = export_cnf(builtin_family("schur"), parse_window("int:1..4"), 2)
        model = solve(cnf.num_vars, cnf.clauses)
        sol = tmp_path / "q.out"
        sol.write_text("SAT\n" + " ".join(str(l) for l in model_literals(model)) + " 0\n")
        code, payload = run_json(["import-sat", "schur", "int:1..4", "-r", "2", str(sol)])
        assert (code, payload["witness"]) == (0, None)
        sol.write_text("UNSAT\n")
        code, text = run_cli(["import-sat", "schur", "int:1..4", "-r", "2", str(sol)])
        assert (code, text) == (2, "")
        assert "the solver found no model (UNSAT)" in capsys.readouterr().err

    def test_import_rejects_monochromatic_model(self, tmp_path):
        sol = tmp_path / "allzero.txt"
        lits = []
        for e in range(5):
            lits += [e * 2 + 1, -(e * 2 + 2)]
        sol.write_text("v " + " ".join(str(l) for l in lits) + " 0\n")
        code, payload = run_json(
            ["import-sat", "schur", "int:1..5", "-r", "2", str(sol)]
        )
        assert code == 1
        assert payload["witness"] == {"x": "1", "y": "1", "color": 0, "values": ["1", "1", "2"]}
        # detect scans the candidate table: the same witness
        code, scanned = run_json(["detect", "schur", "int:1..5", "--colors", "[0,0,0,0,0]"])
        assert scanned["witness"] == payload["witness"]

    def test_import_builds_no_candidate_table(self, tmp_path, monkeypatch):
        # the coloring is checked one color class at a time, as verify checks one
        def refuse(family, window):
            raise AssertionError("candidate table built")

        monkeypatch.setattr(commands, "build_candidates", refuse)
        sol = tmp_path / "allzero.txt"
        sol.write_text("v " + " ".join(f"{2 * e + 1} {-(2 * e + 2)}" for e in range(5)) + " 0\n")
        code, payload = run_json(["import-sat", "schur", "int:1..5", "-r", "2", str(sol)])
        assert (code, payload["witness"]["values"]) == (1, ["1", "1", "2"])

    def test_import_builds_no_constraint_groups(self, tmp_path, monkeypatch):
        # The variable numbering depends on the window size and r only, so
        # reading a model needs neither the constraint groups nor the clauses.
        cnf = export_cnf(builtin_family("schur"), parse_window("int:1..4"), 2)
        sol = tmp_path / "model.txt"
        sol.write_text(" ".join(str(l) for l in model_literals(solve(cnf.num_vars, cnf.clauses))))

        def refuse(table):
            raise AssertionError("constraint groups built")

        monkeypatch.setattr(detector.CandidateTable, "constraint_groups", refuse)
        code, payload = run_json(["import-sat", "schur", "int:1..4", "-r", "2", str(sol)])
        assert (code, payload["witness"]) == (0, None)

    def test_zero_colors_reported_before_the_model_is_read(self, tmp_path, capsys):
        missing = tmp_path / "no-such-model.txt"
        code, text = run_cli(["import-sat", "schur", "int:1..4", "-r", "0", str(missing)])
        assert (code, text) == (2, "")
        assert "error: need at least one color, got r=0" in capsys.readouterr().err


class TestErrorPaths:
    def test_bad_window(self):
        code, _ = run_cli(["detect", "schur", "notawindow", "--colors", "0"])
        assert code == 2

    def test_unparseable_family(self):
        code, _ = run_cli(["search", "nosuchfamily", "int:1..4", "-r", "2"])
        assert code == 2

    def test_empty_colors(self):
        code, _ = run_cli(["detect", "schur", "int:1..4", "--colors", "[]"])
        assert code == 2

    @pytest.mark.parametrize(
        "colors, message",
        [
            ("[-1,-1,-1,-1]", "color -1 out of range 0..0"),
            ("[0,-2,1,0]", "color -2 out of range 0..1"),
            ("[,]", "empty color list"),
            ("[0,x]", "not an integer: 'x'"),
            ("[0,1,,1,0]", "not an integer: ''"),
            ("[0,1,1,0,]", "not an integer: ''"),
            (",0,1,1,0", "not an integer: ''"),
        ],
    )
    def test_bad_colors_named_without_r(self, capsys, colors, message):
        code, text = run_cli(["detect", "schur", "int:1..4", "--colors", colors])
        assert (code, text) == (2, "")
        assert message in capsys.readouterr().err

    def test_missing_required_args(self):
        code, _ = run_cli(["sweep"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "schur", "int:1..4", "--cert-dir", "{dir}"],
            ["sweep", "schur", "--lo", "1", "--hi", "5", "--cert-dir", "{dir}"],
            ["rado", "x1 + x2 - x3 = 0", "--validate", "--n-max", "5"],
            ["rado", "x1 + x2 - x3 = 0"],
            ["export-cnf", "schur", "int:1..5"],
            ["import-sat", "schur", "int:1..5", "{sat}"],
        ],
        ids=["search", "sweep", "rado", "rado-plain", "export-cnf", "import-sat"],
    )
    def test_zero_colors_rejected(self, tmp_path, capsys, argv):
        cert_dir = tmp_path / "certs"
        sat = tmp_path / "model.txt"
        sat.write_text("v 1 0\n")
        code, text = run_cli([a.format(dir=cert_dir, sat=sat) for a in argv] + ["-r", "0"])
        assert code == 2
        assert text == ""
        assert not cert_dir.exists()
        assert "need at least one color, got r=0" in capsys.readouterr().err

    def test_unknown_name_beside_a_scaled_atom_rejected(self, tmp_path, capsys):
        cert_dir = tmp_path / "certs"
        code, text = run_cli(["search", "x; x + (2*y) + u", "farey:3", "-r", "2",
                              "--cert-dir", str(cert_dir)])
        assert (code, text) == (2, "")
        assert not cert_dir.exists()
        assert "unknown variable 'u'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "schur", "-r", "2", "--lo", "5", "--hi", "3", "--cert-dir", "{dir}"],
             "empty sweep: lo=5 is above hi=3"),
            (["rado", "x1 + x2 - x3 = 0", "--validate", "--n-max", "0"],
             "need at least one window, got n_max=0"),
            (["rado", "x1 + x2 - x3 = 0", "--n-max", "0"],
             "need at least one window, got n_max=0"),
        ],
        ids=["sweep", "rado", "rado-plain"],
    )
    def test_empty_ladder_rejected(self, tmp_path, capsys, argv, message):
        cert_dir = tmp_path / "certs"
        code, text = run_cli([a.format(dir=cert_dir) for a in argv])
        assert code == 2
        assert text == ""
        assert not cert_dir.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "schur", "int:1..30", "-r", "3", "--cert-dir", "{dir}"],
            ["sweep", "schur", "-r", "2", "--lo", "1", "--hi", "5", "--cert-dir", "{dir}"],
            ["rado", "x1 + x2 - x3 = 0", "--validate", "--n-max", "5"],
            ["rado", "x1 + x2 - x3 = 0"],
        ],
        ids=["search", "sweep", "rado", "rado-plain"],
    )
    @pytest.mark.parametrize("budget", [["--nodes", "-1"]], ids=["nodes"])
    def test_negative_budget_rejected(self, tmp_path, capsys, argv, budget):
        cert_dir = tmp_path / "certs"
        code, text = run_cli([a.format(dir=cert_dir) for a in argv] + budget)
        assert code == 2
        assert text == ""
        assert not cert_dir.exists()
        assert "error: node budget must be a non-negative integer, got -1\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["rado", "x1 + x2 - x3 = 0", "--method", "general"],
            ["localize", "mgrid:2,3:1", "--colors", "[0,0,0,0,0,0,0,0,0]",
             "--shape", "1,2", "--exhaustive", "2"],
            ["largeset", "ip", "int:1..16", "--set", "1,2", "--seed", "1"],
            ["--config", "run.json", "search", "schur", "int:1..5", "-r", "2"],
            ["largeset", "thick", "int:1..10", "--set", "3", "--shape", "0,1"],
            ["localize", "mgrid:2,3:1", "--colors", "[0]", "--shape", "1,2"],
            ["search", "schur", "int:1..4", "-r", "2", "--seconds", "1"],
            ["sweep", "schur", "-r", "2", "--lo", "1", "--hi", "4", "--seconds", "1"],
            ["rado", "x1 + x2 - x3 = 0", "--validate", "--seconds", "1"],
            ["catalog"],
        ],
        ids=["method", "exhaustive", "seed", "config", "largeset", "localize",
             "seconds-search", "seconds-sweep", "seconds-rado", "catalog"],
    )
    def test_removed_options_rejected(self, argv):
        code, text = run_cli(argv)
        assert code == 2
        assert text == ""

    def test_version_exits_zero(self):
        code, _ = run_cli(["--version"])
        assert code == 0


TOP_USAGE = (
    "usage: qramsey [-h] [--version]\n"
    "               {detect,search,sweep,rado,export-cnf,import-sat,verify} ..."
)
SEARCH = ["search", "schur", "int:1..5", "-r", "2"]


def _digest(text):
    """The first 16 hex digits of the SHA-256 of ``text``, or '' for no text."""
    return hashlib.sha256(text.encode()).hexdigest()[:16] if text else ""


class TestArgumentHandling:
    """Exit codes and stdout of edge-case argument lists, recorded when
    argparse read every invocation (the first rows with argparse subparsers).
    Help is pinned by its usage paragraph and by the digest of its whole
    text, recorded the same way.  When the "max_seconds" key left the search
    budget, each search digest was re-pinned to its old stdout without that
    key, and the search, sweep and rado help to its text without --seconds.
    When the catalog command left, the top-level usage and help were
    re-pinned to their text without it."""

    @pytest.mark.parametrize(
        "argv, code, stdout",
        [
            ([], 2, ""),
            (["--version"], 0, "6387ed524f575620"),
            (["nosuch"], 2, ""),
            (["sea", "schur", "int:1..5", "-r", "2"], 2, ""),
            (["verify", "c.json", "extra"], 2, ""),
            (["verify"], 2, ""),
            (["search", "schur", "int:1..5"], 2, ""),
            (SEARCH + ["--version"], 2, ""),
            (SEARCH + ["--", "x"], 2, ""),
            (["search", "--", "schur", "int:1..5", "-r", "2"], 2, ""),
            (["--", "search"] + SEARCH[1:], 2, ""),
            (SEARCH + ["--nod", "3"], 0, "a4a0bce6c4ee8f4f"),
            (SEARCH + ["--cert-dir", "--distinct"], 2, ""),
            (["search", "schur", "int:1..5", "-r", "x"], 2, ""),
            (["search", "schur", "int:1..5", "-r2"], 0, "5c8d61cbf0c79480"),
            (["sweep", "schur", "-r", "2", "--lo", "-3", "--hi", "2"], 2, ""),
            (["sweep", "schur", "-r", "2", "--lo=-3", "--hi", "2"], 2, ""),
            (SEARCH + ["--cert", "1"], 2, ""),
            (SEARCH + ["--distinct=1"], 2, ""),
            (SEARCH + ["-r", "3"], 0, "6f6081e775eb838f"),
            (["rado", "x1 + x2 - x3 = 0", "extra"], 2, ""),
            (["rado", "-x1 + x2 - x3 = 0"], 0, "47ea4dc6806dfed5"),
            (["rado", "--", "-x1 - x2 + x3 = 0"], 0, "d5aad13307983a4d"),
            (SEARCH + ["--cert-dir", "--"], 2, ""),
            (SEARCH + ["--"], 2, ""),
            (["search", "-r", "2", "schur", "int:1..5", "--"], 0, "5c8d61cbf0c79480"),
            (["detect", "schur", "int:1..4", "--colors", "[-1,-1,-1,-1]"], 2, ""),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
    )
    def test_exit_code_and_stdout(self, capsys, argv, code, stdout):
        assert main(argv) == code
        assert _digest(capsys.readouterr().out) == stdout

    @pytest.mark.parametrize(
        "argv, usage",
        [
            (["-h"], TOP_USAGE),
            (["-h", "search"], TOP_USAGE),
            (["search", "-h"],
             "usage: qramsey search [-h] -r R [--cert-dir CERT_DIR] [--cert-stem CERT_STEM]\n"
             "                      [--allow-offsets] [--distinct] [--strict-x]\n"
             "                      [--nodes NODES]\n"
             "                      family window"),
            (["verify", "-h"], "usage: qramsey verify [-h] [--rerun] certificate"),
        ],
        ids=["-h", "-h search", "search -h", "verify -h"],
    )
    def test_help_usage(self, monkeypatch, capsys, argv, usage):
        monkeypatch.setenv("COLUMNS", "80")
        assert main(argv) == 0
        assert capsys.readouterr().out.split("\n\n")[0] == usage

    @pytest.mark.parametrize(
        "command, digest",
        [
            (None, "14587c72cc76e9463b925504b2fab5ebd7e14d8b657cd393427308bdd3b6f963"),
            ("detect", "a127c4db1ea8cc0dcb3137b58cf89362951df09a65eb57ffc9719047329c36b6"),
            ("search", "c1a0a9a6a4c39888c92fbdb287ff58991f8c55c6cfae0bc0b34c925cc32b4e26"),
            ("sweep", "a17e9e6b517f59ec1d0b0329a8871b03dea1bd4008c8f3a07d426fe9cea34793"),
            ("rado", "a33089e593206ca65035333baa12b6fc7dc7b50a09af45eea6219c40c184ba57"),
            ("export-cnf", "4e474951b7fa09ceace2229fc90f2b2a8dee6edd54539063d5986fbb34c6398a"),
            ("import-sat", "17205c6bba2086a97cfa0c30faa3e2a29bcd224d4683e93105c0f9fb5233f123"),
            ("verify", "0c94215e8c700f8f855df7617b2bec0da84bc658dd2500251dcdd53b503c0aba"),
        ],
        ids=["top", "detect", "search", "sweep", "rado", "export-cnf", "import-sat", "verify"],
    )
    def test_full_help(self, monkeypatch, capsys, command, digest):
        monkeypatch.setenv("COLUMNS", "80")
        assert main(["-h"] if command is None else [command, "-h"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_reader_matches_argparse(self, capsys):
        """Seeded token lists read by parse_args and by an argparse parser built
        from the same table agree: both reject, or both give the same values.
        Each list is a valid one with random tokens put in.  It holds one '--'
        at most: argparse turns a later '--' read as a value into an empty list."""
        rng = random.Random(7)
        pool = ["2", "-3", "-0.5", "-1e5", "x", "", "-", "-x y", "thick", "*", "/", "-2,-1",
                "--", "--", "--bogus", "-q", "--s", "--c", "--n", "-r=", "--distinct=1",
                "--hi=3", "=", "a=b"]
        accepted = plain = 0
        for _ in range(3000):
            name = rng.choice(list(cli.COMMANDS))
            arguments = cli.COMMANDS[name][2]
            tokens = ["a" for arg in arguments if arg.positional]
            if tokens and rng.random() < 0.3:
                del tokens[rng.randrange(len(tokens))]  # a slot for a token of the pool
            tokens += [t for arg in arguments if arg.required for t in (arg.flags[0], "2")]
            flags = [f for arg in arguments for f in arg.flags if f[0] == "-"]
            for _ in range(rng.randint(0, 4)):
                token = rng.choice(flags + pool)
                if token.startswith("--") and len(token) > 3 and rng.random() < 0.2:
                    token = token[:rng.randint(3, len(token))]  # an abbreviation
                if token[:1] == "-" and token != "--" and rng.random() < 0.2:
                    token += rng.choice(["=", ""]) + rng.choice(["2", "x", "-3"])
                if token != "--" or "--" not in tokens:
                    tokens.insert(rng.randint(0, len(tokens)), token)
            outcome = _outcome(cli._parser(name).parse_args, tokens)
            assert _outcome(cli.parse_args, [name] + tokens) == outcome, (name, tokens)
            read = cli._read_command(name, tokens)
            if read is not None:
                assert vars(read) == outcome, (name, tokens)
                plain += 1
            accepted += outcome is not None
        assert accepted > 500
        assert plain >= 500
        capsys.readouterr()


def _outcome(parse, tokens):
    """The values that ``parse`` reads from ``tokens``, or None if it rejects them."""
    try:
        args = vars(parse(tokens))
    except (SystemExit, ValueError):
        return None
    return {k: v for k, v in args.items() if k != "func"}


class TestCommandTable:
    def test_every_option_is_read_and_every_read_is_declared(self):
        """The ``args.<name>`` that each handler reads, itself or through the
        module-level functions it calls, are the dests of its arguments."""
        with open(commands.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

        def reads(name, seen):
            seen.add(name)
            found = set()
            for node in ast.walk(functions[name]):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "args"):
                    found.add(node.attr)
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in functions and node.func.id not in seen):
                    found |= reads(node.func.id, seen)
            return found

        for name, (_, handler, arguments) in cli.COMMANDS.items():
            assert reads(handler.__name__, set()) == {a.dest for a in arguments}, name


class TestParsersBuilt:
    """The plain forms build no argparse parser; help builds the one of the
    command asked about."""

    @pytest.fixture
    def built(self, monkeypatch):
        names = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            names.append(parser.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        return names

    @pytest.fixture
    def certificate(self, tmp_path):
        argv = ["search", "schur", "int:1..4", "-r", "2", "--cert-dir", str(tmp_path),
                "--cert-stem", "s4"]
        assert main(argv, out=io.StringIO()) == 0
        return str(tmp_path / "s4.lower-bound.json")

    def test_verify_and_search(self, certificate, built):
        assert main(["verify", certificate], out=io.StringIO()) == 0
        assert main(SEARCH, out=io.StringIO()) == 0
        assert built == []

    def test_count_does_not_grow_with_the_table(self, certificate, built, monkeypatch):
        for k in range(20):
            monkeypatch.setitem(cli.COMMANDS, f"extra-{k}", ("", None, (cli.Arg(("--x",)),)))
        assert main(["verify", certificate], out=io.StringIO()) == 0
        assert built == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "schur", "-r", "2", "--template", "int", "--lo", "0", "--hi", "3",
             "--cert-dir", "certs"],
            ["sweep", "schur", "-r", "2", "--lo", "-3", "--hi", "2"],
            ["search", "schur", "int:1..5", "-r=2", "--cert-stem=s5", "--nodes=100"],
            ["rado", "x1 + x2 - x3 = 0", "--validate", "-r", "2", "--n-max", "20"],
            ["verify", "s5.upper-bound.json", "--rerun"],
        ],
        ids=["lo-0", "lo-negative", "opt=value", "rado-validate", "verify-rerun"],
    )
    def test_plain_forms_build_no_parser(self, built, argv):
        args = parse_args(argv)
        assert built == []
        assert vars(args) == {**vars(cli._parser(argv[0]).parse_args(argv[1:])),
                              "func": cli.COMMANDS[argv[0]][1]}

    def test_help_builds_the_command_parser_only(self, built, capsys):
        assert main(["search", "-h"]) == 0
        assert built == ["qramsey search"]
        capsys.readouterr()


# stdout's binary layer is buffered under PYTHONUNBUFFERED unset and a raw
# file under PYTHONUNBUFFERED=1; every stdout case runs under both
UNBUFFERED = (False, True)


class TestModuleEntry:
    def module_command(self, argv, module="qramsey", unbuffered=False):
        """The command ``python -m module argv``, or ``python argv`` for module
        None, and its environment, which sets PYTHONUNBUFFERED either way."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED="1" if unbuffered else "")
        return [sys.executable, *(["-m", module] if module else []), *argv], env

    def run_module(self, *argv, module="qramsey", unbuffered=False, **kwargs):
        command, env = self.module_command(argv, module, unbuffered)
        kwargs.setdefault("stdout", subprocess.PIPE)
        kwargs.setdefault("stderr", subprocess.PIPE)
        return subprocess.run(command, env=env, text=True, timeout=60, **kwargs)

    def read_one_line(self, argv, unbuffered, runs=20, at_once=4):
        """Exit code and stderr of each of ``runs`` runs of ``argv`` whose
        reader reads one line of stdout and then closes its end."""
        command, env = self.module_command(argv, unbuffered=unbuffered)
        results = []
        for _ in range(0, runs, at_once):
            procs = [subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True)
                     for _ in range(at_once)]
            for proc in procs:
                proc.stdout.readline()
                proc.stdout.close()
                _, err = proc.communicate(timeout=60)
                results.append((proc.returncode, err))
        return results

    def test_search(self):
        for unbuffered in UNBUFFERED:
            done = self.run_module(*SEARCH, unbuffered=unbuffered)
            assert done.returncode == 0
            assert done.stdout == run_cli(SEARCH)[1]

    def test_unknown_command_exits_2(self):
        for unbuffered in UNBUFFERED:
            done = self.run_module("nosuch", unbuffered=unbuffered)
            assert done.returncode == 2
            assert done.stdout == ""

    def test_cli_module_runs_the_cli(self):
        for unbuffered in UNBUFFERED:
            done = self.run_module(*SEARCH, module="qramsey.cli", unbuffered=unbuffered)
            assert done.returncode == 0
            assert done.stdout == self.run_module(*SEARCH, unbuffered=unbuffered).stdout
            nosuch = self.run_module("nosuch", module="qramsey.cli", unbuffered=unbuffered)
            assert nosuch.returncode == 2

    def test_verify_imports_no_argparse(self, tmp_path):
        argv = ["search", "schur", "int:1..4", "-r", "2", "--cert-dir", str(tmp_path)]
        assert main(argv, out=io.StringIO()) == 0
        code = ("import io, sys; from qramsey.cli import main; "
                f"code = main(['verify', {str(tmp_path / 'result.lower-bound.json')!r}], "
                "out=io.StringIO()); "
                "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
        for unbuffered in UNBUFFERED:
            done = self.run_module("-c", code, module=None, unbuffered=unbuffered)
            assert (done.returncode, done.stdout) == (0, "0 []\n")

    def test_closed_stdout_exits_141_quietly(self):
        for unbuffered in UNBUFFERED:
            for argv in (SEARCH, ["-h"], ["search", "-h"], ["--version"]):
                read_end, write_end = os.pipe()
                os.close(read_end)
                try:
                    done = self.run_module(*argv, stdout=write_end, unbuffered=unbuffered)
                finally:
                    os.close(write_end)
                assert (done.returncode, done.stderr) == (141, ""), (argv, unbuffered)

    def test_stdout_descriptor_closed_exits_141_quietly(self):
        # as `qramsey ... >&-`: the interpreter starts with sys.stdout None
        for unbuffered in UNBUFFERED:
            for argv in (SEARCH, ["-h"]):
                done = self.run_module(*argv, stdout=None, unbuffered=unbuffered,
                                       preexec_fn=lambda: os.close(1))
                assert (done.returncode, done.stderr) == (141, ""), (argv, unbuffered)

    @pytest.mark.parametrize("descriptor_2", [
        lambda: os.close(2),  # as `qramsey ... 2>&-`: sys.stderr is None
        # open read-only, as a launcher script can leave it for `2>&-`:
        # each stderr write fails with EBADF
        lambda: os.dup2(os.open(os.devnull, os.O_RDONLY), 2),
    ], ids=["closed", "read-only"])
    def test_stderr_lines_never_change_stdout_or_the_exit_code(self, descriptor_2):
        for unbuffered in UNBUFFERED:
            for argv, code, stdout in (
                (SEARCH, 0, run_cli(SEARCH)[1]),
                (SEARCH[:-1] + ["0"], 2, ""),  # -r 0: the error line is dropped
            ):
                done = self.run_module(*argv, stderr=None, unbuffered=unbuffered,
                                       preexec_fn=descriptor_2)
                assert (done.returncode, done.stdout) == (code, stdout), (argv, unbuffered)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_is_an_error(self):
        for unbuffered in UNBUFFERED:
            with open("/dev/full", "w") as full:
                done = self.run_module(*SEARCH, stdout=full, unbuffered=unbuffered)
            assert done.returncode == 2, unbuffered
            assert done.stderr == "error: [Errno 28] No space left on device\n", unbuffered

    @pytest.mark.parametrize("unbuffered", UNBUFFERED, ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["-h"], ["--version"], SEARCH, ["sweep", "schur", "-r", "2", "--lo", "1", "--hi", "6"],
    ], ids=["help", "version", "search", "sweep"])
    def test_reader_of_one_line_takes_a_short_document_whole(self, argv, unbuffered):
        # the document fits the pipe, so one write takes it before the reader leaves
        codes = [code for code, _ in self.read_one_line(argv, unbuffered)]
        assert codes == [0] * 20

    @pytest.mark.parametrize("unbuffered", UNBUFFERED, ids=["buffered", "unbuffered"])
    def test_reader_of_one_line_cuts_a_long_document(self, unbuffered):
        # 1.1 MB of DIMACS: the reader leaves before the write is done
        argv = ["export-cnf", "schur", "int:1..300", "-r", "3"]
        assert self.read_one_line(argv, unbuffered) == [(141, "")] * 20

    def test_broken_pipe_on_an_output_file_is_an_error(self, tmp_path, monkeypatch, capsys):
        def reader_gone(*args, **kwargs):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(commands, "open", reader_gone, raising=False)
        with open(tmp_path / "stdout", "w", encoding="utf-8") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            code = main(["export-cnf", "schur", "int:1..4", "-r", "2",
                         "--out", str(tmp_path / "out.cnf")])
        assert code == 2
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


class TestReadme:
    def test_readme_commands_parse(self):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(path, encoding="utf-8") as fh:
            lines = [ln[len("$ qramsey "):] for ln in fh if ln.startswith("$ qramsey ")]
        assert len(lines) >= 10
        for line in lines:
            argv = shlex.split(line)
            assert cli._read_command(argv[0], argv[1:]) is not None, line
