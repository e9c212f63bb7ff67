"""End-to-end runs of the command line interface."""

import argparse
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys

import pytest

from qramsey import cli
from qramsey.cli import main, parse_args
from qramsey.cnf import export_cnf
from qramsey.patterns import builtin_family
from qramsey.windows import IntegerInterval

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


class TestSearch:
    def test_exhausted(self):
        code, payload = run_json(["search", "schur", "int:1..5", "-r", "2"])
        assert code == 0
        assert payload["outcome"] == "exhausted"
        assert payload["coloring"] is None
        assert len(payload["proof_log_hash"]) == 64
        assert payload["nodes"] >= 1
        assert payload["budget"] == {"max_nodes": None, "max_seconds": None}

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
        assert payload["budget"] == {"max_nodes": 100, "max_seconds": None}
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
        ],
        ids=["number", "string", "flags-list", "flag-int", "float-color", "bool-version",
             "no-coloring"],
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
        "edit",
        [
            lambda ex: {**ex, "nodes": False},
            lambda ex: {**ex, "proof_log_hash": None},
            lambda ex: {"proof_log_hash": ex["proof_log_hash"]},
        ],
        ids=["bool-nodes", "null-hash", "no-nodes"],
    )
    def test_malformed_exhaustion_exits_2(self, tmp_path, edit):
        run_json(
            ["search", "schur", "int:1..5", "-r", "2",
             "--cert-dir", str(tmp_path), "--cert-stem", "s5"]
        )
        path = tmp_path / "s5.upper-bound.json"
        cert = json.loads(path.read_text())
        cert["exhaustion"] = edit(cert["exhaustion"])
        path.write_text(json.dumps(cert))
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

    def test_non_regular(self):
        code, payload = run_json(["rado", "2*x1 - x2 = 0"])
        assert code == 0
        assert payload["columns_condition"] is False
        assert payload["partition"] is None


class TestLargeset:
    def test_thick(self):
        code, payload = run_json(
            ["largeset", "thick", "int:1..10", "--set", "3,4,5,6", "--shape", "0,1"]
        )
        assert code == 0
        assert payload["thick"] is True
        assert payload["witness"] == "3"

    def test_syndetic_default_core(self):
        code, payload = run_json(
            ["largeset", "syndetic", "int:1..10", "--set", "2,4,6,8,10",
             "--shape", "0,1"]
        )
        assert code == 0
        assert payload["syndetic"] is True
        assert payload["core_size"] == 9
        assert payload["uncovered"] == []

    def test_syndetic_given_core(self):
        code, payload = run_json(
            ["largeset", "syndetic", "int:1..12", "--set", "2,4,6,8,10",
             "--shape", "0,1", "--core", "3,4,5"]
        )
        assert code == 0
        assert payload["syndetic"] is True
        assert payload["core_size"] == 3
        assert payload["uncovered"] == []

    def test_pws(self):
        code, payload = run_json(
            ["largeset", "pws", "int:1..10", "--set", "1,3,5,7,9",
             "--shape", "0,1", "--max-f", "2"]
        )
        assert code == 0
        assert payload["piecewise_syndetic"] is True
        assert payload["translates"] == ["0", "1"]

    def test_ip(self):
        code, payload = run_json(
            ["largeset", "ip", "int:1..16", "--set", "1,2,3,4", "--ip-r", "2"]
        )
        assert code == 0
        assert payload["found"] is True
        assert payload["generators"] == ["1", "1"]
        assert payload["combination_count"] == 2

    def test_shape_required(self):
        code, _ = run_cli(["largeset", "thick", "int:1..4", "--set", "1"])
        assert code == 2

    def test_ip_five_generators(self):
        members = ",".join(str(v) for v in [*range(1, 6), *range(100, 201)])
        code, payload = run_json(
            ["largeset", "ip", "int:1..200", "--set", members, "--ip-r", "5"]
        )
        assert code == 0
        assert payload["found"] is True
        assert payload["generators"] == ["1"] * 5
        assert payload["combination_count"] == 5


class TestLocalize:
    def test_single_color_grid(self):
        code, payload = run_json(
            ["localize", "mgrid:2,3:1", "--colors", "[" + ",".join("0" * 9) + "]",
             "--shape", "1,2", "--max-f", "2"]
        )
        assert code == 0
        assert payload["localized"] is True
        assert payload["color_sets"] == [[0]]
        assert payload["core_size"] >= 1

    def test_no_translate_set_found(self):
        code, payload = run_json(
            ["localize", "mgrid:2:1", "--colors", "[0,1,0]", "--shape", "1,2,4", "--max-f", "1"]
        )
        assert code == 0
        assert payload == {"localized": False, "window": "mgrid:2:1"}


class TestCnfFlow:
    def test_export_to_stdout(self):
        code, text = run_cli(["export-cnf", "schur", "int:1..4", "-r", "2"])
        assert code == 0
        assert text.startswith("c family:")
        assert "p cnf " in text

    def test_export_import_round_trip(self, tmp_path):
        cnf = export_cnf(builtin_family("schur"), IntegerInterval(1, 4), 2)
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
        assert payload["witness"] is not None


class TestCatalog:
    def test_listing(self):
        code, payload = run_json(["catalog"])
        assert code == 0
        assert len(payload) == 7
        assert payload["schur"] == "x; y; x + t"
        assert payload["question-hs"] == "x; y; x * y^1; x + t"


class TestConfig:
    def test_config_fills_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nodes": 500, "seconds": 60}))
        code, payload = run_json(
            ["--config", str(cfg), "search", "schur", "int:1..5", "-r", "2"]
        )
        assert code == 0
        assert payload["budget"]["max_seconds"] == 60
        assert payload["budget"]["max_nodes"] == 500

    def test_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nodes": 500, "seconds": 60}))
        code, payload = run_json(
            ["--config", str(cfg), "search", "schur", "int:1..5", "-r", "2",
             "--nodes", "7"]
        )
        assert code == 0
        assert payload["budget"]["max_nodes"] == 7
        assert payload["budget"]["max_seconds"] == 60

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": 4, "nodez": 10}))
        code, text = run_cli(
            ["--config", str(cfg), "search", "schur", "int:1..5", "-r", "2"]
        )
        assert code == 2
        assert text == ""
        assert "unknown config keys: nodez, workers" in capsys.readouterr().err

    def test_unreadable_config(self, tmp_path):
        code, _ = run_cli(
            ["--config", str(tmp_path / "missing.json"), "catalog"]
        )
        assert code == 2

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("not json at all")
        code, _ = run_cli(["--config", str(cfg), "catalog"])
        assert code == 2

    @pytest.mark.parametrize(
        "config, argv",
        [
            ({"r": 2.5}, ["rado", "x1 + x2 - x3 = 0", "--validate", "--n-max", "5"]),
            ({"distinct": "no"},
             ["search", "x; y; x + t", "int:1..5", "-r", "2", "--cert-dir", "{dir}"]),
        ],
        ids=["fractional-r", "text-flag"],
    )
    def test_value_of_wrong_kind_rejected(self, tmp_path, config, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        cert_dir = tmp_path / "certs"
        code, text = run_cli(["--config", str(cfg)] + [a.format(dir=cert_dir) for a in argv])
        assert code == 2
        assert text == ""
        assert not cert_dir.exists()

    def test_config_values_convert_like_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": "3", "n_max": 4, "distinct": False}))
        code, payload = run_json(["--config", str(cfg), "rado", "x1 + x2 - x3 = 0", "--validate"])
        assert code == 0
        assert [row["n"] for row in payload["rows"]] == [1, 2, 3, 4]

    def test_config_fills_required_option(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 2}))
        code, payload = run_json(["--config", str(cfg), "search", "schur", "int:1..5"])
        assert code == 0
        assert payload["r"] == 2
        assert payload["outcome"] == "exhausted"

    def test_config_fills_sweep_range(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 2, "lo": 1, "hi": 5}))
        code, text = run_cli(["--config", str(cfg), "sweep", "schur"])
        assert code == 0
        assert len(text.splitlines()) == 1 + 5

    def test_flag_beats_config_for_required_option(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 2}))
        code, payload = run_json(
            ["--config", str(cfg), "search", "schur", "int:1..5", "-r", "3"]
        )
        assert code == 0
        assert payload["r"] == 3
        assert payload["outcome"] == "avoiding"

    def test_required_option_without_config(self):
        code, text = run_cli(["search", "schur", "int:1..5"])
        assert code == 2
        assert text == ""

    @pytest.mark.parametrize(
        "config, unknown",
        [
            ({"window": "int:1..9", "family": "vdw(2)"}, "family, window"),
            ({"config": "x"}, "config"),
            ({"help": True, "version": "1", "command": "search"}, "command, help, version"),
        ],
        ids=["positionals", "config", "top-level"],
    )
    def test_positional_and_top_level_keys_rejected(self, tmp_path, capsys, config, unknown):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        cert_dir = tmp_path / "certs"
        code, text = run_cli(
            ["--config", str(cfg), "search", "schur", "int:1..5", "-r", "2",
             "--cert-dir", str(cert_dir)]
        )
        assert code == 2
        assert text == ""
        assert not cert_dir.exists()
        assert f"unknown config keys: {unknown}" in capsys.readouterr().err

    def test_config_value_starting_with_dash_stays_a_value(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"set": "-2,-1", "shape": "0,1"}))
        code, payload = run_json(["--config", str(cfg), "largeset", "thick", "int:-3..3"])
        assert code == 0
        assert payload["witness"] == "-2"

    def test_key_of_another_subcommand_is_skipped(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rerun": True, "n-max": 4}))
        code, payload = run_json(["--config", str(cfg), "search", "schur", "int:1..5", "-r", "2"])
        assert code == 0
        assert payload["outcome"] == "exhausted"

    def test_config_does_not_fill_positionals(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window": "int:1..5"}))
        code, text = run_cli(["--config", str(cfg), "search", "schur", "-r", "2"])
        assert code == 2
        assert text == ""

    def test_non_object_config(self, tmp_path):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        code, _ = run_cli(["--config", str(cfg), "catalog"])
        assert code == 2


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

    def test_missing_required_args(self):
        code, _ = run_cli(["sweep"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "schur", "int:1..4", "--cert-dir", "{dir}"],
            ["sweep", "schur", "--lo", "1", "--hi", "5", "--cert-dir", "{dir}"],
            ["rado", "x1 + x2 - x3 = 0", "--validate", "--n-max", "5"],
        ],
        ids=["search", "sweep", "rado"],
    )
    def test_zero_colors_rejected(self, tmp_path, argv):
        cert_dir = tmp_path / "certs"
        code, text = run_cli([a.format(dir=cert_dir) for a in argv] + ["-r", "0"])
        assert code == 2
        assert text == ""
        assert not cert_dir.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "schur", "int:1..30", "-r", "3", "--cert-dir", "{dir}"],
            ["sweep", "schur", "-r", "2", "--lo", "1", "--hi", "5", "--cert-dir", "{dir}"],
            ["rado", "x1 + x2 - x3 = 0", "--validate", "--n-max", "5"],
        ],
        ids=["search", "sweep", "rado"],
    )
    @pytest.mark.parametrize("budget", [["--nodes", "-1"], ["--seconds", "-1"]],
                             ids=["nodes", "seconds"])
    def test_negative_budget_rejected(self, tmp_path, argv, budget):
        cert_dir = tmp_path / "certs"
        code, text = run_cli([a.format(dir=cert_dir) for a in argv] + budget)
        assert code == 2
        assert text == ""
        assert not cert_dir.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["rado", "x1 + x2 - x3 = 0", "--method", "general"],
            ["localize", "mgrid:2,3:1", "--colors", "[0,0,0,0,0,0,0,0,0]",
             "--shape", "1,2", "--exhaustive", "2"],
            ["largeset", "ip", "int:1..16", "--set", "1,2", "--seed", "1"],
        ],
        ids=["method", "exhaustive", "seed"],
    )
    def test_removed_options_rejected(self, argv):
        code, text = run_cli(argv)
        assert code == 2
        assert text == ""

    def test_config_without_value_returns_2(self):
        assert run_cli(["--config"]) == (2, "")

    def test_version_exits_zero(self):
        code, _ = run_cli(["--version"])
        assert code == 0


TOP_USAGE = (
    "usage: qramsey [-h] [--version] [--config CONFIG]\n"
    "               {detect,search,sweep,rado,largeset,localize,export-cnf,import-sat,verify,catalog}\n"
    "               ..."
)
SEARCH = ["search", "schur", "int:1..5", "-r", "2"]


def _digest(text):
    """The first 16 hex digits of the SHA-256 of ``text``, or '' for no text."""
    return hashlib.sha256(text.encode()).hexdigest()[:16] if text else ""


class TestArgumentHandling:
    """Exit codes and stdout of edge-case argument lists, recorded with the
    earlier parser tree (argparse subparsers and a --config pre-parser).
    Top-level help lists the commands in its own layout, so help is pinned
    by its usage paragraph."""

    @pytest.fixture
    def configs(self, tmp_path):
        paths = {}
        for name, config in [("cfg", {"nodes": 2}), ("unknown", {"bogus": 1}),
                             ("other", {"n_max": 5})]:
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(config))
        return paths

    @pytest.mark.parametrize(
        "argv, code, stdout",
        [
            ([], 2, ""),
            (["--version"], 0, "6387ed524f575620"),
            (["nosuch"], 2, ""),
            (["sea", "schur", "int:1..5", "-r", "2"], 2, ""),
            (["catalog", "extra"], 2, ""),
            (["largeset", "bad", "int:1..5"], 2, ""),
            (["verify"], 2, ""),
            (SEARCH + ["--version"], 2, ""),
            (SEARCH + ["--", "x"], 2, ""),
            (["search", "--", "schur", "int:1..5", "-r", "2"], 2, ""),
            (["--", "search"] + SEARCH[1:], 2, ""),
            (SEARCH + ["--nod", "3"], 0, "13f57729976f5793"),
            (["--conf", "{cfg}"] + SEARCH, 0, "55e252f6dd07b91c"),
            (["--config={cfg}"] + SEARCH, 0, "55e252f6dd07b91c"),
            (["--config", "{cfg}"], 2, ""),
            (SEARCH + ["--config", "{cfg}"], 2, ""),
            (["--config", "{cfg}", "catalog"], 0, "0463879b35dbd398"),
            (["--config", "{unknown}"] + SEARCH, 2, ""),
            (["--config", "{other}"] + SEARCH, 0, "a6b2d972205012bc"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
    )
    def test_exit_code_and_stdout(self, configs, capsys, argv, code, stdout):
        assert main([a.format(**configs) for a in argv]) == code
        assert _digest(capsys.readouterr().out) == stdout

    @pytest.mark.parametrize(
        "argv, usage",
        [
            (["-h"], TOP_USAGE),
            (["-h", "search"], TOP_USAGE),
            (["search", "-h"],
             "usage: qramsey search [-h] -r R [--cert-dir CERT_DIR] [--cert-stem CERT_STEM]\n"
             "                      [--allow-offsets] [--distinct] [--strict-x]\n"
             "                      [--nodes NODES] [--seconds SECONDS]\n"
             "                      family window"),
            (["verify", "-h"], "usage: qramsey verify [-h] [--rerun] certificate"),
        ],
        ids=["-h", "-h search", "search -h", "verify -h"],
    )
    def test_help_usage(self, monkeypatch, capsys, argv, usage):
        monkeypatch.setenv("COLUMNS", "80")
        assert main(argv) == 0
        assert capsys.readouterr().out.split("\n\n")[0] == usage


class TestParsersBuilt:
    """Each invocation builds the top-level parser and the invoked command's."""

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
        assert built == ["qramsey", "qramsey verify", "qramsey", "qramsey search"]

    def test_count_does_not_grow_with_the_table(self, certificate, built, monkeypatch):
        for k in range(20):
            monkeypatch.setitem(cli.COMMANDS, f"extra-{k}", ("", None, lambda p: None))
        assert main(["verify", certificate], out=io.StringIO()) == 0
        assert built == ["qramsey", "qramsey verify"]


class TestModuleEntry:
    def run_module(self, *argv):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        return subprocess.run([sys.executable, "-m", "qramsey", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_catalog(self):
        done = self.run_module("catalog")
        assert done.returncode == 0
        assert done.stdout == run_cli(["catalog"])[1]

    def test_unknown_command_exits_2(self):
        done = self.run_module("nosuch")
        assert done.returncode == 2
        assert done.stdout == ""


class TestReadme:
    def test_readme_commands_parse(self):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(path, encoding="utf-8") as fh:
            lines = [ln[len("$ qramsey "):] for ln in fh if ln.startswith("$ qramsey ")]
        assert len(lines) >= 10
        for line in lines:
            parse_args(shlex.split(line))
