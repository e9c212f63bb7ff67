"""Every decide and verify command of the benchmark's workloads runs through the CLI.

``perfbench/workloads.py`` passes catalog keys, family text, options and
commands to ``qramsey``.  Each decide operation of both workloads (seed 1)
runs here through ``main`` with its own certificate directory and must exit
0, and each certificate it writes must verify as ``perfbench/run.py``
verifies it: plain ``verify`` for a lower bound, ``verify --rerun`` for an
upper bound.  The certificate that run.py forges from integer-search's first
upper bound must not verify.  So a change that drops a key, an option or a
command the benchmark passes fails here first.  The workloads are only read.
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr

import pytest

from qramsey.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def _operations():
    sys.path.insert(0, PERFBENCH)  # workloads imports its oracle as a top-level module
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(PERFBENCH)
    return [(f"{name} op{k} {op.kind}", op)
            for name, make in sorted(WORKLOADS.items())
            for k, op in enumerate(make(1).ops)]


OPERATIONS = _operations()


def test_both_workloads_are_read():
    names = {label.split()[0] for label, _ in OPERATIONS}
    assert names == {"integer-search", "tables-and-sweeps"}


def _run(argv):
    out = io.StringIO()
    with redirect_stderr(io.StringIO()) as err:
        code = main(argv, out=out)
    return code, out.getvalue(), err.getvalue()


def _certificates(directory):
    """The certificates a decide wrote, in the order run.py verifies them."""
    return sorted(directory.iterdir()) if directory.is_dir() else []


def _kind(path):
    return json.loads(path.read_text(encoding="utf-8"))["kind"]


@pytest.mark.parametrize("op", [op for _, op in OPERATIONS], ids=[label for label, _ in OPERATIONS])
def test_decide_command_exits_zero(tmp_path, op):
    argv = op.argv(str(tmp_path / "certs"))
    code, _, err = _run(argv)
    assert code == 0, (argv, err)
    for path in _certificates(tmp_path / "certs"):
        rerun = ["--rerun"] if _kind(path) == "upper-bound" else []
        code, text, err = _run(["verify", str(path)] + rerun)
        assert (code, json.loads(text)["ok"]) == (0, True), (argv, path.name, text, err)


def test_forged_upper_bound_does_not_verify(tmp_path):
    # run.py's _forge: the round's first upper bound, relabelled as a claim
    # that Schur triples are unavoidable on int:1..4 with two colors (false).
    certs = []
    ops = [op for label, op in OPERATIONS if label.startswith("integer-search ")]
    for k, op in enumerate(ops):
        assert _run(op.argv(str(tmp_path / f"op{k}")))[0] == 0
        certs += _certificates(tmp_path / f"op{k}")
    source = next(p for p in certs if _kind(p) == "upper-bound")
    cert = json.loads(source.read_text(encoding="utf-8"))
    cert.update({"family": "x; y; x + t", "window": "int:1..4", "r": 2})
    forged = tmp_path / "forged.upper-bound.json"
    forged.write_text(json.dumps(cert), encoding="utf-8")
    code, text, _ = _run(["verify", str(forged)])
    assert code != 0
    assert json.loads(text)["ok"] is not True
