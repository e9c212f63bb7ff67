"""The package's export list, and the independence of the tests' oracles."""

import ast
import os
import subprocess
import sys

import pytest

import qramsey

TESTS = os.path.dirname(__file__)


def test_every_exported_name_resolves():
    missing = [name for name in qramsey.__all__ if not hasattr(qramsey, name)]
    assert missing == []
    assert len(set(qramsey.__all__)) == len(qramsey.__all__)


def test_star_import_runs_without_warnings():
    src = os.path.dirname(os.path.dirname(qramsey.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", "from qramsey import *"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.parametrize("name", ["_brute.py", "_dpll.py"])
def test_oracle_imports_nothing_from_qramsey(name):
    with open(os.path.join(TESTS, name), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, name  # the walk saw the imports
    assert [m for m in imported if m.split(".")[0] in ("qramsey", "")] == [], name
