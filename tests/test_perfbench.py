"""Every decide command of the benchmark's workloads runs through the CLI.

``perfbench/workloads.py`` passes catalog keys, family text, options and
commands to ``qramsey``.  Each decide operation of both workloads (seed 1)
runs here through ``main`` with its own certificate directory and must exit
0, so a change that drops a key, an option or a command the benchmark passes
fails here first.  The workloads are only read.
"""

import io
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


@pytest.mark.parametrize("op", [op for _, op in OPERATIONS], ids=[label for label, _ in OPERATIONS])
def test_decide_command_exits_zero(tmp_path, op):
    argv = op.argv(str(tmp_path / "certs"))
    with redirect_stderr(io.StringIO()) as err:
        code = main(argv, out=io.StringIO())
    assert code == 0, (argv, err.getvalue())
