"""Golden outputs: stdout, exit code and written files of fixed CLI runs.

The commands below run in order in one empty directory, so the ``verify``
steps read the certificates that the earlier steps wrote.  Each step is
compared with its record in ``golden.json``: the exit code, the stdout text
and the bytes of every file the step created or changed.  The commands are
every offline ``$ qramsey`` example of README.md (the SAT model that the
README gets from ``minisat`` is a fixed file here), one ``search --cert-dir``
on each window kind, one on a catalog key with ``--distinct``, a sweep with
certificates, sweeps on the farey and mgrid ladders, ``rado --validate`` of
a family without y, and ``verify`` of every certificate written.

Every JSON stdout and JSON file must be strict JSON: ``json.dumps`` writes
``Infinity`` and ``NaN``, which are not JSON, and no record may hold them.

After a deliberate change of output, rewrite the records with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/golden.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import sys
import tempfile

import pytest

from qramsey.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# SAT models for import-sat: the avoiding coloring [0,1,1,0,1,0,1,0,1,0,1,0]
# of question-hs on int:1..12, and the all-zero coloring, which is not.
INPUTS = {
    "q.out": "s SATISFIABLE\nv 1 -2 -3 4 -5 6 7 -8 -9 10 11 -12 -13 14 15 -16 "
    "-17 18 19 -20 -21 22 23 -24 0\n",
    "zero.out": "v " + " ".join(f"{2 * e + 1} {-(2 * e + 2)}" for e in range(12)) + " 0\n",
}

COMMANDS = [
    # README examples
    "search schur int:1..5 -r 2",
    "search schur int:1..4 -r 2 --cert-dir certs --cert-stem s4",
    "verify certs/s4.lower-bound.json",
    "search schur int:1..5 -r 2 --cert-dir certs --cert-stem s5",
    "verify certs/s5.upper-bound.json --rerun",
    "detect schur int:1..4 --colors [0,1,1,0]",
    'sweep "vdw(2)" -r 2 --lo 1 --hi 9 --cert-dir certs',
    'rado "x1 + x2 - 3*x3 = 0" --validate -r 2 --n-max 12',
    'export-cnf "question-hs" int:1..12 -r 2 --out q.cnf',
    'import-sat "question-hs" int:1..12 -r 2 q.out',
    # one search with certificates on each window kind, catalog keys with lists
    'search "quotient-poly(1,[t])" int:1..12 -r 2 --cert-dir certs --cert-stem qp',
    "search schur farey:3 -r 2 --cert-dir certs --cert-stem f3",
    'search "product-poly(1,[t^2])" farey:3 -r 2 --cert-dir certs --cert-stem pp',
    'search "bowen-sabok(1)" farey:4 -r 2 --cert-dir certs --cert-stem bs',
    "search question-hs mgrid:2,3:1 -r 2 --cert-dir certs --cert-stem m",
    'search "quotient-poly(1,[t])" mgrid:2,3:1:+sign -r 2 --cert-dir certs --cert-stem ms',
    # a catalog key with a family flag
    'search "quotient-poly(1,[t])" farey:3 -r 2 --distinct --cert-dir certs --cert-stem qd',
    "sweep schur --template farey -r 2 --lo 1 --hi 3 --cert-dir certs",
    "detect schur farey:3 --colors [0,1,0,1,0,1,0,1,0,1,0,1,0,1,0]",
    "export-cnf schur mgrid:2:2:+sign -r 2",
    'import-sat "question-hs" int:1..12 -r 2 zero.out',
    # verify every certificate written above
    *(f"verify certs/int-{n}.lower-bound.json" for n in range(1, 9)),
    "verify certs/int-9.upper-bound.json",
    "verify certs/int-9.upper-bound.json --rerun",
    "verify certs/s5.upper-bound.json",
    "verify certs/qp.upper-bound.json --rerun",
    "verify certs/f3.upper-bound.json --rerun",
    "verify certs/pp.lower-bound.json",
    "verify certs/bs.lower-bound.json",
    "verify certs/m.lower-bound.json",
    "verify certs/ms.upper-bound.json --rerun",
    "verify certs/qd.upper-bound.json --rerun",
    "verify certs/farey-1.lower-bound.json",
    "verify certs/farey-2.upper-bound.json --rerun",
    "verify certs/farey-3.upper-bound.json --rerun",
    # window ladders: sweeps on the farey and mgrid ladders, one of a family
    # without y, rado --validate on the int ladder, and verify of every
    # certificate the sweeps wrote
    'sweep "quotient-poly(1,[t])" --template farey -r 2 --lo 1 --hi 4 --cert-dir ladders',
    "sweep question-hs --template mgrid:2,3 -r 2 --lo 0 --hi 2 --cert-dir ladders",
    'sweep "quotient-poly(1,[t])" --template mgrid:2,3 -r 2 --lo 0 --hi 2 --cert-dir grids',
    'sweep "x; 2*x + 0" --strict-x --template farey -r 2 --lo 1 --hi 3 --cert-dir pins',
    'rado "x1 - 2*x2 = 0" --validate -r 2 --n-max 8',
    *(f"verify ladders/farey-{n}.lower-bound.json" for n in (1, 2)),
    *(f"verify ladders/farey-{n}.upper-bound.json --rerun" for n in (3, 4)),
    *(f"verify ladders/mgrid_2_3-{n}.lower-bound.json" for n in range(3)),
    "verify grids/mgrid_2_3-0.lower-bound.json",
    *(f"verify grids/mgrid_2_3-{n}.upper-bound.json --rerun" for n in (1, 2)),
    *(f"verify pins/farey-{n}.lower-bound.json" for n in range(1, 4)),
]


def _snapshot(root: str) -> dict[str, bytes]:
    files = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root).replace(os.sep, "/")] = fh.read()
    return files


def run_steps(root: str) -> list[dict]:
    """Run every command in ``root`` and record what each one produced."""
    for name, text in INPUTS.items():
        with open(os.path.join(root, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    records = []
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for command in COMMANDS:
            before = _snapshot(root)
            out = io.StringIO()
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(shlex.split(command), out=out)
            after = _snapshot(root)
            written = {
                p: b.decode("utf-8") for p, b in sorted(after.items()) if before.get(p) != b
            }
            records.append({"command": command, "exit": code, "stdout": out.getvalue(),
                            "files": written})
    finally:
        os.chdir(cwd)
    return records


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return run_steps(str(tmp_path_factory.mktemp("golden")))


@pytest.fixture(scope="module")
def expected():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def check_strict_json(records: list[dict]) -> None:
    """Parse every JSON stdout and JSON file in ``records``; raise on Infinity or NaN."""
    for record in records:
        texts = [record["stdout"]] if record["stdout"].startswith("{") else []
        texts += [text for path, text in record["files"].items() if path.endswith(".json")]
        for text in texts:
            json.loads(text, parse_constant=_reject_constant)


@pytest.mark.parametrize("step", range(len(COMMANDS)), ids=COMMANDS)
def test_step_matches_golden(produced, expected, step):
    assert len(expected) == len(COMMANDS)
    assert produced[step] == expected[step]


def test_json_is_strict(produced, expected):
    check_strict_json(produced)
    check_strict_json(expected)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        records = run_steps(root)
    check_strict_json(records)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
