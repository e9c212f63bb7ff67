"""Recompute the stored answers in expected.json with the benchmark's own solver.

No published value covers the exhausted integer-search instances
"x; x + t; x + 4*t; x + 5*t" on int:1..45 and "x; x + t; x + 3*t; x + 6*t"
on int:1..52, both at r = 2, so their refutations are computed once by the
benchmark's own solver and stored, instead of being recomputed in every
benchmark run.  Regenerate them with

    python3 perfbench/refute.py

which solves int:1..(n-1) (must have an avoiding coloring) and int:1..n
(must have none) with oracle.solve_avoidance and rewrites expected.json.
"""

from __future__ import annotations

import json
import os
import platform
import re
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402

EXPECTED_PATH = os.path.join(HERE, "expected.json")

# Every entry: the family as CLI text and as an oracle spec, the color count
# and the first window size n at which no avoiding coloring exists.
REFUTATIONS = [
    {
        "family_text": "x; x + t; x + 4*t; x + 5*t",
        "terms": [["x"], ["aff", 1, [1], 1], ["aff", 1, [4], 1], ["aff", 1, [5], 1]],
        "r": 2,
        "n": 45,
    },
    {
        "family_text": "x; x + t; x + 3*t; x + 6*t",
        "terms": [["x"], ["aff", 1, [1], 1], ["aff", 1, [3], 1], ["aff", 1, [6], 1]],
        "r": 2,
        "n": 52,
    },
]


def regenerate() -> dict:
    out = []
    for entry in REFUTATIONS:
        fam, r, n = oracle.fam_from_json(entry["terms"]), entry["r"], entry["n"]
        t0 = time.perf_counter()
        below = oracle.solve_avoidance(fam, oracle.int_window(1, n - 1), r)
        t1 = time.perf_counter()
        at = oracle.solve_avoidance(fam, oracle.int_window(1, n), r)
        t2 = time.perf_counter()
        if below is None or at is not None:
            raise SystemExit(f"{entry['family_text']}: threshold is not {n} at r={r}")
        out.append({
            **entry,
            "avoiding_window": f"int:1..{n - 1}",
            "avoiding_coloring": below,
            "exhausted_window": f"int:1..{n}",
            "solve_seconds": {"avoiding": round(t1 - t0, 1), "exhausted": round(t2 - t1, 1)},
        })
    return {
        "command": "python3 perfbench/refute.py",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "refutations": out,
    }


def load_expected() -> list[dict]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)["refutations"]


if __name__ == "__main__":
    data = regenerate()
    text = json.dumps(data, indent=1)
    # Keep lists of numbers and strings on one line.
    flat = r"[^\[\]{}]*"
    text = re.sub(
        rf"\[{flat}(?:\[{flat}\]{flat})*\]", lambda m: json.dumps(json.loads(m.group(0))), text
    )
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(json.dumps([entry["solve_seconds"] for entry in data["refutations"]]))
