"""Benchmark of the qramsey command line: decide, certify and verify.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tables-and-sweeps --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Every command of a round runs through ``qramsey.cli.main`` in a child
forked from a parent that has imported qramsey but never run it, one child
at a time, so no command can reuse what an earlier one left in memory.
Rounds repeat until ``--seconds`` have passed, and at least two are made
when untraced.  Each command's time is scaled by readings of a fixed
reference computation taken around it, which takes out the swings of the
host's speed (see Reference and README.md, *Scaling*).  Every answer is then
checked by oracle.py, which shares no code with the program.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``,
from a separate traced round through the public API, see traced.py).
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
MIN_PROBES = 9
PROBE_EVERY_S = 4.0
# Untraced rounds a run makes even when --seconds has passed.
MIN_ROUNDS = 2
# Seconds of timed commands between two Reference readings.
READ_EVERY_S = 1.0
# Median Reference reading on a 2-core shared VM with Python 3.11.7.
REFERENCE_S = 0.08

sys.path.insert(0, HERE)

import oracle  # noqa: E402
import refute  # noqa: E402
from workloads import GAPPED_AP, SCHUR, WORKLOADS, row_spec  # noqa: E402

UPPER = "upper-bound"


# ---------------------------------------------------------------------------
# Isolated execution


def isolated(fn, *args):
    """Run fn(*args) in a forked child and return its JSON-able result."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    gc.freeze()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            data = json.dumps(fn(*args)).encode()
            with os.fdopen(wfd, "wb") as fh:
                fh.write(data)
            code = 0
        except BaseException:
            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(code)
    gc.unfreeze()
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"benchmark child for {fn.__name__}{args!r} failed")
    return json.loads(data)


def cli_call(argv: list[str]) -> dict:
    from qramsey.cli import main

    out = io.StringIO()
    sys.stderr = io.StringIO()  # timing chatter of the command line
    start = perf_counter()
    code = main(argv, out=out)
    end = perf_counter()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"code": code, "stdout": out.getvalue(), "start": start, "end": end,
            "maxrss_kb": maxrss_kb}


# ---------------------------------------------------------------------------
# Rounds


def _certificates(directory: str) -> list[str]:
    if not os.path.isdir(directory):
        return []
    return [os.path.join(directory, f) for f in sorted(os.listdir(directory))]


def _kind(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["kind"]


def _forge(certs: list[str], directory: str) -> str:
    """Turn this round's first upper bound into a false claim about Schur on int:1..4."""
    source = next(p for p in certs if _kind(p) == UPPER)
    with open(source, encoding="utf-8") as fh:
        cert = json.load(fh)
    cert.update({"family": "x; y; x + t", "window": "int:1..4", "r": 2})
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "forged.upper-bound.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cert, fh, sort_keys=True, indent=2)
    return path


def _reference_work() -> float:
    start = perf_counter()
    oracle.avoidance_clauses(SCHUR, oracle.farey_window(5), 2)
    oracle.solve_avoidance(GAPPED_AP, oracle.int_window(1, 30), 3)
    return perf_counter() - start


class Reference:
    """The host's speed, read from a fixed computation of the benchmark's own.

    The host's speed swings by up to half, within seconds and for minutes at
    a time (README.md, *Noise*).  A reading runs _reference_work in a forked
    child, as a command runs: Fraction arithmetic and a small solver from
    oracle.py, which imports nothing from qramsey, so no change to the
    program moves it.  A reading is taken after the first command that ends
    READ_EVERY_S or more after the last one.  Each command's time is scaled
    by REFERENCE_S over the mean of the readings just before and after it:
    its time at the host speed where a reading takes REFERENCE_S.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []
        self._pending: list[tuple[dict, float]] = []
        self.restart()

    def restart(self) -> None:
        """Take a fresh reading, as after a pause in which nothing was timed."""
        if self._pending:
            raise RuntimeError("timings left unscaled")
        self.readings.append(isolated(_reference_work))
        self._at = perf_counter()

    def add(self, rec: dict, seconds: float) -> None:
        """Set rec["scaled"] from seconds once the next reading is taken."""
        self._pending.append((rec, seconds))
        if perf_counter() - self._at >= READ_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        before = self.readings[-1]
        self.readings.append(isolated(_reference_work))
        self._at = perf_counter()
        factor = REFERENCE_S * 2 / (before + self.readings[-1])
        for rec, seconds in self._pending:
            rec["scaled"] = seconds * factor
        self._pending.clear()


def timed(ref: Reference, argv: list[str]) -> dict:
    res = isolated(cli_call, argv)
    ref.add(res, res["end"] - res["start"])
    return res


def run_round(workload, directory: str, ref: Reference, probes: SetupProbes | None) -> dict:
    ref.restart()
    decide, certs = [], []
    for k, op in enumerate(workload.ops):
        if probes:
            probes.due()
        cert_dir = os.path.join(directory, f"op{k}")
        decide.append(timed(ref, op.argv(cert_dir)))
        certs += _certificates(cert_dir)
    verify = []
    for path in certs:
        if probes:
            probes.due()
        argv = ["verify", path] + (["--rerun"] if _kind(path) == UPPER else [])
        verify.append(timed(ref, argv))
    forged = None
    if workload.forged_verify:
        forged = timed(ref, ["verify", _forge(certs, os.path.join(directory, "forged"))])
    ref.flush()
    return {"dir": directory, "decide": decide, "verify": verify, "forged": forged}


def wall_s(ops: list[dict]) -> float:
    return sum(op["end"] - op["start"] for op in ops)


def scaled_s(ops: list[dict]) -> float:
    return sum(op["scaled"] for op in ops)


def run_traced_round(workload, directory: str) -> dict:
    import traced

    decide, certs = [], []
    for k, op in enumerate(workload.ops):
        cert_dir = os.path.join(directory, f"op{k}")
        decide.append(isolated(traced.traced_decide, op, cert_dir, f"op{k}"))
        certs += _certificates(cert_dir)
    verify = [isolated(traced.traced_verify, p, f"verify{i}") for i, p in enumerate(certs)]
    return {"decide": decide, "verify": verify}


# ---------------------------------------------------------------------------
# Checks against the oracle


class Checker:
    """Checks every answer; memoises what it has proved within this run."""

    def __init__(self) -> None:
        self.errors: list[str] = []
        self._windows: dict[str, oracle.Win] = {}
        self._avoiding: set = set()
        self._refuted: dict[tuple, list[oracle.Win]] = {}
        for entry in refute.load_expected():
            fam = oracle.fam_from_json(entry["terms"])
            oracle.check_avoiding(
                fam, self.win(entry["avoiding_window"]), entry["avoiding_coloring"], entry["r"]
            )
            # Refuted once by refute.py; see expected.json for the command.
            self._refuted.setdefault((fam, entry["r"]), []).append(
                self.win(entry["exhausted_window"])
            )

    def win(self, spec: str) -> oracle.Win:
        if spec not in self._windows:
            self._windows[spec] = oracle.window_from_spec(spec)
        return self._windows[spec]

    @staticmethod
    def _published(inst, spec: str) -> int | None:
        """Largest avoidable n for int:1..n windows of a published instance."""
        if inst.published is None or not spec.startswith("int:1.."):
            return None
        return oracle.PUBLISHED_LARGEST_AVOIDABLE[(inst.published, inst.r)]

    def avoiding(self, inst, spec: str, colors) -> None:
        largest = self._published(inst, spec)
        if largest is not None and int(spec[len("int:1.."):]) > largest:
            raise oracle.OracleError(f"{inst.family} avoidable on {spec} at r={inst.r}, "
                                     f"beyond the published threshold {largest}")
        key = (inst.fam, inst.r, spec, tuple(colors))
        if key not in self._avoiding:
            oracle.check_avoiding(inst.fam, self.win(spec), colors, inst.r)
            self._avoiding.add(key)

    def exhausted(self, inst, spec: str) -> None:
        largest = self._published(inst, spec)
        if largest is not None:
            if int(spec[len("int:1.."):]) <= largest:
                raise oracle.OracleError(f"{inst.family} exhausted on {spec} at r={inst.r}, "
                                         f"but the published threshold is {largest}")
            return
        if self.truth(inst, spec) != "exhausted":
            raise oracle.OracleError(f"{inst.family} exhausted on {spec} at r={inst.r}, "
                                     "but the oracle found an avoiding coloring")

    def truth(self, inst, spec: str) -> str:
        """'exhausted' when a refuted sub-window lies inside spec, else solve spec."""
        refuted = self._refuted.setdefault((inst.fam, inst.r), [])
        window = self.win(spec)
        if inst.anchor and not refuted:
            self._solve(inst, self.win(inst.anchor), refuted)
        if any(window.contains_window(sub) for sub in refuted):
            return "exhausted"
        return self._solve(inst, window, refuted)

    def _solve(self, inst, window: oracle.Win, refuted: list) -> str:
        colors = oracle.solve_avoidance(inst.fam, window, inst.r, max_decisions=200_000)
        if colors is None:
            refuted.append(window)
            return "exhausted"
        self._avoiding.add((inst.fam, inst.r, window.spec, tuple(colors)))
        return "avoiding"

    def rows(self, inst, rows) -> None:
        for spec, outcome, colors in rows:
            if outcome == "avoiding" and colors is not None:
                self.avoiding(inst, spec, colors)
            elif outcome == "avoiding":
                if self.truth(inst, spec) != "avoiding":
                    raise oracle.OracleError(f"{inst.family} reported avoidable on {spec}")
            elif outcome == "exhausted":
                self.exhausted(inst, spec)
            else:
                raise oracle.OracleError(f"{inst.family} on {spec}: outcome {outcome!r}")


def _read_cert(path: str) -> tuple[str, list | None]:
    with open(path, encoding="utf-8") as fh:
        cert = json.load(fh)
    return cert["kind"], cert.get("coloring")


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise oracle.OracleError(message)


def check_decide(checker: Checker, op, res: dict, cert_dir: str) -> bool:
    """Check one untraced decide command; False when a known fault showed."""
    _expect(res["code"] == 0, f"{op.argv(cert_dir)} exited {res['code']}")
    if op.kind == "search":
        payload = json.loads(res["stdout"])
        certs = _certificates(cert_dir)
        _expect(len(certs) == 1, f"search wrote {len(certs)} certificates")
        kind, colors = _read_cert(certs[0])
        outcome = payload["outcome"]
        _expect(kind == {"avoiding": "lower-bound", "exhausted": UPPER}.get(outcome),
                f"{outcome} search wrote a {kind} certificate")
        _expect(payload["coloring"] == colors, "search output and certificate colorings differ")
        checker.rows(op.inst, [(op.window, outcome, colors)])
        return True
    if op.kind == "sweep":
        rows = list(csv.DictReader(io.StringIO(res["stdout"])))
        _expect([int(row["n"]) for row in rows] == list(range(op.lo, op.hi + 1)),
                f"sweep rows do not cover {op.lo}..{op.hi}")
        checked = []
        for row in rows:
            kind, colors = _read_cert(row["certificate_path"])
            _expect(kind == {"avoiding": "lower-bound", "exhausted": UPPER}.get(row["outcome"]),
                    f"{row['outcome']} sweep row wrote a {kind} certificate")
            checked.append((row_spec(op.template, int(row["n"])), row["outcome"], colors))
        checker.rows(op.inst, checked)
        if op.min_exhausted is not None:
            first = next((int(r["n"]) for r in rows if r["outcome"] == "exhausted"), None)
            _expect(first == op.min_exhausted,
                    f"{op.inst.family}: minimal exhausted n {first}, expected {op.min_exhausted}")
        return True
    payload = json.loads(res["stdout"])
    inst = op.inst
    _expect(payload["columns_condition"] == oracle.single_equation_regular(op.coeffs),
            f"{op.equation}: wrong columns condition")
    _expect([row["n"] for row in payload["rows"]] == list(range(1, op.n_max + 1)),
            f"{op.equation}: rows do not cover 1..{op.n_max}")
    checker.rows(inst, [(f"int:1..{row['n']}", row["outcome"], None) for row in payload["rows"]])
    # At a fixed r no finite outcome can contradict either verdict: regularity
    # promises exhaustion only eventually, non-regularity an avoiding coloring
    # only for some number of colors.
    return payload["consistent"] is True


def check_traced_decide(checker: Checker, op, res: dict) -> None:
    if op.kind == "search":
        specs, inst = [op.window], op.inst
    elif op.kind == "sweep":
        specs, inst = [row_spec(op.template, n) for n in range(op.lo, op.hi + 1)], op.inst
    else:
        specs, inst = [f"int:1..{n}" for n in range(1, op.n_max + 1)], op.inst
    _expect(len(specs) == len(res["outcomes"]), "traced run decided a different number of rows")
    checker.rows(inst, [(s, o, c) for s, (o, c) in zip(specs, res["outcomes"])])


def check_round(checker: Checker, workload, rnd: dict) -> int:
    """Check an untraced round and return the number of failed operations."""
    failed = 0
    for k, (op, res) in enumerate(zip(workload.ops, rnd["decide"])):
        label = f"{workload.name} op{k} {op.kind} {' '.join(op.argv('DIR'))}"
        try:
            if not check_decide(checker, op, res, os.path.join(rnd["dir"], f"op{k}")):
                failed += 1
                if not getattr(op, "known_fault", False):
                    checker.errors.append(f"{label}: inconsistent report")
        except (oracle.OracleError, KeyError, TypeError, ValueError, OSError) as exc:
            failed += 1
            checker.errors.append(f"{label}: {exc}")
    for res in rnd["verify"]:
        if res["code"] != 0 or not _reports_ok(res):
            failed += 1
            checker.errors.append(f"verify rejected a genuine certificate: {res['stdout']!r}")
    forged = rnd["forged"]
    if forged is not None and (forged["code"] == 0 or _reports_ok(forged)):
        failed += 1  # known fault: plain verify trusts any upper bound
    return failed


def _reports_ok(res: dict) -> bool:
    try:
        return json.loads(res["stdout"]).get("ok") is True
    except ValueError:
        return False


def attempted_per_round(workload, rnd: dict) -> int:
    return len(rnd["decide"]) + len(rnd["verify"]) + (rnd["forged"] is not None)


# ---------------------------------------------------------------------------
# Metrics


class SetupProbes:
    """Set-up samples: each launches a fresh interpreter that imports qramsey
    and builds the workload's inputs (probe.py), timed from launch until it
    is ready.  Samples are taken between operations all through the run, so
    that they meet the machine in more than one state of load."""

    def __init__(self, workload: str, seed: int, ref: Reference) -> None:
        self.argv = [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)]
        self.ref = ref
        self.samples: list[dict] = []
        self.last = float("-inf")

    def sample(self) -> None:
        start = perf_counter()
        proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=120, check=True)
        self.samples.append({})
        self.ref.add(self.samples[-1], float(proc.stdout.split()[-1]) - start)
        self.last = perf_counter()

    def due(self) -> None:
        if perf_counter() - self.last >= PROBE_EVERY_S:
            self.sample()

    def median(self) -> float:
        if len(self.samples) < MIN_PROBES:
            self.ref.restart()
            while len(self.samples) < MIN_PROBES:
                self.sample()
            self.ref.flush()
        return statistics.median(p["scaled"] for p in self.samples)


def layer_metrics(traced_round: dict, untraced_total: float) -> tuple[dict, list]:
    from traced import DECIDE_ROOTS, VERIFY_ROOT

    spans = []
    counts: dict[str, float] = {}
    for res in traced_round["decide"] + traced_round["verify"]:
        base = len(spans)
        for s in res["spans"]:
            spans.append({**s, "parent": None if s["parent"] is None else s["parent"] + base})
        for name, k in res["counts"].items():
            counts[name] = counts.get(name, 0) + k
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    self_s: dict[str, float] = {}
    for s, cov in zip(spans, covered):
        name = "cli.self" if s["name"].startswith("op.") else s["name"]
        self_s[name] = self_s.get(name, 0.0) + (s["end"] - s["start"] - cov)
    decide = sum(s["end"] - s["start"] for s in spans if s["name"] in DECIDE_ROOTS)
    total = decide + sum(s["end"] - s["start"] for s in spans if s["name"] == VERIFY_ROOT)
    m = {f"{name}_s": self_s.get(name, 0.0) for name in LAYER_SPANS}
    m.update({name: counts.get(name, 0) for name in LAYER_COUNTS})
    m["search.nodes_per_s"] = m["search.nodes"] / m["search.search_s"] if m["search.search_s"] else 0.0
    m["trace.overhead_s"] = total - untraced_total
    m["split.table_share"] = 100.0 * m["detector.table_s"] / decide
    m["split.search_share"] = 100.0 * m["search.search_s"] / decide
    return m, spans


LAYER_SPANS = (
    "windows.build", "detector.table", "detector.groups", "detector.witness", "search.search",
    "certificates.write", "certificates.verify_lower", "certificates.verify_upper",
    "rado.columns", "rado.validate", "cnf.export", "cli.self",
)
LAYER_COUNTS = (
    "windows.elements", "detector.entries", "detector.groups", "search.nodes", "search.rows",
    "certificates.bytes", "cnf.clauses",
)
UNITS = {"search.nodes_per_s": "1/s", "certificates.bytes": "bytes",
         "split.table_share": "%", "split.search_share": "%"}


def unit_of(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


# ---------------------------------------------------------------------------
# Entry point


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import qramsey.cli  # noqa: F401  the children inherit the imported program

    workload = WORKLOADS[name](seed)
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        ref = Reference()
        probes = None if trace else SetupProbes(name, seed, ref)
        rounds, traced_rounds = [], []
        start = perf_counter()
        least = 1 if trace else MIN_ROUNDS  # a traced round doubles the run
        while len(rounds) < least or perf_counter() - start < seconds:
            k = len(rounds)
            rounds.append(run_round(workload, os.path.join(work, f"round{k}"), ref, probes))
            if trace:
                traced_rounds.append(run_traced_round(workload, os.path.join(work, f"traced{k}")))
        # Only commands: set-up probes peak while importing, readings are small.
        peak_rss_mb = max(op["maxrss_kb"] for r in rounds for op in r["decide"] + r["verify"]) / 1024

        checker = Checker()
        failed = sum(check_round(checker, workload, rnd) for rnd in rounds)
        attempted = sum(attempted_per_round(workload, rnd) for rnd in rounds)
        for tr in traced_rounds:
            for op, res in zip(workload.ops, tr["decide"]):
                try:
                    check_traced_decide(checker, op, res)
                except oracle.OracleError as exc:
                    checker.errors.append(f"traced {op.kind}: {exc}")
            if not all(v["outcomes"][0][0] is True for v in tr["verify"]):
                checker.errors.append("traced verify rejected a genuine certificate")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        per_round, spans = [], []
        for k, (rnd, tr) in enumerate(zip(rounds, traced_rounds)):
            m, round_spans = layer_metrics(tr, wall_s(rnd["decide"]) + wall_s(rnd["verify"]))
            per_round.append(m)
            spans.append({"round": k, "spans": round_spans})
        values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json"), "w") as fh:
            json.dump({"workload": name, "seed": seed, "rounds": spans}, fh)
    else:
        values = {
            "setup_s": probes.median(),
            "decide_s": statistics.median(scaled_s(r["decide"]) for r in rounds),
            "verify_s": statistics.median(scaled_s(r["verify"]) for r in rounds),
            "peak_rss_mb": peak_rss_mb,
        }
    for err in checker.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    return {
        "correct": not checker.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": "MB" if k == "peak_rss_mb" else unit_of(k)}
                    for k, v in values.items()},
        "rounds": len(rounds),
        "unscaled": {} if trace else {
            "decide_s": statistics.median(wall_s(r["decide"]) for r in rounds),
            "verify_s": statistics.median(wall_s(r["verify"]) for r in rounds),
            "reference_s": statistics.median(ref.readings),
        },
    }


def _summary(name: str, result: dict) -> str:
    parts = [f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
    unscaled = [f"{k} {v:.6g} s" for k, v in result["unscaled"].items()]
    return (f"{name}: rounds {result['rounds']}, attempted {result['attempted']}, "
            f"failed {result['failed']}, correct {result['correct']}; " + ", ".join(parts)
            + ("; unscaled medians: " + ", ".join(unscaled) if unscaled else ""))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qramsey", "cli.py")):
        print(f"error: no qramsey sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import selftest

    selftest.run()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if len(names) > 1:
        # One process per workload, so each peak RSS is its own.
        results = {}
        for name in names:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, check=False,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            *summary, last = proc.stdout.splitlines()
            print("\n".join(summary))
            results[name] = json.loads(last)
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }))
        return 0
    result = run_workload(names[0], args.seed, args.seconds, bool(args.trace))
    print(_summary(names[0], result))
    del result["rounds"], result["unscaled"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
