"""The traced run: the command line's work, redone through the public API.

Each operation calls the same qramsey functions the command line calls, in
the same order, and records a span (name, start, end, parent, operation)
around each call into a layer.  Calls that the command line does not make,
but that measure a layer on its own (constraint_groups, find_witness with a
prebuilt table, export_cnf, columns_condition), run after the operation's
root span has closed, so the root spans cover the same work as the untraced
commands and their difference from the untraced totals is the tracing
overhead.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from time import perf_counter

from qramsey.certificates import (
    certificate_for_result,
    load_certificate,
    verify_certificate,
    write_certificate,
)
from qramsey.cnf import export_cnf
from qramsey.detector import build_candidates, find_witness
from qramsey.patterns import builtin_family, parse_family
from qramsey.rado import columns_condition, cross_validate, parse_equation
from qramsey.search import search_avoiding
from qramsey.windows import parse_window
from workloads import row_spec

# Root span names; their durations are the traced decide and verify totals.
DECIDE_ROOTS = ("op.search", "op.sweep", "op.rado")
VERIFY_ROOT = "op.verify"


class Tracer:
    """Spans and counters of one operation, kept in memory until it ends."""

    def __init__(self, op: str) -> None:
        self.op = op
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": perf_counter(),
            "end": None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def count(self, name: str, k: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + k


def _family(inst):
    # The command line's resolution order: catalog key first, then family text.
    try:
        return builtin_family(inst.family)
    except KeyError:
        return parse_family(
            inst.family,
            allow_offsets="--allow-offsets" in inst.flags,
            require_distinct_values="--distinct" in inst.flags,
            strict_nonzero_x="--strict-x" in inst.flags,
        )


def _decide(tr: Tracer, family, spec: str, r: int, cert_dir: str, stem: str, after: list):
    """One search as the command line runs it; returns its outcome and coloring."""
    with tr.span("windows.build"):
        window = parse_window(spec)
        elems = window.elements()
        window.index_of(elems[0])
    tr.count("windows.elements", len(elems))
    with tr.span("detector.table"):
        table = build_candidates(family, window)
    tr.count("detector.entries", len(table.entries))
    with tr.span("search.search"):
        res = search_avoiding(family, window, r, table=table)
    tr.count("search.nodes", res.nodes)
    with tr.span("certificates.write"):
        path = write_certificate(certificate_for_result(res), cert_dir, stem)
    tr.count("certificates.bytes", os.path.getsize(path))
    after.append((family, window, r, table, res))
    return [res.outcome, None if res.coloring is None else list(res.coloring.colors)]


def _layer_calls(tr: Tracer, after: list) -> None:
    """Calls made only to time a layer on its own, outside every root span."""
    for family, window, r, table, res in after:
        with tr.span("detector.groups"):
            groups = table.constraint_groups()
        tr.count("detector.groups", len(groups))
        if res.coloring is not None:
            with tr.span("detector.witness"):
                find_witness(family, res.coloring, table)
        with tr.span("cnf.export"):
            cnf = export_cnf(family, window, r, table=table)
        tr.count("cnf.clauses", len(cnf.clauses))


def traced_decide(op, cert_dir: str, label: str) -> dict:
    tr = Tracer(label)
    after: list = []
    if op.kind == "search":
        with tr.span("op.search"):
            family = _family(op.inst)
            outcomes = [_decide(tr, family, op.window, op.inst.r, cert_dir, "result", after)]
    elif op.kind == "sweep":
        with tr.span("op.sweep"):
            family = _family(op.inst)
            stem = op.template.replace(":", "_").replace(",", "_")
            outcomes = []
            for n in range(op.lo, op.hi + 1):
                outcomes.append(_decide(
                    tr, family, row_spec(op.template, n), op.inst.r, cert_dir, f"{stem}-{n}", after
                ))
        tr.count("search.rows", len(outcomes))
    else:
        with tr.span("op.rado"):
            system = parse_equation(op.equation)
            with tr.span("rado.validate"):
                report = cross_validate(system, op.r, op.n_max)
        outcomes = [[row.outcome, None] for row in report.rows]
        with tr.span("rado.columns"):
            columns_condition(system)
    _layer_calls(tr, after)
    return {"spans": tr.spans, "counts": tr.counts, "outcomes": outcomes}


def traced_verify(path: str, label: str) -> dict:
    tr = Tracer(label)
    with tr.span(VERIFY_ROOT):
        cert = load_certificate(path)
        upper = cert["kind"] == "upper-bound"
        with tr.span("certificates.verify_upper" if upper else "certificates.verify_lower"):
            res = verify_certificate(cert, rerun=upper)
    return {"spans": tr.spans, "counts": tr.counts, "outcomes": [[res.ok, None]]}
