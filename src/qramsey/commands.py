"""The command handlers of the command line.

Each handler takes the arguments ``cli`` read for its command and a buffer,
writes its document (JSON, or CSV for a sweep) into the buffer and returns
the exit code; ``cli.main`` writes the buffer to stdout once the handler is
done.  Timing and file notes go to stderr through ``note``.  The handlers
live apart from the argument reader for the reason ``split`` lives apart
from ``search``: no module of the package should be large to compile.
"""

from __future__ import annotations

import json
import sys
import time
from types import SimpleNamespace

from .arith import format_rational, parse_int
from .certificates import (
    certificate_for_result,
    load_certificate,
    verify_certificate,
    write_certificate,
)
from .cnf import export_cnf, import_assignment, parse_assignment, to_dimacs
from .colorings import Coloring, check_colors
from .detector import build_candidates, find_witness
from .patterns import Family, parse_family
from .rado import columns_condition, cross_validate, parse_equation, system_to_family
from .search import AVOIDING, EXHAUSTED, check_search_limits, search_avoiding, threshold_sweep
from .windows import Window, parse_window


def note(line: str) -> None:
    """Write ``line`` to stderr, or nothing where stderr is closed (None): a
    note never changes stdout or the exit code.  A stderr that refuses a
    write, such as a read-only descriptor 2, is closed from then on, so that
    the interpreter's final flush does not fail on the line either."""
    if sys.stderr is not None:
        try:
            print(line, file=sys.stderr)
        except OSError:
            sys.stderr = None


def _emit(out, payload: dict) -> None:
    out.write(json.dumps(payload, sort_keys=True, indent=2))
    out.write("\n")


def _resolve_family(args: SimpleNamespace) -> Family:
    return parse_family(
        args.family,
        allow_offsets=args.allow_offsets,
        require_distinct_values=args.distinct,
        strict_nonzero_x=args.strict_x,
    )


def _witness_json(w) -> dict | None:
    if w is None:
        return None
    return {
        "x": format_rational(w.x),
        "y": format_rational(w.y),
        "color": w.color,
        "values": [format_rational(v) for v in w.values],
    }


def _result_json(res) -> dict:
    return {
        "family": res.family.serialize(),
        "window": res.window_spec,
        "r": res.r,
        "outcome": res.outcome,
        "nodes": res.nodes,
        "proof_log_hash": res.proof_log_hash,
        "coloring": None if res.coloring is None else list(res.coloring.colors),
        "budget": {"max_nodes": res.max_nodes},
    }


def _coloring_from_args(window: Window, args: SimpleNamespace) -> Coloring:
    body = args.colors.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    if not body.replace(",", "").strip():
        raise ValueError("empty color list")
    # an empty entry between commas reaches parse_int, which rejects it
    colors = [parse_int(tok) for entry in body.split(",") for tok in entry.split() or [entry]]
    r = args.r if args.r is not None else max(max(colors), 0) + 1
    return Coloring(window, colors, r)


# ---------------------------------------------------------------------------
# Subcommand bodies


def cmd_detect(args, out) -> int:
    family = _resolve_family(args)
    window = parse_window(args.window)
    coloring = _coloring_from_args(window, args)
    table = build_candidates(family, window)
    witness = find_witness(family, coloring, table)
    _emit(out, {
        "family": family.serialize(),
        "window": window.spec_string(),
        "r": coloring.r,
        "candidates": len(table.entries),
        "witness": _witness_json(witness),
    })
    return 0


def _write_certificate(res, cert_dir: str | None, stem: str) -> str:
    """Write the certificate of an avoiding or exhausted result into
    ``cert_dir``; its path, or "" when nothing was written."""
    if cert_dir is None or res.outcome not in (AVOIDING, EXHAUSTED):
        return ""
    return write_certificate(certificate_for_result(res), cert_dir, stem)


def cmd_search(args, out) -> int:
    family = _resolve_family(args)
    window = parse_window(args.window)
    res = search_avoiding(family, window, args.r, max_nodes=args.nodes)
    path = _write_certificate(res, args.cert_dir, args.cert_stem)
    if path:
        note(f"certificate: {path}")
    _emit(out, _result_json(res))
    return 0


def cmd_sweep(args, out) -> int:
    family = _resolve_family(args)
    stem = args.template.replace(":", "_").replace(",", "_")
    out.write("n,window_size,outcome,nodes,certificate_path\n")
    minimal = None
    started = time.perf_counter()  # the first row's time covers the top table too
    for n, window, res in threshold_sweep(
        family, args.r, args.template, args.lo, args.hi, max_nodes=args.nodes
    ):
        path = _write_certificate(res, args.cert_dir, f"{stem}-{n}")
        out.write(f"{n},{window.size()},{res.outcome},{res.nodes},{path}\n")
        started, last = time.perf_counter(), started
        note(f"n={n} wall time: {started - last:.3f}s")
        if res.outcome == EXHAUSTED and minimal is None:
            minimal = n
            if args.stop_at_exhausted:
                break
    if minimal is not None:
        note(f"minimal exhausted n: {minimal}")
    return 0


def cmd_rado(args, out) -> int:
    system = parse_equation(args.equation)
    check_search_limits(args.r, args.nodes)
    if args.n_max < 1:
        raise ValueError(f"need at least one window, got n_max={args.n_max}")
    if args.validate:
        report = cross_validate(system, args.r, args.n_max, max_nodes=args.nodes)
        cond = report.condition
        details = {
            "supported": report.family_text is not None,
            "family": report.family_text,
            "consistent": True,  # no finite outcome contradicts either verdict
            "note": report.note,
            "rows": [
                {"n": r.n, "outcome": r.outcome, "nodes": r.nodes} for r in report.rows
            ],
        }
    else:
        cond = columns_condition(system)
        family, _ = system_to_family(system)
        details = {
            "family": None if family is None else family.serialize(),
            "note": cond.note,
        }
    _emit(out, {
        "equation": args.equation,
        "columns_condition": cond.holds,
        "partition": [list(block) for block in cond.partition] if cond.partition else None,
        **details,
    })
    return 0


def cmd_export_cnf(args, out) -> int:
    family = _resolve_family(args)
    window = parse_window(args.window)
    cnf = export_cnf(family, window, args.r)
    text = to_dimacs(cnf)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        note(f"wrote {args.out}")
    else:
        out.write(text)
    return 0


def cmd_import_sat(args, out) -> int:
    family = _resolve_family(args)
    window = parse_window(args.window)
    check_colors(args.r)  # before the model is read
    with open(args.assignment, "r", encoding="utf-8") as fh:
        literals = parse_assignment(fh.read())
    coloring = import_assignment(window, args.r, literals)
    witness = find_witness(family, coloring)
    _emit(out, {
        "family": family.serialize(),
        "window": window.spec_string(),
        "r": args.r,
        "coloring": list(coloring.colors),
        "witness": _witness_json(witness),
    })
    return 0 if witness is None else 1


def cmd_verify(args, out) -> int:
    cert = load_certificate(args.certificate)
    res = verify_certificate(cert, rerun=args.rerun)
    payload: dict = {"certificate": args.certificate, "ok": res.ok, "message": res.message}
    if res.witness is not None:
        payload["witness"] = _witness_json(res.witness)
    _emit(out, payload)
    if res.ok:
        return 0
    return 1 if res.checked else 3
