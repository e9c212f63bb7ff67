"""Command line front end.

Machine-readable results go to stdout as JSON with sorted keys and no
timing fields, so identical inputs produce identical bytes.  Wall-clock
timing goes to stderr.  A command writes its document into a buffer, and
``main`` writes the buffer to stdout in one whole write once the command is
done, so a failed command leaves stdout empty.  Exit codes: 0 when the
requested computation completed (whatever the mathematical outcome), 1 when
a verification subcommand found a violation, 2 for bad arguments, 3 when
``verify`` did not check the claim (an upper bound without ``--rerun``),
141 (128 + SIGPIPE) when stdout is closed, or its reader leaves, before the
whole document (a result, the help or the version) is written.

Each command lists its positionals and options as data (``Arg``) in
``COMMANDS``.  The plain forms are read from that table by hand: positionals,
exact flags, and exact options with their value after ``=`` or in the next
token.  Every other form (an abbreviation, ``-r2``, ``--``, ``-h``,
``--version``, a bad argument) goes to an argparse parser built from the same
table, which reads it, prints the help, the version or the error, and exits.
So argparse is imported only off the plain path.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import time
from types import SimpleNamespace
from typing import NamedTuple

from . import __version__
from .arith import format_rational, parse_int
from .certificates import (
    certificate_for_result,
    load_certificate,
    verify_certificate,
    write_certificate,
)
from .cnf import export_cnf, import_assignment, parse_assignment, to_dimacs
from .colorings import Coloring
from .detector import build_candidates, find_witness
from .patterns import Family, parse_family
from .rado import columns_condition, cross_validate, parse_equation, system_to_family
from .search import AVOIDING, EXHAUSTED, check_node_budget, search_avoiding, threshold_sweep
from .windows import Window, parse_window


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
        "family": res.family_text,
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


def _cmd_detect(args, out) -> int:
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


def _cmd_search(args, out) -> int:
    family = _resolve_family(args)
    window = parse_window(args.window)
    res = search_avoiding(family, window, args.r, max_nodes=args.nodes)
    path = _write_certificate(res, args.cert_dir, args.cert_stem)
    if path:
        print(f"certificate: {path}", file=sys.stderr)
    _emit(out, _result_json(res))
    return 0


def _cmd_sweep(args, out) -> int:
    family = _resolve_family(args)
    stem = args.template.replace(":", "_").replace(",", "_")
    out.write("n,window_size,outcome,nodes,certificate_path\n")
    minimal = None
    for n, window, res in threshold_sweep(
        family, args.r, args.template, args.lo, args.hi, max_nodes=args.nodes
    ):
        path = _write_certificate(res, args.cert_dir, f"{stem}-{n}")
        out.write(f"{n},{window.size()},{res.outcome},{res.nodes},{path}\n")
        print(f"n={n} search wall time: {res.wall_time:.3f}s", file=sys.stderr)
        if res.outcome == EXHAUSTED and minimal is None:
            minimal = n
            if args.stop_at_exhausted:
                break
    if minimal is not None:
        print(f"minimal exhausted n: {minimal}", file=sys.stderr)
    return 0


def _cmd_rado(args, out) -> int:
    system = parse_equation(args.equation)
    check_node_budget(args.nodes)
    if args.r < 1:
        raise ValueError(f"need at least one color, got r={args.r}")
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


def _cmd_export_cnf(args, out) -> int:
    family = _resolve_family(args)
    window = parse_window(args.window)
    cnf = export_cnf(family, window, args.r)
    text = to_dimacs(cnf)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        out.write(text)
    return 0


def _cmd_import_sat(args, out) -> int:
    family = _resolve_family(args)
    window = parse_window(args.window)
    if args.r < 1:
        raise ValueError(f"need at least one color, got r={args.r}")
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


def _cmd_verify(args, out) -> int:
    cert = load_certificate(args.certificate)
    res = verify_certificate(cert, rerun=args.rerun)
    payload: dict = {"certificate": args.certificate, "ok": res.ok, "message": res.message}
    if res.witness is not None:
        payload["witness"] = _witness_json(res.witness)
    _emit(out, payload)
    if res.ok:
        return 0
    return 1 if res.checked else 3


# ---------------------------------------------------------------------------
# Command table


class Arg(NamedTuple):
    """A command's argument: a positional when its first flag lacks a '-'.
    ``kind`` converts the value; bool marks a flag, which takes none."""

    flags: tuple[str, ...]
    kind: type = str
    default: object = None
    required: bool = False
    help: str | None = None

    @property
    def positional(self) -> bool:
        return self.flags[0][0] != "-"

    @property
    def dest(self) -> str:
        return self.flags[-1].lstrip("-").replace("-", "_")


_FAMILY_FLAGS = (
    Arg(("--allow-offsets",), bool, help="permit x + c terms"),
    Arg(("--distinct",), bool, help="require distinct tuple values"),
    Arg(("--strict-x",), bool, help="forbid x = 0 in instantiations"),
)
_NODES = Arg(("--nodes",), int, help="node budget for the search")
_FAMILY, _WINDOW, _R = Arg(("family",)), Arg(("window",)), Arg(("-r",), int, required=True)

# name -> (help, handler, arguments in the order that help lists them)
COMMANDS = {
    "detect": ("find a monochromatic instantiation", _cmd_detect, (
        Arg(("family",), help="catalog key or family text"),
        Arg(("window",), help="window spec, e.g. int:1..9"),
        Arg(("--colors",), required=True, help="color list, e.g. [0,1,0,1]"),
        Arg(("-r",), int, help="number of colors (default: max+1)"),
        *_FAMILY_FLAGS,
    )),
    "search": ("search for an avoiding coloring", _cmd_search, (
        _FAMILY, _WINDOW, _R,
        Arg(("--cert-dir",), help="write a certificate here"),
        Arg(("--cert-stem",), default="result", help="certificate file stem"),
        *_FAMILY_FLAGS, _NODES,
    )),
    "sweep": ("run a window ladder and report outcomes", _cmd_sweep, (
        _FAMILY, _R,
        Arg(("--template",), default="int", help="int, farey, or mgrid:p1,p2,..."),
        Arg(("--lo",), int, required=True), Arg(("--hi",), int, required=True),
        Arg(("--cert-dir",)), Arg(("--stop-at-exhausted",), bool),
        *_FAMILY_FLAGS, _NODES,
    )),
    "rado": ("columns condition for a linear equation", _cmd_rado, (
        Arg(("equation",), help='e.g. "1*x1 + 1*x2 - 1*x3 = 0"'),
        Arg(("--validate",), bool, help="cross-check against search"),
        Arg(("-r",), int, default=2), Arg(("--n-max",), int, default=20), _NODES,
    )),
    "export-cnf": ("write the avoidance problem as DIMACS", _cmd_export_cnf, (
        _FAMILY, _WINDOW, _R, Arg(("--out",)), *_FAMILY_FLAGS,
    )),
    "import-sat": ("read a solver model back as a coloring", _cmd_import_sat, (
        _FAMILY, _WINDOW, _R, Arg(("assignment",), help="file with DIMACS v-lines"),
        *_FAMILY_FLAGS,
    )),
    "verify": ("check a certificate file", _cmd_verify, (
        Arg(("certificate",)), Arg(("--rerun",), bool, help="replay exhaustive searches"),
    )),
}
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's own pattern


def _parser(name: str | None):
    """The argparse parser of command ``name``, or the top-level one for None.
    Only the forms that ``_read_command`` leaves alone build one."""
    import argparse

    if name is None:
        parser = argparse.ArgumentParser(
            prog="qramsey",
            description="finite partition-pattern search over rational windows",
            epilog="commands:\n" + "".join(f"  {n:<22}{c[0]}\n" for n, c in COMMANDS.items()),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
        parser.add_argument("command", nargs=argparse.PARSER, choices=COMMANDS,
                            help="a command and its arguments (qramsey COMMAND -h)")
        return parser
    parser = argparse.ArgumentParser(prog=f"qramsey {name}")
    for arg in COMMANDS[name][2]:
        if arg.kind is bool:
            parser.add_argument(*arg.flags, action="store_true", help=arg.help)
        else:  # a positional takes no 'required'
            parser.add_argument(*arg.flags, type=arg.kind, default=arg.default, help=arg.help,
                                **({"required": True} if arg.required else {}))
    return parser


def _read_command(name: str, tokens: list[str]) -> SimpleNamespace | None:
    """``tokens`` read into command ``name``'s arguments, or None when they
    take a form that only argparse reads.  Read here: positionals that do not
    start with '-', exact flags, and exact options whose value follows '=' or
    comes as the next token, where a value that starts with '-' must be a
    negative number.  Each positional slot takes one token, and each required
    option must be given.  A value that does not convert gives None too."""
    arguments = COMMANDS[name][2]
    options = {f: a for a in arguments if not a.positional for f in a.flags}
    values = {a.dest: False if a.kind is bool else a.default for a in arguments
              if not (a.positional or a.required)}
    positionals, read, rest = [], [], iter(tokens)
    for token in rest:
        flag, eq, value = token.partition("=")
        arg = options.get(flag)
        if token[:1] != "-":
            positionals.append(token)
        elif arg is None or arg.kind is bool and eq:
            return None
        elif arg.kind is bool:
            values[arg.dest] = True
        else:
            if not eq:
                value = next(rest, None)
                if value is None or value[:1] == "-" and not _NEGATIVE_NUMBER.match(value):
                    return None
            read.append((arg, value))
    slots = [a for a in arguments if a.positional]
    if len(positionals) != len(slots):
        return None
    try:
        for arg, value in [*zip(slots, positionals), *read]:  # a repeated option: the last wins
            values[arg.dest] = arg.kind(value)
    except ValueError:
        return None
    if any(a.dest not in values for a in arguments):  # a required option is missing
        return None
    return SimpleNamespace(**values)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """``argv`` read as ``main`` reads it, into the named command's arguments.

    The top-level options (-h, --version) go before the command.  What
    ``_read_command`` does not read, argparse reads: it prints the help, the
    version or the error, and raises SystemExit.
    """
    if not argv or argv[0] not in COMMANDS:
        argv = _parser(None).parse_args(argv).command  # help, version and errors exit here
    name, tokens = argv[0], argv[1:]
    args = _read_command(name, tokens) or _parser(name).parse_args(tokens)
    args.func = COMMANDS[name][1]
    return args


def _write_whole(out, text: str) -> None:
    """Write ``text`` to ``out`` whole: through its binary ``buffer``, if any,
    looping on the count each write returns (an unbuffered stdout drops it)."""
    raw = getattr(out, "buffer", None)
    if raw is None:
        out.write(text)
        return
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[raw.write(data):]
    raw.flush()


def main(argv: list[str] | None = None, out=None) -> int:
    doc = io.StringIO()  # all that the command writes to stdout
    try:
        with contextlib.redirect_stdout(doc):  # argparse's -h and --version text
            args = parse_args(sys.argv[1:] if argv is None else argv)
        started = time.perf_counter()
        code = args.func(args, doc)
    except SystemExit as exc:  # argparse's help, version or error
        code, started = 2 if exc.code else 0, None
    except (ValueError, OSError) as exc:  # an OSError here is a certificate or --out file's
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = out or sys.stdout
    text = doc.getvalue()
    if text:  # export-cnf --out writes none
        if out is None:  # stdout was closed before the process started
            return 141
        try:
            _write_whole(out, text)
        except OSError as exc:
            # point stdout at os.devnull, so that the interpreter's final flush does not raise
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
            if isinstance(exc, BrokenPipeError):
                return 141
            print(f"error: {exc}", file=sys.stderr)  # such as a full disk
            return 2
    if started is not None:
        print(f"total wall time: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
