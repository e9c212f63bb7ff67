"""Command line front end.

Machine-readable results go to stdout as JSON with sorted keys and no
timing fields, so identical inputs produce identical bytes.  Wall-clock
timing goes to stderr.  Exit codes: 0 when the requested computation
completed (whatever the mathematical outcome), 1 when a verification
subcommand found a violation, 2 for bad configuration or arguments, 3 when
``verify`` did not check the claim (an upper bound without ``--rerun``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .arith import format_rational, parse_rational
from .certificates import (
    certificate_for_result,
    load_certificate,
    verify_certificate,
    write_certificate,
)
from .cnf import export_cnf, import_assignment, parse_assignment, to_dimacs
from .colorings import Coloring
from .detector import build_candidates, find_witness
from .largesets import (
    IpSetSpec,
    ShapeF,
    find_ip_r,
    finite_sums,
    interior,
    is_syndetic_for,
    is_thick_for,
    localize_colors,
    piecewise_syndetic_witness,
)
from .patterns import Family, default_catalog, parse_family
from .rado import columns_condition, cross_validate, parse_equation, system_to_family
from .search import (
    AVOIDING,
    EXHAUSTED,
    SearchBudget,
    search_avoiding,
    threshold_sweep,
)
from .windows import Window, parse_window


class CliError(Exception):
    pass


def _emit(out, payload: dict) -> None:
    out.write(json.dumps(payload, sort_keys=True, indent=2))
    out.write("\n")


def _resolve_family(args: argparse.Namespace) -> Family:
    return parse_family(
        args.family,
        allow_offsets=args.allow_offsets,
        require_distinct_values=args.distinct,
        strict_nonzero_x=args.strict_x,
    )


def _parse_colors(text: str) -> list[int]:
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    if not body.strip():
        raise CliError("empty color list")
    return [int(tok) for tok in body.replace(",", " ").split()]


def _parse_rational_list(text: str) -> list[Fraction]:
    toks = [t for t in text.replace(",", " ").split() if t]
    if not toks:
        raise CliError("empty rational list")
    return [parse_rational(t) for t in toks]


def _budget(args: argparse.Namespace) -> SearchBudget:
    return SearchBudget(max_nodes=args.nodes, max_seconds=args.seconds)


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
        "budget": {
            "max_nodes": res.budget.max_nodes,
            "max_seconds": res.budget.max_seconds,
        },
    }


def _coloring_from_args(window: Window, args: argparse.Namespace) -> Coloring:
    colors = _parse_colors(args.colors)
    r = args.r if args.r is not None else (max(colors) + 1 if colors else 1)
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


def _cmd_search(args, out) -> int:
    family = _resolve_family(args)
    window = parse_window(args.window)
    res = search_avoiding(family, window, args.r, budget=_budget(args))
    if args.cert_dir and res.outcome in (AVOIDING, EXHAUSTED):
        path = write_certificate(certificate_for_result(res), args.cert_dir, args.cert_stem)
        print(f"certificate: {path}", file=sys.stderr)
    _emit(out, _result_json(res))
    print(f"search wall time: {res.wall_time:.3f}s", file=sys.stderr)
    return 0


def _cmd_sweep(args, out) -> int:
    family = _resolve_family(args)
    report = threshold_sweep(
        family,
        args.r,
        args.template,
        args.lo,
        args.hi,
        budget=_budget(args),
        cert_dir=args.cert_dir,
        stop_at_exhausted=args.stop_at_exhausted,
    )
    out.write("n,window_size,outcome,nodes,certificate_path\n")
    for row in report.rows:
        out.write(
            f"{row.n},{row.window_size},{row.outcome},{row.nodes},{row.certificate_path}\n"
        )
        print(f"n={row.n} search wall time: {row.seconds:.3f}s", file=sys.stderr)
    if report.minimal_exhausted_n is not None:
        print(f"minimal exhausted n: {report.minimal_exhausted_n}", file=sys.stderr)
    return 0


def _cmd_rado(args, out) -> int:
    system = parse_equation(args.equation)
    if args.validate:
        report = cross_validate(system, args.r, args.n_max, budget=_budget(args))
        cond = report.condition
        details = {
            "supported": report.supported,
            "family": report.family_text,
            "consistent": report.consistent,
            "note": report.note,
            "rows": [
                {"n": r.n, "outcome": r.outcome, "nodes": r.nodes} for r in report.rows
            ],
        }
    else:
        cond = columns_condition(system)
        family, note = system_to_family(system)
        details = {
            "family": None if family is None else family.serialize(),
            "note": cond.note or note,
        }
    _emit(out, {
        "equation": args.equation,
        "columns_condition": cond.holds,
        "partition": [list(block) for block in cond.partition] if cond.partition else None,
        **details,
    })
    return 0


def _cmd_largeset(args, out) -> int:
    window = parse_window(args.window)
    aset = _parse_rational_list(args.set) if args.set else []
    payload: dict = {"check": args.check, "window": window.spec_string()}
    if args.check in ("thick", "syndetic", "pws"):
        if args.shape is None:
            raise CliError(f"--shape is required for {args.check}")
        shape = ShapeF(tuple(_parse_rational_list(args.shape)), args.mode)
    if args.check == "thick":
        witness = is_thick_for(aset, window, shape)
        payload["thick"] = witness is not None
        payload["witness"] = None if witness is None else format_rational(witness)
    elif args.check == "syndetic":
        if args.core is not None:
            core = _parse_rational_list(args.core)
        else:
            core = interior(window, shape)
        ok, uncovered = is_syndetic_for(aset, window, shape, core)
        payload["syndetic"] = ok
        payload["core_size"] = len(core)
        payload["uncovered"] = [format_rational(x) for x in uncovered]
    elif args.check == "pws":
        found = piecewise_syndetic_witness(aset, window, args.max_f, shape)
        payload["piecewise_syndetic"] = found is not None
        payload["translates"] = (
            None if found is None else [format_rational(f) for f in found.elements]
        )
    elif args.check == "ip":
        gens = find_ip_r(aset, args.ip_r, args.mode)
        payload["found"] = gens is not None
        payload["generators"] = (
            None if gens is None else [format_rational(g) for g in gens]
        )
        if gens is not None:
            fs = finite_sums(IpSetSpec(gens, args.mode))
            payload["combination_count"] = len(fs)
    _emit(out, payload)
    return 0


def _cmd_localize(args, out) -> int:
    window = parse_window(args.window)
    coloring = _coloring_from_args(window, args)
    shape = ShapeF(tuple(_parse_rational_list(args.shape)), "*")
    report = localize_colors(coloring, shape, args.max_f)
    if report is None:
        _emit(out, {"localized": False, "window": window.spec_string()})
        return 0
    _emit(out, {
        "localized": True,
        "window": window.spec_string(),
        "color_sets": [list(sub) for sub in report.color_sets],
        "translates": [format_rational(f) for f in report.translates.elements],
        "core_size": len(report.core),
        "thickness_witnesses": [format_rational(w) for w in report.thickness_witnesses],
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
    table = build_candidates(family, window)
    cnf = export_cnf(family, window, args.r, table=table)
    with open(args.assignment, "r", encoding="utf-8") as fh:
        literals = parse_assignment(fh.read())
    coloring = import_assignment(cnf, literals)
    witness = find_witness(family, coloring, table)
    _emit(out, {
        "family": family.serialize(),
        "window": window.spec_string(),
        "r": args.r,
        "coloring": list(coloring.colors),
        "witness": _witness_json(witness),
    })
    if witness is not None:
        print("imported assignment is not avoiding", file=sys.stderr)
        return 1
    return 0


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


def _cmd_catalog(args, out) -> int:
    payload = {key: fam.serialize() for key, fam in default_catalog().items()}
    _emit(out, payload)
    return 0


# ---------------------------------------------------------------------------
# Command table


def _add_budget_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nodes", type=int, default=None, help="node budget for the search")
    p.add_argument("--seconds", type=float, default=None, help="time budget in seconds")


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--allow-offsets", action="store_true", help="permit x + c terms")
    p.add_argument("--distinct", action="store_true", help="require distinct tuple values")
    p.add_argument("--strict-x", action="store_true", help="forbid x = 0 in instantiations")


def _detect_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", help="catalog key or family text")
    p.add_argument("window", help="window spec, e.g. int:1..9")
    p.add_argument("--colors", required=True, help="color list, e.g. [0,1,0,1]")
    p.add_argument("-r", type=int, default=None, help="number of colors (default: max+1)")
    _add_family_flags(p)


def _search_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("family")
    p.add_argument("window")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--cert-dir", default=None, help="write a certificate here")
    p.add_argument("--cert-stem", default="result", help="certificate file stem")
    _add_family_flags(p)
    _add_budget_args(p)


def _sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("family")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--template", default="int", help="int, farey, or mgrid:p1,p2,...")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--cert-dir", default=None)
    p.add_argument("--stop-at-exhausted", action="store_true")
    _add_family_flags(p)
    _add_budget_args(p)


def _rado_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("equation", help='e.g. "1*x1 + 1*x2 - 1*x3 = 0"')
    p.add_argument("--validate", action="store_true", help="cross-check against search")
    p.add_argument("-r", type=int, default=2)
    p.add_argument("--n-max", type=int, default=20)
    _add_budget_args(p)


def _largeset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("check", choices=["thick", "syndetic", "pws", "ip"])
    p.add_argument("window")
    p.add_argument("--set", default=None, help="comma-separated rationals")
    p.add_argument("--shape", default=None, help="comma-separated shape elements")
    p.add_argument("--mode", default="+", choices=["+", "*"])
    p.add_argument("--core", default=None, help="syndetic core (default: interior)")
    p.add_argument("--max-f", type=int, default=3)
    p.add_argument("--ip-r", type=int, default=2)


def _localize_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("window", help="mgrid window spec")
    p.add_argument("--colors", required=True)
    p.add_argument("-r", type=int, default=None)
    p.add_argument("--shape", required=True, help="multiplicative thickness shape")
    p.add_argument("--max-f", type=int, default=3)


def _export_cnf_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("family")
    p.add_argument("window")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--out", default=None)
    _add_family_flags(p)


def _import_sat_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("family")
    p.add_argument("window")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("assignment", help="file with DIMACS v-lines")
    _add_family_flags(p)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("certificate")
    p.add_argument("--rerun", action="store_true", help="replay exhaustive searches")


# name -> (help, handler, function that adds the command's arguments)
COMMANDS = {
    "detect": ("find a monochromatic instantiation", _cmd_detect, _detect_args),
    "search": ("search for an avoiding coloring", _cmd_search, _search_args),
    "sweep": ("run a window ladder and report outcomes", _cmd_sweep, _sweep_args),
    "rado": ("columns condition for a linear equation", _cmd_rado, _rado_args),
    "largeset": ("finite largeness checks", _cmd_largeset, _largeset_args),
    "localize": ("localize colors over a multiplicative grid", _cmd_localize, _localize_args),
    "export-cnf": ("write the avoidance problem as DIMACS", _cmd_export_cnf, _export_cnf_args),
    "import-sat": ("read a solver model back as a coloring", _cmd_import_sat, _import_sat_args),
    "verify": ("check a certificate file", _cmd_verify, _verify_args),
    "catalog": ("list the built-in families", _cmd_catalog, lambda p: None),
}


def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command's arguments, with ``func`` its handler."""
    _, handler, add_arguments = COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"qramsey {name}")
    add_arguments(parser)
    parser.set_defaults(func=handler)
    return parser


def _read_config(path: str) -> dict:
    """The JSON object in ``path``, with '-' in keys spelled '_'."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config: {exc}") from None
    if not isinstance(config, dict):
        raise CliError("config must be a JSON object")
    return {k.replace("-", "_"): v for k, v in config.items()}


def _config_token(key: str, value, action: argparse.Action) -> str | None:
    """The token that sets ``action`` to a config value, as if typed.

    A flag takes only JSON true (the flag) or false (no token).  An option
    that takes a value gets ``--option=value``, so argparse converts it with
    the option's own type, and a value that starts with '-' stays a value.
    Anything else raises CliError.
    """
    option = action.option_strings[-1]
    if action.nargs == 0:
        if isinstance(value, bool):
            return option if value else None
        raise CliError(f"config key {key} is a flag: use true or false, not {json.dumps(value)}")
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        return f"{option}={value}"
    raise CliError(f"config key {key} takes a string or a number, not {json.dumps(value)}")


def _config_tokens(config: dict, command: str) -> list[str]:
    """The tokens of ``command``'s options in the config.

    Each key must name an option (not a positional, and not help) of some
    command, with a value that suits it in every command that has it;
    otherwise CliError.
    """
    options: dict[str, dict[str, argparse.Action]] = {}
    for name in COMMANDS:
        for action in command_parser(name)._actions:
            if action.option_strings and action.dest != "help":
                options.setdefault(action.dest, {})[name] = action
    unknown = sorted(set(config) - options.keys())
    if unknown:
        raise CliError(f"unknown config keys: {', '.join(unknown)}")
    tokens = []
    for key, value in config.items():
        for name, action in options[key].items():
            token = _config_token(key, value, action)
            if name == command and token is not None:
                tokens.append(token)
    return tokens


def parse_args(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed as ``main`` parses it, into the named command's options.

    Only that command's parser is built.  Config tokens go before the typed
    ones, so typed options win.  Raises SystemExit or CliError on bad input.
    """
    top = argparse.ArgumentParser(
        prog="qramsey",
        description="finite partition-pattern search over rational windows",
        epilog="commands:\n" + "".join(f"  {n:<22}{c[0]}\n" for n, c in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    top.add_argument("--config", help="JSON file with option defaults")
    # PARSER, as a subparsers action takes it: a '--' stays with the command's tokens.
    top.add_argument("command", nargs=argparse.PARSER, choices=COMMANDS,
                     help="a command and its arguments (qramsey COMMAND -h)")
    known = top.parse_args(argv)
    name, *rest = known.command
    tokens = _config_tokens(_read_config(known.config), name) if known.config else []
    return command_parser(name).parse_args(tokens + rest)


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        started = time.perf_counter()
        code = args.func(args, out)
        print(f"total wall time: {time.perf_counter() - started:.3f}s", file=sys.stderr)
        return code
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    except (CliError, ValueError, OSError, KeyError) as exc:
        # str() of a KeyError would quote the message
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
