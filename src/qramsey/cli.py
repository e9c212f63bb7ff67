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
So argparse is imported only off the plain path.  The handlers that the
table names are in ``commands``.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
import time
from types import SimpleNamespace
from typing import NamedTuple

from . import __version__, commands


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
    "detect": ("find a monochromatic instantiation", commands.cmd_detect, (
        Arg(("family",), help="catalog key or family text"),
        Arg(("window",), help="window spec, e.g. int:1..9"),
        Arg(("--colors",), required=True, help="color list, e.g. [0,1,0,1]"),
        Arg(("-r",), int, help="number of colors (default: max+1)"),
        *_FAMILY_FLAGS,
    )),
    "search": ("search for an avoiding coloring", commands.cmd_search, (
        _FAMILY, _WINDOW, _R,
        Arg(("--cert-dir",), help="write a certificate here"),
        Arg(("--cert-stem",), default="result", help="certificate file stem"),
        *_FAMILY_FLAGS, _NODES,
    )),
    "sweep": ("run a window ladder and report outcomes", commands.cmd_sweep, (
        _FAMILY, _R,
        Arg(("--template",), default="int", help="int, farey, or mgrid:p1,p2,..."),
        Arg(("--lo",), int, required=True), Arg(("--hi",), int, required=True),
        Arg(("--cert-dir",)), Arg(("--stop-at-exhausted",), bool),
        *_FAMILY_FLAGS, _NODES,
    )),
    "rado": ("columns condition for a linear equation", commands.cmd_rado, (
        Arg(("equation",), help='e.g. "1*x1 + 1*x2 - 1*x3 = 0"'),
        Arg(("--validate",), bool, help="cross-check against search"),
        Arg(("-r",), int, default=2), Arg(("--n-max",), int, default=20), _NODES,
    )),
    "export-cnf": ("write the avoidance problem as DIMACS", commands.cmd_export_cnf, (
        _FAMILY, _WINDOW, _R, Arg(("--out",)), *_FAMILY_FLAGS,
    )),
    "import-sat": ("read a solver model back as a coloring", commands.cmd_import_sat, (
        _FAMILY, _WINDOW, _R, Arg(("assignment",), help="file with DIMACS v-lines"),
        *_FAMILY_FLAGS,
    )),
    "verify": ("check a certificate file", commands.cmd_verify, (
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
        commands.note(f"error: {exc}")
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
            commands.note(f"error: {exc}")  # such as a full disk
            return 2
    if started is not None:
        commands.note(f"total wall time: {time.perf_counter() - started:.3f}s")
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
