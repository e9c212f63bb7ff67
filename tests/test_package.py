"""The package's modules, its version, and the independence of the tests' oracles."""

import ast
import builtins
import os
import re
import subprocess
import sys
import tomllib

import pytest

import qramsey

TESTS = os.path.dirname(__file__)


def test_cli_import_stays_light():
    # A search splits with os.fork and sends its records with marshal, so the
    # set-up time and peak memory of a command stay those of one plain
    # process; signal, about 1 ms to import, is imported only to end workers,
    # and no worker waits on select, not even in a split.  mmap is never used.
    # The trace hash is the interpreter's own SHA-256, so hashlib never loads
    # OpenSSL.  Records are NamedTuples, so dataclasses and the inspect, ast,
    # dis and tokenize it loads stay out.  -S keeps site from loading modules
    # before the import.
    forbidden = ("multiprocessing", "concurrent", "threading", "pickle", "selectors", "signal",
                 "select", "mmap", "hashlib", "_hashlib", "dataclasses", "inspect", "ast", "dis",
                 "tokenize")
    src = os.path.dirname(os.path.dirname(qramsey.__file__))
    script = ("import io, os, sys\nbefore = set(sys.modules)\nimport qramsey.cli\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n"
              "from qramsey import search\n"
              "os.sched_getaffinity = lambda pid: {0, 1}\n"
              "search._SPLIT_AT = 0\n"
              "sys.stderr = io.StringIO()\n"
              "qramsey.cli.main(['search', 'x; x + t; x + 4*t; x + 5*t', 'int:1..45', '-r', '2'],"
              " out=io.StringIO())\n"
              f"print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] in {forbidden!r})))\n")
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    loaded, after_split = done.stdout.split("\n")[:2]
    loaded = loaded.split()
    assert "qramsey.search" in loaded  # the subprocess saw the import
    assert [m for m in loaded if m.split(".")[0] in forbidden] == []
    assert after_split == ""


def test_hashlib_fallback_gives_the_same_digests():
    # An interpreter built without _sha2 and _sha256 hashes through hashlib,
    # with the digests pinned in test_search: the singleton's is the SHA-256
    # of b"singleton:0".
    src = os.path.dirname(os.path.dirname(qramsey.__file__))
    script = ("import sys\nsys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
              "import hashlib\n"
              "from qramsey import search\n"
              "from qramsey.patterns import builtin_family, parse_family\n"
              "from qramsey.windows import parse_window\n"
              "assert search.sha256 is hashlib.sha256\n"
              "for family, n, r in [(builtin_family('vdw(2)'), 27, 3), (parse_family("
              "'x; x + t; x + 4*t; x + 5*t'), 45, 2), (parse_family('x'), 3, 5)]:\n"
              "    res = search.search_avoiding(family, parse_window(f'int:1..{n}'), r)\n"
              "    print(res.outcome, res.nodes, res.proof_log_hash)\n")
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [
        "exhausted 2611 24851e1729882c4650fc44908287366d33d632f1ccab22701f1f325d57300156",
        "exhausted 24103 dc66d16ba9554710da30e59275437680570c6f4f4e84d2a7ff80ac591e77c7dc",
        "exhausted 0 aefb623b82e285616fc2dddcb14d60c9d05ef0198c7aa64746ab58580dd6c9e1",
    ]


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


def _unused_imports(path):
    """Module-level imports of the file that it never reads."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_unused_module_level_imports():
    src = os.path.dirname(qramsey.__file__)
    files = {
        f"{os.path.basename(folder)}/{name}": os.path.join(folder, name)
        for folder in (src, TESTS)
        for name in os.listdir(folder)
        if name.endswith(".py")
    }
    assert {"qramsey/cli.py", "tests/_brute.py"} <= files.keys()
    unused = {key: names for key, path in files.items() if (names := _unused_imports(path))}
    assert unused == {}


def _package_imports(path, modules):
    """The package modules that the file imports relatively, at module level
    or inside a function."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import name: a module, or a name of __init__
                found |= {alias.name for alias in node.names}
    return found & modules


def test_package_import_graph_is_acyclic(tmp_path):
    # __init__ imports no module; from . import __version__ reads a name of it
    src = os.path.dirname(qramsey.__file__)
    modules = {name[:-3] for name in os.listdir(src) if name.endswith(".py")} - {"__init__"}
    graph = {m: _package_imports(os.path.join(src, f"{m}.py"), modules) for m in modules}
    assert {"search", "detector"} <= graph["certificates"]  # the walk saw the imports
    nested = tmp_path / "nested.py"  # and it sees the imports inside functions
    nested.write_text("from . import search\n\ndef f():\n    from .cnf import to_dimacs\n")
    assert _package_imports(str(nested), modules) == {"search", "cnf"}

    def reachable(start):
        seen, todo = set(), list(graph[start])
        while todo:
            m = todo.pop()
            if m not in seen:
                seen.add(m)
                todo += graph[m]
        return seen

    on_cycle = {m: sorted(graph[m]) for m in sorted(modules) if m in reachable(m)}
    assert on_cycle == {}


def test_every_exported_name_is_read_inside_the_package():
    # Each public module-level function and class is its module's export, and
    # the package imports each name from its module; a name that only tests
    # read belongs in the tests, not in src/.
    src = os.path.dirname(qramsey.__file__)
    read, defined = set(), set()
    for name in os.listdir(src):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.add((name[:-3], node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    assert {"find_witness", "__version__"} <= read  # the walk saw calls and imports
    assert ("search", "search_avoiding") in defined  # and the definitions
    assert sorted(f"{m}.{n}" for m, n in defined if n not in read) == []


def test_version_is_the_one_in_pyproject():
    # --version and every certificate's tool_version read qramsey.__version__.
    root = os.path.dirname(TESTS)
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == qramsey.__version__


def test_exception_classes_are_pinned():
    # Rejected input raises plain ValueError, which cli.main maps to exit 2,
    # with any position in its message; a subclass that only renames
    # ValueError adds a type that no caller tells apart, and a search stops at
    # its node budget by returning.  The package defines no exception class.
    src = os.path.dirname(qramsey.__file__)
    bases = {}  # "module.Class" -> the last dotted part of each base
    for name in os.listdir(src):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    last = {ast.unparse(b).split(".")[-1] for b in node.bases}
                    bases[f"{name[:-3]}.{node.name}"] = last
    assert "windows.Window" in bases  # the walk saw the classes
    exceptions = {
        n for n, v in vars(builtins).items() if isinstance(v, type) and issubclass(v, BaseException)
    }
    found = set()
    while new := {c for c, b in bases.items() if b & exceptions and c not in found}:
        found |= new  # and subclasses of those, to any depth
        exceptions |= {c.split(".")[1] for c in new}
    assert found == set()


def test_no_command_option_is_a_float():
    # A float option is a float in a decision path: results must not depend
    # on a rounded value, and a search budget counts nodes, not seconds.
    from qramsey import cli

    arguments = [arg for _, _, args in cli.COMMANDS.values() for arg in args]
    assert any(arg.kind is int for arg in arguments)  # the walk saw typed options
    assert [arg.flags for arg in arguments if arg.kind is float] == []


def test_search_reads_no_clock():
    # The node count is the only budget and no result carries a time, so
    # the search and its split import no clock; the command layer times them.
    imported = set()
    for name in ("search.py", "split.py"):
        with open(os.path.join(os.path.dirname(qramsey.__file__), name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert {"marshal", "os"} <= imported  # the walk saw both modules' imports
    assert imported & {"time", "datetime"} == set()


def test_no_module_sets_the_recursion_limit():
    # The search keeps its levels on a list, not on the interpreter's stack:
    # no search, however deep, changes the limit for the whole process.
    src = os.path.dirname(qramsey.__file__)
    names = set()
    for name in os.listdir(src):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, (ast.Name, ast.alias)):
                    names.add(node.id if isinstance(node, ast.Name) else node.name)
    assert {"stderr", "perf_counter"} <= names  # the walk saw sys and time attributes
    assert "setrecursionlimit" not in names


def _regex_calls(path):
    """Each call of a ``re`` module function in the file, as (name, whether it
    runs at module level, outside every function and class), and the names of
    any ``from re import``."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    inside = {
        id(node)
        for scope in ast.walk(tree)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef))
        for node in ast.walk(scope)
    }
    calls = [
        (node.func.attr, id(node) not in inside)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "re"
    ]
    from_re = [
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "re"
        for alias in node.names
    ]
    return calls, from_re


def test_regular_expressions_compile_at_import_only():
    # re.search(pattern, text) and its kin compile, or look up, the pattern on
    # every call; a command pays that once per process, on each invocation.
    src = os.path.dirname(qramsey.__file__)
    found = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            calls, from_re = _regex_calls(os.path.join(src, name))
            found[name] = calls
            assert from_re == [], name
            assert [c for c in calls if c != ("compile", True)] == [], name
    assert ("compile", True) in found["patterns.py"]  # the walk saw the compiles


def test_readme_library_layout_names_every_module():
    # The module list of README *Library layout* drifts when a module is added,
    # renamed or deleted without the README.
    root = os.path.dirname(TESTS)
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`qramsey\.(\w+)`", section))
    src = os.path.dirname(qramsey.__file__)
    modules = {name[:-3] for name in os.listdir(src) if name.endswith(".py")}
    assert "patterns" in named  # the pattern saw the list
    assert named == modules - {"__init__", "__main__"}


def test_readme_library_layout_examples_run(tmp_path):
    # Both examples read a family with builtin_family; the second writes
    # certs/ under the working directory, so they run in tmp_path.
    root = os.path.dirname(TESTS)
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    examples = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(examples) == 2
    path = os.pathsep.join(filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")]))
    printed = []
    for code in examples:
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, "")
        printed.append(done.stdout.splitlines())
    assert printed[0][0] == "avoiding 27"
    assert [row for row in printed[1] if row.endswith("exhausted")][0] == "5 5 exhausted"
    assert os.listdir(tmp_path / "certs") == ["int-5.upper-bound.json"]
