"""The package's export list and module list, and the independence of the tests' oracles."""

import ast
import builtins
import os
import re
import subprocess
import sys

import pytest

import qramsey

TESTS = os.path.dirname(__file__)


def test_every_exported_name_resolves():
    missing = [name for name in qramsey.__all__ if not hasattr(qramsey, name)]
    assert missing == []
    assert len(set(qramsey.__all__)) == len(qramsey.__all__)


def test_star_import_runs_without_warnings():
    src = os.path.dirname(os.path.dirname(qramsey.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", "from qramsey import *"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")


def test_cli_import_stays_light():
    # A search splits with os.fork and sends its records with marshal, so the
    # set-up time and peak memory of a command stay those of one plain
    # process; signal, about 1 ms to import, is imported only to end workers,
    # and no worker waits on select, not even in a split.  mmap is never used.
    # -S keeps site from loading modules before the import.
    src = os.path.dirname(os.path.dirname(qramsey.__file__))
    script = ("import io, os, sys\nbefore = set(sys.modules)\nimport qramsey.cli\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n"
              "from qramsey import search\n"
              "os.sched_getaffinity = lambda pid: {0, 1}\n"
              "search._SPLIT_AT = 0\n"
              "sys.stderr = io.StringIO()\n"
              "qramsey.cli.main(['search', 'x; x + t; x + 4*t; x + 5*t', 'int:1..45', '-r', '2'],"
              " out=io.StringIO())\n"
              "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] in "
              "('select', 'selectors'))))\n")
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    loaded, after_split = done.stdout.split("\n")[:2]
    loaded = loaded.split()
    assert "qramsey.search" in loaded  # the subprocess saw the import
    forbidden = ("multiprocessing", "concurrent", "threading", "pickle", "selectors", "signal",
                 "select", "mmap")
    assert [m for m in loaded if m.split(".")[0] in forbidden] == []
    assert after_split == ""


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
    """Module-level imports of the file that it never reads or exports."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names exported through __all__ count as read
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
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
    # __init__ imports every module to re-export it, so it is not a node
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
    # A name that only tests read belongs in the tests, not in src/.
    src = os.path.dirname(qramsey.__file__)
    read = set()
    for name in os.listdir(src):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    assert {"find_witness", "__version__"} <= read  # the walk saw calls and imports
    assert [name for name in qramsey.__all__ if name not in read] == []


def test_exception_classes_are_pinned():
    # Rejected input raises plain ValueError, which cli.main maps to exit 2.
    # PolynomialSyntaxError keeps its position apart from its message; a
    # subclass that only renames ValueError adds a type that no caller tells
    # apart, and a search stops at its node budget by returning.
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
    assert found == {"arith.PolynomialSyntaxError"}


def test_no_command_option_is_a_float():
    # A float option is a float in a decision path: results must not depend
    # on a rounded value, and a search budget counts nodes, not seconds.
    from qramsey import cli

    arguments = [arg for _, _, args in cli.COMMANDS.values() for arg in args]
    assert any(arg.kind is int for arg in arguments)  # the walk saw typed options
    assert [arg.flags for arg in arguments if arg.kind is float] == []


def test_search_reads_the_clock_only_for_its_wall_time():
    # The node count is the only budget: no clock reading may stop a search.
    with open(os.path.join(os.path.dirname(qramsey.__file__), "search.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    reads = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "time"
    }
    assert reads == {"perf_counter"}


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
