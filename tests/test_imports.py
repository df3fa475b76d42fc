"""Static checks of the package source: every imported name is used, every
name kept bound without a use is one the benchmark's tracer wraps, and no
check is an `assert` statement."""

import ast
import importlib.util
from pathlib import Path

import ordernet

PACKAGE = Path(ordernet.__file__).parent
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _is_kept_alive(node, lines):
    return any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])


def unused_imports(source):
    """(line, name) of each name the module imports but never reads.

    __future__ imports and imports on a line marked `# noqa: F401` (names
    kept bound for callers outside the module) are not reported.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if _is_kept_alive(node, lines):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from json import dumps, loads  # noqa: F401\n"
              "from dataclasses import (\n"
              "    dataclass,\n"
              "    field,\n"
              ")\n"
              "print(sys.argv)\n"
              "@dataclass\n"
              "class A:\n"
              "    x: int = 0\n")
    assert unused_imports(source) == [(2, "os"), (4, "field")]


def test_no_module_of_the_package_imports_a_name_it_never_reads():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [f"{path.name}:{line}: {name}"
              for path in modules
              for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def assert_lines(source):
    """Line of each `assert` statement, which `python -O` strips."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_assert_statements_are_found():
    source = ("def f(x):\n"
              "    assert x, 'no x'\n"
              "    if x:\n"
              "        assert x > 1\n"
              "    return 'assert x'\n")
    assert assert_lines(source) == [2, 4]


def test_no_module_of_the_package_checks_with_assert():
    # The package raises an OrdernetError subclass for every failed check.
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [f"{path.name}:{line}"
             for path in modules
             for line in assert_lines(path.read_text(encoding="utf-8"))]
    assert not found, "assert statements:\n" + "\n".join(found)


def kept_alive_imports(source):
    """(line, name) of each name imported on a line marked `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    return sorted((node.lineno, alias.asname or alias.name.split(".")[0])
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and _is_kept_alive(node, lines)
                  for alias in node.names)


def test_kept_alive_imports_are_found():
    source = ("import os\n"
              "from json import dumps, loads  # noqa: F401\n"
              "from re import (  # noqa: F401\n"
              "    sub,\n"
              ")\n")
    assert kept_alive_imports(source) == [(2, "dumps"), (2, "loads"), (3, "sub")]


def test_every_kept_alive_import_is_one_the_tracer_wraps():
    # A name imported only so that bench/tracing.py can wrap it in that
    # module's namespace must go once the tracer no longer patches it there.
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = {(owner.__name__, attr)
               for _, sites in tracing.LAYER_TARGETS for owner, attr in sites}
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unwrapped = [f"{path.name}:{line}: {name}"
                 for path in modules
                 for line, name in kept_alive_imports(path.read_text(encoding="utf-8"))
                 if (f"ordernet.{path.stem}", name) not in wrapped]
    assert not unwrapped, "kept alive but not wrapped by the tracer:\n" + "\n".join(unwrapped)
