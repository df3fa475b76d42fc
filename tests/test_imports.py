"""Static check of the package source: every imported name is used."""

import ast
from pathlib import Path

import ordernet

PACKAGE = Path(ordernet.__file__).parent


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
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
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
