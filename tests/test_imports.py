"""Every import in the package is used by the module that makes it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "padicref"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) for each imported name its enclosing scope never loads.

    The scope of an import is the innermost function that contains it, or
    the module.  ``__future__`` imports are directives, not names.
    """
    tree = ast.parse(source)
    scopes = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    owner = {}
    for scope in scopes:  # outer scopes first, so inner ones overwrite
        for node in ast.walk(scope):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                owner[node] = scope
    out = []
    for node, scope in owner.items():
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                out.append((node.lineno, name))
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_module_and_function_scopes():
    source = ("import os\nfrom math import gcd, lcm\n"
              "def f():\n    from math import comb\n    return gcd(1, 2)\n")
    assert unused_imports(source) == [(1, "os"), (2, "lcm"), (4, "comb")]
