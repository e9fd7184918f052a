"""Every import in the package and its tests is used by the module that
makes it and sits at module top, every top-level definition is named by
the product somewhere outside itself, every parameter is read by its
function, and no module reads the process environment."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "padicref"
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
# where a definition of the package may be named: the package and the
# benchmark (which patches functions by dotted string names), not the tests,
# so a definition that only tests reach counts as dead
REFERRERS = sorted({*MODULES, *(ROOT / "perfbench").glob("*.py")})
# paper claims that only tests check so far; each leaves this list when it
# becomes a report case (ROADMAP items 1 and 4) or is deleted
AWAITING_REPORT_CASES = (
    ("src/padicref/branchfam.py", "LocPoly.translated"),
    ("src/padicref/branchfam.py", "in_iwh_beta"),
    ("src/padicref/branchfam.py", "w_family"),
    ("src/padicref/branchfam.py", "w_lambda"),
    ("src/padicref/princhecke.py", "PSVector.intertwined_cell_vector"),
    ("src/padicref/refine.py", "noncritical_slope"),
    ("src/padicref/refine.py", "normalize_satake"),
    ("src/padicref/refine.py", "shalika_admissible"),
)
DOTTED = re.compile(r"[A-Za-z_][\w.]*")


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


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TESTS])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_module_and_function_scopes():
    source = ("import os\nfrom math import gcd, lcm\n"
              "def f():\n    from math import comb\n    return gcd(1, 2)\n")
    assert unused_imports(source) == [(1, "os"), (2, "lcm"), (4, "comb")]


def function_imports(source: str) -> list:
    """Lines of the imports made inside a function or method; imports
    belong at module top, where a module's dependencies can be read."""
    return sorted({inner.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for inner in ast.walk(node)
                   if isinstance(inner, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TESTS])
def test_no_function_imports(path):
    assert function_imports(path.read_text(encoding="utf-8")) == []


def test_function_import_guard():
    source = ("import os\nfrom math import gcd\n"
              "def f():\n    import json\n    return json\n"
              "class C:\n    def m(self):\n"
              "        def inner():\n            from math import comb\n"
              "            return comb\n        return inner\n")
    assert function_imports(source) == [4, 9]


def unused_parameters(source: str) -> list:
    """(function, parameter) for each parameter that its function, method or
    lambda never loads, nested functions included.

    The receiver ``self`` or ``cls`` is exempt, and so is the ``(cfg, rng)``
    signature of the suites, which ``cli.run`` calls uniformly whether or not
    a suite draws samples.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a]
        if params == ["cfg", "rng"]:
            continue
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(getattr(node, "name", "lambda"), name) for name in params
                if name not in read | {"self", "cls"}]
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_unused_parameter_guard():
    source = ("def f(a, b, *rest, key=1):\n    return a + key\n"
              "class C:\n    def m(self, x):\n        return 1\n"
              "def suite(cfg, rng):\n    return []\n"
              "g = lambda y, z: y\n"
              "def outer(k):\n    def inner():\n        return k\n    return inner\n")
    assert unused_parameters(source) == [("f", "b"), ("f", "rest"),
                                         ("lambda", "z"), ("m", "x")]


def environment_reads(source: str) -> list:
    """Lines that read the process environment: ``os.environ``,
    ``os.getenv`` or an import of either from ``os``."""
    names = {"environ", "environb", "getenv", "getenvb"}
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id == "os") \
                or (isinstance(node, ast.ImportFrom) and node.module == "os"
                    and any(alias.name in names for alias in node.names)):
            out.append(node.lineno)
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_environment_reads(path):
    # a report depends on its argument list alone
    assert environment_reads(path.read_text(encoding="utf-8")) == []


def test_environment_guard():
    source = ("import os\nfrom os import getenv\nA = os.environ.get('X')\n"
              "B = os.getenv('Y')\nC = os.path.sep\n")
    assert environment_reads(source) == [2, 3, 4]


def _names(tree) -> Counter:
    """Identifiers a syntax tree names: loaded or stored names, attributes,
    imported names, and the parts of strings that are dotted identifiers."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            out.update(node.value.split("."))
    return out


def _is_dead(node, name: str, named: Counter) -> bool:
    return named[name] == _names(node)[name]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def dead_definitions(modules: dict, referrers: dict) -> list:
    """(module, name) for each top-level function, class or ``Name = ...``
    constant of ``modules``, and (module, "Class.method") for each method of
    a top-level class, dunders exempt, that no source in ``referrers`` names
    outside the definition itself.

    Both arguments map a label to source text; ``referrers`` includes the
    modules themselves.  The guard matches names, not bindings, so a dead
    method that shares its name with a live one anywhere (a method ``scale``
    on one class while another class's ``scale`` is called) escapes it.
    """
    trees = {label: ast.parse(text) for label, text in referrers.items()}
    for label, text in modules.items():
        trees.setdefault(label, ast.parse(text))
    named = Counter()
    for tree in trees.values():
        named.update(_names(tree))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for label in modules:
        for node in trees[label].body:
            if isinstance(node, (*functions, ast.ClassDef)) \
                    and _is_dead(node, node.name, named):
                out.append((label, node.name))
            if isinstance(node, ast.Assign):
                out += [(label, t.id) for t in node.targets
                        if isinstance(t, ast.Name) and not _is_dunder(t.id)
                        and _is_dead(node, t.id, named)]
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, functions) and not _is_dunder(item.name) \
                        and _is_dead(item, item.name, named):
                    out.append((label, f"{node.name}.{item.name}"))
    return sorted(out)


def test_no_dead_definitions():
    def read(paths):
        return {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
                for path in paths}

    assert tuple(dead_definitions(read(MODULES), read(REFERRERS))) \
        == AWAITING_REPORT_CASES


def test_dead_definition_guard():
    module = ("__version__ = '1'\nLIMIT = 3\nSTALE = LIMIT + 1\n"
              "def used():\n    return LIMIT\n"
              "def dead():\n    return used()\n"
              "def recursive(k):\n    return recursive(k - 1) if k else 0\n"
              "class Lonely:\n    def make(self):\n        return Lonely()\n"
              "def traced():\n    return 2\n"
              "class Kept:\n    def __init__(self):\n        self.k = 1\n"
              "    def get(self):\n        return self.k\n"
              "    def unused(self):\n        return self.get()\n")
    other = "TARGETS = ('mod.traced',)\nVALUE = Kept().get()\n"
    refs = {"mod": module, "other": other}
    assert dead_definitions({"mod": module}, refs) \
        == [("mod", "Kept.unused"), ("mod", "Lonely"), ("mod", "Lonely.make"),
            ("mod", "STALE"), ("mod", "dead"), ("mod", "recursive")]
    # a test file naming "dead" would keep it alive; REFERRERS leaves the
    # tests out, so a name only tests use is reported, as above
    test = "from mod import dead\nassert dead() == 1\n"
    assert ("mod", "dead") not in dead_definitions({"mod": module},
                                                   {**refs, "test": test})
