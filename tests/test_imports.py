"""Every import in the package and its tests is used by the module that
makes it and sits at module top, no module of the package takes a private
name from another, every top-level definition is named by the product
somewhere outside itself, every parameter is read by its function, no
module reads the process environment, and every memo has a reason."""

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
# each memoized function, property or attribute of the package, with why it
# pays; a new memo joins this list with its reason or is not added
MEMOS = {
    "branchfam.FiniteDistribution._w":
        "w at each base point, once per weight, serves every test function "
        "that kappa_family and kappa_lambda integrate at that weight",
    "princhecke._zero":
        "one zero per prime: on oracle-p3b2, 32 of the 33 ps_evaluate_rows "
        "calls are off the cell and return it",
    "symring._fold_table":
        "the rows of x^k mod Phi_m, read each time a CycNum of order m is built",
    "symring.cyclotomic_poly":
        "Phi_m is built from every Phi_d with d | m, recursively",
    "shalikazeta.TwistCharacter.tau":
        "one Gauss sum per character serves gauss_power at every rank",
    "shalikazeta.TwistCharacter.tau_powers":
        "tau(chi)^n serves both closed forms, ep_factor and qprime_factor, "
        "which euler-factors calls at every j",
}
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


def private_imports(source: str) -> list:
    """(line, name) for each underscore name a module takes from another
    module: ``from .x import _name``, or ``x._name`` for a module x that it
    imports.  Dunders are exempt; a private name stays with its module."""
    tree = ast.parse(source)
    modules, out = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name.startswith("_") and not _is_dunder(alias.name):
                    out.append((node.lineno, alias.name))
                elif node.module is None:  # from . import x: x is a module
                    modules.add(alias.asname or alias.name)
    out += [(node.lineno, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and node.attr.startswith("_")
            and not _is_dunder(node.attr)]
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_imports(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_private_import_guard():
    source = ("from __future__ import annotations\nimport math\n"
              "from . import padiclin, symring as sr\n"
              "from .padiclin import _int_rows, vp\n"
              "A = sr._fold_table(3) + padiclin.vp(1, 2) + math.__name__\n"
              "B = vp._cache if math.gcd(1, 2) else padiclin._split_int(4, 2)\n")
    assert private_imports(source) == [(4, "_int_rows"), (5, "_fold_table"),
                                       (6, "_split_int")]


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


def memoized(source: str) -> list:
    """Qualified names of the memos of a module: the functions and methods
    decorated with ``lru_cache``, ``cache`` or ``cached_property``, bare or
    as attributes of ``functools``, called with arguments or not, and the
    attribute memos ``if x.a is None: x.a = ...`` and ``if k not in x.a:
    x.a[k] = ...``, each named C.a for the class C whose methods set
    ``self.a``."""
    memos = {"lru_cache", "cache", "cached_property"}
    tree = ast.parse(source)
    out = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators = [d.func if isinstance(d, ast.Call) else d
                              for d in node.decorator_list]
                if any(getattr(d, "id", getattr(d, "attr", None)) in memos
                       for d in decorators):
                    out.append(prefix + node.name)
                visit(node.body, f"{prefix}{node.name}.")

    visit(tree.body, "")
    owners = {node.attr: cls.name
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for node in ast.walk(cls)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and getattr(node.value, "id", None) == "self"}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and len(node.test.ops) == 1):
            continue
        test = node.test
        (op,), (right,) = test.ops, test.comparators
        if isinstance(op, ast.Is) and isinstance(right, ast.Constant) and right.value is None:
            attr, target = test.left, ast.unparse(test.left)
        elif isinstance(op, ast.NotIn):
            attr, target = right, f"{ast.unparse(right)}[{ast.unparse(test.left)}]"
        else:
            continue
        if isinstance(attr, ast.Attribute) and any(
                isinstance(stmt, ast.Assign) and target in map(ast.unparse, stmt.targets)
                for stmt in node.body):
            out.append(f"{owners.get(attr.attr, '?')}.{attr.attr}")
    return sorted(out)


def test_every_memo_has_a_reason():
    found = [f"{path.stem}.{name}" for path in MODULES
             for name in memoized(path.read_text(encoding="utf-8"))]
    assert sorted(found) == sorted(MEMOS)


def test_memo_guard():
    source = ("import functools\nfrom functools import cache, cached_property, lru_cache\n"
              "@lru_cache(maxsize=None)\ndef a(x):\n    return x\n"
              "@functools.lru_cache\ndef b(x):\n    return x\n"
              "@cache\ndef c(x):\n    return x\n"
              "def plain(x):\n    return x\n"
              "class K:\n    @cached_property\n    def d(self):\n        return 1\n"
              "    @property\n    def e(self):\n        return 2\n"
              "    def f(self):\n        @functools.cache\n"
              "        def g():\n            return 3\n        return g\n"
              "    def __init__(self):\n        self.t = None\n        self.m = {}\n"
              "    def h(self):\n        if self.t is None:\n            self.t = 4\n"
              "        return self.t\n"
              "def use(x, k, table):\n    if k not in x.m:\n        x.m[k] = 5\n"
              "    if x.t is None:\n        raise ValueError(k)\n"
              "    if k in x.m:\n        x.m[k] = 6\n"
              "    if k not in table:\n        table[k] = 7\n"
              "    return x.m[k]\n")
    # a test that stores nothing, an `in` test and a memo in a local dict
    # are not attribute memos
    assert memoized(source) == ["K.d", "K.f.g", "K.m", "K.t", "a", "b", "c"]


def _names(tree, bare: bool = True) -> Counter:
    """Identifiers a syntax tree names: attributes and the parts of strings
    that are dotted identifiers, and with ``bare`` also loaded or stored
    names and imported names."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            out.update(node.value.split("."))
        elif bare and isinstance(node, ast.Name):
            out[node.id] += 1
        elif bare and isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
    return out


def _is_dead(node, name: str, named: Counter, bare: bool = True) -> bool:
    return named[name] == _names(node, bare)[name]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def dead_definitions(modules: dict, referrers: dict) -> list:
    """(module, name) for each top-level function, class or ``Name = ...``
    constant of ``modules``, and (module, "Class.method") for each method of
    a top-level class, dunders exempt, that no source in ``referrers`` names
    outside the definition itself.

    Both arguments map a label to source text; ``referrers`` includes the
    modules themselves.  A method is kept alive only by an attribute access
    or a dotted string, not by a bare name, so a local variable that shares
    a method's name does not hide it.  The guard matches names, not
    bindings, so a dead method that shares its name with a live one anywhere
    (a method ``scale`` on one class while another class's ``scale`` is
    called) escapes it.
    """
    trees = {label: ast.parse(text) for label, text in referrers.items()}
    for label, text in modules.items():
        trees.setdefault(label, ast.parse(text))
    named, accessed = Counter(), Counter()
    for tree in trees.values():
        named.update(_names(tree))
        accessed.update(_names(tree, bare=False))
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
                        and _is_dead(item, item.name, accessed, bare=False):
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
    # the loop variable "unused" is a bare name: it keeps no method alive
    other = ("TARGETS = ('mod.traced',)\nVALUE = Kept().get()\n"
             "for unused in range(2):\n    VALUE += unused\n")
    refs = {"mod": module, "other": other}
    assert dead_definitions({"mod": module}, refs) \
        == [("mod", "Kept.unused"), ("mod", "Lonely"), ("mod", "Lonely.make"),
            ("mod", "STALE"), ("mod", "dead"), ("mod", "recursive")]
    # a test file naming "dead" would keep it alive; REFERRERS leaves the
    # tests out, so a name only tests use is reported, as above
    test = "from mod import dead\nassert dead() == 1\n"
    assert ("mod", "dead") not in dead_definitions({"mod": module},
                                                   {**refs, "test": test})
