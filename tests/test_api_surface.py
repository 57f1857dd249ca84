"""Every defaulted parameter of the package is one that callers use both ways,
and every public function or class is one that the package or an acceptance
criterion reaches.

A default that no call sets is a constant in disguise; a default that every
call overrides guards a branch that never runs.  The scan reads the
module-level functions and classmethods of ``src/rdcontrol`` and matches
their calls in ``src/``, ``tests/`` and ``bench/`` by the called name (a
bare name or the last attribute), binding each argument by position or
keyword.  Calls that spread ``*args`` or ``**kwargs`` bind nothing certain
and are skipped.

A public definition that only its own tests reach is code no experiment
runs.  The reachability scan matches each public module-level function and
class of ``src/rdcontrol`` by name (a bare name that no local of the same
name hides, the last attribute or an imported name) against every
top-level statement of ``src/`` other than its own definition, and of
``tests/test_acceptance.py``.

The package's only scipy import is ``scipy.linalg.lapack`` (the tridiagonal
``dgttrf``/``dgttrs``): Simpson quadrature and PCHIP live in
``rdcontrol.numerics``, so loading the package costs no ``scipy.integrate``,
``scipy.interpolate`` or ``scipy.special``.  The import scan reads every
``import`` and ``from ... import`` statement of ``src/rdcontrol`` at any
nesting, function bodies included.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rdcontrol"
CALLERS = [ROOT / "src", ROOT / "tests", ROOT / "bench"]
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _defaulted(source: str):
    """(qualified name, name, positional parameter names, defaulted parameter
    names) for each module-level function and classmethod in ``source``
    that has a default; a classmethod's ``cls`` is not positional."""
    tree = ast.parse(source)
    defs = [(node, "") for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        defs += [(node, f"{cls.name}.") for node in cls.body if isinstance(node, ast.FunctionDef)
                 and any(isinstance(d, ast.Name) and d.id == "classmethod"
                         for d in node.decorator_list)]
    for fn, owner in defs:
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args][1 if owner else 0:]
        with_default = positional[len(positional) - len(args.defaults):] if args.defaults else []
        with_default += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                         if d is not None]
        if with_default:
            yield owner + fn.name, fn.name, positional, with_default


def _calls(source: str):
    """Every call in ``source`` that binds its arguments plainly, as
    (called name, number of positional arguments, keyword names, line)."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        if name is None or any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords):
            continue
        yield name, len(node.args), {k.arg for k in node.keywords}, node.lineno


def _usage():
    """{(module, qualified name, parameter): (calls that set it, calls that omit it)}."""
    calls = defaultdict(list)
    for top in CALLERS:
        for path in sorted(top.rglob("*.py")):
            for name, n_pos, keywords, line in _calls(path.read_text()):
                calls[name].append((n_pos, keywords, f"{path.relative_to(ROOT)}:{line}"))
    usage = {}
    for module in sorted(PACKAGE.glob("*.py")):
        for qualname, fn, positional, with_default in _defaulted(module.read_text()):
            for param in with_default:
                index = positional.index(param) if param in positional else None
                sets, omits = [], []
                for n_pos, keywords, where in calls[fn]:
                    bound = param in keywords or (index is not None and n_pos > index)
                    (sets if bound else omits).append(where)
                usage[(module.stem, qualname, param)] = (sets, omits)
    return usage


def test_the_scan_reads_definitions_and_calls():
    source = ("def f(a, b=1, *, c=2, e):\n    f(0, 1, e=3)\n    m.f(*xs)\n"
              "class K:\n    @classmethod\n    def m(cls, x, y=0): pass\n"
              "    def plain(self, z=1): pass\n")
    assert list(_defaulted(source)) == [("f", "f", ["a", "b"], ["b", "c"]),
                                        ("K.m", "m", ["x", "y"], ["y"])]
    assert list(_calls(source)) == [("f", 2, {"e"}, 2)]
    assert ("steady", "find_barrier_one", "n_grid") in _usage()


def test_every_default_is_set_by_some_call():
    unset = sorted(f"{m}.{fn}({p})" for (m, fn, p), (sets, _) in _usage().items() if not sets)
    assert not unset, f"defaulted parameters that no call sets: {unset}"


def test_every_default_is_omitted_by_some_call():
    always = sorted(f"{m}.{fn}({p})" for (m, fn, p), (_, omits) in _usage().items() if not omits)
    assert not always, f"defaulted parameters that every call sets: {always}"


def _references(node, hidden=frozenset()) -> set:
    """Every name that ``node`` references: a bare name that no parameter or
    assignment of an enclosing function hides, the last attribute of a
    dotted name, and each name an import binds from a module."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        hidden = hidden | {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)} | {
            n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    if isinstance(node, ast.Name):
        return set() if node.id in hidden else {node.id}
    names = {node.attr} if isinstance(node, ast.Attribute) else set()
    if isinstance(node, ast.ImportFrom):
        names.update(alias.name for alias in node.names)
    for child in ast.iter_child_nodes(node):
        names |= _references(child, hidden)
    return names


def _unreached(sources: dict, extra: list) -> list:
    """``module.name`` of each public module-level function or class of the
    ``sources`` (module name to source) that no top-level statement of the
    sources other than its own definition, nor any of the ``extra``
    sources, references."""
    statements = [(module, stmt, _references(stmt)) for module, source in sources.items()
                  for stmt in ast.parse(source).body]
    reached = set().union(*(_references(ast.parse(source)) for source in extra))
    return [f"{module}.{stmt.name}" for module, stmt, _ in statements
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
            and stmt.name not in reached
            and not any(stmt.name in refs for _, other, refs in statements if other is not stmt)]


def test_the_reachability_scan_reads_references():
    sources = {"a": "def used(): pass\ndef alone(): alone()\nclass K: pass\n_x = used\n",
               "b": "from .a import K\ndef _private(): pass\ndef cited(): pass\n"
                    "def local(): pass\ndef _f(local=1):\n    return local\n"
                    "def _g():\n    local = 2\n    return local\n"}
    assert _unreached(sources, ["cited()"]) == ["a.alone", "b.local"]


def test_every_public_definition_is_reached():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    unreached = _unreached(sources, [ACCEPTANCE.read_text()])
    assert not unreached, f"public definitions that only their own tests reach: {unreached}"


ALLOWED_SCIPY = "scipy.linalg.lapack"


def _scipy_imports(source: str) -> list:
    """(line, module) of each import in ``source``, at any nesting, that
    loads a scipy module other than ``scipy.linalg.lapack``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules
                  if (m == "scipy" or m.startswith("scipy.")) and m != ALLOWED_SCIPY]
    return sorted(found)


def test_the_import_scan_reads_nested_imports():
    source = ("import numpy\nfrom scipy.linalg.lapack import dgttrf\nimport scipy.linalg.lapack\n"
              "def f():\n    from scipy.integrate import simpson\n"
              "    import scipy.interpolate as si, scipy\nfrom .numerics import Pchip\n"
              "from scipy import special\nimport scipyx\n")
    assert _scipy_imports(source) == [(5, "scipy.integrate"), (6, "scipy"),
                                      (6, "scipy.interpolate"), (8, "scipy")]


def test_the_only_scipy_import_is_lapack():
    found = [f"{path.name}:{line} {module}" for path in sorted(PACKAGE.glob("*.py"))
             for line, module in _scipy_imports(path.read_text())]
    assert not found, f"scipy imports other than {ALLOWED_SCIPY}: {found}"
