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
class of ``src/rdcontrol``, and each public method or property of such a
class, by name (a bare name that no local of the same name hides, the last
attribute or an imported name) against every statement of ``src/`` other
than its own definition, and against ``tests/test_acceptance.py``.  A
statement is a top-level statement or, inside a class, its header (bases
and decorators) or one statement of its body.

The package's only scipy import is ``scipy.linalg.lapack`` inside
``elliptic._scipy_lapack``, the fallback for a numpy that bundles no
OpenBLAS: the tridiagonal ``dgttrf``/``dgttrs`` come from numpy's own
OpenBLAS, and Simpson quadrature and PCHIP live in ``rdcontrol.numerics``.
The import scan reads every ``import`` and ``from ... import`` statement
of ``src/rdcontrol`` at any nesting, function bodies included.  Where
numpy bundles the library, a fresh interpreter that imports every module
of the package must have loaded no scipy module at all.

A result field that nothing reads is output no caller uses.  The field
scan reads every field of each ``@dataclass`` class of ``src/rdcontrol``
and fails on a field whose name no attribute load in ``src/``, ``tests/``
or ``bench/`` reads.  NamedTuples are exempt: code reads them by
unpacking (``TridiagonalFactor``).

Scenario values are decided once, in ``load_scenario``: the raw scan
fails when ``cli.py`` loads an attribute ``raw`` anywhere other than as a
direct argument of ``write_csv``, whose meta row hashes it.

A profile carries its geometry and its node count, so no public function
or method takes a ``GridProfile`` parameter together with a
``DomainGeometry`` parameter or a node count (``n``, ``n_grid``): a second
copy of either can only disagree with the profile.  Likewise a drift
carries its sigma, so none takes a ``DriftField`` parameter together with
one named ``sigma``.  The grid and sigma scans read parameter annotations
and names.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from rdcontrol import elliptic

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


def _units(tree: ast.Module):
    """(top-level statement, statement) for each statement of ``tree``; a
    class contributes its header and each statement of its body."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            yield stmt, ast.Module(body=[*stmt.decorator_list, *stmt.bases, *stmt.keywords],
                                   type_ignores=[])
            yield from ((stmt, sub) for sub in stmt.body)
        else:
            yield stmt, stmt


def _public_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def _unreached(sources: dict, extra: list) -> list:
    """``module.name`` of each public module-level function or class of the
    ``sources`` (module name to source), and ``module.Class.name`` of each
    public method of such a class, that no statement of the sources other
    than its own definition, nor any of the ``extra`` sources, references."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    units = [(top, sub, _references(sub)) for tree in trees.values() for top, sub in _units(tree)]
    reached = set().union(*(_references(ast.parse(source)) for source in extra))

    def unreached(node, own) -> bool:
        return node.name not in reached and not any(node.name in refs
                                                    for top, sub, refs in units if not own(top, sub))

    found = []
    for module, tree in trees.items():
        for stmt in filter(_public_def, tree.body):
            if unreached(stmt, lambda top, sub: top is stmt):
                found.append(f"{module}.{stmt.name}")
            if isinstance(stmt, ast.ClassDef):
                found += [f"{module}.{stmt.name}.{method.name}"
                          for method in filter(_public_def, stmt.body)
                          if unreached(method, lambda top, sub: sub is method)]
    return found


def test_the_reachability_scan_reads_references():
    sources = {"a": "def used(): pass\ndef alone(): alone()\nclass K: pass\n_x = used\n"
                    "class J(K):\n    def called(self): return self.prop\n"
                    "    def lonely(self): return self.lonely()\n"
                    "    @property\n    def prop(self): pass\n    def _hidden(self): pass\n",
               "b": "from .a import K, J\ndef _private(): pass\ndef cited(): pass\n"
                    "def local(): pass\ndef _f(local=1):\n    return local\n"
                    "def _g():\n    local = 2\n    return local\n"}
    assert _unreached(sources, ["cited()\nJ().called()"]) == ["a.alone", "a.J.lonely", "b.local"]


def test_every_public_definition_is_reached():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    unreached = _unreached(sources, [ACCEPTANCE.read_text()])
    assert not unreached, f"public definitions that only their own tests reach: {unreached}"


def _dataclass_fields(source: str) -> list:
    """(class, field) of each field of each ``@dataclass`` class in ``source``."""
    def is_dataclass(dec) -> bool:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        return (dec.id if isinstance(dec, ast.Name) else getattr(dec, "attr", None)) == "dataclass"

    return [(cls.name, stmt.target.id) for cls in ast.parse(source).body
            if isinstance(cls, ast.ClassDef) and any(map(is_dataclass, cls.decorator_list))
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def _attribute_reads(source: str) -> set:
    """Every attribute name that ``source`` loads."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_the_field_scan_reads_dataclasses():
    source = ("@dataclass(frozen=True)\nclass A:\n    x: int\n    y: float = 0.0\n"
              "    def m(self):\n        return self.x\n"
              "@dataclasses.dataclass\nclass B:\n    z: str\n"
              "class C(NamedTuple):\n    w: int\nb.z = 1\nc.w\n")
    assert _dataclass_fields(source) == [("A", "x"), ("A", "y"), ("B", "z")]
    assert _attribute_reads(source) == {"x", "dataclass", "w"}


def test_every_dataclass_field_is_read():
    reads = set().union(*(_attribute_reads(path.read_text())
                          for top in CALLERS for path in sorted(top.rglob("*.py"))))
    unread = [f"{path.stem}.{cls}.{name}" for path in sorted(PACKAGE.glob("*.py"))
              for cls, name in _dataclass_fields(path.read_text()) if name not in reads]
    assert not unread, f"dataclass fields that nothing reads: {unread}"


def _raw_reads(source: str) -> list:
    """Lines of ``source`` that load an attribute ``raw`` other than as a
    direct argument of a ``write_csv`` call."""
    tree = ast.parse(source)
    hashed = {id(arg) for call in ast.walk(tree) if isinstance(call, ast.Call)
              and getattr(call.func, "id", getattr(call.func, "attr", None)) == "write_csv"
              for arg in call.args + [kw.value for kw in call.keywords]}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "raw"
                  and isinstance(node.ctx, ast.Load) and id(node) not in hashed)


def test_the_raw_scan_flags_a_read_outside_write_csv():
    source = ("write_csv(path, header, rows, sc.raw)\n"
              "write_csv(path, header, rows, raw_scenario=sc.raw)\n"
              "delta1 = sc.raw.get('delta1', 0.05)\n"
              "if 'p0' in sc.raw:\n    pass\n"
              "write_csv(path, header, rows, dict(sc.raw))\n")
    assert _raw_reads(source) == [3, 4, 6]


def test_the_cli_reads_scenario_raw_only_to_hash_it():
    # load_scenario decides every value once; a runner that reads sc.raw
    # again would make a second default or cast of a key
    lines = _raw_reads((PACKAGE / "cli.py").read_text())
    assert not lines, f"cli.py reads .raw outside write_csv at lines {lines}"


ALLOWED_SCIPY = "scipy.linalg.lapack"
FALLBACK = ("elliptic", "_scipy_lapack")  # (module, function) that may import it


def _scipy_imports(source: str, fallback: str = "") -> list:
    """(line, module) of each import in ``source``, at any nesting, that
    loads a scipy module, except ``scipy.linalg.lapack`` inside the
    function named ``fallback``."""
    tree = ast.parse(source)
    allowed = {id(node) for func in ast.walk(tree)
               if isinstance(func, ast.FunctionDef) and func.name == fallback
               for node in ast.walk(func)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules if (m == "scipy" or m.startswith("scipy."))
                  and not (m == ALLOWED_SCIPY and id(node) in allowed)]
    return sorted(found)


def test_the_import_scan_reads_nested_imports():
    source = ("import numpy\nfrom scipy.linalg.lapack import dgttrf\n"
              "def fallback():\n    import scipy.linalg.lapack\n"
              "def f():\n    from scipy.integrate import simpson\n"
              "    import scipy.interpolate as si, scipy\nfrom .numerics import Pchip\n"
              "from scipy import special\nimport scipyx\n"
              "def g():\n    from scipy.linalg.lapack import dgttrs\n")
    assert _scipy_imports(source, "fallback") == [
        (2, "scipy.linalg.lapack"), (6, "scipy.integrate"), (7, "scipy"),
        (7, "scipy.interpolate"), (9, "scipy"), (12, "scipy.linalg.lapack")]


def test_the_only_scipy_import_is_lapack():
    found = [f"{path.name}:{line} {module}" for path in sorted(PACKAGE.glob("*.py"))
             for line, module in _scipy_imports(
                 path.read_text(), FALLBACK[1] if path.stem == FALLBACK[0] else "")]
    assert not found, f"scipy imports other than {ALLOWED_SCIPY} in {'.'.join(FALLBACK)}: {found}"


_IMPORT_ALL = """
import importlib, json, pkgutil, sys
import rdcontrol
for info in pkgutil.iter_modules(rdcontrol.__path__):
    importlib.import_module("rdcontrol." + info.name)
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


@pytest.mark.skipif(elliptic._DGTTRF is None, reason="numpy bundles no OpenBLAS here")
def test_importing_the_package_loads_no_scipy():
    # a fresh interpreter, so an import that brings scipy.linalg back fails here
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    run = subprocess.run([sys.executable, "-c", _IMPORT_ALL], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.strip().splitlines()[-1]) == []


GRID_COUNTS = ("n", "n_grid")


def _annotated(arg, name) -> bool:
    return arg.annotation is not None and any(
        isinstance(node, ast.Name) and node.id == name for node in ast.walk(arg.annotation))


def _public_signatures(source: str):
    """(qualified name, parameters) of each public module-level function
    and public method of a public class in ``source``."""
    tree = ast.parse(source)
    defs = [(node, "") for node in filter(_public_def, tree.body)
            if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in filter(_public_def, tree.body) if isinstance(node, ast.ClassDef)):
        defs += [(node, f"{cls.name}.") for node in filter(_public_def, cls.body)
                 if isinstance(node, ast.FunctionDef)]
    for fn, owner in defs:
        yield owner + fn.name, fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs


def _mismatchable(source: str) -> list:
    """Each public function or method in ``source`` that takes a parameter
    annotated ``GridProfile`` together with one annotated
    ``DomainGeometry`` or named in GRID_COUNTS."""
    return [name for name, args in _public_signatures(source)
            if any(_annotated(a, "GridProfile") for a in args) and any(
                _annotated(a, "DomainGeometry") or a.arg in GRID_COUNTS for a in args)]


def test_the_grid_scan_reads_annotations():
    source = ("def a(p: GridProfile, g: DomainGeometry): pass\n"
              "def b(p: Optional[GridProfile], *, n_grid=3): pass\n"
              "def c(p: GridProfile, m: int): pass\n"
              "def d(g: DomainGeometry, n: int): pass\n"
              "def _e(p: GridProfile, n: int): pass\n"
              "class K:\n    def f(self, p: GridProfile, n): pass\n"
              "    def g(self, other: GridProfile): pass\n")
    assert _mismatchable(source) == ["a", "b", "K.f"]


def test_no_function_takes_a_profile_and_its_grid():
    found = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in _mismatchable(path.read_text())]
    assert not found, f"functions that take a GridProfile and a geometry or node count: {found}"


def _second_sigma(source: str) -> list:
    """Each public function or method in ``source`` that takes a parameter
    annotated ``DriftField`` together with one named ``sigma``."""
    return [name for name, args in _public_signatures(source)
            if any(_annotated(a, "DriftField") for a in args)
            and any(a.arg == "sigma" for a in args)]


def test_the_sigma_scan_reads_annotations():
    source = ("def a(drift: DriftField, sigma: float): pass\n"
              "def b(nl, N: Optional[DriftField], *, sigma=1.0): pass\n"
              "def c(drift: DriftField, s: float): pass\n"
              "def d(sigma: float, n: int): pass\n"
              "def _e(drift: DriftField, sigma): pass\n"
              "class K:\n    def f(self, drift: DriftField): pass\n"
              "    def g(self, drift: DriftField, sigma): pass\n")
    assert _second_sigma(source) == ["a", "b", "K.g"]


def test_no_function_takes_a_drift_and_a_second_sigma():
    found = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in _second_sigma(path.read_text())]
    assert not found, f"functions that take a DriftField and a sigma beside it: {found}"
