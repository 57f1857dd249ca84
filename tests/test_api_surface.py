"""Every defaulted parameter of the package is one that callers use both ways.

A default that no call sets is a constant in disguise; a default that every
call overrides guards a branch that never runs.  The scan reads the
module-level functions and classmethods of ``src/rdcontrol`` and matches
their calls in ``src/``, ``tests/`` and ``bench/`` by the called name (a
bare name or the last attribute), binding each argument by position or
keyword.  Calls that spread ``*args`` or ``**kwargs`` bind nothing certain
and are skipped.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rdcontrol"
CALLERS = [ROOT / "src", ROOT / "tests", ROOT / "bench"]


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
