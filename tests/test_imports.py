import ast
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import saddleloop

SRC = Path(saddleloop.__file__).parent
ROOT = Path(__file__).parents[1]


def _unused_imports(path: Path) -> list[str]:
    """Names bound by the module-level imports of a module that the
    module never reads."""
    tree = ast.parse(path.read_text())
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_unused_module_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    unused = {p.name: _unused_imports(p) for p in modules}
    assert {k: v for k, v in unused.items() if v} == {}


def test_no_module_imports_warnings():
    # quality facts are fields of the results, read by the command line
    # in one place; none travels as a warning
    importers = []
    for p in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(n and n.split(".")[0] == "warnings" for n in names):
                importers.append(p.name)
    assert importers == []


def _defined_names(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and assigned names, dunders left
    out."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                names += [n.id for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not n.startswith("__")]


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names a module reads, imports, or spells as a whole string (the
    benchmark tracer hooks names as (module, name) strings)."""
    refs = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute):
            refs.add(n.attr)
        elif isinstance(n, ast.alias):
            refs.add(n.name.split(".")[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and n.value.isidentifier():
            refs.add(n.value)
    return refs


def test_no_unreferenced_definitions():
    # every module-level definition of the package is read somewhere in
    # the package, the tests or the benchmark
    files = [p for d in ("src", "tests", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    assert SRC / "flowsim.py" in files
    refs = set().union(*(_referenced_names(ast.parse(p.read_text()))
                         for p in files))
    unreferenced = {p.name: [n for n in _defined_names(ast.parse(p.read_text()))
                             if n not in refs]
                    for p in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in unreferenced.items() if v} == {}


# definitions the program does not read yet, each kept for a stated use
PROGRAM_UNREAD = {
    # the cyclicity table, until a criterion checks counts against it
    "classify_cyclicity",
    # the tightest quadrature-vs-series check of the log multipliers
    # (its structured basis beats the generic log_coefficient fit)
    "match_asymptotics",
}


def _registered_functions(tree: ast.Module) -> set[str]:
    """Module-level functions handed to a registering decorator call,
    such as ``@_criterion(...)``, which reads them."""
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(d, ast.Call) for d in node.decorator_list)}


def test_no_definitions_only_tests_read():
    # every module-level definition of the package is read by the
    # package or the benchmark; a test alone is not a reader
    files = [p for d in ("src", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    trees = [ast.parse(p.read_text()) for p in files]
    refs = set().union(*map(_referenced_names, trees),
                       *map(_registered_functions, trees))
    defined = {p.name: _defined_names(ast.parse(p.read_text()))
               for p in sorted(SRC.glob("*.py"))}
    unread = {k: [n for n in v if n not in refs | PROGRAM_UNREAD]
              for k, v in defined.items()}
    assert {k: v for k, v in unread.items() if v} == {}
    # an exemption goes stale once the program reads it or it is gone
    assert PROGRAM_UNREAD <= set().union(*defined.values()) - refs


def test_benchmark_tracer_hooks_resolve():
    # perfbench/tracer.py wraps these names and reads these result
    # fields; a name that went missing would crash a traced benchmark run
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    hooked = tracer.SPANS + (("flowsim", "displacement"),
                             ("melnikov", "value"), ("flowsim", "FlowSpec"))
    for modname, name in hooked:
        mod = importlib.import_module("saddleloop." + modname)
        assert callable(getattr(mod, name, None)), f"{modname}.{name}"
    from saddleloop.abelian import AbelianTriple
    from saddleloop.flowsim import (CycleCensus, FlowSpec, ReturnResult,
                                    Trajectory)

    assert callable(FlowSpec.rhs)
    read = {Trajectory: ("ts", "states", "status", "n_segments"),
            ReturnResult: ("reason",), AbelianTriple: ("converged",),
            CycleCensus: ("grid_size",)}
    for cls, names in read.items():
        fields = {f.name for f in dataclasses.fields(cls)}
        assert set(names) <= fields, cls.__name__


def test_benchmark_witness_capture_resolves(monkeypatch):
    # perfbench/rep.py's witness item rebinds these module attributes to
    # capture their results, then runs criterion 9 and reads the census's
    # cycles and the zero count's count: criterion 9 has to call both
    # through their modules
    from saddleloop import acceptance, flowsim, melnikov

    seen = {}
    for mod, name in ((flowsim, "census"), (melnikov, "appendix_count_zeros")):
        def capture(*args, _fn=getattr(mod, name), _name=name, **kwargs):
            seen[_name] = _fn(*args, **kwargs)
            return seen[_name]

        monkeypatch.setattr(mod, name, capture)
    acceptance.criterion_9()
    assert set(seen) == {"census", "appendix_count_zeros"}
    # the result fields that the benchmark's checks read
    assert [(c.stability, c.section_coordinate)
            for c in seen["census"].cycles]
    assert isinstance(seen["appendix_count_zeros"].count, int)


def test_import_path_loads_no_scipy_solvers(tmp_path):
    # the runtime needs numpy only: importing every module of the
    # package and running sim --traj load no part of scipy
    code = (
        "import importlib, json, pkgutil, sys, saddleloop\n"
        "names = [m.name for m in pkgutil.iter_modules(saddleloop.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('saddleloop.' + name)\n"
        "from saddleloop.cli import main\n"
        "code = main(['sim', '--family', 'normal', '--a', '1', '--eps', '0',\n"
        "             '--traj', '--start', '1.0,0.5', '--T', '5',\n"
        "             '--out', sys.argv[1]])\n"
        "print(json.dumps([code, names, sorted(sys.modules)]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code,
                          str(tmp_path / "traj.csv")], env=env, check=True,
                         capture_output=True, text=True).stdout
    code, names, loaded = json.loads(out.splitlines()[-1])
    assert code == 0
    assert {"cli", "flowsim", "lockstep", "ovals"} <= set(names)
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


def _defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(function name, parameter, call position or None) of every
    defaulted parameter of a module-level function or method; a
    method's call position skips its self or cls."""
    defs = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs.append((node, 0))
        elif isinstance(node, ast.ClassDef):
            defs += [(d, 0 if any(getattr(x, "id", None) == "staticmethod"
                                  for x in d.decorator_list) else 1)
                     for d in node.body if isinstance(d, ast.FunctionDef)]
    out = []
    for fn, skip in defs:
        args = fn.args.posonlyargs + fn.args.args
        first = len(args) - len(fn.args.defaults)
        out += [(fn.name, a.arg, i - skip)
                for i, a in enumerate(args) if i >= first]
        out += [(fn.name, a.arg, None) for a, d
                in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if d is not None]
    return out


def _passed_parameters(tree: ast.Module) -> set[tuple[str, str | int]]:
    """(callee name, keyword) and (callee name, position) of every
    argument that a call in the module passes by name or position."""
    passed = set()
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call):
            continue
        name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
        passed |= {(name, kw.arg) for kw in n.keywords if kw.arg}
        passed |= {(name, i) for i, a in enumerate(n.args)
                   if not isinstance(a, ast.Starred)}
    return passed


def test_no_unset_parameters():
    # every defaulted parameter of the package is set by some call in
    # the package, the tests or the benchmark: a default that no call
    # overrides is a constant (nested closures are exempt)
    files = [p for d in ("src", "tests", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    passed = set().union(*(_passed_parameters(ast.parse(p.read_text()))
                           for p in files))
    unset = [f"{p.stem}.{fn}({arg})" for p in sorted(SRC.glob("*.py"))
             for fn, arg, pos in _defaulted_parameters(ast.parse(p.read_text()))
             if (fn, arg) not in passed and (fn, pos) not in passed]
    assert unset == []
