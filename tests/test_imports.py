import ast
import dataclasses
import importlib.util
from pathlib import Path

import saddleloop

SRC = Path(saddleloop.__file__).parent


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
