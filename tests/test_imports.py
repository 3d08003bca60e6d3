import ast
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
