"""No module of the package, the tests or the demos imports a name it never reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "driftstream").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")) + list((ROOT / "demos").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that no ``Name`` node reads;
    ``import a.b`` binds ``a``, and ``__future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_scan_sees_dotted_aliased_and_future_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from json import dumps as d, loads\nx = os.sep + np.pi\n")
    assert unused_imports(source) == ["d", "loads"]


def test_every_imported_name_is_read():
    assert MODULES
    unused = [f"{p.relative_to(ROOT)}: {name}" for p in MODULES
              for name in unused_imports(p.read_text(encoding="utf-8"))]
    assert unused == []
