"""No module of the package, the tests or the benchmarks imports a name it never reads."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "gaeclust").glob("*.py"), *(ROOT / "tests").glob("*.py"),
                *(ROOT / "benchmarks").glob("*.py")])


def unused_imports(source: str) -> list:
    """Names bound by import statements that no expression loads; names
    listed in __all__ count as loaded."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_unused_names():
    source = ("import os\nimport numpy as np\nimport scipy.sparse\nfrom x import a, b as c\n"
              "from y import exported\n__all__ = ['exported']\nprint(np.pi, a)\n")
    assert unused_imports(source) == [(1, "os"), (3, "scipy"), (4, "c")]
