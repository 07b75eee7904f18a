"""No module of the package, the tests or the benchmarks imports a name it
never reads, and no private function or class of the package is left that
no module of the package names."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "gaeclust").glob("*.py"))
FILES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py"), *(ROOT / "benchmarks").glob("*.py")])


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


def unnamed_private_definitions(sources: dict) -> list:
    """(module, name) of each module-level function or class of sources (module
    name -> source) whose name has a leading underscore (not a dunder) and that
    no module of sources names: as a name, an attribute or an imported name."""
    defined, named = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    return sorted((module, name) for module, name in defined if name not in named)


def test_every_private_definition_is_named():
    assert unnamed_private_definitions({p.stem: p.read_text() for p in PACKAGE}) == []


def test_the_check_sees_unnamed_definitions():
    sources = {"a": "def _used():\n    pass\n\ndef _left():\n    pass\n\nclass _Gone:\n    pass\n"
                    "def __getattr__(name):\n    pass\n_used()\n",
               "b": "from a import _imported\nimport a\na._attribute\n",
               "c": "def _imported():\n    pass\n\ndef _attribute():\n    pass\n"}
    assert unnamed_private_definitions(sources) == [("a", "_Gone"), ("a", "_left")]
