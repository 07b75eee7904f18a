"""Every test pointer in the package's modules and in README.md names a test
file that exists and, after "::", a class or function defined in it, so a
moved or renamed test cannot leave a stale pointer behind. No module cites
a ROADMAP item by number, since the items are renumbered at every re-anchor."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "gaeclust").glob("*.py"))
DOCS = sorted([*MODULES, ROOT / "README.md"])
POINTER = re.compile(r"tests/(\w+\.py)((?:::\w+)*)")
ITEM_NUMBER = re.compile(r"ROADMAP\s+items?\s+\d+")


def defines(tree: ast.AST, path: list) -> bool:
    """Whether the class and function names of path nest in tree's bodies."""
    for name in path:
        tree = next((node for node in tree.body if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == name),
            None)
        if tree is None:
            return False
    return True


def stale_pointers(text: str, tests: Path) -> list:
    """The pointers tests/<file>.py[::<name>...] of text that name no file
    of the tests directory, or a name that file does not define."""
    stale = []
    for match in POINTER.finditer(text):
        path = tests / match[1]
        names = match[2].split("::")[1:]
        if not path.is_file() or not defines(ast.parse(path.read_text()), names):
            stale.append(match[0])
    return stale


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_test_pointer_resolves(doc):
    assert stale_pointers(doc.read_text(), ROOT / "tests") == []


def test_the_docs_hold_pointers():
    assert sum(len(POINTER.findall(doc.read_text())) for doc in DOCS) >= 5


def test_the_check_sees_stale_pointers(tmp_path):
    (tmp_path / "test_a.py").write_text("class TestA:\n    def test_x(self):\n        pass\n\n"
                                        "def test_y():\n    pass\n")
    text = ("tests/test_a.py, tests/test_a.py::TestA, tests/test_a.py::test_y, "
            "tests/test_a.py::TestA::test_x (tests/test_b.py checks), "
            "tests/test_a.py::TestB, tests/test_a.py::TestA::test_y.")
    assert stale_pointers(text, tmp_path) == [
        "tests/test_b.py", "tests/test_a.py::TestB", "tests/test_a.py::TestA::test_y"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_cites_a_roadmap_item_number(module):
    assert ITEM_NUMBER.findall(module.read_text()) == []


def test_the_check_sees_roadmap_item_numbers():
    text = ("until ROADMAP item 1 moves them; ROADMAP\n    item 16 and ROADMAP items 2 "
            "and 3; the ROADMAP's items; item 4; ROADMAP item two")
    assert ITEM_NUMBER.findall(text) == ["ROADMAP item 1", "ROADMAP\n    item 16",
                                         "ROADMAP items 2"]
