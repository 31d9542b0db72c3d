"""Every imported name in the package and the tests is used, and the oracles stay apart.

No linter runs with the suite, so this stdlib check stands in for the
unused-import rule (F401).  A name counts as used when the module reads
it, lists it in ``__all__``, or imports it on a line marked
``# noqa: F401``.  The oracles in ``tests/oracles.py`` check the package,
so they may import nothing from it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "oddtrans").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(text: str) -> list[str]:
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}  # bound name -> line number
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    text = "import os\nimport sys  # noqa: F401\nfrom typing import Any, List\n__all__ = ['List']\n"
    assert unused_imports(text) == ["line 1: os", "line 3: Any"]


def package_imports(text: str) -> list[str]:
    """The import statements that reach the ``oddtrans`` package."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {m}" for m in modules if m.split(".")[0] == "oddtrans"]
    return found


def test_the_oracles_import_nothing_from_the_package():
    assert package_imports((ROOT / "tests" / "oracles.py").read_text()) == []


def test_the_check_sees_a_package_import():
    text = (
        "import math\nfrom oddtrans import x\nimport numpy, oddtrans.spectral as s\n"
        "def f():\n    from oddtrans.gf2 import rank\nfrom oddtransx import y\n"
    )
    assert package_imports(text) == [
        "line 2: oddtrans",
        "line 3: oddtrans.spectral",
        "line 5: oddtrans.gf2",
    ]
