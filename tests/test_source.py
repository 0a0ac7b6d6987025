"""Source hygiene of the package, checked with ast (no linter is required).

A module-level import that no name in its module uses is dead weight and
usually the residue of code folded elsewhere; this test fails on one.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kickedrotor"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by module-level imports and never read in the module.

    A name listed in __all__ counts as used: it is re-exported.
    """
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in used]


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "wavepacket.py",
                                          "propagator.py", "analytics.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


def test_unused_import_is_caught():
    tree = ast.parse("import math\nimport numpy as np\nfrom . import a, b\n"
                     "__all__ = ['b']\nx = np.zeros(3)\n")
    assert unused_imports(tree) == ["math (line 1)", "a (line 3)"]
