"""Source hygiene of the package, checked with ast (no linter is required).

A module-level import that no name in its module uses is dead weight and
usually the residue of code folded elsewhere; this test fails on one.
The spectral core's FFT length is chosen by one rule in one place: every
kick factor is built on a _propagation_points length. The transforms have
owners too: numpy's fft and ifft are called only in the core's period
(propagator._kick), the observation grid's pair (wavepacket._synthesize
and _analyze) and the first-order field (analytics.correction_term), which
stays apart from the propagation code it is checked against.
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


def kick_calls(tree: ast.Module) -> list[ast.Call]:
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_kick_phases"]


def stray_kick_grids(tree: ast.Module) -> list[str]:
    """_kick_phases calls whose first argument, the length, is not a
    _propagation_points call."""
    stray = []
    for call in kick_calls(tree):
        length = call.args[0] if call.args else None
        if not (isinstance(length, ast.Call)
                and isinstance(length.func, ast.Name)
                and length.func.id == "_propagation_points"):
            stray.append(f"{ast.unparse(call)} (line {call.lineno})")
    return stray


def test_every_kick_runs_on_a_propagation_length():
    calls = 0
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        assert stray_kick_grids(tree) == [], path.name
        calls += len(kick_calls(tree))
    # the driven kick of _run and the echo pulse of _echo_fidelities
    assert calls == 2


def test_stray_kick_grid_is_caught():
    tree = ast.parse("_kick_phases(_propagation_points(M, p), p)\n"
                     "_kick_phases(4 * (M + 1), p)\n"
                     "_kick_phases(n=_propagation_points(M, p), phi=p)\n")
    assert stray_kick_grids(tree) == [
        "_kick_phases(4 * (M + 1), p) (line 2)",
        "_kick_phases(n=_propagation_points(M, p), phi=p) (line 3)",
    ]


def transform_owners(tree: ast.Module) -> list[str]:
    """The innermost function around each fft or ifft call, whatever it is
    called through (np.fft.fft, numpy.fft.ifft, fft.fft); "<module>" for a
    call outside any function."""
    owners = []

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("fft", "ifft")):
            owners.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return owners


def test_transforms_run_only_in_their_owners():
    owners = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owners += [f"{path.stem}.{name}" for name in transform_owners(tree)]
    # the first-order field's one fft, the core's ifft and fft, and the
    # observation grid's pair
    assert sorted(owners) == ["analytics.correction_term",
                              "propagator._kick", "propagator._kick",
                              "wavepacket._analyze", "wavepacket._synthesize"]


def test_stray_transform_is_caught():
    tree = ast.parse("np.fft.fft(a)\n"
                     "def f(a):\n"
                     "    def g():\n"
                     "        return numpy.fft.ifft(a)\n"
                     "    return fft.fft(a) + np.fft.rfft(a)\n")
    assert transform_owners(tree) == ["<module>", "g", "f"]
