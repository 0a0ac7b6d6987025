"""Source hygiene of the package, checked with ast (no linter is required).

A module-level import that no name in its module uses is dead weight and
usually the residue of code folded elsewhere; this test fails on one.
The spectral core's FFT length is chosen by one rule in one place: every
kick factor is built on a _propagation_points length. The transforms have
owners too: numpy's fft and ifft are called only in the core's period
(propagator._kick), the observation grid's pair (wavepacket._synthesize
and _analyze) and the first-order field (analytics.correction_term), which
stays apart from the propagation code it is checked against. The
sigma_x arithmetic has one owner, observables._sigma_rows, which
sigma_x and the sweeps' stacked observation share: it alone holds the
within-bin term dx * dx / 12 and the MIRROR_TIE comparison. State that
outlives a call has one owner as well: the only context variable is the
sweep scanner keeps open (scanner._OPEN_SWEEP). The dense oracle,
propagator.evolve_dense, is checked against the spectral core and so
reaches none of the core's pieces, directly or through the module's
helpers it calls.
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


def owners(tree: ast.Module, hit) -> list[str]:
    """The innermost function around each node for which hit(node) holds;
    "<module>" for a node outside any function."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if hit(node):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def is_transform(node: ast.AST) -> bool:
    """An fft or ifft call, whatever it is called through (np.fft.fft,
    numpy.fft.ifft, fft.fft)."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("fft", "ifft"))


def transform_owners(tree: ast.Module) -> list[str]:
    return owners(tree, is_transform)


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


def is_within_bin_term(node: ast.AST) -> bool:
    """A division by the literal 12, as in the within-bin variance dx * dx / 12."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and isinstance(node.right, ast.Constant) and node.right.value == 12)


def is_mirror_tie_test(node: ast.AST) -> bool:
    """A comparison that reads MIRROR_TIE, by name or as an attribute."""
    return isinstance(node, ast.Compare) and any(
        getattr(sub, "id", None) == "MIRROR_TIE"
        or getattr(sub, "attr", None) == "MIRROR_TIE"
        for sub in ast.walk(node))


@pytest.mark.parametrize("hit", [is_within_bin_term, is_mirror_tie_test],
                         ids=lambda hit: hit.__name__)
def test_sigma_arithmetic_has_one_owner(hit):
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.stem}.{name}" for name in owners(tree, hit)]
    assert found == ["observables._sigma_rows"]


def test_second_sigma_arithmetic_is_caught():
    tree = ast.parse("var = s * dx + dx * dx / 12.0\n"
                     "def f(p, top):\n"
                     "    if top - p <= MIRROR_TIE * top:\n"
                     "        return dx**2 / 12\n"
                     "def g(p, top):\n"
                     "    tie = observables.MIRROR_TIE * top >= top - p\n"
                     "    return dx * dx / 6.0, MIRROR_TIE\n")
    assert owners(tree, is_within_bin_term) == ["<module>", "f"]
    assert owners(tree, is_mirror_tie_test) == ["f", "g"]


def context_variables(tree: ast.Module) -> list[str]:
    """Every ContextVar(...) call, however it is imported: the names it is
    bound to, or the call itself when it is bound to no plain name."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if names:
                bound[id(node.value)] = names
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if called == "ContextVar":
            found += bound.get(id(node), [ast.unparse(node)])
    return sorted(found)


def test_the_open_sweep_is_the_only_context_variable():
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.stem}.{name}" for name in context_variables(tree)]
    assert found == ["scanner._OPEN_SWEEP"]


def test_stray_context_variable_is_caught():
    tree = ast.parse("a = contextvars.ContextVar('a')\n"
                     "b: ContextVar[int] = ContextVar('b', default=0)\n"
                     "def f():\n"
                     "    c = d = cv.ContextVar('c')\n"
                     "    registry.append(ContextVar('e'))\n"
                     "ContextVar('g')\n"
                     "h = ContextVarFactory('h')\n")
    assert context_variables(tree) == ["ContextVar('e')", "ContextVar('g')",
                                       "a", "b", "c", "d"]


#: the spectral core's pieces, which the dense oracle must not reach
SPECTRAL_CORE = {"_run", "_periods", "_kick", "_kick_phases", "_fft_slots",
                 "_propagation_points"}


def reachable_calls(tree: ast.Module, root: str) -> set[str]:
    """Names called in the module-level function root and, transitively,
    in the module-level functions it calls, whether by name or as an
    attribute (wavepacket._fft_slots)."""
    functions = {node.name: node for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    called: set[str] = set()
    todo, seen = [root], set()
    while todo:
        name = todo.pop()
        if name in seen or name not in functions:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if callee is not None:
                    called.add(callee)
                    todo.append(callee)
    return called


def test_dense_oracle_reaches_no_spectral_code():
    path = PACKAGE / "propagator.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    reached = reachable_calls(tree, "evolve_dense")
    # the check follows the oracle into its own helpers
    assert {"_kick_column", "_unitarity_error", "bessel_j_ladder"} <= reached
    assert reached & SPECTRAL_CORE == set()


def test_dense_oracle_reaching_the_core_is_caught():
    tree = ast.parse("def evolve_dense(c):\n"
                     "    return helper(c) + wavepacket._fft_slots(3, 8)\n"
                     "def helper(c):\n"
                     "    _kick(c, k, f, 3)\n"
                     "    return c\n"
                     "def _run():\n"
                     "    return _propagation_points(3, 1.0)\n")
    reached = reachable_calls(tree, "evolve_dense")
    assert reached & SPECTRAL_CORE == {"_fft_slots", "_kick"}
