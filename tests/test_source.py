"""Source hygiene of the package, checked with ast (no linter is required).

A module-level import that no name in its module uses is dead weight and
usually the residue of code folded elsewhere; this test fails on one.
The spectral core's FFT length is chosen by one rule in one place: every
kick factor is built on a _propagation_points length. The transforms have
owners too: numpy's fft and ifft are called only in the core's period
(propagator._kick) and the observation grid's synthesis
(wavepacket._synthesize); the first-order field is one cosine and needs
none. Every period is one _kick, and
only the core's period loop, propagator._periods, calls it. Every
sweep reaches the core through scanner._Sweep.read, the only caller of
_run in scanner, which keys each detuning by -|epsilon|. The
sigma_x arithmetic has one owner, observables._sigma_rows, which
sigma_x and the sweeps' stacked observation share: it alone holds the
within-bin term dx * dx / 12 and the MIRROR_TIE comparison. The downward
Bessel recurrence has one owner, analytics._bessel_j_ladder, the only
place its seed literal 1e-30 appears. One kick's reach has one owner
too, wavepacket._kick_reach, the only place the literal 13.2 (its Airy
widths) appears: the propagation length and the top order of every
Bessel ladder, and so of the dense oracle's kick column, take it from
there. No state outlives a call: no module
makes a context variable. A sweep is an explicit scanner._Sweep, built
only by scan_epsilon, auto_range, auto_scan and the width laws' _widths,
and handed to every walk and scan that reads it. The
dense oracle, propagator.evolve_dense, is checked against the spectral
core and so reaches none of the core's pieces, directly or through the
module's helpers it calls. The core takes its free flight as one phase table, so
neither the core nor the sweeps in scanner handle a FreePhaseSpec.
The sweep modes' rules live in one table, scanner.PROBES: neither
scanner nor the CLI compares a value with a mode name. The public
surface is what the CLI, the demos, the benchmark harness and the
contract tests read: every name in __all__ is named in one of them, as
an identifier or as a qualified "module.name" string, except the
exception types and the classes an exported function returns; a name
that only a sibling module of the package reads, or that a reader writes
only as a string key or in a comment, is not public. Every
exception class the package defines is a NumericalError (the CLI's exit
3) or a ValueError (exit 2), and only the CLI's main catches a
NumericalError: no code retries or swallows a numerical refusal. Only
the CLI's main makes a directory: a subcommand measures, main writes.
"""
import ast
import builtins
import contextlib
import io
import tokenize
from pathlib import Path

import pytest

from kickedrotor.scanner import MODES

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kickedrotor"
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
    # the one kick factor per stage of _periods, driven kick and echo
    # pulse alike
    assert calls == 1


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
    # the core's ifft and fft, and the observation grid's synthesis
    assert sorted(owners) == ["propagator._kick", "propagator._kick",
                              "wavepacket._synthesize"]


def test_stray_transform_is_caught():
    tree = ast.parse("np.fft.fft(a)\n"
                     "def f(a):\n"
                     "    def g():\n"
                     "        return numpy.fft.ifft(a)\n"
                     "    return fft.fft(a) + np.fft.rfft(a)\n")
    assert transform_owners(tree) == ["<module>", "g", "f"]


def is_period_call(node: ast.AST) -> bool:
    """A call of _kick, by name or as an attribute (propagator._kick)."""
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "_kick"
        or getattr(node.func, "attr", None) == "_kick")


def test_only_the_period_loop_calls_the_period():
    # tests/test_fail_closed.py counts _kick calls to show a refusal came
    # before the first period; a second caller could kick uncounted
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.stem}.{name}" for name in owners(tree, is_period_call)]
    assert found == ["propagator._periods"]


def test_stray_period_call_is_caught():
    tree = ast.parse("def _periods(buf):\n"
                     "    _kick(buf, k, f, 3, 1)\n"
                     "def _echo(buf):\n"
                     "    propagator._kick(buf, k, f, 3)\n"
                     "_kick(buf, k, f, 3)\n"
                     "_kick_phases(8, 0.5)\n"
                     "def _run():\n"
                     "    return _kick\n")
    assert owners(tree, is_period_call) == ["_periods", "_echo", "<module>"]


def is_core_call(node: ast.AST) -> bool:
    """A call of the spectral core _run, by name or as an attribute
    (propagator._run)."""
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "_run"
        or getattr(node.func, "attr", None) == "_run")


def test_only_the_sweep_reader_calls_the_core():
    # _Sweep.read keys every detuning by -|epsilon| before it propagates;
    # a second caller in scanner could propagate +epsilon beside it
    path = PACKAGE / "scanner.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert owners(tree, is_core_call) == ["read"]
    sweep = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "_Sweep")
    assert owners(sweep, is_core_call) == ["read"]


def test_stray_core_call_is_caught():
    tree = ast.parse("class _Sweep:\n"
                     "    def read(self, e):\n"
                     "        return _run(k, p, f)\n"
                     "def _sweep_values(e):\n"
                     "    return propagator._run(k, p, f)\n"
                     "_run(k, p, f)\n"
                     "def _core():\n"
                     "    return _run\n")
    assert owners(tree, is_core_call) == ["read", "_sweep_values", "<module>"]


def is_sweep_build(node: ast.AST) -> bool:
    """A construction of a sweep, _Sweep(...), by name or as an attribute
    (scanner._Sweep)."""
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "_Sweep"
        or getattr(node.func, "attr", None) == "_Sweep")


def test_only_the_sweep_functions_build_a_sweep():
    # a sweep is shared by being handed down, so a walk or scan that built
    # its own would propagate its rows a second time
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.stem}.{name}" for name in owners(tree, is_sweep_build)]
    assert found == ["scanner.scan_epsilon", "scanner.auto_range",
                     "scanner.auto_scan", "scanner._widths"]


def test_stray_sweep_build_is_caught():
    tree = ast.parse("def _sweep_values(m, e, sweep=None):\n"
                     "    if sweep is None:\n"
                     "        sweep = _Sweep(k, p, l, (m,))\n"
                     "    return _Sweep(k, p, l, (m,)).read(m, e)\n"
                     "def _first_bracket(sweep, m, rungs):\n"
                     "    if sweep is None:\n"
                     "        return scanner._Sweep(k, p, l, (m,))\n"
                     "class _Walk:\n"
                     "    def step(self):\n"
                     "        return _Sweep(k, p, l, MODES)\n"
                     "DEFAULT = _Sweep(1, 0.5, 1, MODES)\n"
                     "def _scan(sweep=_Sweep):\n"
                     "    return sweep\n")
    assert owners(tree, is_sweep_build) == ["_sweep_values", "_sweep_values",
                                            "_first_bracket", "step", "<module>"]


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


def is_recurrence_seed(node: ast.AST) -> bool:
    """The literal 1e-30, the downward recurrence's seed at each row's top."""
    return isinstance(node, ast.Constant) and node.value == 1e-30


def test_bessel_recurrence_has_one_owner():
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.stem}.{name}"
                  for name in owners(tree, is_recurrence_seed)]
    assert found == ["analytics._bessel_j_ladder"]


def test_stray_bessel_recurrence_is_caught():
    tree = ast.parse("SEED = 1e-30\n"
                     "def bessel_j_row(x, n):\n"
                     "    down[n] = 1e-30\n"
                     "    return down / (1e-30 + norm)\n"
                     "def _bessel_j_ladder(x, n):\n"
                     "    return x\n"
                     "TINY = 1e-300\n")
    assert owners(tree, is_recurrence_seed) == ["<module>", "bessel_j_row",
                                                "bessel_j_row"]


def is_kick_reach_widths(node: ast.AST) -> bool:
    """The literal 13.2, the Airy widths of one kick's reach."""
    return isinstance(node, ast.Constant) and node.value == 13.2


def test_kick_reach_has_one_owner():
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.stem}.{name}"
                  for name in owners(tree, is_kick_reach_widths)]
    assert found == ["wavepacket._kick_reach"]


def test_stray_kick_reach_is_caught():
    tree = ast.parse("def _propagation_points(M, phi):\n"
                     "    return 2 * M + 1 + _bessel_reach(abs(phi), 13.2)\n"
                     "def _kick_reach(phi):\n"
                     "    '13.2 Airy widths'\n"
                     "    return _bessel_reach(abs(phi), 13.2)\n"
                     "WIDTHS = 13.2\n")
    assert owners(tree, is_kick_reach_widths) == ["_propagation_points",
                                                  "_kick_reach", "<module>"]


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


def test_no_module_makes_a_context_variable():
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.stem}.{name}" for name in context_variables(tree)]
    assert found == []


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
    # the check follows the oracle into its own helpers; its band ends at
    # the one reach rule, not at a literal width
    assert {"_kick_column", "_unitarity_error", "_bessel_j_ladder",
            "_kick_reach"} <= reached
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


def names_in(node: ast.AST) -> set[str]:
    """Every name a subtree reads or imports: plain names, attributes and
    imported names, annotations included."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def reached_names(tree: ast.Module, roots) -> set[str]:
    """names_in the module-level functions roots and every module-level
    function they reach (reachable_calls)."""
    functions = {node.name: node for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    reached = set(roots).union(*(reachable_calls(tree, root) for root in roots))
    return set().union(*(names_in(functions[name])
                         for name in reached & functions.keys()))


#: the spectral core's entry, its periods and the echo read-out
PHASE_TABLE_CORE = ("_run", "_periods", "_kick", "_echo_fidelities")


def test_core_and_sweeps_handle_no_free_phase_spec():
    trees = {}
    for name in ("propagator", "scanner"):
        path = PACKAGE / f"{name}.py"
        trees[name] = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert "FreePhaseSpec" in names_in(trees["propagator"])
    assert "FreePhaseSpec" not in reached_names(trees["propagator"], PHASE_TABLE_CORE)
    assert "FreePhaseSpec" not in names_in(trees["scanner"])


def test_free_phase_spec_in_core_or_sweeps_is_caught():
    tree = ast.parse("def _run(kicks, frees: list[FreePhaseSpec]):\n"
                     "    return kicks\n"
                     "def _echo_fidelities(kicks):\n"
                     "    return helper(kicks)\n"
                     "def helper(kicks):\n"
                     "    return propagator.FreePhaseSpec.general(kicks)\n"
                     "def _periods(kicks):\n"
                     "    return kicks\n"
                     "def propagate(free):\n"
                     "    return FreePhaseSpec(free)\n")
    assert "FreePhaseSpec" in reached_names(tree, ["_run"])
    assert "FreePhaseSpec" in reached_names(tree, ["_echo_fidelities"])
    assert "FreePhaseSpec" not in reached_names(tree, ["_periods", "_kick"])
    imported = ast.parse("from .propagator import FreePhaseSpec as Spec\n")
    assert "FreePhaseSpec" in names_in(imported)


#: the files that read the package's public surface: the CLI, the demos,
#: the benchmark harness and the contract tests
SURFACE_READERS = [PACKAGE / "cli.py",
                   *sorted((ROOT / "demos").glob("*.py")),
                   *sorted((ROOT / "bench").glob("*.py")),
                   ROOT / "tests" / "test_acceptance.py"]


def reads(texts: list[str]) -> tuple[set[str], set[str]]:
    """The identifier tokens of the sources and the values of their string
    literals; comments are neither."""
    names, strings = set(), set()
    for text in texts:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.NAME:
                names.add(token.string)
            elif token.type == tokenize.STRING:
                # an f-string has no literal value, and names nothing here
                with contextlib.suppress(ValueError):
                    strings.add(ast.literal_eval(token.string))
    return names, strings


def unread_public_names(package: dict[str, str], readers: list[str]) -> list[str]:
    """Names in __all__ that no reader names, either as an identifier
    token or as a qualified "module.name" string, the way the benchmark
    names the functions it times. A name inside a longer word, a comment
    or another string (a JSON key, say) is not read. package maps each
    module name, "__init__" included, to its source; readers are the
    sources of the surface's readers. A sibling module of the package is
    no reader. Two kinds of class are exempt: exception types, and the
    classes that a function in __all__ names in its return annotation.
    Any other class needs a reader, as a function does."""
    init = ast.parse(package["__init__"])
    exported = next(ast.literal_eval(node.value) for node in init.body
                    if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets))
    home = {alias.asname or alias.name: node.module for node in init.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}
    exempt = set(exception_classes(package))
    for name in exported:
        for node in ast.parse(package[home[name]]).body:
            if isinstance(node, ast.FunctionDef) and node.name == name and node.returns:
                exempt.update(f"{home[cls]}.{cls}" for cls in names_in(node.returns)
                              if cls in home)
    names, strings = reads(readers)
    unread = []
    for name in sorted(exported):
        qualified = f"{home[name]}.{name}"
        if qualified not in exempt and name not in names and qualified not in strings:
            unread.append(qualified)
    return unread


def test_every_public_name_has_a_reader():
    package = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    readers = [path.read_text(encoding="utf-8") for path in SURFACE_READERS]
    assert len(readers) > 5
    assert unread_public_names(package, readers) == []


def test_unread_public_name_is_caught():
    package = {
        "__init__": "from .a import Result, used, unused, ALSO_UNUSED\n"
                    "from .b import helper as shown\n"
                    "from .c import sibling_only\n"
                    "__all__ = ['ALSO_UNUSED', 'Result', 'shown', 'sibling_only',\n"
                    "           'unused', 'used']\n",
        "a": "class Result:\n    pass\nALSO_UNUSED = 1\n"
             "def used() -> Result:\n    return unused()\ndef unused():\n    return 1\n",
        "b": "from .c import sibling_only\n"
             "def helper():\n    return sibling_only()\n",
        "c": "def sibling_only():\n    return 2\n",
    }
    # read in its own module, only by a sibling module, or only inside a
    # longer word, is not read
    readers = ["from kickedrotor import used, shown\n"
               "unused_count = ALSO_UNUSED_TOO = 3\n"]
    assert unread_public_names(package, readers) == [
        "a.ALSO_UNUSED", "c.sibling_only", "a.unused"]


def test_public_name_read_only_as_a_string_is_caught():
    package = {
        "__init__": "from .a import keyed, noted, timed, misplaced\n"
                    "__all__ = ['keyed', 'misplaced', 'noted', 'timed']\n",
        "a": "".join(f"def {name}():\n    return 1\n"
                     for name in ("keyed", "noted", "timed", "misplaced")),
    }
    # a JSON key, a comment, a docstring word and a string qualified by
    # the wrong module read nothing; the qualified string reads its function
    readers = ['"""Write keyed rows."""\n'
               'extra = {"keyed": 1.0}  # noted\n'
               'TIMED = ("a.timed", "b.misplaced", f"{x}.keyed")\n']
    assert unread_public_names(package, readers) == [
        "a.keyed", "a.misplaced", "a.noted"]


def test_unread_class_is_caught():
    package = {
        "__init__": "from .a import Failed, Made, Shown, Spare, Stray, make\n"
                    "from .a import hidden\n"
                    "__all__ = ['Failed', 'Made', 'Shown', 'Spare', 'Stray', 'make']\n",
        "a": "class Base(ValueError):\n    pass\n"
             "class Failed(Base):\n    pass\n"
             "class Made:\n    def spare(self) -> Spare:\n        return Spare()\n"
             "class Shown:\n    pass\n"
             "class Spare:\n    pass\n"
             "class Stray:\n    pass\n"
             "def make(x: Spare) -> Made:\n    return Made()\n"
             "def hidden() -> Stray:\n    return Stray()\n",
    }
    # an exception type and a class an exported function returns need no
    # reader; a class that is only a parameter type, a method's return type
    # or the return type of a function outside __all__ does
    readers = ["from kickedrotor import Shown, make\n"]
    assert unread_public_names(package, readers) == ["a.Spare", "a.Stray"]


def compares_mode_name(node: ast.AST) -> bool:
    """A comparison or match case with a sweep mode name as a string
    literal among its operands, also inside a tuple or list."""
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
    elif isinstance(node, ast.MatchValue):
        operands = [node.value]
    else:
        return False
    return any(isinstance(sub, ast.Constant) and sub.value in MODES
               for operand in operands for sub in ast.walk(operand))


def test_modes_are_the_probe_table_in_order():
    # --help lists them in this order, and compare_modes unpacks its two
    # laws as position, fidelity
    assert MODES == ("position", "fidelity")


@pytest.mark.parametrize("name", ["scanner", "cli"])
def test_no_branch_on_a_mode_name(name):
    # every mode rule is an entry of scanner.PROBES; the table's keys are
    # the only place a mode name is written
    path = PACKAGE / f"{name}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert owners(tree, compares_mode_name) == []


def test_branch_on_a_mode_name_is_caught():
    tree = ast.parse("def read(mode):\n"
                     "    if mode == 'fidelity':\n"
                     "        return 1\n"
                     "    return {'position': 2}[mode]\n"
                     "def level(scan):\n"
                     "    while scan.mode not in ('position', 'other'):\n"
                     "        pass\n"
                     "    match scan.mode:\n"
                     "        case 'position':\n"
                     "            return 3\n"
                     "def fine(d, args):\n"
                     "    return d.kind == 'momentum' or args.mode == 'both'\n"
                     "ok = 'fidelity' != MODE\n")
    assert owners(tree, compares_mode_name) == ["read", "level", "level",
                                                "<module>"]


def exception_classes(sources: dict[str, str]) -> dict[str, bool]:
    """Every exception class the sources define, as "module.Class", mapped
    to whether it derives from NumericalError or ValueError. sources maps
    each module name to its text. A class is an exception when its bases,
    followed through the classes the sources define, reach a builtin
    exception type; a base is read by name or as an attribute
    (wavepacket.NumericalError)."""
    bases = {}
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = (module, [getattr(b, "id", None)
                                             or getattr(b, "attr", None)
                                             for b in node.bases])

    def ancestors(name: str) -> set[str]:
        found, todo = set(), [name]
        while todo:
            here = todo.pop()
            if here in found:
                continue
            found.add(here)
            todo += bases.get(here, (None, []))[1]
        return found

    def builtin_exception(name: str) -> type | None:
        kind = getattr(builtins, name or "", None)
        return kind if isinstance(kind, type) and issubclass(kind, BaseException) else None

    taxonomy = {}
    for name, (module, _) in bases.items():
        family = ancestors(name)
        kinds = [kind for kind in map(builtin_exception, family) if kind]
        if kinds:
            taxonomy[f"{module}.{name}"] = ("NumericalError" in family
                                            or any(issubclass(k, ValueError) for k in kinds))
    return taxonomy


def test_every_refusal_is_numerical_or_a_value_error():
    # the CLI maps NumericalError to exit 3 and ValueError to exit 2; a
    # refusal of any other type would escape as a traceback with exit 1
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    taxonomy = exception_classes(sources)
    assert {"wavepacket.NumericalError", "wavepacket.GridTooSmallError",
            "propagator.LeakageError", "cli.NonFiniteOutputError"} <= taxonomy.keys()
    assert [name for name, caught in taxonomy.items() if not caught] == []


def test_uncaught_refusal_is_caught():
    sources = {
        "a": "class NumericalError(RuntimeError):\n    pass\n"
             "class Leak(NumericalError):\n    pass\n"
             "class Deep(Leak):\n    pass\n"
             "class Bad(RuntimeError):\n    pass\n"
             "class Arith(ArithmeticError):\n    pass\n"
             "class Config:\n    pass\n",
        "b": "class Grid(ValueError):\n    pass\n"
             "class Text(UnicodeError):\n    pass\n"
             "class Via(a.NumericalError):\n    pass\n"
             "class Spec(Config):\n    pass\n"
             "class Worse(Bad):\n    pass\n",
    }
    taxonomy = exception_classes(sources)
    assert "a.Config" not in taxonomy and "b.Spec" not in taxonomy
    assert sorted(name for name, caught in taxonomy.items() if not caught) == [
        "a.Arith", "a.Bad", "b.Worse"]
    assert len(taxonomy) == 9


def numerical_classes(sources: dict[str, str]) -> set[str]:
    """NumericalError and the names of every class the sources derive
    from it, directly or through each other; a base is read by name or as
    an attribute (wavepacket.NumericalError)."""
    bases = {node.name: {getattr(b, "id", None) or getattr(b, "attr", None)
                         for b in node.bases}
             for text in sources.values() for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.ClassDef)}
    found = {"NumericalError"}
    while more := {name for name, named in bases.items() if named & found} - found:
        found |= more
    return found


def numerical_catchers(sources: dict[str, str]) -> list[str]:
    """Every except clause of the sources that would catch a
    NumericalError, as "module.function" ("module.<module>" outside any
    function): a bare except, or one that names NumericalError, a class
    derived from it or a builtin class it derives from (RuntimeError,
    Exception, BaseException), by name or as an attribute, alone or in a
    tuple."""
    catching = numerical_classes(sources) | {"RuntimeError", "Exception",
                                             "BaseException"}

    def catches(node: ast.AST) -> bool:
        return isinstance(node, ast.ExceptHandler) and (
            node.type is None
            or any(getattr(n, "id", None) in catching or getattr(n, "attr", None) in catching
                   for n in ast.walk(node.type)))

    return [f"{module}.{owner}" for module, text in sources.items()
            for owner in owners(ast.parse(text), catches)]


def test_only_the_cli_catches_a_numerical_refusal():
    # a refusal is reported, never retried or swallowed: the one handler
    # is the CLI's, which maps it to exit 3
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert numerical_catchers(sources) == ["cli.main"]


def test_stray_numerical_catch_is_caught():
    sources = {
        "a": "class NumericalError(RuntimeError):\n    pass\n"
             "class Leak(NumericalError):\n    pass\n"
             "def main():\n"
             "    try:\n        run()\n"
             "    except NumericalError:\n        return 3\n"
             "    except (ValueError, OSError):\n        return 2\n",
        "b": "class Deep(a.Leak):\n    pass\n"
             "def _run(M):\n"
             "    while True:\n"
             "        try:\n            return go(M)\n"
             "        except (ValueError, Deep):\n            M *= 2\n"
             "def quiet():\n"
             "    try:\n        go()\n    except:\n        pass\n"
             "def broad():\n"
             "    try:\n        go()\n    except builtins.RuntimeError:\n        pass\n"
             "try:\n    go()\nexcept a.Leak:\n    pass\n"
             "try:\n    go()\nexcept OverflowError:\n    pass\n",
    }
    assert numerical_catchers(sources) == ["a.main", "b._run", "b.quiet",
                                           "b.broad", "b.<module>"]


def is_directory_make(node: ast.AST) -> bool:
    """A call of mkdir or makedirs, by name or as an attribute
    (Path.mkdir, os.makedirs)."""
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) in ("mkdir", "makedirs")
        or getattr(node.func, "attr", None) in ("mkdir", "makedirs"))


def test_only_the_cli_main_makes_a_directory():
    # --out is made once, after the measurement returns, so a refused run
    # leaves no directory behind
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.stem}.{owner}" for owner in owners(tree, is_directory_make)]
    assert found == ["cli.main"]


def test_stray_directory_make_is_caught():
    tree = ast.parse("def main(args):\n"
                     "    Path(args.out).mkdir(parents=True, exist_ok=True)\n"
                     "def _out_dir(raw):\n"
                     "    out = Path(raw)\n"
                     "    out.mkdir(exist_ok=True)\n"
                     "    return out\n"
                     "def helper(p):\n"
                     "    os.makedirs(p)\n"
                     "    return mkdir(p)\n"
                     "os.mkdir('x')\n")
    assert owners(tree, is_directory_make) == ["main", "_out_dir", "helper",
                                               "helper", "<module>"]
