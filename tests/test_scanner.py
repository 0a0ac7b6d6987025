import functools
import json
import math
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from kickedrotor import (
    Density,
    EpsilonScan,
    FitRefusalError,
    FreePhaseSpec,
    NoCrossingError,
    PositionWavefunction,
    RangeCapError,
    SpatialGrid,
    auto_range,
    auto_scan,
    compare_modes,
    default_n_points,
    fidelity_protocol,
    position_density,
    propagate,
    scan_epsilon,
    scan_width,
    sigma_x,
    to_position,
    width_scaling,
)
from kickedrotor import propagator, scanner
from kickedrotor.scanner import _fit_widths, _symmetric_grid, _sweep_values

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
BAD_BOUNDS = [math.nan, math.inf, -math.inf, 0.0, -1.0]


def block_detunings(phases) -> list[float]:
    """The detunings of the rows whose phase table the spectral core is
    handed: a sweep binds its block's to propagator._revival_phases, and
    propagate and fidelity_protocol pass the phases of one FreePhaseSpec."""
    if isinstance(phases, functools.partial):
        assert phases.func is propagator._revival_phases
        return list(phases.args[1])
    return [phases.__self__.epsilon]


def swept(epsilon: float) -> float:
    """The detuning a sweep propagates and observes for epsilon: -|epsilon|,
    so a +- pair is one row, and 0.0 stays 0.0."""
    return -epsilon if epsilon > 0 else epsilon


@pytest.fixture
def no_propagation(monkeypatch):
    """Fail the test if any sweep point is evaluated: through a sweep read,
    or through the spectral core, which a width law's block reads reach
    without _sweep_values."""
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep ran before the input was refused")

    monkeypatch.setattr(scanner, "_sweep_values", refuse)
    monkeypatch.setattr(scanner, "_run", refuse)


class TestGrid:
    @pytest.mark.parametrize("points", [33, 65, 129])
    def test_symmetric_with_exact_zero(self, points):
        eps = _symmetric_grid(0.0123, points)
        assert len(eps) == points
        assert eps[points // 2] == 0.0
        assert np.array_equal(eps, -eps[::-1])
        assert np.all(np.diff(eps) > 0)
        assert eps[-1] == 0.0123


class TestEpsilonScan:
    def test_validation(self):
        good = _symmetric_grid(0.01, 33)
        with pytest.raises(ValueError):
            EpsilonScan(5, "position", good[:-1], np.ones(32))  # even
        with pytest.raises(ValueError):
            EpsilonScan(5, "position", good + 1e-3, np.ones(33))  # no zero
        with pytest.raises(ValueError):
            EpsilonScan(5, "bogus", good, np.ones(33))
        with pytest.raises(ValueError):
            scan_epsilon(5, 0.485, 1, "fidelity", 0.01, points=34)
        with pytest.raises(ValueError):
            scan_epsilon(5, 0.485, 1, "fidelity", -0.01)

    def test_shape_and_order_are_the_profile_rules(self):
        good = _symmetric_grid(0.01, 33)
        with pytest.raises(ValueError, match="one value per detuning, both 1-d"):
            EpsilonScan(5, "position", good, np.ones(35))
        with pytest.raises(ValueError, match="one value per detuning, both 1-d"):
            EpsilonScan(5, "position", good[None, :], np.ones((1, 33)))
        swapped = good.copy()
        swapped[[3, 4]] = swapped[[4, 3]]
        with pytest.raises(ValueError, match="detunings must be strictly increasing"):
            EpsilonScan(5, "position", swapped, np.ones(33))
        repeated = good.copy()
        repeated[4] = repeated[3]
        with pytest.raises(ValueError, match="detunings must be strictly increasing"):
            EpsilonScan(5, "position", repeated, np.ones(33))
        short = _symmetric_grid(0.01, 31)
        with pytest.raises(ValueError, match="points must be odd and >= 33"):
            EpsilonScan(5, "position", short, np.ones(31))

    def test_non_finite_values_are_the_profile_rule(self):
        # a NaN once passed through to a width, in a detuning or a value
        for bad in (math.nan, math.inf, -math.inf):
            eps = _symmetric_grid(0.01, 33)
            vals = np.clip(1.0 - np.abs(eps) / 0.005, 0.0, None)
            vals[14] = bad
            with pytest.raises(ValueError, match="scan samples must be finite"):
                EpsilonScan(5, "position", eps, vals)
            eps[-1] = bad
            with pytest.raises(ValueError, match="scan samples must be finite"):
                EpsilonScan(5, "position", eps, np.ones(33))

    def test_keeps_frozen_copies(self):
        eps, vals = _symmetric_grid(0.01, 33), np.linspace(0.0, 1.0, 33)
        scan = EpsilonScan(5, "fidelity", eps, vals)
        eps[0] = vals[0] = 7.0
        assert scan.epsilons[0] == -0.01 and scan.values[0] == 0.0
        for arr in (scan.epsilons, scan.values):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_center_of_position_scan_is_uniform_spread(self):
        scan = scan_epsilon(5, 0.485, 1, "position", 5e-3, 33)
        assert scan.values[16] == pytest.approx(math.pi / math.sqrt(3), abs=1e-6)

    def test_fidelity_scan_moments(self):
        scan = scan_epsilon(5, 0.485, 1, "fidelity", 0.02, 33)
        assert scan.values[16] == pytest.approx(1.0, abs=1e-12)
        assert np.all(scan.values <= 1.0 + 1e-12)
        # even profile: mirrored points are one row, read once
        assert np.array_equal(scan.values, scan.values[::-1])

    def test_position_scan_is_mirror_exact(self):
        scan = scan_epsilon(12, 0.485, 1, "position", 4.0 / 12**2, 33)
        assert np.array_equal(scan.values, scan.values[::-1])

    def test_thread_count_does_not_change_bits(self):
        # the scans of the laws that keep a threads argument
        a = width_scaling([5, 6, 7, 8], 0.485, 1, "fidelity", 33, threads=1)
        b = width_scaling([5, 6, 7, 8], 0.485, 1, "fidelity", 33, threads=4)
        assert _law_bits(a) == _law_bits(b)


def _ladder(N):
    """auto_range's doubling ladder: 0.1/N^2, 0.2/N^2, ..., RANGE_CAP."""
    rungs, r = [], 0.1 / N**2
    while r < scanner.RANGE_CAP:
        rungs.append(r)
        r *= 2.0
    return rungs + [scanner.RANGE_CAP]


def _ladder_grid(N, top):
    """The probe grids of the ladder's rungs up to rung top (counted from
    0), or up to RANGE_CAP when top is None, each +- pair as its
    -|epsilon|."""
    return {swept(e) for r in _ladder(N)[:None if top is None else top + 1]
            for e in _symmetric_grid(r, scanner.PROBE_POINTS).tolist()}


def _stop(N, mode):
    """The rung, counted from 0, at which a mode's ladder walk stops."""
    return _ladder(N).index(auto_range(N, 0.485, 1, mode))


def _walked_grid(n_list, modes):
    """Per kick number, the probe rows a width law over n_list propagates:
    every rung for the first kick number, then every rung up to the deepest
    one any mode stopped at for the previous kick number, and every rung a
    walk climbs past those."""
    expected, top = {}, None
    for N in n_list:
        stops = [_stop(N, mode) for mode in modes]
        expected[N] = _ladder_grid(N, None if top is None else max(top, *stops))
        top = max(stops)
    return expected


def _scan_grid(N, mode):
    """The final 65-point grid of a mode's auto_scan, each +- pair as its
    -|epsilon|."""
    r = auto_range(N, 0.485, 1, mode)
    return {swept(e) for e in _symmetric_grid(r, 65).tolist()}


class TestBatchedSweep:
    @pytest.mark.parametrize("kicks", [5, 12])
    def test_position_rows_equal_per_point_route(self, kicks):
        eps = _symmetric_grid(0.4 / kicks**2, 33)
        batch = _sweep_values("position", kicks, 0.485, 1, eps)
        single = []
        for e in eps:
            state = propagate(kicks, 0.485,
                              FreePhaseSpec.revival_relative(1, swept(e)))
            grid = SpatialGrid(default_n_points(state.half_width))
            single.append(sigma_x(position_density(to_position(state, grid))))
        assert np.array_equal(batch, np.array(single))

    def test_position_rows_build_no_state_or_density(self, monkeypatch):
        # a block is observed as one stack of densities, not row by row
        built = []
        for cls in (Density, PositionWavefunction):
            def counting(self, original=cls.__post_init__):
                built.append(type(self).__name__)
                original(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        _sweep_values("position", 12, 0.485, 1, _symmetric_grid(0.4 / 12**2, 33))
        assert built == []
        # the patch does see the per-point route
        state = propagate(12, 0.485, FreePhaseSpec.revival_relative(1, 0.0))
        grid = SpatialGrid(default_n_points(state.half_width))
        position_density(to_position(state, grid))
        assert built == ["PositionWavefunction", "Density"]

    @pytest.mark.parametrize("kicks", [5, 12])
    def test_fidelity_rows_equal_protocol(self, kicks):
        eps = _symmetric_grid(0.4 / kicks**2, 33)
        batch = _sweep_values("fidelity", kicks, 0.485, 1, eps)
        single = [fidelity_protocol(kicks, 0.485, swept(e)) for e in eps]
        assert np.array_equal(batch, np.array(single))

    @pytest.mark.parametrize("mode", ["position", "fidelity"])
    def test_blocks_equal_one_block(self, mode, monkeypatch):
        # 289 distinct |epsilon|
        eps = _symmetric_grid(0.4 / 5**2, 4 * scanner.SWEEP_BLOCK + 65)
        calls = []
        original = scanner._run

        def counting(kicks, phi_d, phases, *args, **kwargs):
            calls.append(len(block_detunings(phases)))
            return original(kicks, phi_d, phases, *args, **kwargs)

        monkeypatch.setattr(scanner, "_run", counting)
        monkeypatch.setattr(propagator, "_run", counting)
        blocked = _sweep_values(mode, 5, 0.485, 1, eps)
        assert calls == [scanner.SWEEP_BLOCK, scanner.SWEEP_BLOCK, 33]
        monkeypatch.setattr(scanner, "SWEEP_BLOCK", len(eps))
        assert np.array_equal(blocked, _sweep_values(mode, 5, 0.485, 1, eps))
        assert calls[3:] == [len(eps) // 2 + 1]

    @pytest.mark.parametrize("mode", ["position", "fidelity"])
    def test_width_scaling_evaluates_each_detuning_once(self, mode, counted_rows,
                                                        reads):
        n_list = [5, 6, 7, 8]
        ws = width_scaling(n_list, 0.485, 1, mode)
        rows, observed = list(counted_rows), list(reads)
        # the rungs of the first block and those walked past it, then the
        # final grid
        walked = _walked_grid(n_list, (mode,))
        for N in n_list:
            propagated = [e for kicks, e in rows if kicks == N]
            assert len(propagated) == len(set(propagated))
            assert set(propagated) == walked[N] | _scan_grid(N, mode)
        assert len(rows) == {"position": 171, "fidelity": 159}[mode]
        # each row is observed once, in this mode only
        assert {m for m, _, _ in observed} == {mode}
        assert sum(n for _, n, _ in observed) == len(rows)
        # and the sweep changes no width
        for N, w in zip(n_list, ws.widths):
            scan = scan_epsilon(N, 0.485, 1, mode, auto_range(N, 0.485, 1, mode))
            assert w == scan_width(scan)

    @pytest.mark.parametrize("mode,kicks", [("position", 7), ("fidelity", 40)])
    def test_auto_scan_reuses_probes(self, mode, kicks, counted_rows, reads):
        scan = auto_scan(kicks, 0.485, 1, mode)
        propagated = [e for _, e in counted_rows]
        assert len(propagated) == len(set(propagated))
        assert {swept(e) for e in scan.epsilons.tolist()} <= set(propagated)
        assert sum(n for _, n, _ in reads) == len(propagated)
        # bit-identical to the sweep over the range auto_range returns
        ref = scan_epsilon(kicks, 0.485, 1, mode, auto_range(kicks, 0.485, 1, mode))
        assert np.array_equal(scan.epsilons, ref.epsilons)
        assert np.array_equal(scan.values, ref.values)


@pytest.fixture
def counted_rows(monkeypatch):
    """(kicks, epsilon) of every row the spectral core propagates."""
    rows = []
    original = scanner._run

    def counting(kicks, phi_d, phases, *args, **kwargs):
        rows.extend((kicks, e) for e in block_detunings(phases))
        return original(kicks, phi_d, phases, *args, **kwargs)

    monkeypatch.setattr(scanner, "_run", counting)
    monkeypatch.setattr(propagator, "_run", counting)
    return rows


@pytest.fixture
def driven(monkeypatch):
    """Weak references to every stack of driven rows the spectral core
    returns to a sweep; they keep no stack alive."""
    refs = []
    original = scanner._run

    def keeping(kicks, phi_d, phases, *args, **kwargs):
        amps = original(kicks, phi_d, phases, *args, **kwargs)
        refs.append(weakref.ref(amps))
        return amps

    monkeypatch.setattr(scanner, "_run", keeping)
    return refs


def alive(refs) -> int:
    """The driven rows still reachable: those of the stacks not yet freed."""
    return sum(len(stack) for stack in (ref() for ref in refs) if stack is not None)


@pytest.fixture
def reads(monkeypatch, driven):
    """(mode, rows observed, driven rows alive) of each observation."""
    log = []

    def counting_observer(mode, observer):
        def per_sweep(kicks, phi_d):
            observe = observer(kicks, phi_d)

            def counting(amps):
                log.append((mode, len(amps), alive(driven)))
                return observe(amps)

            return counting

        return per_sweep

    for mode, probe in list(scanner.PROBES.items()):
        monkeypatch.setitem(scanner.PROBES, mode, probe._replace(
            observer=counting_observer(mode, probe.observer)))
    return log


@pytest.fixture
def sweeps(monkeypatch):
    """The open sweep at each core call, in call order."""
    seen = []
    original = scanner._run

    def spying(kicks, phi_d, phases, *args, **kwargs):
        seen.append(scanner._OPEN_SWEEP.get())
        return original(kicks, phi_d, phases, *args, **kwargs)

    monkeypatch.setattr(scanner, "_run", spying)
    return seen


def _law_bits(ws):
    return (ws.kick_numbers.tolist(), ws.widths.tobytes(), ws.gamma,
            ws.intercept, ws.r_squared)


class TestSharedRows:
    def test_compare_modes_propagates_each_pair_once(self, counted_rows, reads):
        n_list = list(range(5, 19))
        compare_modes(n_list, 0.485, 1, points=65)
        rows = list(counted_rows)
        assert len(rows) == len(set(rows)) == 773
        observed = {mode: 0 for mode in scanner.MODES}
        for mode, n, _ in reads:
            observed[mode] += n
        walked = _walked_grid(n_list, scanner.MODES)
        for N in n_list:
            propagated = {e for kicks, e in rows if kicks == N}
            # the rungs of the first block and those walked past it, then
            # both final grids
            assert propagated == (walked[N] | _scan_grid(N, "position")
                                  | _scan_grid(N, "fidelity"))
        # each mode observes each propagated row exactly once
        assert observed == {mode: len(rows) for mode in scanner.MODES}

    def test_compare_modes_core_calls_per_kick_number(self, monkeypatch, reads):
        # per kick number one block of the predicted rungs' probe grids, one
        # core call per rung a walk climbs past them, one block of every
        # final grid
        calls = []
        original = scanner._run

        def counting(kicks, phi_d, phases, *args, **kwargs):
            amps = original(kicks, phi_d, phases, *args, **kwargs)
            calls.append((kicks, len(amps)))
            return amps

        monkeypatch.setattr(scanner, "_run", counting)
        n_list = list(range(5, 19))
        compare_modes(n_list, 0.485, 1, points=65)
        assert len(calls) == 29
        assert sum(n for _, n in calls) == 773
        # the position walk at N = 6 climbs one rung past N = 5's stop
        assert [kicks for kicks, _ in calls] == \
            [N for N in n_list for _ in range(3 if N == 6 else 2)]
        # each stack is observed once in every mode, as it is returned
        for mode in scanner.MODES:
            assert [n for m, n, _ in reads if m == mode] == [n for _, n in calls]

    def test_one_store_per_kick_number_shared_by_both_modes(self, sweeps):
        compare_modes([5, 6, 7, 8], 0.485, 1, points=33)
        by_kicks = {}
        for sweep in sweeps:
            assert sweep.values.keys() == set(scanner.MODES)
            by_kicks.setdefault(sweep.key, set()).add(id(sweep))
        assert sorted(by_kicks) == [(N, 0.485, 1) for N in (5, 6, 7, 8)]
        assert all(len(ids) == 1 for ids in by_kicks.values())

    def test_no_stack_survives_a_read(self, monkeypatch, driven, reads):
        # each stack is observed in both modes by the read that made it,
        # so no driven row is reachable from a sweep once read returns
        after = []
        read = scanner._Sweep.read

        def checking(self, mode, epsilons):
            values = read(self, mode, epsilons)
            after.append(alive(driven))
            return values

        monkeypatch.setattr(scanner._Sweep, "read", checking)
        compare_modes([5, 6, 7, 8], 0.485, 1, points=4 * scanner.SWEEP_BLOCK + 65)
        assert len(after) > 0 and set(after) == {0}
        # several blocks passed through, each observed while it alone lived
        assert max(n for _, n, _ in reads) == scanner.SWEEP_BLOCK
        assert max(held for _, _, held in reads) <= scanner.SWEEP_BLOCK

    @pytest.mark.parametrize("mode", scanner.MODES)
    def test_one_mode_scan_holds_one_block(self, mode, reads):
        # 289 distinct |epsilon|
        points = 4 * scanner.SWEEP_BLOCK + 65
        scan_epsilon(5, 0.485, 1, mode, 0.4 / 5**2, points)
        assert [n for _, n, _ in reads] == [scanner.SWEEP_BLOCK,
                                            scanner.SWEEP_BLOCK, 33]
        assert max(held for _, _, held in reads) <= scanner.SWEEP_BLOCK

    @pytest.mark.parametrize("mode", scanner.MODES)
    def test_one_mode_auto_scan_holds_one_block(self, mode, reads, counted_rows):
        scan = auto_scan(7, 0.485, 1, mode, points=2 * scanner.SWEEP_BLOCK + 33)
        assert {swept(e) for e in scan.epsilons.tolist()} <= {e for _, e in counted_rows}
        # more rows than a block pass through the sweep, one block at a time
        assert sum(n for _, n, _ in reads) == len(counted_rows) > scanner.SWEEP_BLOCK
        assert max(held for _, _, held in reads) <= scanner.SWEEP_BLOCK

    @pytest.mark.parametrize("points,n_list", [
        (65, list(range(5, 13))),
        # a multi-block two-mode sweep
        (4 * scanner.SWEEP_BLOCK + 65, [5, 6, 7, 8]),
    ], ids=["one-block", "multi-block"])
    def test_compare_modes_is_two_width_scalings(self, points, n_list):
        cmp = compare_modes(n_list, 0.485, 1, points)
        pos = width_scaling(n_list, 0.485, 1, "position", points)
        fid = width_scaling(n_list, 0.485, 1, "fidelity", points)
        assert _law_bits(cmp.position) == _law_bits(pos)
        assert _law_bits(cmp.fidelity) == _law_bits(fid)
        table = tuple((N, wp, wf, wp / wf) for N, wp, wf in
                      zip(n_list, pos.widths.tolist(), fid.widths.tolist()))
        assert cmp.table == table
        first = next((N for N, wp, wf, _ in table if wp >= wf), None)
        assert cmp.crossover_first_exceed == first
        assert cmp.crossover_fit == math.exp(
            (fid.intercept - pos.intercept) / (pos.gamma - fid.gamma))

    def test_no_store_outlives_the_call(self, counted_rows):
        n_list = [8, 7, 6, 5]
        before = _law_bits(width_scaling(n_list, 0.485, 1, "position"))
        assert scanner._OPEN_SWEEP.get() is None
        compare_modes(n_list, 0.485, 1, points=33)
        assert scanner._OPEN_SWEEP.get() is None
        auto_range(5, 0.485, 1, "fidelity")
        auto_scan(5, 0.485, 1, "fidelity")
        assert scanner._OPEN_SWEEP.get() is None
        assert _law_bits(width_scaling(n_list, 0.485, 1, "position")) == before
        # N = 6, 5 and 4 are bracketed within RANGE_CAP in both modes, N = 3
        # is not in position mode
        capped = [6, 5, 4, 3]
        counted_rows.clear()
        with pytest.raises(RangeCapError, match="kicks=3, mode=position"):
            compare_modes(capped, 0.485, 1)
        assert {kicks for kicks, _ in counted_rows} == {6, 5, 4, 3}
        assert scanner._OPEN_SWEEP.get() is None
        for call in (lambda: width_scaling(capped, 0.485, 1, "position"),
                     lambda: auto_range(3, 0.485, 1, "position"),
                     lambda: auto_scan(3, 0.485, 1, "position")):
            with pytest.raises(RangeCapError, match="kicks=3, mode=position"):
                call()
            assert scanner._OPEN_SWEEP.get() is None
        assert _law_bits(width_scaling(n_list, 0.485, 1, "position")) == before

    def test_every_stored_row_is_even(self, monkeypatch):
        # psi_m = psi_{-m}: the delta_0 start, the even kick and the m**2
        # free phase keep every row even, near resonance and far from it
        rows = {}
        original = scanner._run

        def keeping(kicks, phi_d, phases, *args, **kwargs):
            amps = original(kicks, phi_d, phases, *args, **kwargs)
            rows.update(zip(block_detunings(phases), amps))
            return amps

        monkeypatch.setattr(scanner, "_run", keeping)
        eps = sorted({*_symmetric_grid(0.4 / 12**2, 33).tolist(),
                      *_symmetric_grid(4.0 / 12**2, 33).tolist()})
        _sweep_values("position", 12, 0.485, 1, np.array(eps))
        assert sorted(rows) == sorted({swept(e) for e in eps})
        for row in rows.values():
            assert np.max(np.abs(row - row[::-1])) <= 1e-12

    @pytest.mark.parametrize("kicks", [5, 12])
    @pytest.mark.parametrize("first", scanner.MODES)
    def test_observation_ignores_which_mode_propagated(self, kicks, first,
                                                        counted_rows):
        eps = _symmetric_grid(0.4 / kicks**2, 33)
        second = next(mode for mode in scanner.MODES if mode != first)
        values = {}
        with scanner._open(kicks, 0.485, 1, scanner.MODES):
            # the first mode propagates every other row, the second reads
            # those and propagates the rest, and the first then reads those
            head = _sweep_values(first, kicks, 0.485, 1, eps[::2])
            values[second] = _sweep_values(second, kicks, 0.485, 1, eps)
            tail = _sweep_values(first, kicks, 0.485, 1, eps[1::2])
        values[first] = np.empty(len(eps))
        values[first][::2], values[first][1::2] = head, tail
        assert sorted(counted_rows) == sorted({(kicks, swept(e)) for e in eps.tolist()})
        sigma, fidelity = [], []
        for e in map(swept, eps):
            state = propagate(kicks, 0.485, FreePhaseSpec.revival_relative(1, e))
            grid = SpatialGrid(default_n_points(state.half_width))
            sigma.append(sigma_x(position_density(to_position(state, grid))))
            fidelity.append(fidelity_protocol(kicks, 0.485, e))
        assert np.array_equal(values["position"], np.array(sigma))
        assert np.array_equal(values["fidelity"], np.array(fidelity))


class TestBadBounds:
    @pytest.mark.parametrize("bad", BAD_BOUNDS)
    @pytest.mark.filterwarnings("error")
    def test_scan_refuses_epsilon_max(self, bad, no_propagation):
        with pytest.raises(ValueError, match="epsilon_max"):
            scan_epsilon(5, 0.485, 1, "fidelity", bad)

    def test_scan_refuses_a_range_of_too_few_floats(self, no_propagation):
        # 5e-324 is the least subnormal: 65 grid points coincide
        with pytest.raises(ValueError,
                           match="cannot hold 65 distinct detunings"):
            scan_epsilon(8, 0.485, 1, "position", 5e-324)

    @pytest.mark.parametrize("bad", BAD_BOUNDS)
    def test_auto_range_refuses_cap(self, bad, no_propagation):
        with pytest.raises(ValueError, match="cap"):
            auto_range(5, 0.485, 1, "position", cap=bad)

    def test_auto_scan_refuses_points(self, no_propagation):
        with pytest.raises(ValueError, match="points"):
            auto_scan(5, 0.485, 1, "position", points=64)

    def test_width_laws_refuse_points_before_any_core_call(self, no_propagation):
        with pytest.raises(ValueError, match="points must be odd and >= 33"):
            width_scaling([5, 6, 7, 8], 0.485, 1, "position", points=64)
        with pytest.raises(ValueError, match="points must be odd and >= 33"):
            compare_modes([5, 6, 7, 8], 0.485, 1, points=64)

    def test_width_laws_refuse_an_unknown_mode_before_any_core_call(
            self, no_propagation):
        with pytest.raises(ValueError, match="mode must be one of"):
            width_scaling([5, 6, 7, 8], 0.485, 1, "bogus")
        # a bad mode after a good one is refused before the good one's
        # probe block, and before bad points
        for points in (65, 64):
            with pytest.raises(ValueError, match="mode must be one of"):
                scanner._widths(np.array([5, 6, 7, 8]), 0.485, 1,
                                ("position", "bogus"), points)


class TestAutoRange:
    def test_position_default_case_succeeds(self):
        r = auto_range(5, 0.485, 1, "position")
        assert r == pytest.approx(0.032, rel=1e-12)
        # and the resulting scan supports a width measurement
        scan = scan_epsilon(5, 0.485, 1, "position", r, 65)
        assert 0 < scan_width(scan) < 2 * r

    def test_fidelity_case(self):
        r = auto_range(5, 0.485, 1, "fidelity")
        assert r == pytest.approx(0.032, rel=1e-12)

    def test_cap_hit_raises(self):
        # a single kick has no resolvable feature inside the cap
        with pytest.raises(RangeCapError):
            auto_range(1, 0.485, 1, "position")

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            auto_range(5, 0.485, 1, "bogus")

    def test_ladder_is_finite(self, monkeypatch):
        # a profile that is never bracketed walks the doubling ladder up to
        # the cap once and is refused: no rung repeats and none is skipped
        ranges, probes = [], []
        sweep_values = scanner._sweep_values

        def recording(mode, kicks, phi_d, l, eps, threads=1):
            ranges.append(float(eps[-1]))
            return sweep_values(mode, kicks, phi_d, l, eps, threads)

        def never(values):
            probes.append(len(values))
            return False

        monkeypatch.setattr(scanner, "_sweep_values", recording)
        monkeypatch.setitem(scanner.PROBES, "position",
                            scanner.PROBES["position"]._replace(adequate=never))
        with pytest.raises(RangeCapError, match="kicks=5"):
            auto_range(5, 0.485, 1, "position")
        assert probes == [scanner.PROBE_POINTS] * 6
        assert ranges == [0.004, 0.008, 0.016, 0.032, 0.064, scanner.RANGE_CAP]


class TestScanWidth:
    def test_fidelity_absolute_level_when_edges_fall_below(self):
        eps = _symmetric_grid(0.05, 65)
        vals = np.clip(1.0 - np.abs(eps) / 0.02, 0.0, None)
        scan = EpsilonScan(5, "fidelity", eps, vals)
        # crossings of the 1/2 level sit at +-0.01
        assert scan_width(scan) == pytest.approx(0.02, abs=1e-12)

    def test_fidelity_generic_level_when_edges_stay_high(self):
        eps = _symmetric_grid(0.05, 65)
        vals = 1.0 - (0.2 / 0.05) * np.abs(eps)  # floor 0.8 at the edges
        scan = EpsilonScan(5, "fidelity", eps, vals)
        # level (1.0 + 0.8)/2 = 0.9 crossed at half the edge distance
        assert scan_width(scan) == pytest.approx(0.05, abs=1e-12)

    def test_fidelity_generic_level_reads_the_lower_edge(self):
        # a dip to 0.6 inside edges of 0.8: the level is (1.0 + 0.8)/2 =
        # 0.9, crossed at +-0.0075, not (1.0 + 0.6)/2 = 0.8 at +-0.015
        eps = _symmetric_grid(0.05, 65)
        vals = np.interp(np.abs(eps), [0.0, 0.03, 0.05], [1.0, 0.6, 0.8])
        scan = EpsilonScan(5, "fidelity", eps, vals)
        assert scan_width(scan) == pytest.approx(0.015, abs=1e-12)

    def test_position_level_uses_profile_floor(self):
        eps = _symmetric_grid(0.05, 65)
        floor, peak = 1.0, 1.5
        vals = floor + (peak - floor) * np.clip(1 - np.abs(eps) / 0.03, 0, None)
        scan = EpsilonScan(5, "position", eps, vals)
        assert scan_width(scan) == pytest.approx(0.03, abs=1e-12)


class TestPowerLawFit:
    def test_exact_law_recovered(self):
        n = np.array([4, 8, 16, 32])
        ws = _fit_widths(n, 2.5 * n.astype(float) ** -2.0)
        assert ws.gamma == pytest.approx(-2.0, abs=1e-12)
        assert ws.intercept == pytest.approx(math.log(2.5), abs=1e-12)
        assert ws.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_fit_widths_carries_data(self):
        ws = _fit_widths([4, 8, 16, 32], [0.0625, 0.015625, 0.00390625,
                                          0.0009765625])
        assert ws.gamma == pytest.approx(-2.0, abs=1e-12)
        assert ws.r_squared == pytest.approx(1.0, abs=1e-12)
        assert list(ws.kick_numbers) == [4, 8, 16, 32]

    @pytest.mark.parametrize("widths, shape", [
        ([1.0, 0.5, 0.3], (3,)),
        ([[1.0, 0.5, 0.3, 0.25]], (1, 4)),
        ([[1.0], [0.5], [0.3], [0.25]], (4, 1)),
    ])
    def test_one_width_per_kick_number(self, widths, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"need one width per kick number: 4 kick numbers, "
                f"widths of shape {shape}")):
            _fit_widths([1, 2, 3, 4], widths)

    def test_refusal_on_scatter(self):
        with pytest.raises(FitRefusalError):
            _fit_widths([4, 8, 16, 32], [1.0, 2.0, 0.1, 5.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refusal_on_non_finite_width(self, bad):
        with pytest.raises(FitRefusalError):
            _fit_widths([1, 2, 3, 4], [1.0, bad, 1.0, 1.0])

    @pytest.mark.parametrize("bad", [4.5, math.nan, math.inf, -math.inf])
    def test_non_integer_kick_number_refused(self, bad):
        widths = [0.0625, 0.015625, 0.00390625, 0.0009765625]
        with pytest.raises(ValueError, match="kick number must be an integer"):
            _fit_widths([bad, 8, 16, 32], widths)
        with pytest.raises(ValueError, match="kick number must be an integer"):
            width_scaling([5, 6, 7, bad], 0.485, 1, "position")
        assert list(_fit_widths([4.0, 8, 16, 32], widths).kick_numbers) == [4, 8, 16, 32]

    @pytest.mark.parametrize("bad", [0, -4, 2**63])
    def test_kick_number_out_of_range_refused(self, bad):
        # log N would be -inf or NaN, and 2**63 overflows the int64 cast
        with pytest.raises(ValueError, match="kick numbers must lie"):
            _fit_widths([bad, 8, 16, 32], [0.0625, 0.015625, 0.00390625, 0.0009765625])

    def test_input_guards(self):
        with pytest.raises(ValueError):
            _fit_widths([4, 8, 16], [1.0, 0.5, 0.25])
        with pytest.raises(ValueError):
            _fit_widths([4, 8, 16, 32], [1.0, 0.5, 0.0, 0.25])
        with pytest.raises(ValueError):
            width_scaling([1, 2, 3, 4], 0.485, 1, "position")
        with pytest.raises(ValueError):
            width_scaling([5, 6, 7], 0.485, 1, "position")

    @pytest.mark.parametrize("ns", [[4, 4, 4, 4], [4, 4, 8, 16], [6, 6, 7, 8, 8]])
    def test_repeated_kick_numbers_refused(self, ns, no_propagation):
        # four equal kick numbers make a rank-1 design: lstsq would return
        # its minimum-norm slope, gamma = -0.3289 for these widths, at r^2 = 1
        with pytest.raises(ValueError, match="need at least 4 distinct kick numbers"):
            _fit_widths(ns, [0.5] * len(ns))
        with pytest.raises(ValueError, match="need at least 4 distinct kick numbers"):
            width_scaling([n + 2 for n in ns], 0.485, 1, "position")
        with pytest.raises(ValueError, match="need at least 4 distinct kick numbers"):
            compare_modes([n + 2 for n in ns], 0.485, 1)
        assert _fit_widths([4, 4, 8, 16, 32], [0.5, 0.5, 0.25, 0.125, 0.0625]).gamma \
            == pytest.approx(-1.0, abs=1e-12)


class TestCompareModes:
    def test_kick_numbers_may_be_a_one_shot_iterator(self):
        cmp = compare_modes((n for n in range(5, 9)), 0.485, 1, points=33)
        assert [row[0] for row in cmp.table] == [5, 6, 7, 8]

    def test_narrower_position_feature_and_crossover_estimate(self):
        cmp = compare_modes([5, 6, 7, 8], 0.485, 1, points=33, threads=4)
        assert len(cmp.table) == 4
        n5 = cmp.table[0]
        assert n5[0] == 5
        assert n5[1] < n5[2]  # position narrower at low kick number
        assert cmp.crossover_first_exceed is None
        assert 10 < cmp.crossover_fit < 25
        # ratios rise monotonically toward the crossover
        ratios = [row[3] for row in cmp.table]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_compare_modes_matches_bench_reference():
    # the widths and laws of the reference code, read from the benchmark's
    # reference file
    ref = json.loads(REFERENCE.read_text())["sweep"]
    cmp = compare_modes(list(range(5, 19)), 0.485, 1, points=65)
    for law, mode in ((cmp.position, "position"), (cmp.fidelity, "fidelity")):
        assert law.widths == pytest.approx(ref[f"{mode}_widths"], rel=1e-12, abs=0)
        assert law.gamma == pytest.approx(ref[f"gamma_{mode}"], rel=1e-12, abs=0)
    assert cmp.crossover_fit == pytest.approx(ref["crossover_fit"], rel=1e-12, abs=0)


def _auto_scan_widths(n_list, phi_d, modes):
    """The widths of one auto_scan and scan_width per mode and kick number,
    in that order: the first refusal raised is theirs."""
    widths = [[] for _ in modes]
    for N in n_list:
        for mode, column in zip(modes, widths):
            column.append(scan_width(auto_scan(N, phi_d, 1, mode)))
    return widths


def _outcome(call):
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


class TestWidthsAreAutoScans:
    @pytest.mark.parametrize("phi_d", [0.1, 0.25, 0.485, 1.0, 2.0, 4.0])
    # the last two lists defeat the previous kick number's stop as a
    # prediction of the next one's: they descend, or jump
    @pytest.mark.parametrize("n_list", [[2, 3, 4, 5], list(range(5, 13)),
                                        [20, 40, 60, 80], [18, 12, 8, 5],
                                        [5, 6, 40, 41]],
                             ids=["2-5", "5-12", "20-80", "18-5", "5-41"])
    @pytest.mark.parametrize("modes", [scanner.MODES,
                                       *((m,) for m in scanner.MODES)],
                             ids=["both", *scanner.MODES])
    def test_bit_for_bit_and_the_first_refusal(self, phi_d, n_list, modes,
                                               counted_rows):
        got = _outcome(lambda: scanner._widths(np.array(n_list), phi_d, 1,
                                               modes, 65))
        # within a kick number, no |detuning| is propagated twice
        assert len(counted_rows) == len(set(counted_rows))
        expected = _outcome(lambda: _auto_scan_widths(n_list, phi_d, modes))
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert [np.array(w).tobytes() for w in got] == \
                [np.array(w).tobytes() for w in expected]

    def test_some_cases_are_refused(self):
        # the comparison above covers refusals: N = 2 is not bracketed
        # within the cap in position mode at small phi_d
        with pytest.raises(RangeCapError, match="kicks=2, mode=position"):
            _auto_scan_widths([2, 3, 4, 5], 0.485, scanner.MODES)
        # and at phi_d = 0.1 the echo is not, after the position width at
        # the first kick number
        assert _auto_scan_widths([5], 0.1, ("position",))[0][0] > 0
        with pytest.raises(RangeCapError, match="kicks=5, mode=fidelity"):
            _auto_scan_widths(list(range(5, 13)), 0.1, scanner.MODES)

    def test_a_width_refusal_surfaces_before_a_later_mode_range_refusal(
            self, monkeypatch):
        # position: bracketed, but its width refused; fidelity: never
        # bracketed. Mode by mode, the position width fails first.
        position, fidelity = (scanner.PROBES[m] for m in ("position", "fidelity"))
        monkeypatch.setitem(scanner.PROBES, "position", position._replace(
            level=lambda values: float(values.max()) + 1.0))
        monkeypatch.setitem(scanner.PROBES, "fidelity", fidelity._replace(
            adequate=lambda values: False))
        for call in (lambda: compare_modes([5, 6, 7, 8], 0.485, 1),
                     lambda: _auto_scan_widths([5, 6, 7, 8], 0.485, scanner.MODES)):
            with pytest.raises(NoCrossingError, match="peak sits below"):
                call()
        # and the fidelity range refusal surfaces once no width fails first
        monkeypatch.setitem(scanner.PROBES, "position", position)
        with pytest.raises(RangeCapError, match="kicks=5, mode=fidelity"):
            compare_modes([5, 6, 7, 8], 0.485, 1)


