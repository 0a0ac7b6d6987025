import dataclasses
import functools
import gc
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


def read_once(mode: str, kicks: int, epsilons: np.ndarray) -> np.ndarray:
    """_sweep_values at phi_d = 0.485, l = 1 on a one-mode sweep of this
    read alone."""
    sweep = scanner._Sweep(kicks, 0.485, 1, (mode,))
    return _sweep_values(mode, kicks, 0.485, 1, epsilons, sweep)


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

    @staticmethod
    def linspace_grid(epsilon_max, points):
        """The grid built on np.linspace, with the same refusal."""
        half = np.linspace(0.0, epsilon_max, (points + 1) // 2)
        grid = np.concatenate([-half[:0:-1], half])
        if not np.all(np.diff(grid) > 0):
            raise ValueError(
                f"range {epsilon_max!r} cannot hold {points} distinct detunings")
        return grid

    @pytest.mark.parametrize("points", [17, 33, 65, 129])
    def test_is_the_linspace_grid_bit_for_bit(self, points):
        ranges = [r for N in range(2, 151) for r in _ladder(N)]
        # subnormal ranges: from a few units of the least subnormal, where
        # the points coincide and both refuse, to enough units to hold them
        ranges += [j * 5e-324 for j in range(1, 4 * points)]
        ranges += np.exp(np.random.default_rng(7).uniform(
            math.log(1e-320), math.log(1e300), 500)).tolist()
        refused = 0
        for r in ranges:
            got = _outcome(lambda: _symmetric_grid(r, points).tobytes())
            assert got == _outcome(lambda: self.linspace_grid(r, points).tobytes())
            refused += isinstance(got, tuple)
        # both sides of the refusal are covered
        assert 0 < refused < len(ranges)


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


def _prefetched_grid(n_list, modes):
    """Per kick number, the final grids a width law over n_list propagates
    in its first block: from the second kick number on, each mode's
    65-point grid at the rung, on this kick number's ladder, where its walk
    stopped for the previous one."""
    expected, stops = {}, None
    for N in n_list:
        ladder = _ladder(N)
        expected[N] = set() if stops is None else {
            swept(e) for k in stops if k < len(ladder)
            for e in _symmetric_grid(ladder[k], 65).tolist()}
        stops = [_stop(N, mode) for mode in modes]
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
        batch = read_once("position", kicks, eps)
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
        read_once("position", 12, _symmetric_grid(0.4 / 12**2, 33))
        assert built == []
        # the patch does see the per-point route
        state = propagate(12, 0.485, FreePhaseSpec.revival_relative(1, 0.0))
        grid = SpatialGrid(default_n_points(state.half_width))
        position_density(to_position(state, grid))
        assert built == ["PositionWavefunction", "Density"]

    @pytest.mark.parametrize("kicks", [5, 12])
    def test_fidelity_rows_equal_protocol(self, kicks):
        eps = _symmetric_grid(0.4 / kicks**2, 33)
        batch = read_once("fidelity", kicks, eps)
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
        blocked = read_once(mode, 5, eps)
        assert calls == [scanner.SWEEP_BLOCK, scanner.SWEEP_BLOCK, 33]
        monkeypatch.setattr(scanner, "SWEEP_BLOCK", len(eps))
        assert np.array_equal(blocked, read_once(mode, 5, eps))
        assert calls[3:] == [len(eps) // 2 + 1]

    @pytest.mark.parametrize("mode", ["position", "fidelity"])
    def test_width_scaling_evaluates_each_detuning_once(self, mode, counted_rows,
                                                        reads):
        n_list = [5, 6, 7, 8]
        ws = width_scaling(n_list, 0.485, 1, mode)
        rows, observed = list(counted_rows), list(reads)
        # the rungs of the first block, the final grid predicted from the
        # previous kick number's stop, the rungs walked past the block, then
        # the final grid
        walked = _walked_grid(n_list, (mode,))
        prefetched = _prefetched_grid(n_list, (mode,))
        for N in n_list:
            propagated = [e for kicks, e in rows if kicks == N]
            assert len(propagated) == len(set(propagated))
            assert set(propagated) == (walked[N] | prefetched[N]
                                       | _scan_grid(N, mode))
        # the position walk stops one rung higher at N = 6 than at N = 5,
        # so that rung's final grid is propagated besides the predicted one
        assert len(rows) == {"position": 183, "fidelity": 159}[mode]
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
    """The sweep whose read made each core call, in call order; a core call
    outside every read fails the test."""
    seen, reading = [], []
    run, read = scanner._run, scanner._Sweep.read

    def spying_read(self, mode, epsilons):
        reading.append(self)
        try:
            return read(self, mode, epsilons)
        finally:
            reading.pop()

    def spying_run(kicks, phi_d, phases, *args, **kwargs):
        assert reading, "a core call outside a sweep read"
        assert reading[-1].key == (kicks, phi_d, 1)
        seen.append(reading[-1])
        return run(kicks, phi_d, phases, *args, **kwargs)

    monkeypatch.setattr(scanner._Sweep, "read", spying_read)
    monkeypatch.setattr(scanner, "_run", spying_run)
    return seen


@pytest.fixture
def built(monkeypatch):
    """A weak reference to every _Sweep built, in build order."""
    refs = []
    init = scanner._Sweep.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(scanner._Sweep, "__init__", recording)
    return refs


def reachable(refs) -> int:
    """How many of the weakly referenced sweeps something still holds."""
    gc.collect()
    return sum(ref() is not None for ref in refs)


def _law_bits(ws):
    return (ws.kick_numbers.tolist(), ws.widths.tobytes(), ws.gamma,
            ws.intercept, ws.r_squared)


class TestSharedRows:
    def test_compare_modes_propagates_each_pair_once(self, counted_rows, reads):
        n_list = list(range(5, 19))
        compare_modes(n_list, 0.485, 1, points=65)
        rows = list(counted_rows)
        assert len(rows) == len(set(rows)) == 781
        observed = {mode: 0 for mode in scanner.MODES}
        for mode, n, _ in reads:
            observed[mode] += n
        walked = _walked_grid(n_list, scanner.MODES)
        prefetched = _prefetched_grid(n_list, scanner.MODES)
        for N in n_list:
            propagated = {e for kicks, e in rows if kicks == N}
            # the rungs of the first block with both predicted final grids,
            # the rungs walked past it, then both final grids
            assert propagated == (walked[N] | prefetched[N]
                                  | _scan_grid(N, "position")
                                  | _scan_grid(N, "fidelity"))
        # each mode observes each propagated row exactly once
        assert observed == {mode: len(rows) for mode in scanner.MODES}

    def test_compare_modes_core_calls_per_kick_number(self, monkeypatch, reads):
        # per kick number one block of the predicted rungs' probe grids and
        # the predicted final grids, one core call per rung a walk climbs
        # past them, and one block of the final grids no prediction held
        calls = []
        original = scanner._run

        def counting(kicks, phi_d, phases, *args, **kwargs):
            amps = original(kicks, phi_d, phases, *args, **kwargs)
            calls.append((kicks, len(amps)))
            return amps

        monkeypatch.setattr(scanner, "_run", counting)
        n_list = list(range(5, 19))
        compare_modes(n_list, 0.485, 1, points=65)
        assert len(calls) == 18
        assert sum(n for _, n in calls) == 781
        # N = 5 has no prediction; at N = 6 the position walk climbs one
        # rung past N = 5's stop and reads its final grid there, and at
        # N = 10 the echo walk stops one rung below N = 9's stop. Every
        # other kick number is one core call
        per_kick_number = {5: 2, 6: 3, 10: 2}
        assert [kicks for kicks, _ in calls] == \
            [N for N in n_list for _ in range(per_kick_number.get(N, 1))]
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
        # one kick number's reads all run before the next one's
        assert [sweep.key[0] for sweep in sweeps] == \
            sorted(sweep.key[0] for sweep in sweeps)

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

    def test_no_store_outlives_the_call(self, counted_rows, built):
        n_list = [8, 7, 6, 5]
        before = _law_bits(width_scaling(n_list, 0.485, 1, "position"))
        assert len(built) == 4 and reachable(built) == 0
        compare_modes(n_list, 0.485, 1, points=33)
        assert len(built) == 8 and reachable(built) == 0
        auto_range(5, 0.485, 1, "fidelity")
        assert len(built) == 9 and reachable(built) == 0
        auto_scan(5, 0.485, 1, "fidelity")
        scan_epsilon(5, 0.485, 1, "fidelity", 0.01)
        assert len(built) == 11 and reachable(built) == 0
        assert _law_bits(width_scaling(n_list, 0.485, 1, "position")) == before
        # N = 6, 5 and 4 are bracketed within RANGE_CAP in both modes, N = 3
        # is not in position mode
        capped = [6, 5, 4, 3]
        counted_rows.clear()
        built.clear()
        with pytest.raises(RangeCapError, match="kicks=3, mode=position"):
            compare_modes(capped, 0.485, 1)
        assert {kicks for kicks, _ in counted_rows} == {6, 5, 4, 3}
        assert len(built) == 4 and reachable(built) == 0
        for call in (lambda: width_scaling(capped, 0.485, 1, "position"),
                     lambda: auto_range(3, 0.485, 1, "position"),
                     lambda: auto_scan(3, 0.485, 1, "position")):
            built.clear()
            with pytest.raises(RangeCapError, match="kicks=3, mode=position"):
                call()
            assert built and reachable(built) == 0
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
        read_once("position", 12, np.array(eps))
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
        sweep = scanner._Sweep(kicks, 0.485, 1, scanner.MODES)
        # the first mode propagates every other row, the second reads those
        # and propagates the rest, and the first then reads those
        head = _sweep_values(first, kicks, 0.485, 1, eps[::2], sweep)
        values[second] = _sweep_values(second, kicks, 0.485, 1, eps, sweep)
        tail = _sweep_values(first, kicks, 0.485, 1, eps[1::2], sweep)
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

    @pytest.mark.parametrize("call, message", [
        # points, then the mode (the sweep's), then the kick number
        (lambda: auto_scan(2.5, 0.485, 1, "bogus"), "mode must be one of"),
        (lambda: auto_scan(5, 0.485, 1, "bogus", points=64),
         "points must be odd and >= 33"),
        # the kick number, then the mode
        (lambda: auto_range(2.5, 0.485, 1, "bogus"), "kicks must be an integer"),
        # the grid, then the mode (the sweep's)
        (lambda: scan_epsilon(5, 0.485, 1, "bogus", 5e-324),
         "cannot hold 65 distinct detunings"),
    ], ids=["auto_scan-kicks", "auto_scan-points", "auto_range-kicks",
            "scan_epsilon-grid"])
    def test_first_refusal_of_doubly_bad_input(self, call, message,
                                               no_propagation):
        with pytest.raises(ValueError, match=message):
            call()


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

        def recording(mode, kicks, phi_d, l, eps, sweep=None):
            ranges.append(float(eps[-1]))
            return sweep_values(mode, kicks, phi_d, l, eps, sweep)

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

    def test_laws_meeting_past_the_float_range_have_no_crossover(self):
        # slopes 0.002 apart meet at log N ~ 820, where math.exp overflows
        cmp = compare_modes(range(25, 30), 7.9984375, 1, points=33)
        pos, fid = cmp.position, cmp.fidelity
        exponent = (fid.intercept - pos.intercept) / (pos.gamma - fid.gamma)
        assert exponent > 709.78
        assert cmp.crossover_fit is None

    @pytest.mark.parametrize("intercepts", [(0.0, 1.0), (0.5, 0.5)],
                             ids=["apart", "equal"])
    def test_parallel_laws_have_no_crossover(self, monkeypatch, intercepts):
        # equal slopes would divide by zero; the laws meet at no finite N
        fits, fit = iter(intercepts), scanner._fit_widths

        def parallel(n_values, widths):
            law = fit(n_values, widths)
            return dataclasses.replace(law, gamma=-2.0, intercept=next(fits))

        monkeypatch.setattr(scanner, "_fit_widths", parallel)
        cmp = compare_modes([5, 6, 7, 8], 0.485, 1, points=33)
        assert cmp.position.gamma == cmp.fidelity.gamma == -2.0
        assert cmp.crossover_fit is None


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

    @pytest.mark.parametrize("phi_d,n_list", [
        (0.25, list(range(10, 61, 5))),
        (1.0, list(range(3, 20, 2))),
        (2.0, list(range(2, 12))),
    ])
    def test_compare_modes_widths_are_auto_scan_widths(self, phi_d, n_list):
        cmp = compare_modes(n_list, phi_d, 1)
        expected = _auto_scan_widths(n_list, phi_d, scanner.MODES)
        assert [cmp.position.widths.tobytes(), cmp.fidelity.widths.tobytes()] \
            == [np.array(w).tobytes() for w in expected]

    def test_a_stop_past_the_next_ladder_predicts_no_grid(self):
        # at phi_d = 1.0 the position walk stops at rung 3 for N = 20, past
        # the top of N = 2's three-rung ladder
        ladder = scanner._rungs(20, scanner.RANGE_CAP)
        assert ladder.index(auto_range(20, 1.0, 1, "position")) == 3
        assert len(scanner._rungs(2, scanner.RANGE_CAP)) == 3
        n_list = [20, 2, 3, 4]
        got = scanner._widths(np.array(n_list), 1.0, 1, ("position",), 65)
        expected = _auto_scan_widths(n_list, 1.0, ("position",))
        assert np.array(got).tobytes() == np.array(expected).tobytes()

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


#: the echo's half level on its leading-order profile J0(z)^2 = 1/2
ECHO_HALF_ZERO = 1.1263642393772584


def echo_law_excess(kicks, phi_d):
    """FWHM_law / w - 1: the leading-order echo width 4z / (2 pi l phi_d^2
    S_N), S_N = N(N+1)(2N+1)/6, over the auto_scan width w at l = 1."""
    s_n = kicks * (kicks + 1) * (2 * kicks + 1) / 6
    law = 4 * ECHO_HALF_ZERO / (2 * math.pi * phi_d**2 * s_n)
    return law / scan_width(auto_scan(kicks, phi_d, 1, "fidelity")) - 1


class TestEchoLaw:
    """The echo profile is J0(pi l eps phi_d^2 S_N)^2 to leading order; the
    law overestimates the width by at most 1/(phi_d N)^2."""

    @pytest.mark.parametrize("kicks,excess", [
        (5, 0.0917), (8, 0.0345), (12, 0.0156), (16, 0.0090), (24, 0.0042),
        (40, 0.0015)])
    def test_measured_excess(self, kicks, excess):
        assert echo_law_excess(kicks, 0.485) == pytest.approx(excess, abs=5e-5)

    # phi_d N from 2 (below it, at phi_d = 0.25 and N = 4, the excess
    # exceeds the bound) to 24: past it a 65-point scan's interpolation
    # error, up to about 1e-3 of the width, is as large as the excess
    # (at phi_d = 2.0 the excess reads negative from N = 15 on)
    @pytest.mark.parametrize("phi_d,kicks", [
        (phi_d, kicks) for phi_d in (0.25, 0.485, 1.0, 2.0)
        for kicks in (3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 30, 40)
        if 2 <= phi_d * kicks <= 24])
    def test_law_bounds_the_width_from_above(self, phi_d, kicks):
        assert 0 < echo_law_excess(kicks, phi_d) <= 1 / (phi_d * kicks) ** 2
