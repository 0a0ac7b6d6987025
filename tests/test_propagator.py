import math
import warnings
from unittest import mock

import numpy as np
import pytest

from kickedrotor import (
    FreePhaseSpec,
    LeakageError,
    MomentumWavefunction,
    SimConfig,
    SpatialGrid,
    bessel_j_ladder,
    default_half_width,
    default_n_points,
    evolve,
    evolve_dense,
    fidelity_protocol,
    init_momentum_eigenstate,
    kick_matrix,
    propagate,
    resonant_state,
    to_position,
)
from kickedrotor import propagator
from kickedrotor.analytics import MINUS_I_POW, bessel_j_ladder, bessel_j_row
from kickedrotor.propagator import (
    _kick,
    _kick_column,
    _kick_phases,
    _run,
    _unitarity_error,
)
from kickedrotor.wavepacket import _fft_slots, _propagation_points

J0_0485 = 0.942052665520175
J1_0485 = 0.23543928467863354
#: the closed form at revival, a package contract
CLOSED_FORM_TOL = 1e-10


def random_state(seed: int, M: int = 8, margin: int = 10) -> MomentumWavefunction:
    # empty sites near the ladder edges, so a kick has room to spread
    # without tripping the edge-leakage bound; J_10 of the strengths used
    # here is < 1e-8, far under the bound
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=2 * M + 1) + 1j * rng.normal(size=2 * M + 1)
    vec[:margin] = 0.0
    vec[-margin:] = 0.0
    return MomentumWavefunction(M, vec / np.linalg.norm(vec))


def kicked(amps: np.ndarray, kick: np.ndarray) -> np.ndarray:
    # the spectral core's in-place period on one ladder state or a (P, 2M+1)
    # stack, with no free flight: placed in FFT order on the grid of kick,
    # kicked and truncated by factors that are 1 on the ladder, read back
    rows = np.atleast_2d(amps)
    M = (rows.shape[1] - 1) // 2
    slots = _fft_slots(M, len(kick))
    buf = np.zeros((len(rows), len(kick)), dtype=complex)
    buf[:, slots] = rows
    ladder = np.zeros(len(kick))
    ladder[slots] = 1.0
    _kick(buf, kick, ladder, M)
    return buf[:, slots].reshape(amps.shape)


def kick(wf: MomentumWavefunction, phi: float, n: int | None = None):
    # the spectral core's kick step applied to an arbitrary state
    n = default_n_points(wf.half_width) if n is None else n
    return MomentumWavefunction(wf.half_width, kicked(wf.amps, _kick_phases(n, phi)))


class TestKick:
    def test_delta_becomes_bessel_ladder(self):
        M = 33
        kicked = kick(init_momentum_eigenstate(M), 0.485)
        minus_i = np.array([1, -1j, -1, 1j])
        m = np.arange(-M, M + 1)
        expect = minus_i[np.mod(m, 4)] * bessel_j_ladder(0.485, M)
        assert np.max(np.abs(kicked.amps - expect)) < 1e-13
        assert kicked.amps[M] == pytest.approx(J0_0485, abs=1e-13)
        assert kicked.amps[M + 1] == pytest.approx(-1j * J1_0485, abs=1e-13)
        assert kicked.amps[M - 1] == pytest.approx(-1j * J1_0485, abs=1e-13)

    def test_zero_strength_is_identity(self):
        wf = random_state(1, margin=2)
        out = kick(wf, 0.0)
        assert np.max(np.abs(out.amps - wf.amps)) < 1e-14

    def test_opposite_sign_inverts(self):
        wf = random_state(2, M=40)
        back = kick(kick(wf, 0.485), -0.485)
        assert np.max(np.abs(back.amps - wf.amps)) < 1e-13

    def test_norm_preserved_per_application(self):
        wf = random_state(3, M=40)
        out = kick(wf, 1.3)
        assert abs(out.norm_sq() - 1.0) < 1e-12

    def test_position_density_untouched_by_kick(self):
        # the kick is a pure position-space phase
        wf = random_state(4, M=20)
        grid = SpatialGrid(default_n_points(40))
        before = np.abs(to_position(wf, grid).values) ** 2
        kicked = kick(wf, 0.9, n=grid.n_points)
        after = np.abs(to_position(kicked, grid).values) ** 2
        assert np.max(np.abs(after - before)) < 1e-12

    def test_leakage_detected_at_edge(self):
        M = 4
        amps = np.zeros(2 * M + 1, dtype=complex)
        amps[-1] = 1.0  # all mass on m = +M
        with pytest.raises(LeakageError):
            kick(MomentumWavefunction(M, amps), 0.485)

    def test_stack_is_kicked_row_by_row(self):
        rows = np.array([random_state(s, M=40).amps for s in range(6, 10)])
        kick = _kick_phases(default_n_points(40), 0.485)
        stacked = kicked(rows, kick)
        assert stacked.shape == rows.shape
        for row, out in zip(rows, stacked):
            assert np.array_equal(out, kicked(row, kick))

    def test_leakage_checked_on_every_row(self):
        rows = np.array([random_state(s, M=8, margin=4).amps for s in range(3)])
        rows[2] = 0.0
        rows[2, -1] = 1.0  # only the last row sits on the edge
        with pytest.raises(LeakageError) as err:
            kicked(rows, _kick_phases(default_n_points(8), 0.485))
        assert err.value.occupancy > 0.5

    def test_leakage_guard_fails_closed_on_nan(self):
        amps = np.full(2 * 8 + 1, np.nan, dtype=complex)
        with pytest.raises(LeakageError):
            kicked(amps, _kick_phases(default_n_points(8), 0.485))
        # a NaN away from the edges reaches them through the transforms
        amps = init_momentum_eigenstate(8).amps.copy()
        amps[8] = np.nan
        with pytest.raises(LeakageError):
            kicked(amps, _kick_phases(default_n_points(8), 0.485))


class TestKickGrid:
    """The core's FFT length kicks exactly: no alias of the kick's Bessel
    coefficients reaches the ladder, so a longer grid changes nothing."""

    @pytest.mark.parametrize("phi", [0.1, 0.485, 2.3, 10.0, 50.0])
    @pytest.mark.parametrize("M", [1, 8, 40, 300])
    def test_equals_the_kick_on_an_eight_times_longer_grid(self, M, phi):
        rng = np.random.default_rng(M)
        filled = rng.normal(size=2 * M + 1) + 1j * rng.normal(size=2 * M + 1)
        delta = np.zeros(2 * M + 1, dtype=complex)
        delta[M] = 1.0
        rows = np.array([filled / np.linalg.norm(filled), delta])
        n = _propagation_points(M, phi)
        # a filled ladder sits on its edges; only the grid is under test
        with mock.patch.object(propagator, "EDGE_LEAK_BOUND", math.inf):
            short = kicked(rows, _kick_phases(n, phi))
            long = kicked(rows, _kick_phases(8 * n, phi))
            # the check has teeth: the bare ladder length aliases
            bare = kicked(rows, _kick_phases(2 * M + 1, phi))
        assert np.max(np.abs(short - long)) <= 1e-14
        assert np.max(np.abs(bare - long)) > 1e-6


class TestFreeFlight:
    def test_revival_at_zero_detuning_is_identity(self):
        spec = FreePhaseSpec.revival_relative(1, 0.0)
        m = np.arange(-50, 51)
        assert np.all(spec.factors(m) == 1.0 + 0.0j)

    def test_revival_phases_are_quadratic(self):
        spec = FreePhaseSpec.revival_relative(2, 1e-6)
        m = np.array([-3, 0, 5])
        expect = 2 * math.pi * 2 * 1e-6 * m.astype(float) ** 2
        assert np.allclose(spec.phases(m), expect, rtol=1e-15, atol=0)

    def test_general_route_agrees_with_revival_route(self):
        # same physical period expressed two ways
        eps, l = 1e-6, 1
        rel = FreePhaseSpec.revival_relative(l, eps)
        gen = FreePhaseSpec.general(4 * math.pi * l * (1 + eps))
        m = np.arange(-64, 65)
        assert np.max(np.abs(rel.factors(m) - gen.factors(m))) < 1e-9

    def test_half_revival_alternates_signs(self):
        spec = FreePhaseSpec.general(2 * math.pi)
        m = np.arange(-7, 8)
        expect = np.where(m % 2 == 0, 1.0, -1.0)
        assert np.max(np.abs(spec.factors(m) - expect)) < 1e-14

    def test_free_flight_preserves_norm(self):
        wf = random_state(5, margin=2)
        out = wf.amps * FreePhaseSpec.revival_relative(1, 3e-3).factors(wf.m_values)
        assert abs(np.sum(np.abs(out) ** 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("bad", [1.5, 0, math.nan, math.inf, -math.inf])
    def test_directly_built_spec_needs_integer_l(self, bad):
        with mock.patch.object(propagator, "_kick", wraps=_kick) as kicks:
            with pytest.raises(ValueError, match="l must be"):
                propagate(3, 0.485, FreePhaseSpec("revival_relative", l=bad, epsilon=1e-3))
        assert kicks.call_count == 0

    def test_integral_l_stored_as_int(self):
        spec = FreePhaseSpec("revival_relative", l=2.0, epsilon=1e-3)
        assert spec.l == 2 and type(spec.l) is int

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            FreePhaseSpec(mode="bogus")


class TestEvolve:
    def test_zero_kicks_returns_initial_state(self):
        out = evolve(SimConfig(kicks=0))
        assert out.amps[out.half_width] == 1.0
        assert out.norm_sq() == 1.0

    @pytest.mark.parametrize("kicks", [1, 5, 10])
    def test_matches_closed_form_on_revival(self, kicks):
        out = evolve(SimConfig(kicks=kicks))
        expect = resonant_state(kicks, 0.485, out.half_width)
        assert np.max(np.abs(out.amps - expect.amps)) < 1e-12

    def test_leakage_raises_without_growth(self):
        with pytest.raises(LeakageError) as err:
            propagate(
                20,
                0.485,
                FreePhaseSpec.revival_relative(1, 0.0),
                half_width=8,
                auto_grow=False,
            )
        assert err.value.period >= 1

    @pytest.mark.parametrize("kicks", [200, 300, 1000, 2000])
    def test_long_orbit_default_ladder_holds_closed_form(self, kicks):
        # no restart: the default ladder itself carries the Bessel tail
        spec = FreePhaseSpec.revival_relative(1, 0.0)
        cfg = SimConfig(kicks=kicks)
        for state in (propagate(kicks, 0.485, spec, auto_grow=False), evolve(cfg)):
            assert state.half_width == cfg.half_width
            expect = resonant_state(kicks, 0.485, state.half_width)
            assert np.max(np.abs(state.amps - expect.amps)) < CLOSED_FORM_TOL

    def test_auto_growth_recovers(self):
        out = propagate(
            20,
            0.485,
            FreePhaseSpec.revival_relative(1, 0.0),
            half_width=8,
            auto_grow=True,
        )
        assert out.half_width > 8
        assert abs(out.norm_sq() - 1.0) < 1e-12
        assert out.edge_occupancy() < 1e-14

    @pytest.mark.parametrize("cfg, grow", [
        (SimConfig(kicks=400, epsilon=1.1e-6), None),
        (SimConfig(kicks=60, epsilon=-2e-4, half_width=70), None),
        (SimConfig(kicks=50, epsilon=3e-4, n_points=4096), None),
        (SimConfig(kicks=20, epsilon=1e-3, half_width=8), True),
    ], ids=["auto-sized", "explicit-half-width", "explicit-n-points", "auto-grows"])
    def test_evolve_is_propagate_on_the_same_ladder(self, cfg, grow):
        spec = FreePhaseSpec.revival_relative(cfg.l, cfg.epsilon)
        with mock.patch.object(propagator, "_kick_phases", wraps=_kick_phases) as phases:
            state = evolve(cfg, auto_grow=grow)
        expect = propagate(cfg.kicks, cfg.phi_d, spec, cfg.half_width,
                           auto_grow=cfg.auto_sized if grow is None else grow)
        assert np.array_equal(state.amps, expect.amps)
        # the core kicks on its own lengths only, never on cfg.n_points
        ladders = [cfg.half_width << k for k in range(len(phases.call_args_list))]
        assert ladders[-1] == state.half_width
        grids = [call.args[0] for call in phases.call_args_list]
        assert grids == [_propagation_points(M, cfg.phi_d) for M in ladders]
        if grow:
            assert state.half_width > cfg.half_width

    def test_explicit_config_does_not_grow_by_default(self):
        with pytest.raises(LeakageError):
            evolve(SimConfig(kicks=20, half_width=8))

    def test_unitary_over_hundred_periods(self):
        out = evolve(SimConfig(kicks=100, epsilon=2e-3))
        assert abs(out.norm_sq() - 1.0) < 1e-10

    def test_antiresonant_recurrence(self):
        spec = FreePhaseSpec.general(2 * math.pi)
        for k in (1, 3):
            out = propagate(2 * k, 0.485, spec, half_width=40)
            assert abs(out.amps[40]) > 1 - 1e-10


def kick_matrix_reference(phi: float, M: int) -> np.ndarray:
    """The elementwise kick matrix: every entry from its own wrapped order."""
    row = bessel_j_row(abs(phi), M)
    m = np.arange(-M, M + 1)
    diff = np.subtract.outer(m, m)
    diff = (diff + M) % (2 * M + 1) - M
    vals = row[np.abs(diff)]
    neg = diff < 0
    vals = np.where(neg & (np.abs(diff) % 2 == 1), -vals, vals)
    if phi < 0:
        vals = np.where(np.abs(diff) % 2 == 1, -vals, vals)
    return MINUS_I_POW[np.mod(diff, 4)] * vals


def full_gram_error(U: np.ndarray) -> float:
    return float(np.max(np.abs(U.conj().T @ U - np.eye(len(U)))))


def dense_loop_reference(config: SimConfig, free: FreePhaseSpec) -> np.ndarray:
    """The full-ladder dense route: delta_0 through config.kicks products
    with the elementwise kick matrix, each followed by the free flight."""
    M = config.half_width
    U = kick_matrix_reference(config.phi_d, M)
    factors = free.factors(np.arange(-M, M + 1))
    amps = np.zeros(2 * M + 1, dtype=complex)
    amps[M] = 1.0
    for _ in range(config.kicks):
        amps = factors * (U @ amps)
    return amps


#: (phi, widest half width that warns, narrowest that does not)
WARNING_BOUNDARIES = [(40.0, 60, 61), (0.485, 5, 6), (-1.7, 9, 10)]


class TestDenseRoute:
    def test_zero_strength_matrix_is_identity(self):
        U = kick_matrix(0.0, 5)
        assert np.array_equal(U, np.eye(11, dtype=complex))

    def test_columns_orthonormal(self):
        U = kick_matrix(0.485, 35)
        gram = U.conj().T @ U
        assert np.max(np.abs(gram - np.eye(71))) < 1e-10

    def test_opposite_strengths_invert(self):
        U = kick_matrix(1.7, 40)
        V = kick_matrix(-1.7, 40)
        assert np.max(np.abs(U @ V - np.eye(81))) < 1e-10

    def test_center_column_matches_spectral_kick(self):
        M = 35
        U = kick_matrix(0.485, M)
        kicked = kick(init_momentum_eigenstate(M), 0.485)
        assert np.max(np.abs(U[:, M] - kicked.amps)) < 1e-12

    def test_warns_when_ladder_cannot_hold_strength(self):
        with pytest.warns(RuntimeWarning):
            kick_matrix(40.0, 41)

    def test_agrees_with_spectral_evolution(self):
        cfg = SimConfig(kicks=10, epsilon=1e-6, half_width=64)
        a = evolve(cfg, auto_grow=False)
        b = evolve_dense(cfg)
        assert np.max(np.abs(a.amps - b.amps)) < 1e-12

    def test_size_cap(self):
        with pytest.raises(ValueError):
            evolve_dense(SimConfig(kicks=1, half_width=513))

    @pytest.mark.filterwarnings("ignore:kick matrix unitarity error:RuntimeWarning")
    @pytest.mark.parametrize("M", [1, 2, 5, 41, 452, 512])
    @pytest.mark.parametrize("phi", [0.0, 0.485, -0.485, 1.7, -1.7, 40.0, 485.0])
    def test_gathered_matrix_is_the_elementwise_one(self, phi, M):
        assert np.array_equal(kick_matrix(phi, M), kick_matrix_reference(phi, M))

    @pytest.mark.parametrize("phi, tight, enough", WARNING_BOUNDARIES)
    def test_warning_boundary(self, phi, tight, enough):
        with pytest.warns(RuntimeWarning, match="unitarity error"):
            kick_matrix(phi, tight)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kick_matrix(phi, enough)

    @pytest.mark.parametrize("phi, M", [(40.0, 60), (40.0, 61), (0.485, 5), (0.485, 6),
                                        (-1.7, 9), (-1.7, 10), (0.485, 452),
                                        (485.0, 512)])
    def test_one_gram_column_is_the_full_product(self, phi, M):
        U = kick_matrix_reference(phi, M)
        assert abs(_unitarity_error(U[:, 0]) - full_gram_error(U)) <= 1e-14

    def test_nan_gram_error_warns(self, monkeypatch):
        ladder = bessel_j_ladder(0.485, 5)
        ladder[5 + 3] = math.nan  # J_3
        monkeypatch.setattr(propagator, "bessel_j_ladder", lambda x, M: ladder)
        with pytest.warns(RuntimeWarning, match="unitarity error nan"):
            kick_matrix(0.485, 5)
        # the dense route warns too; the NaN then reaches its state, which
        # refuses it
        with pytest.warns(RuntimeWarning, match="unitarity error nan"):
            with pytest.raises(ValueError, match="finite"):
                evolve_dense(SimConfig(kicks=1, half_width=5))

    @pytest.mark.parametrize("phi, tight, enough", WARNING_BOUNDARIES)
    def test_dense_evolution_warns_at_the_same_boundary(self, phi, tight, enough):
        # evolve_dense takes positive strengths only; the kick of -phi is the
        # adjoint of the kick of phi, and a circulant U has U^H U = U U^H, so
        # both strengths share one boundary
        def dense(M):
            evolve_dense(SimConfig(kicks=1, phi_d=abs(phi), half_width=M))

        with pytest.warns(RuntimeWarning, match="unitarity error"):
            dense(tight)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dense(enough)

    @pytest.mark.filterwarnings("ignore:kick matrix unitarity error:RuntimeWarning")
    @pytest.mark.parametrize("M", [1, 2, 5, 41, 452, 512])
    @pytest.mark.parametrize("phi", [0.485, -0.485, 1.7, -1.7, 40.0, 485.0])
    def test_kick_column_is_exactly_even(self, phi, M):
        # the premise of the even dense route: c_{-d} = c_d bit for bit
        c = _kick_column(phi, M)
        assert np.array_equal(c[1:], c[:0:-1])
        assert np.array_equal(c, kick_matrix_reference(phi, M)[:, 0])

    def test_dense_evolution_is_the_elementwise_loop(self):
        # the even route sums in its own order, so it matches the full-ladder
        # loop to rounding, not bit for bit
        M, eps = 452, 1.1e-6
        cfg = SimConfig(kicks=400, epsilon=eps, half_width=M)
        out = evolve_dense(cfg)
        ref = dense_loop_reference(cfg, FreePhaseSpec.revival_relative(1, eps))
        assert np.max(np.abs(out.amps - ref)) <= 1e-13
        assert np.array_equal(out.amps, out.amps[::-1])

    @pytest.mark.parametrize("hbar_s", [2.0, 4 * math.pi * (1 + 3e-3), 0.3])
    def test_general_mode_dense_evolution_is_the_elementwise_loop(self, hbar_s):
        cfg = SimConfig(kicks=50, phi_d=1.7, half_width=60)
        free = FreePhaseSpec.general(hbar_s)
        out = evolve_dense(cfg, free)
        assert np.max(np.abs(out.amps - dense_loop_reference(cfg, free))) <= 1e-13
        assert np.array_equal(out.amps, out.amps[::-1])


class TestFidelityProtocol:
    def test_perfect_echo_on_revival(self):
        for kicks in (1, 4, 8):
            assert fidelity_protocol(kicks, 0.485, 0.0) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_even_in_detuning(self):
        f_plus = fidelity_protocol(5, 0.485, 1e-6)
        f_minus = fidelity_protocol(5, 0.485, -1e-6)
        assert f_plus == pytest.approx(f_minus, abs=1e-10)
        assert f_plus < 1.0

    def test_matches_dense_echo(self):
        # same protocol assembled from the dense-matrix pieces
        N, eps, M = 5, 1e-6, 37
        cfg = SimConfig(kicks=N, epsilon=eps, half_width=M)
        state = evolve_dense(cfg)
        reversed_kick = kick_matrix(-N * 0.485, M)
        echo = reversed_kick @ state.amps
        f_dense = float(abs(echo[M]) ** 2)
        assert fidelity_protocol(N, 0.485, eps) == pytest.approx(
            f_dense, abs=1e-9
        )

    def test_kick_count_validated(self):
        with pytest.raises(ValueError):
            fidelity_protocol(0, 0.485, 0.0)

    def test_echo_runs_on_the_driven_ladder(self):
        # the reversed pulse is read as an overlap, so the ladder is sized
        # for N*phi_d (M = 555), not for the doubled reach (M = 1058); the
        # driven kick runs on 1152 points and the one pulse of N*phi_d =
        # 485 on 1728, each the length that kicks by its own phi exactly
        with mock.patch.object(propagator, "_kick_phases", wraps=_kick_phases) as phases:
            f = fidelity_protocol(1000, 0.485, 0.0)
        assert abs(f - 1.0) <= 1e-12
        assert default_half_width(1000, 0.485) == 555
        grids = {call.args for call in phases.call_args_list}
        assert grids == {(1152, 0.485), (1728, 1000 * 0.485)}
        assert grids == {(_propagation_points(555, phi), phi)
                         for phi in (0.485, 1000 * 0.485)}


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_free_phases_reject(self, bad):
        with pytest.raises(ValueError):
            FreePhaseSpec.revival_relative(1, bad)
        with pytest.raises(ValueError):
            FreePhaseSpec.general(bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_propagate_rejects(self, bad):
        with pytest.raises(ValueError):
            propagate(5, bad, FreePhaseSpec.revival_relative(1, 0.0))
        with pytest.raises(ValueError):
            propagate(5, 0.485, FreePhaseSpec.revival_relative(1, bad))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_evolve_rejects(self, bad):
        with pytest.raises(ValueError):
            evolve(SimConfig(kicks=5, half_width=40, phi_d=bad))
        with pytest.raises(ValueError):
            evolve(SimConfig(kicks=5), free=FreePhaseSpec.general(bad))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_fidelity_protocol_rejects(self, bad):
        with pytest.raises(ValueError):
            fidelity_protocol(5, 0.485, bad)
        with pytest.raises(ValueError):
            fidelity_protocol(5, bad, 0.0)

    @pytest.mark.parametrize("bad", [2.5] + NON_FINITE)
    def test_kick_matrix_refuses_non_integer_width(self, bad):
        with pytest.raises(ValueError, match="must be an integer"):
            kick_matrix(0.485, bad)

    def test_non_positive_strength_rejected(self):
        spec = FreePhaseSpec.revival_relative(1, 0.0)
        for phi_d in (0.0, -0.485):
            with pytest.raises(ValueError):
                propagate(5, phi_d, spec)
            with pytest.raises(ValueError):
                fidelity_protocol(5, phi_d, 0.0)


class TestBatchedCore:
    FREES = [FreePhaseSpec.revival_relative(1, e)
             for e in (0.0, 1e-4, -3e-3, 2e-2)]

    def test_one_row_is_propagate(self):
        for free in self.FREES:
            amps = _run(7, 0.485, [free])
            state = propagate(7, 0.485, free)
            assert amps.shape == (1, 2 * state.half_width + 1)
            assert np.array_equal(amps[0], state.amps)

    def test_rows_match_their_own_runs(self):
        amps = _run(9, 0.485, self.FREES)
        M = (amps.shape[1] - 1) // 2
        for free, row in zip(self.FREES, amps):
            assert np.array_equal(row, _run(9, 0.485, [free], half_width=M)[0])

    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("kicks", [0, 1, 7])
    def test_every_period_is_one_kick_call(self, kicks, rows):
        # tests/test_fail_closed.py counts _kick calls to show a refusal
        # came before the first period, so every period must run through it
        with mock.patch.object(propagator, "_kick", wraps=_kick) as step:
            amps = _run(kicks, 0.485, self.FREES[:rows])
        assert amps.shape[0] == rows
        assert [call.args[4] for call in step.call_args_list] == list(range(1, kicks + 1))

    def test_echo_pulse_is_one_more_kick_call(self):
        with mock.patch.object(propagator, "_kick", wraps=_kick) as step:
            fidelity_protocol(5, 0.485, 1e-3)
        assert step.call_count == 5 + 1

    def test_leaking_stack_grows_as_a_whole(self):
        with pytest.raises(LeakageError):
            _run(20, 0.485, self.FREES, half_width=8, auto_grow=False)
        with mock.patch.object(propagator, "_kick_phases", wraps=_kick_phases) as phases:
            amps = _run(20, 0.485, self.FREES, half_width=8)
        M = (amps.shape[1] - 1) // 2
        assert amps.shape == (len(self.FREES), 2 * M + 1)
        assert M == 32
        # each grown stack runs on its own ladder's 5-smooth length
        grids = [call.args[0] for call in phases.call_args_list]
        assert grids == [_propagation_points(m, 0.485) for m in (8, 16, 32)]
        assert grids == [50, 72, 100]
        for free, row in zip(self.FREES, amps):
            one = _run(20, 0.485, [free], half_width=M, auto_grow=False)[0]
            assert np.max(np.abs(row - one)) < 1e-12
            assert abs(np.sum(np.abs(row) ** 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("kicks", [1, 6, 40])
    def test_echo_overlap_equals_reversed_pulse(self, kicks):
        # <delta_0 | K(-a) psi> = <K(a) delta_0 | psi>: the explicit reversed
        # kick, on a ladder sized for its doubled reach, gives the same F
        M = default_half_width(2 * kicks, 0.485)
        amps = _run(kicks, 0.485, self.FREES, half_width=M, auto_grow=False)
        reversed_kick = _kick_phases(_propagation_points(M, kicks * 0.485),
                                     -kicks * 0.485)
        echoed = kicked(amps, reversed_kick)
        for free, row in zip(self.FREES, echoed):
            f = fidelity_protocol(kicks, 0.485, free.epsilon)
            assert abs(abs(complex(row[M])) ** 2 - f) <= 1e-13


class TestParity:
    """Every state is even, psi_m = psi_{-m}: the delta_0 start, the even
    kick and the m**2 free phase each keep it."""

    @pytest.mark.parametrize("kicks", [12, 300, 2000])
    def test_propagated_state_is_even(self, kicks):
        for eps in (0.0, 0.3 / kicks**2, -1.0 / kicks**2):
            amps = propagate(kicks, 0.485, FreePhaseSpec.revival_relative(1, eps)).amps
            assert np.max(np.abs(amps - amps[::-1])) <= 1e-12
