import functools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from kickedrotor import (
    FreePhaseSpec,
    LeakageError,
    MomentumWavefunction,
    SimConfig,
    SpatialGrid,
    default_half_width,
    default_n_points,
    evolve,
    evolve_dense,
    fidelity_protocol,
    kick_matrix,
    propagate,
    resonant_state,
    to_position,
)
from kickedrotor import propagator
from kickedrotor.analytics import MINUS_I_POW, _bessel_j_ladder
from kickedrotor.propagator import (
    DENSE_HALF_WIDTH_CAP,
    _STAGE_RATIO,
    _kick,
    _kick_column,
    _kick_phases,
    _revival_phases,
    _run,
    _stages,
    _unitarity_error,
)
from kickedrotor.scanner import RANGE_CAP
from kickedrotor.wavepacket import (EDGE_LEAK_BOUND, _fft_slots, _kick_reach,
                                    _propagation_points)

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


def kicked(amps: np.ndarray, kick: np.ndarray, period: int = 1) -> np.ndarray:
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
    _kick(buf, kick, ladder, M, period)
    return buf[:, slots].reshape(amps.shape)


def delta0(half_width: int) -> MomentumWavefunction:
    """The m = 0 ladder state, psi(m) = delta_{m,0}."""
    amps = np.zeros(2 * half_width + 1, dtype=complex)
    amps[half_width] = 1.0
    return MomentumWavefunction(half_width, amps)


def kick(wf: MomentumWavefunction, phi: float, n: int | None = None):
    # the spectral core's kick step applied to an arbitrary state
    n = default_n_points(wf.half_width) if n is None else n
    return MomentumWavefunction(wf.half_width, kicked(wf.amps, _kick_phases(n, phi)))


class TestKick:
    def test_delta_becomes_bessel_ladder(self):
        M = 33
        kicked = kick(delta0(M), 0.485)
        minus_i = np.array([1, -1j, -1, 1j])
        m = np.arange(-M, M + 1)
        expect = minus_i[np.mod(m, 4)] * _bessel_j_ladder(0.485, M)
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
        amps = delta0(8).amps.copy()
        amps[8] = np.nan
        with pytest.raises(LeakageError):
            kicked(amps, _kick_phases(default_n_points(8), 0.485))


def kick_edges(occupied: dict[tuple[int, int], float], period: int = 7):
    """One period of a (3, 17) stack at half width 8, each row delta_{m,0}
    plus occupied[(row, m)] put on site m of that row as its occupancy.

    The kick is the identity (phi = 0 gives exactly 1 on the grid), so the
    edge check reads the occupancies placed, to the transforms' rounding.
    """
    rows = np.zeros((3, 17), dtype=complex)
    rows[:, 8] = 1.0
    for (row, m), occ in occupied.items():
        rows[row, 8 + m] = np.sqrt(occ)
    kicked(rows, _kick_phases(_propagation_points(8, 0.485), 0.0), period)


class TestKickEdgeRule:
    """_kick refuses a period when |psi(+M)|^2 + |psi(-M)|^2 of any row of
    the stack passes EDGE_LEAK_BOUND, or is NaN; no site inside the edges
    counts."""

    ABOVE = 1.01 * EDGE_LEAK_BOUND

    @pytest.mark.parametrize("edge", [8, -8], ids=["plus_M", "minus_M"])
    def test_one_edge_of_the_last_row_is_refused(self, edge):
        with pytest.raises(LeakageError) as err:
            kick_edges({(2, edge): self.ABOVE}, period=7)
        assert err.value.occupancy == pytest.approx(self.ABOVE, rel=1e-6)
        assert err.value.period == 7

    def test_both_edges_of_one_row_add_up(self):
        below = 0.6 * EDGE_LEAK_BOUND
        kick_edges({(1, 8): below})
        kick_edges({(1, -8): below})
        with pytest.raises(LeakageError) as err:
            kick_edges({(1, 8): below, (1, -8): below}, period=3)
        assert err.value.occupancy == pytest.approx(2 * below, rel=1e-6)
        assert err.value.period == 3

    def test_sites_inside_the_edge_do_not_count(self):
        kick_edges({(row, m): self.ABOVE for row in range(3) for m in (7, -7)})

    def test_nan_at_an_edge_is_refused(self):
        with pytest.raises(LeakageError) as err:
            kick_edges({(1, -8): np.nan}, period=5)
        assert math.isnan(err.value.occupancy)
        assert err.value.period == 5


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
        with pytest.raises(LeakageError, match="enlarge half_width") as err:
            propagate(20, 0.485, FreePhaseSpec.revival_relative(1, 0.0),
                      half_width=8)
        assert 1 <= err.value.period <= 20

    @pytest.mark.parametrize("kicks", [200, 300, 1000, 2000])
    def test_long_orbit_default_ladder_holds_closed_form(self, kicks):
        # the default ladder itself carries the Bessel tail
        spec = FreePhaseSpec.revival_relative(1, 0.0)
        cfg = SimConfig(kicks=kicks)
        for state in (propagate(kicks, 0.485, spec), evolve(cfg)):
            assert state.half_width == cfg.half_width
            expect = resonant_state(kicks, 0.485, state.half_width)
            assert np.max(np.abs(state.amps - expect.amps)) < CLOSED_FORM_TOL

    @pytest.mark.parametrize("cfg", [
        SimConfig(kicks=400, epsilon=1.1e-6),
        SimConfig(kicks=60, epsilon=-2e-4, half_width=70),
        SimConfig(kicks=50, epsilon=3e-4, n_points=4096),
    ], ids=["auto-sized", "explicit-half-width", "explicit-n-points"])
    def test_evolve_is_propagate_on_the_same_ladder(self, cfg):
        spec = FreePhaseSpec.revival_relative(cfg.l, cfg.epsilon)
        with mock.patch.object(propagator, "_kick_phases", wraps=_kick_phases) as phases:
            state = evolve(cfg)
        expect = propagate(cfg.kicks, cfg.phi_d, spec, cfg.half_width)
        assert np.array_equal(state.amps, expect.amps)
        assert state.half_width == cfg.half_width
        # the core kicks on its own lengths only, never on cfg.n_points:
        # one per stage of the config's ladder
        grids = [call.args[0] for call in phases.call_args_list]
        assert grids == [_propagation_points(M_s, cfg.phi_d)
                         for _, M_s in _stages(cfg.kicks, cfg.phi_d, cfg.half_width)]

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


#: the edge occupancy every drawn run on its default ladder stays under,
#: far inside the 1e-14 leakage bound
DEFAULT_LADDER_EDGE = 1e-20


@st.composite
def default_ladder_runs(draw):
    """A run on its default ladder: N in 1..300, phi_d in [0.05, 7], and
    its free flight, a block of up to four revival-relative detunings with
    |epsilon| <= RANGE_CAP (l in {1, 2}) or, in about one case in three, a
    general-mode hbar_s in [0, 50]."""
    kicks = draw(st.integers(1, 300))
    phi_d = draw(st.floats(0.05, 7.0))
    if draw(st.integers(0, 2)) == 0:
        return kicks, phi_d, FreePhaseSpec.general(draw(st.floats(0.0, 50.0))).phases
    l = draw(st.sampled_from([1, 2]))
    eps = draw(st.lists(st.floats(-RANGE_CAP, RANGE_CAP), min_size=1, max_size=4))
    return kicks, phi_d, functools.partial(_revival_phases, l, eps)


class TestDefaultLadder:
    """The default ladder holds every run it sizes: the core never
    retries on a wider one, so a leak on it would be a refusal."""

    @settings(max_examples=40, derandomize=True)
    @given(default_ladder_runs())
    def test_drawn_runs_never_reach_the_edge(self, run):
        kicks, phi_d, phases = run
        amps = _run(kicks, phi_d, phases)
        M = default_half_width(kicks, phi_d)
        assert amps.shape[1] == 2 * M + 1
        edge = np.abs(amps[:, 0]) ** 2 + np.abs(amps[:, -1]) ** 2
        assert edge.max() <= DEFAULT_LADDER_EDGE


def kick_matrix_reference(phi: float, M: int) -> np.ndarray:
    """The elementwise kick matrix: every entry from its own wrapped order."""
    row = _bessel_j_ladder(abs(phi), M)[M:]
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


def even_route_reference(config: SimConfig, free: FreePhaseSpec) -> np.ndarray:
    """evolve_dense's even route with E gathered from the whole kick
    column, its orders past one kick's reach, D < |d| <= M, at their true
    values (scipy) where the Bessel rows hold exact zeros."""
    M = config.half_width
    m = np.arange(M + 1)
    c = _kick_column(config.phi_d, M)
    d = np.arange(_kick_reach(config.phi_d) + 1, M + 1)
    tail = MINUS_I_POW[d % 4] * special.jv(d, config.phi_d)
    c[d] = tail
    c[len(c) - d] = tail
    E = c[np.subtract.outer(m, m) % len(c)]
    E[:, 1:] += c[np.add.outer(m, m[1:]) % len(c)]
    factors = free.factors(m)
    half = np.zeros(M + 1, dtype=complex)
    half[0] = 1.0
    for _ in range(config.kicks):
        half = factors * (E @ half)
    return np.concatenate([half[:0:-1], half])


#: (phi, widest half width that warns, narrowest that does not)
WARNING_BOUNDARIES = [(40.0, 60, 61), (0.485, 5, 6), (-1.7, 9, 10)]

#: the agreement of evolve and evolve_dense, a package contract
ROUTE_TOL = 1e-9


@st.composite
def route_cases(draw):
    """A run for both evolution routes: phi_d in [0.05, 6], l in {1, 2},
    N < 400 with a default ladder of at most DENSE_HALF_WIDTH_CAP sites a
    side (the dense route's cap), |epsilon| <= 1.5/N**2 and below
    1e-2, and its free flight: in about one case in five a general-mode
    spec at the same detuning, hbar_s = 4 pi l (1 + epsilon), else the
    revival-relative one."""
    phi_d = draw(st.floats(0.05, 6.0))
    most = max(n for n in range(1, 400)
               if default_half_width(n, phi_d) <= DENSE_HALF_WIDTH_CAP)
    kicks = draw(st.integers(1, most))
    l = draw(st.sampled_from([1, 2]))
    reach = min(1.5 / kicks**2, 0.99 * 1e-2)
    eps = draw(st.floats(-1.0, 1.0)) * reach
    general = draw(st.integers(0, 4)) == 0
    free = (FreePhaseSpec.general(4 * math.pi * l * (1 + eps)) if general
            else FreePhaseSpec.revival_relative(l, eps))
    return SimConfig(phi_d=phi_d, epsilon=eps, l=l, kicks=kicks), free


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
        kicked = kick(delta0(M), 0.485)
        assert np.max(np.abs(U[:, M] - kicked.amps)) < 1e-12

    def test_warns_when_ladder_cannot_hold_strength(self):
        with pytest.warns(RuntimeWarning):
            kick_matrix(40.0, 41)

    def test_agrees_with_spectral_evolution(self):
        cfg = SimConfig(kicks=10, epsilon=1e-6, half_width=64)
        a = evolve(cfg)
        b = evolve_dense(cfg)
        assert np.max(np.abs(a.amps - b.amps)) < 1e-12

    def test_size_cap(self):
        with pytest.raises(ValueError):
            evolve_dense(SimConfig(kicks=1, half_width=513))

    @settings(max_examples=40, derandomize=True)
    @given(route_cases())
    def test_drawn_runs_agree_with_spectral_evolution(self, case):
        cfg, free = case
        state = propagate(cfg.kicks, cfg.phi_d, free, cfg.half_width)
        dense = evolve_dense(cfg, free)
        assert state.half_width == dense.half_width == cfg.half_width
        assert np.max(np.abs(state.amps - dense.amps)) <= ROUTE_TOL

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
        ladder = _bessel_j_ladder(0.485, 5)
        ladder[5 + 3] = math.nan  # J_3
        monkeypatch.setattr(propagator, "_bessel_j_ladder", lambda x, M: ladder)
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

    @pytest.mark.parametrize("eps", [1.1e-6, -1.1e-6])
    def test_band_leaves_the_long_run_bit_identical(self, eps):
        # the orders past one kick's reach, exact zeros in evolve_dense and
        # below 5.7e-58 at their true values at phi_d = 0.485, change no bit
        # of the N = 400, M = 452 run
        cfg = SimConfig(kicks=400, epsilon=eps, half_width=452)
        ref = even_route_reference(cfg, FreePhaseSpec.revival_relative(1, eps))
        assert np.array_equal(evolve_dense(cfg).amps, ref)

    @pytest.mark.parametrize("phi, M", [(0.485, 60), (5e-5, 60), (40.0, 150)])
    def test_kick_column_is_zero_past_one_kicks_reach(self, phi, M):
        # the Bessel rows end at one kick's reach D, so the column holds
        # exact zeros at the orders D < |d| <= M, stored at D+1..L-D-1, and
        # the order D on both signs is kept
        c = _kick_column(phi, M)
        D = _kick_reach(phi)
        assert not np.any(c[D + 1:len(c) - D])
        assert c[D] != 0 and c[len(c) - D] != 0

    def test_band_cut_at_a_strong_kick_is_the_elementwise_loop(self):
        # at phi_d = 40 the kick column ends at order 76, |J_77(40)| = 5.1e-16
        cfg = SimConfig(kicks=3, phi_d=40.0, half_width=150)
        D = _kick_reach(cfg.phi_d)
        assert abs(special.jv(D + 1, cfg.phi_d)) < 7e-16
        out = evolve_dense(cfg)
        ref = dense_loop_reference(cfg, FreePhaseSpec.revival_relative(1, 0.0))
        assert np.max(np.abs(out.amps - ref)) <= 1e-13


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
        # driven kicks run in nine stages on 180 to 1152 points and the one
        # pulse of N*phi_d = 485 on 1728, each the length that kicks by its
        # own phi exactly
        with mock.patch.object(propagator, "_kick_phases", wraps=_kick_phases) as phases:
            f = fidelity_protocol(1000, 0.485, 0.0)
        assert abs(f - 1.0) <= 1e-12
        assert default_half_width(1000, 0.485) == 555
        grids = [call.args for call in phases.call_args_list]
        driven = (180, 225, 288, 360, 450, 576, 720, 900, 1152)
        assert grids == [(n, 0.485) for n in driven] + [(1728, 1000 * 0.485)]
        assert grids[-2:] == [(_propagation_points(555, phi), phi)
                              for phi in (0.485, 1000 * 0.485)]


@st.composite
def mirror_cases(draw):
    """(N, phi_d, l, epsilon >= 0) within a sweep's reach, |epsilon| <=
    min(RANGE_CAP, 4/N^2)."""
    kicks = draw(st.integers(1, 120))
    eps = draw(st.floats(0.0, min(RANGE_CAP, 4.0 / kicks**2)))
    return kicks, draw(st.floats(0.05, 3.0)), draw(st.sampled_from([1, 2])), eps


class TestDetuningMirror:
    """At beta = 0 the period map obeys conj(U_eps) = S U_{-eps} S with
    S = diag((-1)^m): the conjugate kick is the kick shifted by pi, the free
    phase 2 pi l eps m^2 flips sign and commutes with S, and delta_0 is
    S-even. So psi_m(-eps) = (-1)^m conj psi_m(eps) and the echo is even in
    eps, which lets a sweep read each +- pair once (scanner._Sweep)."""

    KICKS = [1, 5, 12, 40]

    @staticmethod
    def detunings(kicks: int) -> np.ndarray:
        # past the profile tails: auto_range brackets N = 5, 12 and 40 at
        # 0.032, 0.011 and 0.001, and N = 1 not within the cap
        return np.linspace(0.0, min(RANGE_CAP, 4.0 / kicks**2), 17)[1:]

    @pytest.mark.parametrize("kicks", KICKS)
    def test_mirror_state_is_the_conjugate_shifted_by_pi(self, kicks):
        for eps in self.detunings(kicks):
            plus, minus = (propagate(kicks, 0.485, FreePhaseSpec.revival_relative(1, e))
                           for e in (eps, -eps))
            assert minus.half_width == plus.half_width
            m = np.arange(-plus.half_width, plus.half_width + 1)
            shifted = np.where(m % 2, -1.0, 1.0) * np.conj(plus.amps)
            assert np.max(np.abs(minus.amps - shifted)) <= 1e-14, eps

    @pytest.mark.parametrize("kicks", KICKS)
    def test_echo_is_even(self, kicks):
        for eps in self.detunings(kicks):
            assert abs(fidelity_protocol(kicks, 0.485, -eps)
                       - fidelity_protocol(kicks, 0.485, eps)) <= 1e-13, eps

    @settings(max_examples=40, derandomize=True)
    @given(mirror_cases())
    def test_drawn_detunings_mirror(self, case):
        kicks, phi_d, l, eps = case
        plus, minus = (propagate(kicks, phi_d, FreePhaseSpec.revival_relative(l, e))
                       for e in (eps, -eps))
        assert minus.half_width == plus.half_width
        m = np.arange(-plus.half_width, plus.half_width + 1)
        shifted = np.where(m % 2, -1.0, 1.0) * np.conj(plus.amps)
        assert np.max(np.abs(minus.amps - shifted)) <= 1e-12, eps
        assert abs(fidelity_protocol(kicks, phi_d, -eps, l)
                   - fidelity_protocol(kicks, phi_d, eps, l)) <= 1e-12, eps


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
        cfg = SimConfig(kicks=5)
        with pytest.raises(ValueError):
            propagate(cfg.kicks, cfg.phi_d, FreePhaseSpec.general(bad), cfg.half_width)

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
    EPS = (0.0, 1e-4, -3e-3, 2e-2)
    FREES = [FreePhaseSpec.revival_relative(1, e) for e in EPS]
    #: the block's phase table, as a sweep hands it to the core
    BLOCK = functools.partial(_revival_phases, 1, EPS)

    def test_one_row_is_propagate(self):
        for free in self.FREES:
            amps = _run(7, 0.485, free.phases)
            state = propagate(7, 0.485, free)
            assert amps.shape == (1, 2 * state.half_width + 1)
            assert np.array_equal(amps[0], state.amps)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_block_table_is_its_rows_factors(self, l):
        # signed zeros, the smallest subnormal and the sweep range cap
        eps = [0.0, -0.0, 5e-324, -5e-324, RANGE_CAP, -RANGE_CAP, 1e-4, -3e-3]
        m = np.arange(-40, 41)
        table = _revival_phases(l, eps, m)
        rows = [FreePhaseSpec.revival_relative(l, e).factors(m) for e in eps]
        assert table.shape == (len(eps), len(m))
        assert np.array_equal(np.exp(-1j * table), np.array(rows))

    def test_rows_match_their_own_runs(self):
        amps = _run(9, 0.485, self.BLOCK)
        M = (amps.shape[1] - 1) // 2
        for free, row in zip(self.FREES, amps):
            assert np.array_equal(row, _run(9, 0.485, free.phases, half_width=M)[0])

    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("kicks", [0, 1, 7])
    def test_every_period_is_one_kick_call(self, kicks, rows):
        # tests/test_fail_closed.py counts _kick calls to show a refusal
        # came before the first period, so every period must run through it
        with mock.patch.object(propagator, "_kick", wraps=_kick) as step:
            amps = _run(kicks, 0.485, functools.partial(_revival_phases, 1,
                                                         self.EPS[:rows]))
        assert amps.shape[0] == rows
        assert [call.args[4] for call in step.call_args_list] == list(range(1, kicks + 1))

    def test_echo_pulse_is_one_more_kick_call(self):
        with mock.patch.object(propagator, "_kick", wraps=_kick) as step:
            fidelity_protocol(5, 0.485, 1e-3)
        assert step.call_count == 5 + 1

    def test_leaking_stack_is_refused_as_a_whole(self):
        # the stack leaks where its first row does, on the one ladder it
        # was given: no wider ladder is tried
        with pytest.raises(LeakageError) as stacked:
            _run(20, 0.485, self.BLOCK, half_width=8)
        with pytest.raises(LeakageError) as alone:
            _run(20, 0.485, self.FREES[0].phases, half_width=8)
        assert 1 <= stacked.value.period <= alone.value.period

    @pytest.mark.parametrize("kicks", [5, 12, 40])
    def test_echo_of_a_raw_stack_is_fidelity_protocol(self, kicks):
        # each row of the core's stack is contiguous, so np.vdot sums it in
        # the order it sums the one-row run of fidelity_protocol
        eps = np.linspace(-2.0, 2.0, 40) / kicks**2
        amps = _run(kicks, 0.485, functools.partial(_revival_phases, 1, eps))
        assert amps.flags.c_contiguous
        echoed = propagator._echo_fidelities(kicks, 0.485)(amps)
        for e, f in zip(eps, echoed):
            assert f == fidelity_protocol(kicks, 0.485, e), e

    @pytest.mark.parametrize("kicks", [1, 6, 40])
    def test_echo_overlap_equals_reversed_pulse(self, kicks):
        # <delta_0 | K(-a) psi> = <K(a) delta_0 | psi>: the explicit reversed
        # kick, on a ladder sized for its doubled reach, gives the same F
        M = default_half_width(2 * kicks, 0.485)
        amps = _run(kicks, 0.485, self.BLOCK, half_width=M)
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


def single_ladder(kicks: int, phi: float, phases, M: int) -> np.ndarray:
    """Every period on the final ladder M and its one grid: the spectral
    core before it ran in stages, kept as the reference for the stages."""
    kick = _kick_phases(_propagation_points(M, phi), phi)
    slots = _fft_slots(M, len(kick))
    free = np.atleast_2d(np.exp(-1j * phases(np.arange(-M, M + 1))))
    factors = np.zeros((len(free), len(kick)), dtype=complex)
    factors[:, slots] = free
    buf = np.zeros_like(factors)
    buf[:, 0] = 1.0
    for period in range(1, kicks + 1):
        _kick(buf, kick, factors, M, period)
    return buf[:, slots]


def kick_ladders(run) -> tuple[object, list[tuple[int, int]]]:
    """run()'s result and the (period, half width) of each _kick it made."""
    with mock.patch.object(propagator, "_kick", wraps=_kick) as step:
        out = run()
    return out, [(call.args[4], call.args[3]) for call in step.call_args_list]


#: revival detunings of the long-orbit checks, one block
LONG_EPS = (0.0, 1e-8, -1e-8, 3e-7)


#: (N, phi_d, M) of the stage-plan checks; M None is the default ladder
STAGE_CASES = [
    (300, 0.485, None), (1000, 0.485, None), (2000, 0.485, None),
    (2000, 0.485, 2116), (400, 0.485, 452), (300, 0.485, 120),
    (500, 2.3, None), (60, 40.0, None), (20, 0.485, 8), (7, 0.485, None),
    (1, 0.485, None), (0, 0.485, None),
]


class TestStages:
    """A long run kicks its early periods on the ladder their reach needs:
    period k on M - floor(phi_d (N - k)), in stages whose grids shrink by
    _STAGE_RATIO (1.25) or more from one stage to the next."""

    @pytest.mark.parametrize("kicks, phi, M", STAGE_CASES)
    def test_ladders_grow_to_the_final_one(self, kicks, phi, M):
        M = default_half_width(kicks, phi) if M is None else M
        stages = _stages(kicks, phi, M)
        assert stages[-1] == (kicks, M)
        lasts = [last for last, _ in stages]
        ladders = [ladder for _, ladder in stages]
        assert lasts == sorted(set(lasts)) and lasts[0] >= min(kicks, 1)
        assert ladders == sorted(ladders)
        grids = [_propagation_points(ladder, phi) for ladder in ladders]
        # each stage holds every period it runs, and its grid is at most
        # 1/_STAGE_RATIO of the next one's
        for last, ladder in stages:
            assert ladder >= min(M, default_half_width(last, phi))
            assert ladder >= M - math.floor(phi * (kicks - last))
        assert all(_STAGE_RATIO * a <= b for a, b in zip(grids, grids[1:]))

    @pytest.mark.parametrize("kicks, phi, M", STAGE_CASES)
    def test_stage_ends_are_maximal(self, kicks, phi, M):
        # a stage runs on the ladder of its last period, and it ends at the
        # last period whose grid is still 1/_STAGE_RATIO of the next
        # stage's: the period after it no longer is, so no stage ends early
        M = default_half_width(kicks, phi) if M is None else M

        def ladder(k):
            return max(M - math.floor(phi * (kicks - k)),
                       min(M, default_half_width(k, phi)))

        def shrunk(k, n):
            return _STAGE_RATIO * _propagation_points(ladder(k), phi) <= n

        stages = _stages(kicks, phi, M)
        for (last, ladder_s), (_, after) in zip(stages, stages[1:]):
            n_next = _propagation_points(after, phi)
            assert ladder_s == ladder(last)
            assert shrunk(last, n_next)
            assert not shrunk(last + 1, n_next)
        # nor could another stage open before the first one
        first, ladder_1 = stages[0]
        assert first <= 1 or not shrunk(1, _propagation_points(ladder_1, phi))

    def test_run_follows_the_schedule(self):
        amps, steps = kick_ladders(lambda: _run(2000, 0.485, np.zeros_like))
        assert [period for period, _ in steps] == list(range(1, 2001))
        expect, first = [], 1
        for last, ladder in _stages(2000, 0.485, 1058):
            expect += [ladder] * (last - first + 1)
            first = last + 1
        assert [ladder for _, ladder in steps] == expect
        assert sorted(set(expect)) == [111, 145, 199, 253, 320, 415, 523,
                                       658, 847, 1058]
        assert amps.shape == (1, 2 * 1058 + 1)

    @pytest.mark.parametrize("kicks, grids", [
        (300, [160, 200, 256, 324, 432]),
        (1000, [180, 225, 288, 360, 450, 576, 720, 900, 1152]),
        (2000, [256, 324, 432, 540, 675, 864, 1080, 1350, 1728, 2160]),
    ])
    def test_long_orbit_grids(self, kicks, grids):
        stages = _stages(kicks, 0.485, default_half_width(kicks, 0.485))
        assert [_propagation_points(ladder, 0.485) for _, ladder in stages] == grids

    def test_short_runs_are_one_stage(self):
        # the sweeps (N = 5..18) run on one ladder, as before the stages;
        # N = 24 is the first run in two, and qkr scan --kicks 40 and the
        # dense pair (M = 452, N = 400) are staged
        for kicks in range(0, 24):
            M = default_half_width(kicks, 0.485)
            assert _stages(kicks, 0.485, M) == [(kicks, M)]
        assert _stages(24, 0.485, 44) == [(1, 33), (24, 44)]
        assert _stages(40, 0.485, 52) == [(9, 37), (40, 52)]
        assert [default_half_width(kicks, 0.485) for kicks in (24, 40)] == [44, 52]
        assert _stages(400, 0.485, 452) == [(51, 283), (224, 367), (400, 452)]
        assert len(_stages(400, 0.485, default_half_width(400, 0.485))) == 6

    @pytest.mark.parametrize("kicks", [5, 18, 23])
    def test_one_stage_rows_are_the_single_ladder_rows(self, kicks):
        block = functools.partial(_revival_phases, 1, (0.0, 1e-4, -3e-3))
        M = default_half_width(kicks, 0.485)
        assert np.array_equal(_run(kicks, 0.485, block),
                              single_ladder(kicks, 0.485, block, M))

    @pytest.mark.parametrize("kicks", [40, 96, 300, 1000, 2000])
    def test_staged_rows_match_the_single_ladder(self, kicks):
        M = default_half_width(kicks, 0.485)
        assert len(_stages(kicks, 0.485, M)) > 1
        block = functools.partial(_revival_phases, 1, LONG_EPS)
        general = FreePhaseSpec.general(4 * math.pi * (1 + 1e-4)).phases
        for phases in (block, general):
            staged = _run(kicks, 0.485, phases)
            assert staged.shape[1] == 2 * M + 1
            ref = single_ladder(kicks, 0.485, phases, M)
            assert np.max(np.abs(staged - ref)) <= 1e-13
            norms = np.sum(np.abs(staged) ** 2, axis=1)
            assert np.max(np.abs(norms - 1.0)) <= 1e-12
            if phases is block:
                # row 0 is at epsilon = 0, where the closed form holds
                closed = resonant_state(kicks, 0.485, M).amps
                assert np.max(np.abs(staged[0] - closed)) <= 1e-12

    def test_early_stage_leak_is_refused_at_its_period(self):
        # narrow every stage but the last by 40 sites: the first stage of
        # N = 300 (M = 63 at period 31) then leaks, and the run is refused
        # there, on the one final ladder it was sized with
        def narrowed(kicks, phi, M):
            stages = _stages(kicks, phi, M)
            return [(last, ladder - 40) for last, ladder in stages[:-1]] + stages[-1:]

        block = functools.partial(_revival_phases, 1, LONG_EPS)
        with mock.patch.object(propagator, "_stages", side_effect=narrowed) as plan:
            with mock.patch.object(propagator, "_kick", wraps=_kick) as step:
                with pytest.raises(LeakageError) as err:
                    _run(300, 0.485, block)
        assert [call.args for call in plan.call_args_list] == [(300, 0.485, 193)]
        assert err.value.period <= 31
        steps = [(call.args[4], call.args[3]) for call in step.call_args_list]
        assert steps == [(period, 23) for period in range(1, err.value.period + 1)]
