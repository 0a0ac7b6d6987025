import bisect
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special

from kickedrotor import (
    GridTooSmallError,
    MomentumWavefunction,
    PositionWavefunction,
    SimConfig,
    SpatialGrid,
    default_half_width,
    default_n_points,
    init_momentum_eigenstate,
    to_momentum,
    to_position,
)
from kickedrotor.analytics import correction_term
from kickedrotor.wavepacket import _check_grid, _propagation_points

TWO_PI = 2 * math.pi
#: every 2^a 3^b 5^c up to 2^15, sorted
FIVE_SMOOTH = sorted(
    2**a * 3**b * 5**c
    for a in range(16) for b in range(10) for c in range(7)
    if 2**a * 3**b * 5**c <= 1 << 15
)


@st.composite
def momentum_states(draw, max_m: int = 10, half_width: int | None = None):
    M = half_width if half_width is not None else draw(st.integers(1, max_m))
    size = 2 * M + 1
    finite = st.floats(-1, 1, allow_nan=False, allow_infinity=False)
    re = draw(arrays(float, size, elements=finite))
    im = draw(arrays(float, size, elements=finite))
    vec = re + 1j * im
    norm = np.linalg.norm(vec)
    assume(norm > 1e-3)
    return MomentumWavefunction(M, vec / norm)


@st.composite
def momentum_state_pairs(draw, max_m: int = 6):
    M = draw(st.integers(1, max_m))
    a = draw(momentum_states(half_width=M))
    b = draw(momentum_states(half_width=M))
    return a, b


class TestSizing:
    def test_half_width_margin(self):
        assert default_half_width(10, 0.485) == 37
        assert default_half_width(0, 0.485) == 32

    def test_margin_is_fixed_up_to_x_46(self):
        for phi_d in (0.1, 0.485, 1.0, 2.3):
            for kicks in range(int(46 / phi_d) + 1):
                expect = math.ceil(kicks * phi_d) + 32
                assert default_half_width(kicks, phi_d) == expect

    @pytest.mark.parametrize("kicks", [100, 300, 1000, 2000, 4000])
    def test_edge_amplitude_below_1e12_at_large_x(self, kicks):
        x = kicks * 0.485
        assert abs(special.jv(default_half_width(kicks, 0.485), x)) < 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_margin_refuses_unsizeable_reach(self, bad):
        with pytest.raises(ValueError):
            default_half_width(1, bad)

    def test_propagation_points_smallest_5_smooth(self):
        for M in range(1, 4097):
            n = _propagation_points(M)
            assert n == FIVE_SMOOTH[bisect.bisect_left(FIVE_SMOOTH, 4 * (M + 1))]
            assert 4 * (M + 1) <= n <= default_n_points(M)
            _check_grid(n, M)

    def test_n_points_power_of_two_and_fits(self):
        for M in (1, 5, 37, 64, 100):
            n = default_n_points(M)
            assert n & (n - 1) == 0
            _check_grid(n, M)

    def test_nyquist_margin_is_exactly_twice_the_ladder(self):
        _check_grid(2 * (2 * 7 + 1), 7)
        with pytest.raises(GridTooSmallError):
            _check_grid(2 * (2 * 7 + 1) - 1, 7)


class TestSpatialGrid:
    def test_nodes(self):
        g = SpatialGrid(8)
        assert g.nodes[0] == 0.0
        assert g.spacing == pytest.approx(TWO_PI / 8, abs=0)
        assert np.allclose(np.diff(g.nodes), g.spacing)
        assert g.nodes[-1] < TWO_PI

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            SpatialGrid(1)


class TestSimConfig:
    def test_defaults_resolve(self):
        cfg = SimConfig(kicks=10)
        assert cfg.phi_d == 0.485
        assert cfg.half_width == 37
        assert cfg.n_points == default_n_points(37)
        assert cfg.auto_sized

    def test_explicit_sizes_kept(self):
        cfg = SimConfig(kicks=2, half_width=64, n_points=512)
        assert (cfg.half_width, cfg.n_points) == (64, 512)
        assert not cfg.auto_sized

    def test_hbar_s_tracks_detuning(self):
        assert SimConfig().hbar_s == pytest.approx(4 * math.pi, abs=0)
        cfg = SimConfig(epsilon=1e-3, l=2)
        assert cfg.hbar_s == pytest.approx(8 * math.pi * (1 + 1e-3), rel=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"phi_d": 0.0},
            {"phi_d": -0.5},
            {"epsilon": 1e-2},
            {"epsilon": -0.5},
            {"l": 0},
            {"l": 1.5},
            {"kicks": -1},
            {"half_width": 0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_grid_too_small_for_ladder(self):
        with pytest.raises(GridTooSmallError):
            SimConfig(kicks=0, half_width=32, n_points=64)

    @pytest.mark.parametrize("n_points", [-4, 0, 1, 129])
    def test_grid_refusal_message(self, n_points):
        with pytest.raises(GridTooSmallError) as err:
            SimConfig(kicks=0, half_width=32, n_points=n_points)
        assert str(err.value) == (
            f"n_points={n_points} cannot resolve a ladder of half width 32; "
            "need at least 130"
        )
        assert SimConfig(kicks=0, half_width=32, n_points=130).n_points == 130

    @pytest.mark.parametrize("site", ["SimConfig", "to_position", "to_momentum",
                                      "correction_term"])
    def test_every_site_refuses_with_the_one_message(self, site):
        grid = SpatialGrid(129)
        calls = {
            "SimConfig": lambda: SimConfig(kicks=0, half_width=32, n_points=129),
            "to_position": lambda: to_position(init_momentum_eigenstate(32), grid),
            "to_momentum": lambda: to_momentum(
                PositionWavefunction(grid, np.zeros(129)), 32),
            "correction_term": lambda: correction_term(1, 0.485, 1e-6, grid, 32),
        }
        with pytest.raises(GridTooSmallError) as err:
            calls[site]()
        assert str(err.value) == (
            "n_points=129 cannot resolve a ladder of half width 32; "
            "need at least 130"
        )


class TestStates:
    def test_initial_state_is_delta(self):
        wf = init_momentum_eigenstate(6)
        assert wf.amps[6] == 1.0
        assert wf.norm_sq() == 1.0
        assert wf.edge_occupancy() == 0.0

    def test_amps_are_frozen(self):
        wf = init_momentum_eigenstate(3)
        with pytest.raises(ValueError):
            wf.amps[0] = 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MomentumWavefunction(3, np.zeros(5, dtype=complex))

    def test_overlap_requires_same_ladder(self):
        with pytest.raises(ValueError):
            init_momentum_eigenstate(3).overlap(init_momentum_eigenstate(4))


class TestTransforms:
    def test_delta_maps_to_flat_wave(self):
        wf = init_momentum_eigenstate(4)
        pwf = to_position(wf, SpatialGrid(32))
        assert np.allclose(pwf.values, 1 / math.sqrt(TWO_PI), atol=1e-14)
        assert pwf.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_nyquist_guard_both_directions(self):
        wf = init_momentum_eigenstate(8)
        with pytest.raises(GridTooSmallError):
            to_position(wf, SpatialGrid(16))
        pwf = to_position(init_momentum_eigenstate(2), SpatialGrid(16))
        with pytest.raises(GridTooSmallError):
            to_momentum(pwf, 8)

    @given(momentum_states())
    def test_round_trip_recovers_amplitudes(self, wf):
        grid = SpatialGrid(default_n_points(wf.half_width))
        back = to_momentum(to_position(wf, grid), wf.half_width)
        assert np.max(np.abs(back.amps - wf.amps)) < 1e-12

    @given(momentum_states())
    def test_norm_preserved(self, wf):
        grid = SpatialGrid(default_n_points(wf.half_width))
        pwf = to_position(wf, grid)
        assert pwf.norm_sq() == pytest.approx(wf.norm_sq(), abs=1e-12)

    @given(momentum_state_pairs())
    def test_linearity(self, pair):
        a, b = pair
        grid = SpatialGrid(default_n_points(a.half_width))
        mixed = MomentumWavefunction(
            a.half_width, 0.3 * a.amps + (0.2 - 0.7j) * b.amps
        )
        lhs = to_position(mixed, grid).values
        rhs = (
            0.3 * to_position(a, grid).values
            + (0.2 - 0.7j) * to_position(b, grid).values
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @given(momentum_states(max_m=6), st.integers(-40, 40))
    def test_ladder_phase_rolls_position_samples(self, wf, shift):
        # multiplying psi(m) by exp(-i m j dX) translates Psi by j grid steps
        grid = SpatialGrid(default_n_points(wf.half_width))
        dx = grid.spacing
        phased = MomentumWavefunction(
            wf.half_width, wf.amps * np.exp(-1j * wf.m_values * shift * dx)
        )
        rolled = np.roll(to_position(wf, grid).values, shift)
        assert np.max(np.abs(to_position(phased, grid).values - rolled)) < 1e-12

    def test_values_length_checked(self):
        with pytest.raises(ValueError):
            PositionWavefunction(SpatialGrid(8), np.zeros(9, dtype=complex))
