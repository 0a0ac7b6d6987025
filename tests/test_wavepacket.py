import bisect
import math
import sys
from fractions import Fraction

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
    to_position,
)
from kickedrotor.analytics import correction_term
from kickedrotor.wavepacket import (_bessel_reach, _check_grid, _kick_reach,
                                    _propagation_points)

TWO_PI = 2 * math.pi
#: every 2^a 3^b 5^c up to 2^15, sorted
FIVE_SMOOTH = sorted(
    2**a * 3**b * 5**c
    for a in range(16) for b in range(10) for c in range(7)
    if 2**a * 3**b * 5**c <= 1 << 15
)
#: the bound past one kick's reach, as an exact fraction of its float
REACH_BOUND = Fraction(7e-16)


def airy_reach(a: float) -> int:
    """ceil(a) plus 13.2 Airy widths (a/2)**(1/3), and at least 32."""
    return math.ceil(a) + max(32, math.ceil(13.2 * (a / 2) ** (1 / 3)))


def taylor_bound(a: float, d: int) -> Fraction:
    """(a/2)**d / d! in exact arithmetic: |J_d(a)| <= it (DLMF 10.14.4)."""
    return (Fraction(a) / 2) ** d / math.factorial(d)


def exact_reach(a: float) -> int:
    """The smaller of the Airy reach and the last order whose Taylor bound
    is still >= 7e-16, the bound walked in exact arithmetic."""
    airy, d, bound = airy_reach(a), 0, Fraction(1)
    while d < airy and bound * Fraction(a) / (2 * (d + 1)) >= REACH_BOUND:
        bound *= Fraction(a) / (2 * (d + 1))
        d += 1
    return d


def delta0(half_width: int) -> MomentumWavefunction:
    """The m = 0 ladder state, psi(m) = delta_{m,0}."""
    amps = np.zeros(2 * half_width + 1, dtype=complex)
    amps[half_width] = 1.0
    return MomentumWavefunction(half_width, amps)


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
        # the ladder plus the reach of one kick, whatever its sign: the
        # Taylor reach below |phi| = 21.97, the Airy reach past 23.29; that is
        # the one-kick ladder default_half_width(1, |phi|) up to |phi| =
        # 28.5, two Airy widths (|phi|/2)**(1/3) more than its margin beyond
        for phi in (1e-5, 0.485, -2.3, 28.0, 50.0, 970.0):
            a = abs(phi)
            reach = exact_reach(a)
            assert (airy_reach(a) == default_half_width(1, a)) == (a <= 28.5)
            assert (reach < airy_reach(a)) == (a < 21.97)
            for M in range(1, 4097):
                target = 2 * M + 1 + reach
                n = _propagation_points(M, phi)
                assert n == FIVE_SMOOTH[bisect.bisect_left(FIVE_SMOOTH, target)]
                # at most 1.11x from 22 on; 8/7, 15/13 and 24/21 at the
                # targets 7, 13 and 21
                assert target <= n
                assert n <= 1.11 * target or (target < 22 and 13 * n <= 15 * target)
                assert n == _propagation_points(M, -phi)

    def test_propagation_points_of_the_benchmark_orbits(self):
        # N = 300, 1000, 2000 at phi_d = 0.485 kick on about half the
        # density's Nyquist length 4(M+1) (800, 2250, 4320)
        ladders = [default_half_width(N, 0.485) for N in (300, 1000, 2000)]
        assert ladders == [193, 555, 1058]
        assert [_propagation_points(M, 0.485) for M in ladders] == [400, 1125, 2160]
        # and the sweeps' N = 5, 12, 18 on their ladders plus the reach 11
        ladders = [default_half_width(N, 0.485) for N in (5, 12, 18)]
        assert [_propagation_points(M, 0.485) for M in ladders] == [90, 90, 96]

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

    def test_explicit_sizes_kept(self):
        cfg = SimConfig(kicks=2, half_width=64, n_points=512)
        assert (cfg.half_width, cfg.n_points) == (64, 512)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"phi_d": 0.0},
            {"phi_d": -0.5},
            {"epsilon": math.nan},
            {"epsilon": math.inf},
            {"epsilon": -math.inf},
            {"l": 0},
            {"l": 1.5},
            {"kicks": -1},
            {"half_width": 0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("epsilon", [1e-2, -0.02, 0.5])
    def test_any_finite_detuning_accepted(self, epsilon):
        # the propagation is exact at any detuning; only the first-order
        # route is bounded, by its strength K
        assert SimConfig(kicks=5, epsilon=epsilon).epsilon == epsilon

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

    @pytest.mark.parametrize("site", ["SimConfig", "to_position", "correction_term"])
    def test_every_site_refuses_with_the_one_message(self, site):
        grid = SpatialGrid(129)
        calls = {
            "SimConfig": lambda: SimConfig(kicks=0, half_width=32, n_points=129),
            "to_position": lambda: to_position(delta0(32), grid),
            "correction_term": lambda: correction_term(1, 0.485, 1e-6, grid, 32),
        }
        with pytest.raises(GridTooSmallError) as err:
            calls[site]()
        assert str(err.value) == (
            "n_points=129 cannot resolve a ladder of half width 32; "
            "need at least 130"
        )


class TestStates:
    def test_amps_are_frozen(self):
        wf = delta0(3)
        with pytest.raises(ValueError):
            wf.amps[0] = 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MomentumWavefunction(3, np.zeros(5, dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     complex(0.0, math.nan)])
    def test_non_finite_states_refused(self, bad):
        # refused when built, so no transform ever sees the value (an inf
        # amplitude would warn inside _synthesize, which the suite's
        # RuntimeWarning filter turns into an error)
        amps = np.zeros(9, dtype=complex)
        amps[4] = bad
        with pytest.raises(ValueError, match="amps must be finite"):
            MomentumWavefunction(4, amps)
        values = np.full(32, 1.0 / math.sqrt(2 * math.pi), dtype=complex)
        values[7] = bad
        with pytest.raises(ValueError, match="values must be finite"):
            PositionWavefunction(SpatialGrid(32), values)


class TestTransforms:
    def test_delta_maps_to_flat_wave(self):
        wf = delta0(4)
        pwf = to_position(wf, SpatialGrid(32))
        assert np.allclose(pwf.values, 1 / math.sqrt(TWO_PI), atol=1e-14)
        norm_sq = pwf.grid.spacing * np.sum(np.abs(pwf.values) ** 2)
        assert norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_nyquist_guard_both_directions(self):
        # refused one point below the margin 2(2M+1) = 34, taken at it
        wf = delta0(8)
        with pytest.raises(GridTooSmallError):
            to_position(wf, SpatialGrid(33))
        assert to_position(wf, SpatialGrid(34)).grid.n_points == 34

    @given(momentum_states())
    def test_synthesis_is_the_defining_sum(self, wf):
        # Psi(X_j) = (2 pi)**-0.5 sum_m psi(m) exp(i m X_j), summed as an
        # explicit (n, 2M+1) matrix rather than a transform
        grid = SpatialGrid(default_n_points(wf.half_width))
        synthesis = np.exp(1j * np.outer(grid.nodes, wf.m_values)) / math.sqrt(TWO_PI)
        assert np.max(np.abs(to_position(wf, grid).values - synthesis @ wf.amps)) < 1e-12

    @given(momentum_states())
    def test_norm_preserved(self, wf):
        grid = SpatialGrid(default_n_points(wf.half_width))
        pwf = to_position(wf, grid)
        norm_sq = pwf.grid.spacing * np.sum(np.abs(pwf.values) ** 2)
        assert norm_sq == pytest.approx(wf.norm_sq(), abs=1e-12)

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


class TestKickReach:
    """_kick_reach(phi) is the smaller of the Airy reach and the Taylor
    reach, and past it every |J_d(phi)| is below 7e-16."""

    @staticmethod
    def check(a: float) -> None:
        reach = _kick_reach(a)
        assert reach == _kick_reach(-a) == exact_reach(a)
        d = np.arange(reach + 1, reach + 61)
        assert np.max(np.abs(special.jv(d, a))) < 7e-16
        if reach < airy_reach(a):
            # the Taylor branch decides, and its reach is tight
            assert taylor_bound(a, reach) >= REACH_BOUND
            assert taylor_bound(a, reach + 1) < REACH_BOUND
        # the Taylor reach is the smaller for every a below 21.97 and for
        # none above 23.29, so from 30 on the reach is the Airy one
        if a < 21.97:
            assert reach < airy_reach(a)
        if a > 23.29:
            assert reach == _bessel_reach(a, 13.2)

    def test_bessel_tail_on_a_grid(self):
        for a in np.linspace(0.0, 60.0, 601):
            self.check(float(a))

    @given(st.floats(0.0, 60.0))
    def test_bessel_tail_of_drawn_kicks(self, a):
        self.check(a)

    @pytest.mark.parametrize("a, reach", [(0.0, 0), (5e-324, 0), (1e-5, 2),
                                          (1e-3, 4), (0.1, 8), (0.485, 11),
                                          (20.0, 50), (30.0, 63)])
    def test_known_reaches(self, a, reach):
        assert _kick_reach(a) == reach

    @pytest.mark.parametrize("a", [30.0, 100.0, 970.0, 5000.0])
    def test_large_kicks_skip_the_search(self, a):
        # one lgamma decides, so the Taylor walk (about 1,000 steps at
        # a = 970 if run to the Airy reach) never starts
        lines = []

        def trace(frame, event, arg):
            if frame.f_code is _kick_reach.__code__:
                lines.append(frame.f_lineno)
                return trace
            return None

        sys.settrace(trace)
        try:
            reach = _kick_reach(a)
        finally:
            sys.settrace(None)
        assert reach == _bessel_reach(a, 13.2)
        assert len(lines) < 10
