import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from kickedrotor import analytics
from kickedrotor import (
    CorrectionField,
    GridTooSmallError,
    PerturbativeDensity,
    SimConfig,
    SpatialGrid,
    TruncationError,
    correction_term,
    evolve,
    perturbative_density,
    position_density,
    resonant_state,
    to_position,
)
from kickedrotor.wavepacket import _kick_reach

TWO_PI = 2 * math.pi

# independently frozen reference values at the default kick strength
J0_0485 = 0.942052665520175
J1_0485 = 0.23543928467863354

#: J_m(x) for m = -M..M, the package's one Bessel ladder
bessel_j_ladder = analytics._bessel_j_ladder


def bessel_j_row(x: float, n_max: int) -> np.ndarray:
    """J_0(x) .. J_{n_max}(x): the ladder's orders from 0 up."""
    ladder = bessel_j_ladder(x, n_max)
    return ladder[len(ladder) // 2:]


def jn_series(n: int, x: float, terms: int = 30) -> float:
    """Truncated ascending series; exquisitely accurate for x <= 2."""
    total = 0.0
    for k in range(terms):
        total += (
            (-1.0) ** k
            * (x / 2.0) ** (n + 2 * k)
            / (math.factorial(k) * math.factorial(n + k))
        )
    return total


class TestBessel:
    @pytest.mark.parametrize("x", [0.1, 0.485, 1.0, 2.0])
    def test_row_matches_power_series(self, x):
        row = bessel_j_row(x, 12)
        for n in range(13):
            assert row[n] == pytest.approx(jn_series(n, x), abs=1e-13)

    def test_frozen_values_at_default_strength(self):
        row = bessel_j_row(0.485, 1)
        assert row[0] == pytest.approx(J0_0485, abs=1e-14)
        assert row[1] == pytest.approx(J1_0485, abs=1e-14)

    @pytest.mark.parametrize(
        "x,n_max",
        [(0.5, 30), (5.0, 60), (30.0, 120), (120.0, 300), (1000.0, 1200)],
    )
    def test_row_matches_scipy_across_domain(self, x, n_max):
        row = bessel_j_row(x, n_max)
        ref = special.jv(np.arange(n_max + 1), x)
        assert np.max(np.abs(row - ref)) < 1e-12

    def test_extreme_order_stays_finite(self):
        # x = 1e-4, the smallest argument of the recurrence, grows the most
        # from its seed: 7.5e148 at order 0, with no rescale
        for x in (1e-4, 1.0, 1000.0):
            row = bessel_j_row(x, 10_000)
            assert np.all(np.isfinite(row)), x
            assert np.max(np.abs(row)) <= 1.0, x
            ref = special.jv(np.arange(10_001), x)
            assert np.max(np.abs(row - ref)) <= 1e-12, x

    def test_zero_argument(self):
        row = bessel_j_row(0.0, 5)
        assert row[0] == 1.0
        assert np.all(row[1:] == 0.0)

    @given(st.floats(0.0, 50.0, allow_nan=False))
    def test_squares_sum_to_one(self, x):
        # sum over all integer orders of J_d(x)^2 is 1, an identity
        # independent of the even-order normalization used internally
        row = bessel_j_row(x, int(math.ceil(x)) + 60)
        total = row[0] ** 2 + 2.0 * np.sum(row[1:] ** 2)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_negative_order_parity(self):
        # J_{-d} = (-1)^d J_d: index M + d of the ladder holds order d
        M = 6
        lad = bessel_j_ladder(0.485, M)
        assert lad[M - 3] == -lad[M + 3]
        assert lad[M - 4] == lad[M + 4]

    def test_ladder_is_signed_two_sided(self):
        M = 6
        lad = bessel_j_ladder(0.485, M)
        row = bessel_j_row(0.485, M)
        assert len(lad) == 2 * M + 1
        for d in range(-M, M + 1):
            expect = row[abs(d)] * (-1.0 if (d < 0 and d % 2) else 1.0)
            assert lad[d + M] == expect

    @pytest.mark.parametrize(
        "x,n_max", [(-0.1, 5), (1000.5, 5), (1.0, -1), (1.0, 10_001)]
    )
    def test_domain_guard(self, x, n_max):
        with pytest.raises(ValueError):
            bessel_j_row(x, n_max)


#: arguments across both branches of the ladder: the ascending series
#: below 1e-4 (zero and subnormals included), small x, whose values grow
#: the most down the recurrence, the default strength and its multiples,
#: and x past every n_max below, whose rows are cut at n_max
STEPPED_X = [0.0, 5e-324, 1e-300, 3e-9, 3e-5, 9.99e-5, 1e-4, 1.3e-4, 1e-3,
             0.01, 0.1, 0.485, 0.97, 2.0, 13.7, 97.0, 250.5, 999.0, 1000.0]


class TestSteppedRows:
    """_bessel_j_ladder is the one downward recurrence: checked against
    scipy over both branches and the whole argument domain."""

    @pytest.mark.parametrize("n_max", [0, 1, 2, 5, 40, 138, 300, 1200])
    def test_rows_match_scipy(self, n_max):
        # the reference independent of the recurrence
        table = np.array([bessel_j_row(x, n_max) for x in STEPPED_X])
        ref = special.jv(np.arange(n_max + 1), np.array(STEPPED_X)[:, None])
        assert np.max(np.abs(table - ref)) <= 1e-12

    @pytest.mark.parametrize("n_max", [0, 40, 452, 1200, 10_000])
    def test_rows_end_at_one_kicks_reach(self, n_max):
        # the recurrence starts at _kick_reach(x), and the series stops
        # there: every order above it is exactly zero
        for x in STEPPED_X:
            assert not np.any(bessel_j_row(x, n_max)[_kick_reach(x) + 1:]), x

    @given(st.floats(0.0, 1000.0), st.integers(0, 10_000))
    def test_drawn_ladder_matches_scipy(self, x, half_width):
        # anywhere in the domain, not only at the fixed points above
        lad = bessel_j_ladder(x, half_width)
        ref = special.jv(np.arange(-half_width, half_width + 1), x)
        assert np.max(np.abs(lad - ref)) <= 1e-12
        past = np.abs(np.arange(-half_width, half_width + 1)) > _kick_reach(x)
        assert not np.any(lad[past])

    @pytest.mark.parametrize(
        "xs,n_max", [([0.3, -0.1], 5), ([1000.5], 5), ([1.0, math.nan], 5),
                     ([1.0], -1), ([1.0], 10_001)]
    )
    def test_domain_guard(self, xs, n_max):
        # each argument on its own: the last of xs is refused, with the
        # in-range ones before it accepted at the same order
        *fine, bad = xs
        for x in fine:
            bessel_j_row(x, n_max)
        with pytest.raises(ValueError, match="out of range"):
            bessel_j_row(bad, n_max)


class TestResonantState:
    def test_norm_and_phases(self):
        st_ = resonant_state(10, 0.485, 40)
        assert st_.norm_sq() == pytest.approx(1.0, abs=1e-12)
        # amplitude at m=0 is real J_0, at m=+-1 purely imaginary
        assert st_.amps[40].imag == 0.0
        assert st_.amps[41].real == pytest.approx(0.0, abs=1e-15)

    def test_truncation_error_when_ladder_too_small(self):
        with pytest.raises(TruncationError):
            resonant_state(40, 0.485, 5)


NOT_AN_INTEGER = [2.5, math.nan, math.inf, -math.inf]
GRID = SpatialGrid(256)


class TestIntegerArguments:
    """Integer arguments of the closed forms are refused, never truncated."""

    CALLS = {
        "bessel_j_row.n_max": lambda v: bessel_j_row(0.485, v),
        "bessel_j_ladder.half_width": lambda v: bessel_j_ladder(0.485, v),
        "resonant_state.t": lambda v: resonant_state(v, 0.485, 40),
        "resonant_state.half_width": lambda v: resonant_state(3, 0.485, v),
        "correction_term.k": lambda v: correction_term(v, 0.485, 1e-6, GRID, 35),
        "correction_term.half_width":
            lambda v: correction_term(2, 0.485, 1e-6, GRID, v),
        "perturbative_density.kicks":
            lambda v: perturbative_density(v, 0.485, 1e-6, GRID, 35),
    }

    @pytest.mark.parametrize("bad", NOT_AN_INTEGER)
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_refused(self, call, bad):
        with pytest.raises(ValueError, match="must be an integer"):
            self.CALLS[call](bad)

    def test_integral_floats_accepted(self):
        assert resonant_state(3.0, 0.485, 40.0).half_width == 40
        assert np.array_equal(bessel_j_row(0.485, 2.0), bessel_j_row(0.485, 2))

    def test_correction_grid_rule_is_the_nyquist_rule(self):
        # 2(2M+1) = 142 points fit M = 35; one fewer does not
        correction_term(2, 0.485, 1e-6, SpatialGrid(142), 35)
        with pytest.raises(GridTooSmallError):
            correction_term(2, 0.485, 1e-6, SpatialGrid(141), 35)


def correction_loop(k, phi_d, epsilon, grid, half_width):
    """The correction field as the paper's Bessel sum, one reduction per gap
    d: S_d = sum_m (2 m d + d^2) J_{m+d} J_m, on scipy's values over a
    ladder 32 sites wider than half_width, each gap summed with math.fsum.
    The ladder half_width alone cuts the sum where the tail terms, up to
    about 1e4 in weight, still carry 1e-10 of the field at k phi_d = 97."""
    W = half_width + 32
    assert 2 * W < grid.n_points
    m = np.arange(-W, W + 1)
    J = special.jv(m, k * phi_d)
    coeff = np.zeros(grid.n_points, dtype=complex)
    for d in range(1, 2 * W + 1):
        s_d = math.fsum((2.0 * m[: 2 * W + 1 - d] * d + d * d)
                        * J[d:] * J[: 2 * W + 1 - d])
        coeff[d] = 2.0 * epsilon * 1j ** ((d + 1) % 4) * s_d
    return np.fft.fft(coeff).real


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.fixture
def no_bessel(monkeypatch):
    """Fail the test if any Bessel row or FFT is computed: the first-order
    route is one cosine, with no Bessel sum to refuse before or after."""
    def refuse(*args):
        raise AssertionError("Bessel or FFT work in the first-order route")

    monkeypatch.setattr(analytics, "_bessel_j_ladder", refuse)
    monkeypatch.setattr(np.fft, "fft", refuse)


class TestCorrectionField:
    @pytest.mark.parametrize("k", [1, 7, 40, 200])
    def test_matches_per_gap_reference(self, k):
        cfg = SimConfig(kicks=k)
        grid = cfg.grid()
        field = correction_term(k, 0.485, 1.1e-6, grid, cfg.half_width).values
        ref = correction_loop(k, 0.485, 1.1e-6, grid, cfg.half_width)
        assert np.max(np.abs(field - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("eps", NON_FINITE)
    def test_refuses_non_finite_epsilon(self, eps, no_bessel):
        with pytest.raises(ValueError, match="epsilon"):
            correction_term(2, 0.485, eps, SpatialGrid(256), 35)

    def test_is_one_cosine(self, no_bessel):
        # S_d = a delta_{d1}: the field is -2 l eps k phi_d cos X, with no
        # Bessel row and no FFT behind it
        grid = SpatialGrid(256)
        field = correction_term(7, 0.485, 1.1e-6, grid, 40).values
        expect = -2.0 * 1.1e-6 * 7 * 0.485 * np.cos(grid.nodes)
        assert np.max(np.abs(field - expect)) <= 1e-15 * np.max(np.abs(expect))

    @pytest.mark.parametrize("l", [2, 4])
    def test_revival_order_is_a_factor(self, l):
        # the flight phase 2 pi l eps m^2 scales the field by l, exactly
        # for a power of two
        grid = SpatialGrid(256)
        one = correction_term(7, 0.485, 1.1e-6, grid, 40).values
        assert np.array_equal(correction_term(7, 0.485, 1.1e-6, grid, 40, l=l).values,
                              l * one)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_guard_fails_closed(self, bad):
        grid = SpatialGrid(256)
        with pytest.raises(ValueError, match="integrates"):
            CorrectionField(grid, np.full(256, bad))

    # doubling is exact only while the field is a normal float; near
    # |eps| ~ 1e-304 its values turn subnormal, where doubling rounds
    @settings(max_examples=60)
    @given(st.integers(1, 60),
           st.floats(-1e-2, 1e-2).filter(lambda e: not 0 < abs(e) < 1e-290))
    def test_properties(self, k, eps):
        cfg = SimConfig(kicks=k)
        grid = cfg.grid()
        field = correction_term(k, 0.485, eps, grid, cfg.half_width).values
        assert np.all(np.isfinite(field))
        assert abs(float(np.mean(field)) * TWO_PI) < 1e-12
        doubled = correction_term(k, 0.485, 2.0 * eps, grid, cfg.half_width)
        assert np.array_equal(doubled.values, 2.0 * field)

    def test_zero_detuning_gives_zero_field(self):
        cfg = SimConfig(kicks=1)
        field = correction_term(1, 0.485, 0.0, cfg.grid(), cfg.half_width)
        assert np.count_nonzero(field.values) == 0

    @pytest.mark.parametrize("k,eps", [(1, 1e-8), (3, 1e-5), (7, 5e-3)])
    def test_integral_vanishes(self, k, eps):
        cfg = SimConfig(kicks=k)
        field = correction_term(k, 0.485, eps, cfg.grid(), cfg.half_width)
        dx = TWO_PI / cfg.n_points
        assert abs(float(np.sum(field.values)) * dx) < 1e-12

    def test_linearity_is_exact(self):
        cfg = SimConfig(kicks=2)
        c1 = correction_term(2, 0.485, 1e-6, cfg.grid(), cfg.half_width)
        c2 = correction_term(2, 0.485, 2e-6, cfg.grid(), cfg.half_width)
        assert np.array_equal(c2.values, 2.0 * c1.values)

    def test_matches_detuning_derivative_of_full_run(self):
        # single period: the field should equal the finite-difference
        # response of the full numerics to a tiny detuning
        eps = 1e-7
        cfg = SimConfig(kicks=1, epsilon=eps)
        grid = cfg.grid()
        dens_eps = position_density(
            to_position(evolve(cfg), grid)
        ).values
        dens_res = position_density(
            to_position(evolve(SimConfig(kicks=1, half_width=cfg.half_width)),
                        grid)
        ).values
        diff = dens_eps - dens_res
        field = correction_term(1, 0.485, eps, grid, cfg.half_width).values
        i = int(np.argmax(np.abs(field)))
        assert field[i] == pytest.approx(diff[i], rel=2e-2)


class TestPerturbativeDensity:
    def test_is_background_plus_per_period_fields(self):
        cfg = SimConfig(kicks=200)
        grid, M = cfg.grid(), cfg.half_width
        dens = perturbative_density(200, 0.485, 1.1e-6, grid, M).values
        expect = np.full(grid.n_points, 1.0 / TWO_PI)
        for k in range(1, 201):
            expect = expect + correction_term(k, 0.485, 1.1e-6, grid, M).values
        # the closed form against its 200 summands, to rounding: 4.7e-14
        # of the ripple amplitude is measured at N = 200
        ripple = np.max(np.abs(dens - 1.0 / TWO_PI))
        assert np.max(np.abs(dens - expect)) <= 1e-13 * ripple

    def test_whole_route_is_one_cosine(self, no_bessel):
        # a full N = 400 run: no Bessel row and no FFT, and the density is
        # (1 - K cos X)/2pi with K = 2 pi l eps phi_d N(N+1)
        cfg = SimConfig(kicks=400)
        grid = cfg.grid()
        dens = perturbative_density(400, 0.485, 1e-7, grid, cfg.half_width).values
        K = TWO_PI * 1e-7 * 0.485 * 400 * 401
        expect = (1.0 - K * np.cos(grid.nodes)) / TWO_PI
        assert np.max(np.abs(dens - expect)) <= 1e-16

    @pytest.mark.parametrize("eps", NON_FINITE)
    def test_refuses_non_finite_epsilon(self, eps, no_bessel):
        cfg = SimConfig(kicks=3)
        with pytest.raises(ValueError, match="epsilon"):
            perturbative_density(3, 0.485, eps, cfg.grid(), cfg.half_width)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_guard_fails_closed(self, bad):
        grid = SpatialGrid(256)
        with pytest.raises(ValueError, match="integrates"):
            PerturbativeDensity(grid, np.full(256, bad))

    def test_guard_refuses_negative_values(self):
        # integrates to 1, but dips below zero
        grid = SpatialGrid(256)
        with pytest.raises(ValueError, match="negative"):
            PerturbativeDensity(grid, (1.0 - 1.5 * np.cos(grid.nodes)) / TWO_PI)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_strength_just_inside_one_is_accepted(self, sign):
        cfg = SimConfig(kicks=40)
        grid, M = cfg.grid(), cfg.half_width
        eps = sign * (1.0 - 1e-9) / (TWO_PI * 0.485 * 40 * 41)
        dens = perturbative_density(40, 0.485, eps, grid, M).values
        assert 0.0 <= dens.min() < 1e-9

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("l", [1, 2])
    def test_strength_just_past_one_is_refused(self, sign, l):
        cfg = SimConfig(kicks=40)
        grid, M = cfg.grid(), cfg.half_width
        eps = sign * (1.0 + 1e-9) / (TWO_PI * l * 0.485 * 40 * 41)
        with pytest.raises(ValueError, match=r"strength K = -?1\.00000000"):
            perturbative_density(40, 0.485, eps, grid, M, l=l)
        # the same run at l = 1 is inside for l = 2
        if l == 2:
            perturbative_density(40, 0.485, eps, grid, M)

    def test_non_finite_strength_is_refused(self):
        # 2 pi l overflows to inf, and inf times eps = 0 is NaN
        grid = SpatialGrid(256)
        with pytest.raises(ValueError, match="K = nan"):
            perturbative_density(3, 0.485, 0.0, grid, 40, l=2**1023)

    def test_no_kicks_is_uniform(self):
        cfg = SimConfig(kicks=0)
        dens = perturbative_density(0, 0.485, 1e-5, cfg.grid(), cfg.half_width)
        assert np.allclose(dens.values, 1.0 / TWO_PI, atol=0, rtol=0)

    def test_normalized(self):
        cfg = SimConfig(kicks=5)
        dens = perturbative_density(5, 0.485, 1e-6, cfg.grid(), cfg.half_width)
        dx = TWO_PI / cfg.n_points
        assert float(np.sum(dens.values)) * dx == pytest.approx(1.0, abs=1e-12)

    def test_error_halves_quadratically(self):
        # residual against the full numerics must drop 4x when the
        # detuning halves, the signature of a first-order expansion
        cfg = SimConfig(kicks=5)
        grid, M = cfg.grid(), cfg.half_width

        def residual(eps: float) -> float:
            full = position_density(
                to_position(
                    evolve(SimConfig(kicks=5, epsilon=eps, half_width=M)),
                    grid,
                )
            ).values
            approx = perturbative_density(5, 0.485, eps, grid, M).values
            return float(np.max(np.abs(full - approx)))

        ratio = residual(2e-6) / residual(1e-6)
        assert 3.5 < ratio < 4.5

    @pytest.mark.parametrize("kicks,eps", [(5, 2e-6), (40, 2e-7)])
    @pytest.mark.parametrize("l", [2, 3])
    def test_error_halves_quadratically_at_revival_order(self, l, kicks, eps):
        # with l in K the ratio measures 4.00-4.005; an l = 1 density
        # against the l run leaves a first-order error, ratio 2.00-2.004
        cfg = SimConfig(kicks=kicks, l=l)
        grid, M = cfg.grid(), cfg.half_width

        def residual(e: float) -> float:
            run = SimConfig(kicks=kicks, epsilon=e, l=l, half_width=M)
            full = position_density(to_position(evolve(run), grid)).values
            approx = perturbative_density(kicks, 0.485, e, grid, M, l=l).values
            return float(np.max(np.abs(full - approx)))

        ratio = residual(eps) / residual(eps / 2)
        assert 3.5 < ratio < 4.5

    @pytest.mark.parametrize("kicks", [5, 12, 40, 200, 400])
    @pytest.mark.parametrize("l", [1, 2])
    def test_error_is_second_order_in_strength(self, l, kicks):
        # residual / K^2 measures 0.134-0.136 at K = 0.01, 0.144-0.146 at
        # 0.1 and 0.209-0.224 at 0.5, the same at l = 1 and 2 for N = 5..400
        # (it reaches 0.67 at K = 0.99): the error is O(K^2), with c = 0.25
        c = 0.25
        M = SimConfig(kicks=kicks).half_width
        grid = SimConfig(kicks=kicks).grid()
        for K in (0.01, 0.1, 0.5):
            eps = K / (TWO_PI * l * 0.485 * kicks * (kicks + 1))
            run = SimConfig(kicks=kicks, epsilon=eps, l=l, half_width=M)
            full = position_density(to_position(evolve(run), grid)).values
            approx = perturbative_density(kicks, 0.485, eps, grid, M, l=l).values
            assert np.max(np.abs(full - approx)) <= c * K * K, K
