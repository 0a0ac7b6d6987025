import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from kickedrotor import (
    Density,
    MomentumWavefunction,
    NoCrossingError,
    SpatialGrid,
    l1_distance,
    mean_energy,
    momentum_density,
    position_density,
    sigma_x,
    to_position,
)
from kickedrotor.observables import MIRROR_TIE, _fwhm, _position_sigmas

TWO_PI = 2 * math.pi


def delta0(half_width: int) -> MomentumWavefunction:
    """The m = 0 ladder state, psi(m) = delta_{m,0}."""
    amps = np.zeros(2 * half_width + 1, dtype=complex)
    amps[half_width] = 1.0
    return MomentumWavefunction(half_width, amps)


def uniform_density(n: int = 512) -> Density:
    X = TWO_PI * np.arange(n) / n
    return Density("position", X, np.full(n, 1.0 / TWO_PI))


def cosine_density(n: int = 512) -> Density:
    X = TWO_PI * np.arange(n) / n
    return Density("position", X, (1.0 + np.cos(X)) / TWO_PI)


@st.composite
def nearly_even_densities(draw) -> Density:
    """A position density with p(X_j) = p(X_{n-j}) whose maximum is tied
    exactly between mirror bins, or between several mirror pairs; a lone
    mirror pair may have its tie broken by a few ulps of noise."""
    n = draw(st.integers(8, 96))
    half = n // 2 + 1
    w = 0.05 + np.array(draw(st.lists(st.floats(0.0, 1.0),
                                      min_size=half, max_size=half)))
    tied = draw(st.lists(st.integers(0, half - 1), min_size=1, max_size=3))
    w[tied] = 1.5
    j = np.arange(n)
    vals = w[np.minimum(j, n - j)]
    if len(set(tied)) == 1:
        ulps = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        vals = vals * (1.0 + np.array(ulps) * 2.0**-52)
    return Density("position", TWO_PI * j / n, vals / (vals.sum() * TWO_PI / n))


class TestDensity:
    def test_kind_checked(self):
        with pytest.raises(ValueError):
            Density("angle", np.arange(4.0), np.full(4, 0.25))

    def test_negative_values_rejected(self):
        # the poke keeps the mass at 1, so only the sign rule refuses it
        X = TWO_PI * np.arange(8) / 8
        vals = (1.0 + np.cos(X)) / TWO_PI
        assert vals[4] == 0.0
        vals[4] -= 1e-6
        vals[0] += 1e-6
        with pytest.raises(ValueError, match="must not be negative"):
            Density("position", X, vals)
        with pytest.raises(ValueError, match="must not be negative"):
            Density("momentum", np.arange(-1.0, 2.0), [-1e-6, 1.0 + 1e-6, 0.0])

    def test_shape_rule(self):
        # each pair is a valid density apart from its shape
        X = TWO_PI * np.arange(8) / 8
        with pytest.raises(ValueError, match="1-d and same length"):
            Density("position", X[:7], np.full(8, 1.0 / TWO_PI))
        with pytest.raises(ValueError, match="1-d and same length"):
            Density("momentum", np.zeros((2, 2)), [[0.5, 0.5], [1.0, 0.0]])

    def test_total_mass_enforced(self):
        X = TWO_PI * np.arange(8) / 8
        with pytest.raises(ValueError):
            Density("position", X, np.full(8, 0.5 / TWO_PI))
        with pytest.raises(ValueError):
            Density("momentum", np.arange(-2.0, 3.0), np.full(5, 0.3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        X = TWO_PI * np.arange(8) / 8
        vals = np.full(8, 1.0 / TWO_PI)
        vals[3] = bad
        with pytest.raises(ValueError, match="must be finite"):
            Density("position", X, vals)
        with pytest.raises(ValueError, match="must be finite"):
            Density("position", X, np.full(8, bad))
        with pytest.raises(ValueError, match="must be finite"):
            Density("momentum", np.arange(-2.0, 3.0), [0.0, 0.0, bad, 0.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_state_with_non_finite_amplitude_rejected(self, bad):
        amps = np.zeros(9, dtype=complex)
        amps[4] = bad
        # refused when the state is built, before a density is formed
        with pytest.raises(ValueError, match="must be finite"):
            momentum_density(MomentumWavefunction(4, amps))

    def test_from_states(self):
        wf = delta0(4)
        assert momentum_density(wf).values[4] == 1.0
        pwf = to_position(wf, SpatialGrid(32))
        d = position_density(pwf)
        assert np.allclose(d.values, 1.0 / TWO_PI, atol=1e-14)


class TestSigmaX:
    def test_uniform_hits_the_circle_value(self):
        # pi/sqrt(3), independent of the grid resolution
        for n in (64, 256, 512, 1024):
            assert sigma_x(uniform_density(n)) == pytest.approx(
                math.pi / math.sqrt(3), abs=1e-9
            )

    def test_cosine_bump_matches_analytic_variance(self):
        # recentred (1 + cos)/2pi has variance pi^2/3 - 2
        expect = math.sqrt(math.pi**2 / 3 - 2)
        assert sigma_x(cosine_density(512)) == pytest.approx(expect, abs=1e-5)
        # quadrature error falls off with the bin width squared
        err_a = abs(sigma_x(cosine_density(256)) - expect)
        err_b = abs(sigma_x(cosine_density(1024)) - expect)
        assert err_b < err_a / 8

    @given(st.integers(-1024, 1024))
    def test_rotation_invariance(self, shift):
        d = cosine_density(256)
        rolled = Density("position", d.support, np.roll(d.values, shift))
        assert sigma_x(rolled) == pytest.approx(sigma_x(d), abs=1e-8)

    def test_needs_position_kind(self):
        with pytest.raises(ValueError):
            sigma_x(momentum_density(delta0(3)))

    @given(nearly_even_densities())
    def test_reflection_invariance(self, d):
        # X -> -X maps bin j to bin (n - j) % n; the package's densities are
        # even up to rounding, so a rounding-level asymmetry between mirror
        # samples must not move the rotation, and with it sigma
        n = len(d.values)
        reflected = Density("position", d.support, d.values[-np.arange(n) % n])
        assert sigma_x(reflected) == pytest.approx(sigma_x(d), rel=1e-12)

    def test_mirror_tie_is_not_broken_by_rounding(self):
        # two peaks at X and -X on a floor: raising either peak by one ulp
        # used to pick the rotation, and the two rotations differ by 1 %
        n = 64
        half = np.arange(n // 2 + 1)
        w = 0.2 + np.exp(4.0 * np.cos(TWO_PI * (half - 10) / n))
        even = w[np.minimum(np.arange(n), n - np.arange(n))]
        sigmas = []
        for peak in (None, 10, n - 10):
            vals = even.copy()
            if peak is not None:
                vals[peak] *= 1.0 + 2.0**-52
            vals /= vals.sum() * TWO_PI / n
            sigmas.append(sigma_x(Density("position", TWO_PI * np.arange(n) / n, vals)))
        assert sigmas == pytest.approx([sigmas[0]] * 3, rel=1e-12)


@st.composite
def density_stacks(draw) -> np.ndarray:
    """A (P, n) stack of position densities: each row has its maximum at
    a drawn bin, or is even with its maximum tied between a drawn mirror
    pair, exactly or with the upper bin one ulp higher."""
    n = draw(st.sampled_from([8, 64, 256]))
    P = draw(st.integers(1, 9))
    rows = 0.05 + draw(arrays(np.float64, (P, n), elements=st.floats(0.0, 1.0)))
    j = np.arange(n)
    for row in rows:
        peak = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            row[:] = row[np.minimum(j, n - j)]
            row[[peak, -peak % n]] = 1.5
            if draw(st.booleans()):
                row[max(peak, -peak % n)] *= 1.0 + 2.0**-52
        else:
            row[peak] = 1.5
    return rows / (rows.sum(axis=1, keepdims=True) * TWO_PI / n)


def row_loop(stack: np.ndarray):
    """sigma_x of each row through its own Density, or the error raised."""
    X = TWO_PI * np.arange(stack.shape[1]) / stack.shape[1]
    try:
        return [sigma_x(Density("position", X, row)) for row in stack]
    except ValueError as err:
        return type(err), str(err)


def rolled_sigma(values: np.ndarray) -> float:
    """Reference sigma_x of one row, written as a loop body: np.roll and
    four sums."""
    n = len(values)
    dx = TWO_PI / n
    peak = int(np.argmax(values))
    mirror = (n - peak) % n
    if values[peak] - values[mirror] <= MIRROR_TIE * values[peak]:
        peak = min(peak, mirror)
    shifted = np.roll(values, n // 2 - peak)
    X = dx * np.arange(n)
    mu = float(np.sum(X * shifted)) * dx
    return math.sqrt(float(np.sum((X - mu) ** 2 * shifted)) * dx + dx * dx / 12.0)


def one_stack(stack: np.ndarray):
    try:
        return _position_sigmas(stack).tolist()
    except ValueError as err:
        return type(err), str(err)


def poked(row: np.ndarray, value: float) -> np.ndarray:
    row = row.copy()
    row[3] = value
    return row


class TestSigmaStack:
    @given(density_stacks())
    def test_stack_is_the_row_loop_bit_for_bit(self, stack):
        expected = [rolled_sigma(row) for row in stack]
        assert one_stack(stack) == row_loop(stack) == expected

    @given(nearly_even_densities())
    def test_one_row_is_the_reference(self, d):
        assert sigma_x(d) == rolled_sigma(d.values)

    # each breaks one value rule; "degenerate" keeps a tenth of the mass,
    # which the total rule refuses
    BAD_ROWS = {
        "nan": lambda row: poked(row, math.nan),
        "inf": lambda row: poked(row, math.inf),
        "negative": lambda row: poked(row, -1e-6),
        "off_mass": lambda row: row * (1.0 + 1e-8),
        "degenerate": lambda row: row * 0.1,
    }

    @pytest.mark.parametrize("k", [0, 2, 4])
    @pytest.mark.parametrize("bad", sorted(BAD_ROWS))
    def test_bad_row_raises_what_the_loop_raises(self, bad, k):
        stack = np.tile(cosine_density(64).values, (5, 1))
        stack[k] = self.BAD_ROWS[bad](stack[k])
        expected = row_loop(stack)
        assert isinstance(expected, tuple)
        assert one_stack(stack) == expected

    @pytest.mark.parametrize("first,later", [("negative", "nan"),
                                             ("off_mass", "negative"),
                                             ("nan", "degenerate"),
                                             ("degenerate", "inf")])
    def test_earlier_row_wins(self, first, later):
        stack = np.tile(cosine_density(64).values, (5, 1))
        stack[1] = self.BAD_ROWS[first](stack[1])
        stack[3] = self.BAD_ROWS[later](stack[3])
        loop = row_loop(stack)
        assert one_stack(stack) == loop
        assert loop == row_loop(stack[1:2])

    def test_empty_density_refused(self):
        with pytest.raises(ValueError, match="at least one value"):
            Density("position", np.zeros(0), np.zeros(0))


class TestMeanEnergy:
    def test_ground_state_is_zero(self):
        assert mean_energy(delta0(5), 4 * math.pi) == 0.0

    def test_single_rung(self):
        M = 5
        amps = np.zeros(2 * M + 1, dtype=complex)
        amps[M + 3] = 1.0
        wf = MomentumWavefunction(M, amps)
        hbar = 4 * math.pi
        assert mean_energy(wf, hbar) == pytest.approx(
            0.5 * hbar**2 * 9, rel=1e-15
        )


class TestL1Distance:
    def test_zero_on_identical(self):
        d = uniform_density(64)
        assert l1_distance(d, d) == 0.0

    def test_disjoint_position_densities(self):
        n = 64
        X = TWO_PI * np.arange(n) / n
        a = np.where(X < math.pi, 1.0 / math.pi, 0.0)
        b = np.where(X >= math.pi, 1.0 / math.pi, 0.0)
        da = Density("position", X, a)
        db = Density("position", X, b)
        assert l1_distance(da, db) == pytest.approx(2.0, abs=1e-12)

    def test_kind_and_support_guards(self):
        # the kinds differ on one support, then the supports on one kind,
        # shape and values, so each pair breaks one rule only
        d = uniform_density(64)
        m = Density("momentum", d.support, np.full(64, 1.0 / 64))
        with pytest.raises(ValueError, match="kinds differ"):
            l1_distance(d, m)
        shifted = Density("position", d.support + 0.1, d.values)
        with pytest.raises(ValueError, match="supports differ"):
            l1_distance(d, shifted)
        with pytest.raises(ValueError, match="supports differ"):
            l1_distance(d, uniform_density(128))


class TestFwhm:
    def triangle(self, n=201):
        x = np.linspace(-1.0, 1.0, n)
        return x, 1.0 - np.abs(x)

    def test_triangle_width_is_exact(self):
        # crossings at +-1/2 land exactly on the interpolant
        assert _fwhm(*self.triangle()) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_width(self):
        x = np.linspace(-1.0, 1.0, 2001)
        y = np.exp(-(x**2) / (2 * 0.1**2))
        expect = 2 * math.sqrt(2 * math.log(2)) * 0.1
        assert _fwhm(x, y) == pytest.approx(expect, abs=1e-4)

    def test_explicit_level_overrides_default(self):
        x, y = self.triangle()
        assert _fwhm(x, y, half_level=0.25) == pytest.approx(1.5, abs=1e-12)

    def test_flat_profile_rejected(self):
        with pytest.raises(NoCrossingError):
            _fwhm(np.arange(5.0), np.ones(5))

    def test_edge_peak_rejected(self):
        # without the edge rule the missing left crossing would refuse it
        # too, under another message
        x = np.arange(5.0)
        with pytest.raises(NoCrossingError, match="peaks at the scan edge"):
            _fwhm(x, np.array([5.0, 4.0, 3.0, 2.0, 1.0]))

    def test_peak_below_requested_level(self):
        with pytest.raises(NoCrossingError, match="below the requested level"):
            _fwhm(*self.triangle(), half_level=2.0)

    def test_narrow_range_rejected(self):
        # edges never reach the half level computed from the true floor
        x = np.linspace(-0.1, 0.1, 21)
        with pytest.raises(NoCrossingError):
            _fwhm(x, 1.0 - np.abs(x), half_level=0.5)

    def test_innermost_crossing_wins(self):
        # a profile that dips, recovers, and dips again: the width must
        # come from the crossings nearest the peak
        x = np.linspace(-3.0, 3.0, 601)
        y = np.exp(-(x**2)) + 0.6 * np.exp(-((np.abs(x) - 2.0) ** 2) / 0.01)
        w = _fwhm(x, y, half_level=0.5)
        assert w == pytest.approx(2 * math.sqrt(math.log(2)), abs=1e-2)

    @given(st.floats(1e-3, 1e3))
    def test_ordinate_scale_invariance(self, scale):
        x, y = self.triangle()
        assert _fwhm(x, scale * y) == pytest.approx(_fwhm(x, y), rel=1e-9)

    @given(st.floats(-5.0, 5.0, allow_nan=False))
    def test_abscissa_shift_invariance(self, shift):
        x, y = self.triangle()
        assert _fwhm(x + shift, y) == pytest.approx(_fwhm(x, y), abs=1e-9)

    def test_reflection_invariance(self):
        x = np.linspace(-1.0, 2.0, 301)
        y = np.exp(-((x - 0.4) ** 2) / 0.05)
        mirrored = _fwhm(-x[::-1], y[::-1])
        assert mirrored == pytest.approx(_fwhm(x, y), abs=1e-12)
