"""States of a periodically kicked particle on a ring.

A zero-quasi-momentum initial state confines the dynamics to the integer
momentum ladder m in [-M, M]; the state is a vector of complex amplitudes
psi(m). Position space is a uniform grid X_j = 2*pi*j/n on [0, 2*pi).
The two pictures are linked by the discrete Fourier synthesis

    Psi(X_j) = (2*pi)**-0.5 * sum_m psi(m) exp(i m X_j)

which is exact (not approximate) and loses nothing on any grid that
holds the ladder, n >= 2M+1. Two grids are used. The observation grid
samples the density |Psi|**2, whose band is 4M+1, so it keeps the
Nyquist margin n >= 2*(2M+1) (default_n_points, _check_grid). The
propagation grid only carries the kick exp(-i phi cos X) back to the
ladder, which is exact once n - 2M exceeds the kick's own Bessel reach
(_kick_reach, _propagation_points): the order past which every
|J_d(phi)| < 7e-16, 11 at phi = 0.485 by the Taylor bound
(phi/2)**d / d!, and an Airy margin past ceil(phi) for strong kicks.
FFTs are used internally; the contract is the sum. Both grids hold the
ladder in FFT order, m >= 0 at index m and m < 0 at n + m (_fft_slots).

The package's argument rules live here, one owner each: _as_int
(integers, optionally with a least value), _as_finite (finite, or finite
and positive), _all_finite and _grid_samples (arrays) and _check_grid
(the Nyquist margin). Modules call them, so each rule has one message.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
ROOT_TWO_PI = math.sqrt(TWO_PI)

#: combined occupancy allowed in the two outermost ladder sites
EDGE_LEAK_BOUND = 1e-14


class GridTooSmallError(ValueError):
    """Spatial grid cannot resolve the momentum ladder (Nyquist margin)."""


class NumericalError(RuntimeError):
    """A numerical invariant failed on valid arguments; every refusal of
    the package that is not a ValueError derives from this class."""


def _as_int(name: str, value, least: int | None = None) -> int:
    """value as an int; refuses 2.5, NaN, +-inf, integers past the float
    range (10**400: float() would raise OverflowError) and, if given,
    values below least."""
    try:
        integral = float(value).is_integer()
    except OverflowError:
        raise ValueError(f"{name} must lie within the float range") from None
    if not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and int(value) < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return int(value)


def _as_finite(name: str, value, positive: bool = False) -> float:
    """value as a float; refuses NaN, +-inf and, if positive, values <= 0."""
    x = float(value)
    if positive and not (math.isfinite(x) and x > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return x


def _all_finite(values: np.ndarray) -> bool:
    """No NaN and no +-inf in values. The squared norm is finite unless an
    entry is not (or it overflows), so it gates the costlier elementwise scan."""
    return (math.isfinite(np.vdot(values, values).real)
            or bool(np.isfinite(values).all()))


def _grid_samples(grid: SpatialGrid, values, dtype) -> np.ndarray:
    """values as a read-only copy of dtype, one sample per grid point."""
    vals = np.array(values, dtype=dtype)
    if vals.shape != (grid.n_points,):
        raise ValueError("values length must match grid")
    vals.setflags(write=False)
    return vals


def _check_grid(n_points: int, half_width: int) -> None:
    """The one Nyquist refusal, n_points < 2(2M+1); for M >= 0 it refuses n < 2."""
    need = 2 * (2 * half_width + 1)
    if not n_points >= need:
        raise GridTooSmallError(
            f"n_points={n_points} cannot resolve a ladder of half width "
            f"{half_width}; need at least {need}"
        )


def default_half_width(kicks: int, phi_d: float) -> int:
    """Ladder truncation that keeps the state's truncation error near rounding.

    After N periods the amplitudes are J_m(x), x = N*phi_d. Past |m| ~ x
    they fall off through the Airy transition
    J_{x+d}(x) ~ (2/x)**(1/3) Ai(d (2/x)**(1/3)) (DLMF 10.19(ii)), whose
    width grows like x**(1/3), so no fixed margin suffices at large x.
    The margin ceil(11.2 (x/2)**(1/3)), and at least 32, keeps the edge
    amplitude |J_M(x)| below about 1e-12 at every x (4e-13 at x = 145.5,
    2.3e-13 at x = 970). The two terms agree up to x = 46.6, so every
    ladder up to there is ceil(x) + 32, as with the fixed margin.
    """
    x = kicks * phi_d
    if not 0 <= x < math.inf:
        raise ValueError(f"kicks * phi_d must be finite and >= 0, got {x!r}")
    return _bessel_reach(x, 11.2)


def _bessel_reach(x: float, widths: float) -> int:
    """ceil(x) plus `widths` Airy widths (x/2)**(1/3), and at least 32:
    the order past which |J_m(x)| stays below a bound set by widths."""
    return int(math.ceil(x)) + max(32, math.ceil(widths * (x / 2) ** (1 / 3)))


def _kick_reach(phi: float) -> int:
    """The reach of one kick of strength phi: past it |J_d(phi)| < 7e-16
    for every |phi| up to 5000. It is the smaller of two reaches. One is
    ceil(|phi|) plus 13.2 Airy widths, and at least 32 (_bessel_reach).
    The other is the last order d whose Taylor bound (|phi|/2)**d / d!
    (DLMF 10.14.4, |J_d(x)| <= (x/2)**d / d! for x >= 0) is still >=
    7e-16: 11 at |phi| = 0.485, where |J_12| = 8.6e-17, and 0 at phi = 0.
    The Taylor reach is the smaller for every |phi| below 21.97 and for
    none above 23.29; one lgamma at the Airy order tells which wins, so
    the search runs only where it can. The propagation length stops there, and every Bessel
    ladder starts there (analytics._bessel_j_ladder), its orders past it
    exact zeros, so the dense oracle's kick column and every closed form
    hold zeros there too."""
    x, tiny = abs(phi), 7e-16
    airy = _bessel_reach(x, 13.2)
    # log of the Taylor bound at the Airy order; log(x) - log(2), as x/2
    # underflows to 0 at the least subnormal
    if x > 0 and (airy * (math.log(x) - math.log(2)) - math.lgamma(airy + 1)
                  >= math.log(tiny)):
        return airy
    d, bound = 0, 1.0
    while d < airy and (bound := bound * x / (2 * (d + 1))) >= tiny:
        d += 1
    return d


def default_n_points(half_width: int) -> int:
    """Smallest power of two at or above 4*(M+1): the observation grid.

    sigma_x and the position files sample the density on this grid, so
    it holds the density's Nyquist margin. It stays a power of two
    because sigma_x depends on n through its dx**2/12 term and its argmax
    rotation, so another length would move every width and every
    position file. The spectral core kicks on the shorter
    _propagation_points length instead.
    """
    return 1 << max(3, int(math.ceil(math.log2(4 * (half_width + 1)))))


# a pure function that every run evaluates for each stage it plans
@functools.lru_cache(maxsize=1024)
def _propagation_points(half_width: int, phi: float) -> int:
    """Smallest 5-smooth length 2**a 3**b 5**c that kicks by phi exactly.

    The spectral core's FFT length. On n points the kick's coefficients
    (-i)**d J_d(phi) alias onto d + k*n, and between two sites of the
    ladder d spans [-2M, 2M], so the nearest alias is J_{n-2M}(phi). The
    target is the ladder plus the reach of one kick, 2M+1 +
    _kick_reach(phi), which keeps the nearest alias below 7e-16. Below
    |phi| = 21.97 that reach is the Taylor one, 11 at phi = 0.485, so the
    sweeps' N = 5, 12 and 18 kick on 90, 90 and 96 points. Above 23.29 it
    is ceil(|phi|) + max(32, ceil(13.2 (|phi|/2)**(1/3))): two Airy
    widths more than default_half_width's 11.2 (which lets the alias
    reach 4.6e-13), for every |phi| up to 5000. That is about half the
    density's Nyquist length 4*(M+1): 1125 against 2250 at M = 555,
    phi = 0.485. 5-smooth lengths transform about as fast per point as a
    power of two, and the nearest one is at most 1.11x the target for
    every target from 22 up to 8192 (15/13 at most below), where the next
    power of two can be almost 2x.
    """
    target = 2 * half_width + 1 + _kick_reach(phi)
    best = 1 << (target - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # odd times the smallest power of two that reaches target
            need = -(-target // odd)
            best = min(best, odd << (need - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid X_j = 2*pi*j/n_points, j = 0..n_points-1."""

    n_points: int

    def __post_init__(self):
        object.__setattr__(self, "n_points", _as_int("n_points", self.n_points, 2))

    @property
    def nodes(self) -> np.ndarray:
        return TWO_PI * np.arange(self.n_points) / self.n_points

    @property
    def spacing(self) -> float:
        return TWO_PI / self.n_points


@dataclass(frozen=True)
class MomentumWavefunction:
    """Complex amplitudes on the integer ladder m in [-M, M].

    amps[i] is the amplitude of m = i - M. Momentum itself (m times the
    effective Planck constant) is derived where needed, never stored.
    """

    half_width: int
    amps: np.ndarray

    def __post_init__(self):
        M = _as_int("half_width", self.half_width, 1)
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (2 * M + 1,):
            raise ValueError(
                f"amps must have shape ({2 * M + 1},), got {amps.shape}"
            )
        if not _all_finite(amps):
            raise ValueError("amps must be finite")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "half_width", M)
        object.__setattr__(self, "amps", amps)

    @property
    def m_values(self) -> np.ndarray:
        M = self.half_width
        return np.arange(-M, M + 1)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def edge_occupancy(self) -> float:
        return float(abs(self.amps[0]) ** 2 + abs(self.amps[-1]) ** 2)


@dataclass(frozen=True)
class PositionWavefunction:
    """Samples Psi(X_j) on a SpatialGrid; (2*pi/n) * sum |Psi|^2 = 1."""

    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self):
        vals = _grid_samples(self.grid, self.values, complex)
        if not _all_finite(vals):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class SimConfig:
    """Single source of run parameters.

    phi_d is the effective kick strength (kick amplitude over the effective
    Planck constant), epsilon the dimensionless detuning of the kick period
    from the primary revival period (period = (1 + epsilon) times revival),
    l the resonance order, kicks the number of periods. half_width and
    n_points are filled from the sizing rules when not given. n_points
    names only the observation grid of to_position, sigma_x and the
    position files; the spectral core picks its own FFT length. epsilon
    may be any finite detuning: the propagation is exact at any of them,
    and the first-order route bounds itself by its strength K
    (analytics.perturbative_density).
    """

    phi_d: float = 0.485
    epsilon: float = 0.0
    l: int = 1
    kicks: int = 0
    half_width: int | None = None
    n_points: int | None = None

    def __post_init__(self):
        _as_finite("phi_d", self.phi_d, positive=True)
        _as_finite("epsilon", self.epsilon)
        l = _as_int("l", self.l, 1)
        kicks = _as_int("kicks", self.kicks, 0)
        M = (default_half_width(kicks, self.phi_d) if self.half_width is None
             else _as_int("half_width", self.half_width, 1))
        n = (default_n_points(M) if self.n_points is None
             else _as_int("n_points", self.n_points))
        _check_grid(n, M)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "kicks", kicks)
        object.__setattr__(self, "half_width", M)
        object.__setattr__(self, "n_points", n)

    def grid(self) -> SpatialGrid:
        return SpatialGrid(self.n_points)


def _fft_slots(half_width: int, n: int) -> np.ndarray:
    """Where the ladder m = -M..M sits in an n-point array in FFT order.

    m >= 0 sits at index m and m < 0 at index n + m, so the entries come
    out in ladder order: array[..., _fft_slots(M, n)] reads the ladder
    back, and assigning to it places one. The one owner of that layout,
    for the observation grid and the spectral core alike.
    """
    return np.arange(-half_width, half_width + 1) % n


def _synthesize(amps: np.ndarray, n: int) -> np.ndarray:
    """Ladder amplitudes to the n grid samples Psi(X_j).

    No grid check: the callers hold n >= 2M+1. Works along the last
    axis, so a (P, 2M+1) stack gives (P, n) samples; each row comes out
    bit-identical to its own 1-d transform.
    """
    M = (amps.shape[-1] - 1) // 2
    values = np.zeros(amps.shape[:-1] + (n,), dtype=complex)
    values[..., _fft_slots(M, n)] = amps
    # n * ifft(values) / ROOT_TWO_PI, transformed and scaled in place so
    # that no step allocates a grid-sized temporary
    np.fft.ifft(values, out=values)
    np.multiply(n, values, out=values)
    return np.divide(values, ROOT_TWO_PI, out=values)


def to_position(
    wf: MomentumWavefunction, grid: SpatialGrid
) -> PositionWavefunction:
    """Exact synthesis Psi(X_j) = (2*pi)**-0.5 sum_m psi(m) e^{i m X_j}."""
    _check_grid(grid.n_points, wf.half_width)
    return PositionWavefunction(grid, _synthesize(wf.amps, grid.n_points))

