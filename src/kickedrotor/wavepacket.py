"""States of a periodically kicked particle on a ring.

A zero-quasi-momentum initial state confines the dynamics to the integer
momentum ladder m in [-M, M]; the state is a vector of complex amplitudes
psi(m). Position space is a uniform grid X_j = 2*pi*j/n on [0, 2*pi).
The two pictures are linked by the discrete Fourier pair

    Psi(X_j) = (2*pi)**-0.5 * sum_m psi(m) exp(i m X_j)
    psi(m)   = (2*pi)**-0.5 * (2*pi/n) * sum_j Psi(X_j) exp(-i m X_j)

which is exact (not approximate) as long as the grid oversamples the
ladder, n >= 2*(2M+1). FFTs are used internally; the contract is the sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
ROOT_TWO_PI = math.sqrt(TWO_PI)

#: one unitary application may not change the norm by more than this
NORM_TOL = 1e-12
#: combined occupancy allowed in the two outermost ladder sites
EDGE_LEAK_BOUND = 1e-14
#: upper bound of the small-detuning regime the first-order formulas target
EPSILON_VALIDITY = 1e-2


class GridTooSmallError(ValueError):
    """Spatial grid cannot resolve the momentum ladder (Nyquist margin)."""


def _as_int(name: str, value) -> int:
    if not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_half_width(value) -> int:
    """The ladder half width M as an int; refuses non-integers and M < 1."""
    M = _as_int("half_width", value)
    if M < 1:
        raise ValueError("half_width must be >= 1")
    return M


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
    return int(math.ceil(x)) + max(32, math.ceil(11.2 * (x / 2) ** (1 / 3)))


def default_n_points(half_width: int) -> int:
    """Smallest power of two at or above 4*(M+1): the observation grid.

    sigma_x and the position files sample the density on this grid. It
    stays a power of two because sigma_x depends on n through its dx**2/12
    term and its argmax rotation, so another length would move every
    width and every position file. The spectral core propagates on the
    shorter _propagation_points length instead.
    """
    return 1 << max(3, int(math.ceil(math.log2(4 * (half_width + 1)))))


def _propagation_points(half_width: int) -> int:
    """Smallest 5-smooth length 2**a 3**b 5**c at or above 4*(M+1).

    The spectral core's FFT length: such lengths transform about as fast
    per point as a power of two, and the nearest one is at most 1.1x
    4*(M+1) for every M up to 4096 (4236 -> 4320), where the next power
    of two can be almost 2x (4236 -> 8192).
    """
    target = 4 * (half_width + 1)
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
        n = _as_int("n_points", self.n_points)
        if n < 2:
            raise ValueError("n_points must be at least 2")
        object.__setattr__(self, "n_points", n)

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
        M = _as_half_width(self.half_width)
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (2 * M + 1,):
            raise ValueError(
                f"amps must have shape ({2 * M + 1},), got {amps.shape}"
            )
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

    def overlap(self, other: "MomentumWavefunction") -> complex:
        if other.half_width != self.half_width:
            raise ValueError("ladder size mismatch")
        return complex(np.vdot(self.amps, other.amps))


@dataclass(frozen=True)
class PositionWavefunction:
    """Samples Psi(X_j) on a SpatialGrid; (2*pi/n) * sum |Psi|^2 = 1."""

    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.n_points,):
            raise ValueError("values length must match grid")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def norm_sq(self) -> float:
        return float(self.grid.spacing * np.sum(np.abs(self.values) ** 2))


@dataclass(frozen=True)
class SimConfig:
    """Single source of run parameters.

    phi_d is the effective kick strength (kick amplitude over the effective
    Planck constant), epsilon the dimensionless detuning of the kick period
    from the primary revival period (period = (1 + epsilon) times revival),
    l the resonance order, kicks the number of periods. half_width and
    n_points are filled from the sizing rules when not given. n_points
    names only the observation grid of to_position, sigma_x and the
    position files; the spectral core picks its own FFT length. epsilon is
    restricted to the small-detuning window |epsilon| < 1e-2 in which the
    first-order analytics hold.
    """

    phi_d: float = 0.485
    epsilon: float = 0.0
    l: int = 1
    kicks: int = 0
    half_width: int | None = None
    n_points: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.phi_d) and self.phi_d > 0):
            raise ValueError("phi_d must be finite and positive")
        if not abs(self.epsilon) < EPSILON_VALIDITY:
            raise ValueError(
                f"|epsilon| must be below {EPSILON_VALIDITY} "
                f"(got {self.epsilon!r})"
            )
        l = _as_int("l", self.l)
        if l < 1:
            raise ValueError("l must be a positive integer")
        kicks = _as_int("kicks", self.kicks)
        if kicks < 0:
            raise ValueError("kicks must be non-negative")
        auto_sized = self.half_width is None
        M = (default_half_width(kicks, self.phi_d) if auto_sized
             else _as_half_width(self.half_width))
        n = (default_n_points(M) if self.n_points is None
             else _as_int("n_points", self.n_points))
        _check_grid(n, M)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "kicks", kicks)
        object.__setattr__(self, "half_width", M)
        object.__setattr__(self, "n_points", n)
        object.__setattr__(self, "_auto_sized", auto_sized)

    @property
    def auto_sized(self) -> bool:
        return self._auto_sized

    @property
    def hbar_s(self) -> float:
        """Effective Planck constant at the detuned period, 4*pi*l*(1+eps)."""
        return 2 * TWO_PI * self.l * (1.0 + self.epsilon)

    def grid(self) -> SpatialGrid:
        return SpatialGrid(self.n_points)


def init_momentum_eigenstate(half_width: int) -> MomentumWavefunction:
    """The m = 0 ladder eigenstate, psi(m) = delta_{m,0}."""
    M = _as_half_width(half_width)
    amps = np.zeros(2 * M + 1, dtype=complex)
    amps[M] = 1.0
    return MomentumWavefunction(M, amps)


def _synthesize(amps: np.ndarray, n: int) -> np.ndarray:
    """Ladder amplitudes to the n grid samples Psi(X_j).

    No Nyquist check: the callers hold n >= 2(2M+1). Works along the last
    axis, so a (P, 2M+1) stack gives (P, n) samples; each row comes out
    bit-identical to its own 1-d transform.
    """
    M = (amps.shape[-1] - 1) // 2
    spectrum = np.zeros(amps.shape[:-1] + (n,), dtype=complex)
    # m >= 0 sits at index m, m < 0 at index n + m
    spectrum[..., :M + 1] = amps[..., M:]
    spectrum[..., n - M:] = amps[..., :M]
    # the same operations as n * ifft(spectrum) / ROOT_TWO_PI, scaled in
    # place instead of with a fresh grid-sized temporary for each step
    values = np.fft.ifft(spectrum)
    np.multiply(n, values, out=values)
    return np.divide(values, ROOT_TWO_PI, out=values)


def _analyze(values: np.ndarray, half_width: int) -> np.ndarray:
    """Grid samples back to the ladder amplitudes m in [-M, M].

    No Nyquist check; works along the last axis, like _synthesize.
    """
    n = values.shape[-1]
    # values is never written: it may be a frozen PositionWavefunction array
    spectrum = np.fft.fft(values)
    np.multiply(spectrum, ROOT_TWO_PI, out=spectrum)
    np.divide(spectrum, n, out=spectrum)
    M = half_width
    return np.concatenate([spectrum[..., n - M:], spectrum[..., :M + 1]], axis=-1)


def to_position(
    wf: MomentumWavefunction, grid: SpatialGrid
) -> PositionWavefunction:
    """Exact synthesis Psi(X_j) = (2*pi)**-0.5 sum_m psi(m) e^{i m X_j}."""
    _check_grid(grid.n_points, wf.half_width)
    return PositionWavefunction(grid, _synthesize(wf.amps, grid.n_points))


def to_momentum(
    pwf: PositionWavefunction, half_width: int
) -> MomentumWavefunction:
    """Exact analysis psi(m) = (2*pi)**-0.5 (2*pi/n) sum_j Psi(X_j) e^{-imX_j}."""
    M = _as_half_width(half_width)
    _check_grid(pwf.grid.n_points, M)
    return MomentumWavefunction(M, _analyze(pwf.values, M))
