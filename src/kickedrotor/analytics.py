"""Closed forms at and near the primary revival.

At exact revival the state after t kicks is psi(m) = (-i)^m J_m(t*phi_d):
the kicks compound because every free flight is the identity. Slightly off
revival, the leading change of the position density is linear in the
detuning epsilon and is a sum of per-period correction fields; each field
is a short Fourier series whose coefficients are bilinear in Bessel values.

Bessel values come from a downward three-term recurrence normalized with
the even-order sum rule (J_0 + 2 J_2 + 2 J_4 + ... = 1), which is stable
where the upward recurrence is not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .wavepacket import (TWO_PI, MomentumWavefunction, SpatialGrid, _as_int,
                         _check_grid)

#: (-i)^k for k = 0..3; integer-exact phase table
MINUS_I_POW = np.array([1, -1j, -1, 1j])

_DOMAIN_ORDER = 10_000
_DOMAIN_ARG = 1_000.0
_RESCALE = 1e250


class TruncationError(RuntimeError):
    """A truncated Bessel sum lost more probability than allowed."""


def bessel_j_row(x: float, n_max: int) -> np.ndarray:
    """J_0(x) .. J_{n_max}(x) by downward recurrence, absolute error <= 1e-12.

    Valid for 0 <= x <= 1000 and n_max <= 10000.
    """
    n_max = _as_int("n_max", n_max)
    if n_max < 0 or n_max > _DOMAIN_ORDER:
        raise ValueError(f"order out of range: {n_max}")
    x = float(x)
    if not (0.0 <= x <= _DOMAIN_ARG) or math.isnan(x):
        raise ValueError(f"argument out of range: {x}")
    if x == 0.0:
        row = np.zeros(n_max + 1)
        row[0] = 1.0
        return row
    if x < 1e-4:
        # ascending series: below this the recurrence's per-step growth 2k/x
        # can cross the whole float range in one step, so no rescale
        # threshold saves it; two series terms are exact to ~y^2 ~ 6e-18
        row = np.zeros(n_max + 1)
        y = 0.25 * x * x
        term = 1.0
        for d in range(n_max + 1):
            row[d] = term * (1.0 - y / (d + 1))
            term *= 0.5 * x / (d + 1)
            if term == 0.0:
                break
        return row
    # start the recurrence above both the requested order and the turning
    # point |m| ~ x, where J_m(x) is already decaying
    start = max(n_max, int(math.ceil(x)))
    top = start + max(40, int(2.5 * math.sqrt(start + 1.0)))
    row = np.zeros(top + 1)
    above = 0.0
    here = 1e-30
    for k in range(top, 0, -1):
        row[k] = here
        below = (2.0 * k / x) * here - above
        above = here
        here = below
        if abs(here) > _RESCALE:
            scale = 1.0 / _RESCALE
            here *= scale
            above *= scale
            row[k:] *= scale
    row[0] = here
    norm = row[0] + 2.0 * np.sum(row[2::2])
    row /= norm
    return row[: n_max + 1]


def bessel_j(n: int, x: float) -> float:
    """J_n(x) with J_{-n}(x) = (-1)^n J_n(x) honored exactly."""
    n = _as_int("n", n)
    # bessel_j_row refuses |n| past its domain
    value = float(bessel_j_row(x, abs(n))[abs(n)])
    if n < 0 and n % 2:
        return -value
    return value


def bessel_j_ladder(x: float, half_width: int) -> np.ndarray:
    """J_m(x) for m = -M..M as one array (index m + M)."""
    M = _as_int("half_width", half_width)
    row = bessel_j_row(x, M)
    out = np.empty(2 * M + 1)
    out[M:] = row
    signs = np.where(np.arange(1, M + 1) % 2 == 1, -1.0, 1.0)
    out[:M] = (signs * row[1:])[::-1]
    return out


def resonant_state(
    t: int, phi_d: float, half_width: int
) -> MomentumWavefunction:
    """State after t kicks at exact revival: psi(m) = (-i)^m J_m(t*phi_d).

    Raises TruncationError when the ladder is too short to hold the state
    (norm deficit above 1e-10), and ValueError outside the domain of
    bessel_j_row: t*phi_d > 1000 (t > 2061 at phi_d = 0.485) or a half
    width above 10000. propagate has no such limit, so past it the
    numerics have no closed form to be checked against.
    """
    t = _as_int("t", t)
    if t < 0:
        raise ValueError("t must be non-negative")
    M = _as_int("half_width", half_width)
    ladder = bessel_j_ladder(t * phi_d, M)
    m = np.arange(-M, M + 1)
    amps = MINUS_I_POW[np.mod(m, 4)] * ladder
    deficit = abs(1.0 - float(np.sum(np.abs(amps) ** 2)))
    if deficit > 1e-10:
        raise TruncationError(
            f"norm deficit {deficit:.3e} at half_width {M}; ladder too short"
        )
    return MomentumWavefunction(M, amps)


@dataclass(frozen=True)
class CorrectionField:
    """First-order density change contributed by one free-flight segment.

    values integrate to zero (only nonconstant Fourier modes appear) and
    scale exactly linearly with epsilon.
    """

    grid: SpatialGrid
    values: np.ndarray
    epsilon: float
    bessel_argument: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_points,):
            raise ValueError("values length must match grid")
        mean = float(np.mean(vals)) * TWO_PI
        # written to fail closed: a NaN integral never passes
        if not abs(mean) <= 1e-12:
            raise ValueError(f"correction field integrates to {mean:.3e}, not 0")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def correction_term(
    k: int, phi_d: float, epsilon: float, grid: SpatialGrid, half_width: int
) -> CorrectionField:
    """Density correction from the free flight of period k, linear in epsilon.

    The double Bessel sum over ladder pairs (m, n), n > m, collapses into a
    Fourier series over the gap d = n - m:

        C(X) = sum_{d>=1} Re[ 2 eps i^(d+1) e^{-i d X} ] * S_d,
        S_d  = sum_m (2 m d + d^2) J_{m+d}(a) J_m(a),  a = k * phi_d.

    S_d = 2 d B_d + d^2 A_d comes from two lag correlations of the ladder,
    A_d = sum_m J_m J_{m+d} and B_d = sum_m m J_m J_{m+d}, computed for
    every gap at once. Epsilon enters only as the final factor, so the
    field is exactly zero at epsilon = 0 and doubles exactly with it.
    Assembled on the grid through one FFT of the coefficient vector.
    Raises ValueError for a non-finite epsilon and GridTooSmallError for a
    grid that cannot resolve the ladder.
    """
    k = _as_int("k", k)
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_epsilon(epsilon)
    M = _as_int("half_width", half_width)
    _check_grid(grid.n_points, M)
    n = grid.n_points
    L = 2 * M + 1
    a = k * phi_d
    J = bessel_j_ladder(a, M)
    m = np.arange(-M, M + 1).astype(float)
    d = np.arange(1, L, dtype=float)
    A = np.correlate(J, J, "full")[L:]
    B = np.correlate(J, m * J, "full")[L:]
    s = 2.0 * d * B + d * d * A
    coeff = np.zeros(n, dtype=complex)
    coeff[1:L] = 2.0 * epsilon * 1j ** np.mod(np.arange(2, L + 1), 4) * s
    values = np.fft.fft(coeff).real
    return CorrectionField(grid, values, float(epsilon), a)


def _check_epsilon(epsilon: float) -> None:
    # a NaN or infinite detuning would fill the field with NaN
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon!r}")


@dataclass(frozen=True)
class PerturbativeDensity:
    """Uniform background plus the accumulated first-order corrections."""

    grid: SpatialGrid
    values: np.ndarray
    kicks: int
    epsilon: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_points,):
            raise ValueError("values length must match grid")
        total = float(np.mean(vals)) * TWO_PI
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"density integrates to {total!r}, not 1")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def perturbative_density(
    kicks: int,
    phi_d: float,
    epsilon: float,
    grid: SpatialGrid,
    half_width: int,
) -> PerturbativeDensity:
    """First-order position density after N periods.

    The kick leaves the position density invariant, so only the N free
    flights contribute; segment k acts on the revival state of strength
    k*phi_d. The result is 1/2pi plus the sum of the per-segment fields.
    Raises ValueError for a non-finite epsilon.
    """
    N = _as_int("kicks", kicks)
    if N < 0:
        raise ValueError("kicks must be non-negative")
    _check_epsilon(epsilon)
    values = np.full(grid.n_points, 1.0 / TWO_PI)
    for k in range(1, N + 1):
        values = values + correction_term(k, phi_d, epsilon, grid, half_width).values
    return PerturbativeDensity(grid, values, N, float(epsilon))
