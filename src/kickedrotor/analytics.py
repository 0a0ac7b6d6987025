"""Closed forms at and near the primary revival.

At exact revival the state after t kicks is psi(m) = (-i)^m J_m(t*phi_d):
the kicks compound because every free flight is the identity. Slightly off
revival, the leading change of the position density is linear in the
detuning epsilon and, summed over the ladder, is one cosine: the density
after N periods is (1 - K cos X)/2pi with K = 2 pi l epsilon phi_d N(N+1).

Bessel values come from a downward three-term recurrence normalized with
the even-order sum rule (J_0 + 2 J_2 + 2 J_4 + ... = 1), which is stable
where the upward recurrence is not. It has one implementation,
_bessel_j_ladder, which steps one argument at a time and serves every
closed form and kick column. Each ladder starts at one kick's reach
(wavepacket._kick_reach), past which |J_m(x)| < 7e-16, and holds exact
zeros above it, however wide the ladder asked for. For a weak argument
that reach is the last order whose Taylor bound (x/2)**m / m! is still
>= 7e-16 (11 at x = 0.485); above x = 23.29 it lies an Airy margin past x.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .wavepacket import (TWO_PI, MomentumWavefunction, NumericalError,
                         SpatialGrid, _as_finite, _as_int, _check_grid,
                         _grid_samples, _kick_reach)

#: (-i)^k for k = 0..3; integer-exact phase table
MINUS_I_POW = np.array([1, -1j, -1, 1j])

_DOMAIN_ORDER = 10_000
_DOMAIN_ARG = 1_000.0


class TruncationError(NumericalError):
    """A truncated Bessel sum lost more probability than allowed."""


def _bessel_j_ladder(x: float, half_width: int) -> np.ndarray:
    """J_m(x) for m = -M..M as one array (index m + M), absolute error
    <= 1e-12 for 0 <= x <= 1000 and M <= 10000.

    The ladder ends at one kick's reach, _kick_reach(x), past which
    |J_m(x)| < 7e-16: its orders above that are exactly 0. Two branches:
    the ascending series below x = 1e-4, and above it the downward
    recurrence, started at that reach and normalized by its even-order
    sum. Seeded at 1e-30, no unnormalized value passes 1e-14 (4.0e-15
    near x = 23.3), so nothing is rescaled. Then the one place the Bessel
    sign rules are applied: J_{-d}(x) = (-1)^d J_d(x) fills the negative
    orders, and J_d(-x) = J_{-d}(x) means a negative argument reads this
    ladder reversed. Refuses (ValueError) a half width outside 0..10000
    and an argument outside [0, 1000], NaN included.
    """
    M = _as_int("half_width", half_width)
    if M < 0 or M > _DOMAIN_ORDER:
        raise ValueError(f"order out of range: {M}")
    if not 0.0 <= x <= _DOMAIN_ARG:
        raise ValueError(f"argument out of range: {x}")
    top = _kick_reach(x)
    # orders 0 .. max(top, M) + 1: zeros above the top, whatever M is
    row = np.zeros(max(top, M) + 2)
    if x < 1e-4:
        y = 0.25 * x * x
        term = 1.0
        for d in range(min(M, top) + 1):
            row[d] = term * (1.0 - y / (d + 1))
            term *= 0.5 * x / (d + 1)
    else:
        row[top] = 1e-30
        for k in range(top, 0, -1):
            row[k - 1] = 2.0 * k / x * row[k] - row[k + 1]
        row /= row[0] + 2.0 * np.sum(row[2:top + 1:2])
    row = row[: M + 1]
    signs = np.where(np.arange(1, len(row)) % 2 == 1, -1.0, 1.0)
    return np.concatenate(((signs * row[1:])[::-1], row))


def resonant_state(
    t: int, phi_d: float, half_width: int
) -> MomentumWavefunction:
    """State after t kicks at exact revival: psi(m) = (-i)^m J_m(t*phi_d).

    Raises TruncationError when the ladder is too short to hold the state
    (norm deficit above 1e-10), and ValueError for a half width below 1
    or outside the domain of _bessel_j_ladder: t*phi_d > 1000 (t > 2061 at
    phi_d = 0.485) or a half width above 10000. propagate has no such
    limit, so past it the numerics have no closed form to be checked
    against.
    """
    t = _as_int("t", t, 0)
    _as_finite("phi_d", phi_d, positive=True)
    M = _as_int("half_width", half_width, 1)
    ladder = _bessel_j_ladder(t * phi_d, M)
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

    def __post_init__(self):
        vals = _grid_samples(self.grid, self.values, float)
        mean = float(np.mean(vals)) * TWO_PI
        # written to fail closed: a NaN integral never passes
        if not abs(mean) <= 1e-12:
            raise ValueError(f"correction field integrates to {mean:.3e}, not 0")
        object.__setattr__(self, "values", vals)


def correction_term(
    k: int, phi_d: float, epsilon: float, grid: SpatialGrid, half_width: int,
    *, l: int = 1,
) -> CorrectionField:
    """Density correction from the free flight of period k, linear in epsilon.

    The flight's phase 2 pi l epsilon m^2 on the revival state
    (-i)^m J_m(a), a = k * phi_d, changes the density by a Fourier series
    over the ladder gap d = n - m:

        C(X) = sum_{d>=1} Re[ 2 l eps i^(d+1) e^{-i d X} ] * S_d,
        S_d  = sum_m (2 m d + d^2) J_{m+d}(a) J_m(a).

    Neumann's addition theorem (sum_m J_m J_{m+d} = delta_{d0}) and
    m J_m = (a/2)(J_{m-1} + J_{m+1}) give S_d = a delta_{d1}, so the field
    is the one cosine C(X) = -2 l eps k phi_d cos X. Epsilon enters as one
    factor, so the field is exactly zero at epsilon = 0 and doubles
    exactly with it. The half width enters only the grid check. Raises
    ValueError for a non-finite epsilon, a phi_d that is not finite and
    positive, a half width or an l below 1, and GridTooSmallError for a
    grid that cannot resolve the ladder.
    """
    k = _as_int("k", k, 1)
    phi_d = _as_finite("phi_d", phi_d, positive=True)
    epsilon = _as_finite("epsilon", epsilon)
    M = _as_int("half_width", half_width, 1)
    l = _as_int("l", l, 1)
    _check_grid(grid.n_points, M)
    return CorrectionField(grid, epsilon * (-2.0 * l * k * phi_d) * np.cos(grid.nodes))


@dataclass(frozen=True)
class PerturbativeDensity:
    """Uniform background plus the accumulated first-order corrections."""

    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self):
        vals = _grid_samples(self.grid, self.values, float)
        total = float(np.mean(vals)) * TWO_PI
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"density integrates to {total!r}, not 1")
        # written to fail closed, as Density's guard is
        if not vals.min() >= 0.0:
            raise ValueError("density values must not be negative")
        object.__setattr__(self, "values", vals)


def _first_order_k(kicks: int, phi_d: float, epsilon: float, l: int) -> float:
    """K = 2 pi l epsilon phi_d N(N+1), the strength of the first-order
    ripple after N periods. The density (1 - K cos X)/2pi goes negative
    past |K| = 1, and its error grows as K^2."""
    return TWO_PI * l * epsilon * phi_d * kicks * (kicks + 1.0)


def perturbative_density(
    kicks: int,
    phi_d: float,
    epsilon: float,
    grid: SpatialGrid,
    half_width: int,
    *,
    l: int = 1,
) -> PerturbativeDensity:
    """First-order position density after N periods: (1 - K cos X)/2pi.

    The kick leaves the position density invariant, so only the N free
    flights contribute; segment k acts on the revival state of strength
    k*phi_d and adds correction_term(k, ...) = -2 l eps k phi_d cos X.
    Their sum over k = 1..N is -K cos X/2pi with K = _first_order_k(...),
    so the ripple's amplitude grows as N(N+1). Raises ValueError and
    GridTooSmallError as correction_term does and, after every argument
    check, ValueError for |K| > 1 (NaN and overflow included), where the
    first-order density goes negative.
    """
    N = _as_int("kicks", kicks, 0)
    epsilon = _as_finite("epsilon", epsilon)
    phi_d = _as_finite("phi_d", phi_d, positive=True)
    M = _as_int("half_width", half_width, 1)
    l = _as_int("l", l, 1)
    _check_grid(grid.n_points, M)
    K = _first_order_k(N, phi_d, epsilon, l)
    if not abs(K) <= 1.0:
        raise ValueError(f"first-order strength K = {K!r} lies outside [-1, 1], "
                         "where the first-order density goes negative")
    return PerturbativeDensity(grid, (1.0 - K * np.cos(grid.nodes)) / TWO_PI)
