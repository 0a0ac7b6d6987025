"""Closed forms at and near the primary revival.

At exact revival the state after t kicks is psi(m) = (-i)^m J_m(t*phi_d):
the kicks compound because every free flight is the identity. Slightly off
revival, the leading change of the position density is linear in the
detuning epsilon and is a sum of per-period correction fields; each field
is a short Fourier series whose coefficients are bilinear in Bessel values.

Bessel values come from a downward three-term recurrence normalized with
the even-order sum rule (J_0 + 2 J_2 + 2 J_4 + ... = 1), which is stable
where the upward recurrence is not. It has one implementation,
_bessel_j_rows, which steps any number of arguments through it together
as arrays: the N arguments of perturbative_density in one block, and
_bessel_j_ladder (and with it every closed form and kick column) as its
one-row case.
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
_RESCALE = 1e250
#: covers the rounding of the recurrence step and of its bound
_SLACK = 1.0 + 1e-12


class TruncationError(NumericalError):
    """A truncated Bessel sum lost more probability than allowed."""


def _bessel_j_rows(xs, n_max: int) -> np.ndarray:
    """J_0(x) .. J_{n_max}(x) at every x of xs, as one (len(xs), n_max+1)
    table, absolute error <= 1e-12 for 0 <= x <= 1000 and n_max <= 10000.

    Two branches, stepped together over the rows that take them: the
    ascending series below x = 1e-4, and above it the downward recurrence,
    where each row starts at its own top order, is rescaled when its own
    value passes _RESCALE and is normalized by its own even-order sum. So
    no row depends on the others in its block. Refuses (ValueError) an
    order outside 0..10000 and an argument outside [0, 1000], NaN included.
    """
    n_max = _as_int("n_max", n_max)
    if n_max < 0 or n_max > _DOMAIN_ORDER:
        raise ValueError(f"order out of range: {n_max}")
    x = np.asarray(xs, dtype=float)
    outside = x[~((0.0 <= x) & (x <= _DOMAIN_ARG))]
    if len(outside):
        raise ValueError(f"argument out of range: {outside[0]}")
    table = np.zeros((len(x), n_max + 1))
    series = x < 1e-4
    if series.any():
        small = x[series]
        y = 0.25 * small * small
        term = np.ones_like(small)
        rows = np.zeros((len(small), n_max + 1))
        for d in range(n_max + 1):
            rows[:, d] = term * (1.0 - y / (d + 1))
            term *= 0.5 * small / (d + 1)
            if not term.any():
                break
        table[series] = rows
    if series.all():
        return table
    x = x[~series]
    # start the recurrence above both the requested order and the turning
    # point |m| ~ x, where J_m(x) is already decaying, and at least one
    # kick's reach past x (|J_m(x)| < 7e-16 there): the even-order sum
    # misses every order above top, 1e-8 of it at x = 250 if top is x + 40
    start = np.maximum(n_max, np.ceil(x).astype(int))
    top = start + np.maximum(40, (2.5 * np.sqrt(start + 1.0)).astype(int))
    top = np.maximum(top, [_kick_reach(v) for v in x])
    K = int(top.max())
    # orders down the first axis, one column per row; order K + 1 is the
    # zero above every row's start
    down = np.zeros((K + 2, len(x)))
    ratio = np.empty(len(x))
    tops = set(top.tolist())
    down[K, top == K] = 1e-30
    # upper bounds on max|down[k]| and max|down[k + 1]|, carried as Python
    # floats: |J_{k-1}| <= (2k/x)|J_k| + |J_{k+1}|, with slack for the
    # rounding of both sides; the exact rescale test runs only once the
    # bound passes _RESCALE, so every rescale falls on the same order
    x_min = float(x.min())
    bound, above = 1e-30, 0.0
    for k in range(K, 0, -1):
        here = down[k - 1]
        np.divide(2.0 * k, x, out=ratio)
        np.multiply(ratio, down[k], out=here)
        here -= down[k + 1]
        if k - 1 in tops:
            here[top == k - 1] = 1e-30
        grown = (2.0 * k / x_min * bound + above) * _SLACK
        bound, above = max(grown, 1e-30), bound
        if bound > _RESCALE:
            big = np.abs(here) > _RESCALE
            if big.any():
                down[k - 1:, big] *= 1.0 / _RESCALE
                above = float(np.abs(down[k]).max())
            bound = float(np.abs(here).max())
    # each row's own sum, over its own orders
    norm = [col[0] + 2.0 * np.sum(col[2:t + 1:2]) for col, t in zip(down.T, top)]
    down /= norm
    table[~series] = down[: n_max + 1].T
    return table


def _bessel_j_ladder(x: float, half_width: int) -> np.ndarray:
    """J_m(x) for m = -M..M as one array (index m + M), x >= 0: the
    one-row case of _bessel_j_rows, made two-sided.

    The one place the Bessel sign rules are applied: J_{-d}(x) =
    (-1)^d J_d(x) fills the negative orders, and J_d(-x) = J_{-d}(x)
    means a negative argument reads this ladder reversed.
    """
    return _two_sided(_bessel_j_rows([x], half_width)[0])


def _two_sided(row: np.ndarray) -> np.ndarray:
    """The ladder J_{-M}..J_M from the row J_0..J_M: J_{-d} = (-1)^d J_d."""
    M = len(row) - 1
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
    (norm deficit above 1e-10), and ValueError for a half width below 1
    or outside the domain of _bessel_j_rows: t*phi_d > 1000 (t > 2061 at
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
    Raises ValueError for a non-finite epsilon, a phi_d that is not
    finite and positive or a half width below 1, and GridTooSmallError
    for a grid that cannot resolve the ladder.
    """
    k = _as_int("k", k, 1)
    _as_finite("phi_d", phi_d, positive=True)
    _as_finite("epsilon", epsilon)
    M = _as_int("half_width", half_width, 1)
    _check_grid(grid.n_points, M)
    return _correction_field(_bessel_j_ladder(k * phi_d, M), epsilon, grid)


def _correction_field(J: np.ndarray, epsilon: float,
                      grid: SpatialGrid) -> CorrectionField:
    """correction_term's arithmetic on the signed Bessel ladder J = J_m(a),
    m = -M..M, of a checked argument set."""
    n = grid.n_points
    L = len(J)
    M = (L - 1) // 2
    m = np.arange(-M, M + 1).astype(float)
    d = np.arange(1, L, dtype=float)
    A = np.correlate(J, J, "full")[L:]
    B = np.correlate(J, m * J, "full")[L:]
    s = 2.0 * d * B + d * d * A
    coeff = np.zeros(n, dtype=complex)
    coeff[1:L] = 2.0 * epsilon * 1j ** np.mod(np.arange(2, L + 1), 4) * s
    values = np.fft.fft(coeff).real
    return CorrectionField(grid, values)


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
    k*phi_d. The result is 1/2pi plus the sum of the per-segment fields,
    each correction_term(k, ...) to the bit: the N Bessel ladders come
    from one stepped recurrence (_bessel_j_rows), and each field keeps
    its own arithmetic. Raises ValueError for a non-finite epsilon or a
    half width below 1.
    """
    N = _as_int("kicks", kicks, 0)
    _as_finite("epsilon", epsilon)
    _as_finite("phi_d", phi_d, positive=True)
    M = _as_int("half_width", half_width, 1)
    _check_grid(grid.n_points, M)
    strengths = [k * phi_d for k in range(1, N + 1)]
    values = np.full(grid.n_points, 1.0 / TWO_PI)
    for row in _bessel_j_rows(strengths, M):
        values = values + _correction_field(_two_sided(row), epsilon, grid).values
    return PerturbativeDensity(grid, values)
