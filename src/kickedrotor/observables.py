"""Densities and the scalar summaries this toolkit extracts from them.

Position densities are treated as piecewise constant over the grid bins of
width dX = 2*pi/n. The spread sigma_x is the exact standard deviation of
that piecewise-constant density after rotating its maximum bin to X = pi,
the lower of two mirror bins that tie. That is why the within-bin
variance dX^2/12 appears: with it, the uniform density gives exactly
pi/sqrt(3) at any grid size.

The density value rules (_check_values) and the sigma_x arithmetic
(_sigma_rows) work along the last axis, like wavepacket._synthesize: a
(P, n) stack of density samples is checked and observed in one array
pass, and each row comes out bit-identical to its own 1-d result, so
sigma_x of one Density is the one-row case. A stack that breaks a rule
raises what a loop over its rows raises: the first failing row's first
failing rule.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .wavepacket import (TWO_PI, MomentumWavefunction, NumericalError,
                         PositionWavefunction, _as_finite)

#: relative gap below which a density maximum and its mirror sample tie;
#: the package's densities are even, and their maxima differ from their
#: mirror samples by at most 3.2e-14 relative (auto_scan, N = 5..40)
MIRROR_TIE = 1e-10


class NoCrossingError(NumericalError):
    """A profile never falls below its half level inside the scanned range."""


@dataclass(frozen=True)
class Density:
    """Values >= 0 on a position grid (1/radian) or momentum ladder."""

    kind: str
    support: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in ("position", "momentum"):
            raise ValueError(f"unknown density kind {self.kind!r}")
        support = np.asarray(self.support, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if support.shape != values.shape or support.ndim != 1:
            raise ValueError("support and values must be 1-d and same length")
        _check_values(self.kind, values)
        support = support.copy()
        values = values.copy()
        support.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", values)


def _check_values(kind: str, values: np.ndarray) -> None:
    """The value rules of a density, along the last axis of (n,) or (P, n)
    samples: each row is finite, no value is below -1e-12, and the total
    (the sum of a momentum row, (2*pi/n) times the sum of a position row)
    is within 1e-10 of 1.

    Raises ValueError for the first row that breaks a rule, naming the
    first rule it breaks, as a loop of Density over the rows would.
    """
    n = values.shape[-1]
    if n == 0:
        raise ValueError("density needs at least one value")
    rows = values.reshape(-1, n)
    total = np.sum(rows, axis=-1)
    if kind == "position":
        total = total * TWO_PI / n
    # written to fail closed: a NaN or infinity never passes a check, and
    # only a row with a non-finite total pays for the elementwise scan
    non_finite = ~np.isfinite(total)
    if non_finite.any():
        non_finite[non_finite] = ~np.isfinite(rows[non_finite]).all(axis=-1)
    negative = ~(rows.min(axis=-1, initial=0.0) >= -1e-12)
    off_mass = ~(np.abs(total - 1.0) <= 1e-10)
    failed = non_finite | negative | off_mass
    if failed.any():
        k = int(np.argmax(failed))
        if non_finite[k]:
            raise ValueError("density values must be finite")
        if negative[k]:
            raise ValueError("density values must not be negative")
        raise ValueError(f"density sums to {float(total[k])!r}, not 1")


def position_density(pwf: PositionWavefunction) -> Density:
    return Density("position", pwf.grid.nodes, np.abs(pwf.values) ** 2)


def momentum_density(wf: MomentumWavefunction) -> Density:
    return Density("momentum", wf.m_values.astype(float), np.abs(wf.amps) ** 2)


def sigma_x(d: Density) -> float:
    """Standard deviation of a position density, peak rotated to X = pi.

    The rotation removes the wrap-around ambiguity of the circle; argmax
    ties break to the lowest index. Every state the package makes has a
    mirror-symmetric density, p(X) = p(-X) up to rounding, so a density
    whose maximum sits at X has an equal one at -X, and which of the two
    rounds higher would pick between two rotations that give different
    values. A maximum whose mirror sample is within MIRROR_TIE of it,
    relative, is therefore rotated from the lower index of the pair, so rounding
    cannot flip it and the reflected density rotates about the same bin.
    The value is not invariant under the shift X -> X + pi, which maps the
    density at detuning epsilon to the one at -epsilon: the tie rule
    rotates from one peak of a mirror pair here and from the other there,
    and the bin X = 0 has no partner in [0, 2 pi), so sigma_x of the two
    differs by up to 1.2 % (N = 8, |epsilon| = 0.0242).
    The value never exceeds pi/sqrt(3) by more than one bin width.
    """
    if d.kind != "position":
        raise ValueError("sigma_x needs a position density")
    return float(_sigma_rows(d.values[np.newaxis])[0])


def _position_sigmas(p: np.ndarray) -> np.ndarray:
    """sigma_x of each row of a (P, n) stack of position density samples.

    Bit for bit [sigma_x(Density("position", X, row)) for row in p], and
    the same error as that loop for the first row it would refuse.
    """
    _check_values("position", p)
    return _sigma_rows(p)


def _sigma_rows(p: np.ndarray) -> np.ndarray:
    """The sigma_x arithmetic along the last axis of (P, n) samples that
    keep the density value rules (_check_values)."""
    n = p.shape[-1]
    dx = TWO_PI / n
    rows = np.arange(len(p))
    peak = np.argmax(p, axis=-1)
    # p(-X_j) is the sample at (n - j) % n
    mirror = (n - peak) % n
    top = p[rows, peak]
    tie = top - p[rows, mirror] <= MIRROR_TIE * top
    peak = np.where(tie, np.minimum(peak, mirror), peak)
    # np.roll(row, n // 2 - peak) of each row, as one gather
    shifted = np.take_along_axis(
        p, (np.arange(n) + (peak - n // 2)[:, np.newaxis]) % n, axis=-1)
    X = dx * np.arange(n)
    mu = np.sum(X * shifted, axis=-1) * dx
    var = (np.sum((X - mu[:, np.newaxis]) ** 2 * shifted, axis=-1) * dx
           + dx * dx / 12.0)
    return np.sqrt(var)


def mean_energy(wf: MomentumWavefunction, hbar_s: float) -> float:
    """E = (hbar_s^2 / 2) sum_m m^2 |psi(m)|^2; hbar_s must be finite."""
    _as_finite("hbar_s", hbar_s)
    m = wf.m_values.astype(float)
    return float(0.5 * hbar_s * hbar_s * np.sum(m * m * np.abs(wf.amps) ** 2))


def l1_distance(a: Density, b: Density) -> float:
    """Integrated absolute difference; 2 for disjoint, 0 iff equal."""
    if a.kind != b.kind:
        raise ValueError("density kinds differ")
    if a.support.shape != b.support.shape or not np.array_equal(
        a.support, b.support
    ):
        raise ValueError("density supports differ")
    diff = float(np.sum(np.abs(a.values - b.values)))
    if a.kind == "position":
        diff *= TWO_PI / len(a.values)
    return diff


def _fwhm(x: np.ndarray, y: np.ndarray,
          half_level: float | None = None) -> float:
    """Full width between the innermost half-level crossings of a peak in
    the samples y over the strictly increasing, finite abscissa x (the
    rules scanner.EpsilonScan keeps).

    The peak must be an interior maximum. By default the half level sits
    midway between the peak and the lowest sampled value, which coincides
    with the midpoint to the edge values whenever the profile decays
    monotonically toward the edges; callers with a known floor (an echo
    profile decaying to zero, say) pass half_level explicitly. Crossings
    are located by linear interpolation between the bracketing samples.

    Raises NoCrossingError when an edge never falls below the half level
    (the scan range is too narrow) or the profile is flat to within
    rounding noise.
    """
    i_pk = int(np.argmax(y))
    peak = float(y[i_pk])
    if i_pk in (0, len(y) - 1):
        raise NoCrossingError("profile peaks at the scan edge")
    floor = float(y.min())
    # a contrast at rounding-noise level means the feature is unresolved;
    # any crossing found in it would be an artifact of the noise
    if peak - floor <= 1e-12 * max(1.0, abs(peak)):
        raise NoCrossingError(
            "profile contrast is at rounding noise; widen the range"
        )
    if half_level is None:
        half_level = 0.5 * (peak + floor)
    half = float(half_level)
    if peak < half:
        raise NoCrossingError("peak sits below the requested level")

    crossings = []
    for step, edge in ((1, len(y) - 1), (-1, 0)):
        for j in range(i_pk, edge, step):
            k = j + step
            if y[j] >= half > y[k]:
                t = (y[j] - half) / (y[j] - y[k])
                crossings.append(x[j] + t * (x[k] - x[j]))
                break
    if len(crossings) < 2:
        raise NoCrossingError(
            "profile edges do not fall below the half level; widen the range"
        )
    right, left = crossings
    return float(right - left)
