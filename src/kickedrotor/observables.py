"""Densities and the scalar summaries this toolkit extracts from them.

Position densities are treated as piecewise constant over the grid bins of
width dX = 2*pi/n. The spread sigma_x is the exact standard deviation of
that piecewise-constant density after rotating its maximum bin to X = pi,
which is why the within-bin variance dX^2/12 appears: with it, the uniform
density gives exactly pi/sqrt(3) at any grid size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .wavepacket import TWO_PI, MomentumWavefunction, PositionWavefunction

#: spread of the uniform density on [0, 2*pi)
UNIFORM_SIGMA_X = math.pi / math.sqrt(3.0)


class DegenerateDensityError(RuntimeError):
    """Input carries too little probability mass to summarize."""


class NoCrossingError(RuntimeError):
    """Profile never falls below its half level inside the scanned range."""


@dataclass(frozen=True)
class Density:
    """Non-negative values on a position grid (1/radian) or momentum ladder."""

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
        total = self._total(support, values, self.kind)
        # written to fail closed: a NaN or infinity never passes a check, and
        # only a non-finite total pays for the elementwise scan
        if not math.isfinite(total) and not np.isfinite(values).all():
            raise ValueError("density values must be finite")
        if not float(values.min(initial=0.0)) >= -1e-12:
            raise ValueError("density values must be non-negative")
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"density sums to {total!r}, not 1")
        support = support.copy()
        values = values.copy()
        support.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", values)

    @staticmethod
    def _total(support, values, kind) -> float:
        if kind == "momentum":
            return float(np.sum(values))
        return float(np.sum(values)) * TWO_PI / len(values)


def position_density(pwf: PositionWavefunction) -> Density:
    return Density("position", pwf.grid.nodes, np.abs(pwf.values) ** 2)


def momentum_density(wf: MomentumWavefunction) -> Density:
    return Density("momentum", wf.m_values.astype(float), np.abs(wf.amps) ** 2)


def sigma_x(d: Density) -> float:
    """Standard deviation of a position density, peak rotated to X = pi.

    The rotation removes the wrap-around ambiguity of the circle; argmax
    ties break to the lowest index. The value never exceeds pi/sqrt(3)
    by more than one bin width.
    """
    if d.kind != "position":
        raise ValueError("sigma_x needs a position density")
    n = len(d.values)
    dx = TWO_PI / n
    mass = float(np.sum(d.values)) * dx
    if not mass >= 1.0 - 1e-6:
        raise DegenerateDensityError(f"total mass {mass!r} below 1 - 1e-6")
    shifted = np.roll(d.values, n // 2 - int(np.argmax(d.values)))
    X = dx * np.arange(n)
    mu = float(np.sum(X * shifted)) * dx
    var = float(np.sum((X - mu) ** 2 * shifted)) * dx + dx * dx / 12.0
    return math.sqrt(var)


def mean_energy(wf: MomentumWavefunction, hbar_s: float) -> float:
    """E = (hbar_s^2 / 2) sum_m m^2 |psi(m)|^2."""
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


@dataclass(frozen=True)
class Profile:
    """Sampled curve with strictly increasing abscissa (at least 5 points)."""

    abscissa: np.ndarray
    ordinate: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.abscissa, dtype=float)
        y = np.asarray(self.ordinate, dtype=float)
        if x.shape != y.shape or x.ndim != 1 or len(x) < 5:
            raise ValueError("profile needs >= 5 paired samples")
        if not np.all(np.diff(x) > 0):
            raise ValueError("abscissa must be strictly increasing")
        x = x.copy()
        y = y.copy()
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "abscissa", x)
        object.__setattr__(self, "ordinate", y)


def fwhm(p: Profile, half_level: float | None = None) -> float:
    """Full width between the innermost half-level crossings of a peak.

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
    x, y = p.abscissa, p.ordinate
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

    right = None
    for j in range(i_pk, len(y) - 1):
        if y[j] >= half > y[j + 1]:
            t = (y[j] - half) / (y[j] - y[j + 1])
            right = x[j] + t * (x[j + 1] - x[j])
            break
    left = None
    for j in range(i_pk, 0, -1):
        if y[j] >= half > y[j - 1]:
            t = (y[j] - half) / (y[j] - y[j - 1])
            left = x[j] + t * (x[j - 1] - x[j])
            break
    if left is None or right is None:
        raise NoCrossingError(
            "profile edges do not fall below the half level; widen the range"
        )
    return float(right - left)
