"""Detuning sweeps, adaptive range selection, and width power laws.

A sweep evaluates one observable over a symmetric detuning grid: the
position-density spread sigma_x(epsilon) or the echo fidelity F(epsilon).
Both profiles peak at epsilon = 0 and decay outward; their full width at
half depth shrinks with the kick number as a power law, and comparing the
two laws locates the kick number where the position profile stops being
the narrower one.

A sweep is one call of the spectral core per block of up to SWEEP_BLOCK
detunings: each detuning is a row of one (P, 2M+1) stack, so a kick costs
one FFT pair for the whole block instead of one per point, and each row is
bit-identical to its own single-point propagation. The block's
detunings reach the core as they are, through one free-flight phase
table, propagator._revival_phases, which the core forms once per ladder.
A block of position rows is synthesized as one stack on the observation
grid, and its densities |Psi|^2 are checked and observed as one stack
(observables._position_sigmas), each row bit-identical to sigma_x of its
own Density; an echo row is one vdot against a target built once per
ladder. Results are bitwise identical from run to run.

At beta = 0 both profiles are exactly even in epsilon: the period map
obeys conj(U_eps) = S U_{-eps} S with S = diag((-1)^m), so psi_m(-eps) =
(-1)^m conj psi_m(eps), F(-eps) = F(eps), and the density at -eps is the
one at eps shifted by pi. A sweep therefore reads every detuning as
-|epsilon|, and both signs return the identical float. The key is -|eps|,
not +|eps|, because sigma_x is not invariant under that shift (see
observables.sigma_x): keyed by -|eps|, every auto_scan width stays within
rounding of the one that propagated both signs.

One object, _Sweep, holds a sweep's driven rows and each mode's values,
keyed by -|epsilon|, so a +- pair is propagated once per sweep and
observed once per mode. A row is dropped once every mode of the sweep has
read it: a one-mode sweep never holds more than one block of rows,
whatever its point count, and a two-mode sweep holds only the rows a mode
has yet to read. auto_range, auto_scan and _widths keep one sweep open
while they run; every other call sweeps on its own. auto_scan is
scan_epsilon over the auto_range range in one open sweep: the probe grids
and the final grid are all multiples of r/2^k, so every repeated |detuning|
is the identical float and is computed once. _widths keeps one sweep per
kick number, read by every mode it measures. width_scaling and
compare_modes accept a threads argument and ignore it, because the
contract tests and the benchmark's sweep workload pass one (timings in
the README); no other sweep takes one. Detunings beyond the config
validity window are legitimate here: the propagation is exact unitary
evolution at any detuning (the 1e-2 window bounds only the first-order
analytics), and at small kick numbers the profile tails extend past it.
"""
from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .observables import Profile, _position_sigmas, fwhm
from .propagator import _echo_fidelities, _revival_phases, _run
from .wavepacket import (NumericalError, _as_finite, _as_int, _synthesize,
                         default_n_points)

MODES = ("position", "fidelity")

#: half level of an echo profile: F decays from exactly 1 toward 0
FIDELITY_HALF_LEVEL = 0.5
#: sweeps never range past this detuning, whatever the kick number
RANGE_CAP = 0.1
#: number of points in the coarse probe sweeps of auto_range
PROBE_POINTS = 17
#: detunings per core call: bounds a sweep's memory whatever its point count
SWEEP_BLOCK = 128


class RangeCapError(NumericalError):
    """Adaptive ranging hit the hard cap before the profile was bracketed."""


class FitRefusalError(NumericalError):
    """Log-log fit quality too poor to quote a power-law exponent."""


def _symmetric_grid(epsilon_max: float, points: int) -> np.ndarray:
    # exact 0 at the center and exact sign symmetry, which linspace over
    # [-e, e] does not guarantee; point i is i * (e / (points // 2)), so
    # when the step ratio of two grids is a power of two, their common
    # detunings are the identical floats
    half = np.linspace(0.0, epsilon_max, (points + 1) // 2)
    grid = np.concatenate([-half[:0:-1], half])
    # a range of a few subnormals has coinciding points
    if not np.all(np.diff(grid) > 0):
        raise ValueError(
            f"range {epsilon_max!r} cannot hold {points} distinct detunings"
        )
    return grid


class _Sweep:
    """One sweep (kicks, phi_d, l): its driven rows and each mode's values,
    keyed by -|epsilon|.

    read maps every requested detuning to -|epsilon| before the memo, so
    a +- pair is propagated, observed and stored once, and both signs
    read the identical float (module docstring); 0.0 stays 0.0. It is the
    only caller of the core in this module, so no sweep bypasses the
    keying. A mode's missing values are computed SWEEP_BLOCK keys at a
    time: the block's rows that no mode has propagated yet are one core
    call on their phase table, and a row is dropped once every mode of the
    sweep has read it. Each row keeps the ladder its core call ran on, so
    a row of a stack that auto-grew is observed on the grown ladder, as it
    is on its own; the echo target is built once per ladder.
    """

    def __init__(self, kicks: int, phi_d: float, l: int, modes: tuple):
        self.key = (kicks, phi_d, l)
        self.rows: dict[float, np.ndarray] = {}
        self.values: dict[str, dict[float, float]] = {m: {} for m in modes}
        self.echo = _echo_fidelities(kicks, phi_d)

    def read(self, mode: str, epsilons: list[float]) -> list[float]:
        memo = self.values[mode]
        # -|e|: e > 0 reads its mirror, and 0.0 stays 0.0
        epsilons = [-e if e > 0 else e for e in epsilons]
        missing = [e for e in dict.fromkeys(epsilons) if e not in memo]
        for start in range(0, len(missing), SWEEP_BLOCK):
            block = missing[start:start + SWEEP_BLOCK]
            new = [e for e in block if e not in self.rows]
            if new:
                kicks, phi_d, l = self.key
                phases = functools.partial(_revival_phases, l, new)
                self.rows.update(zip(new, _run(kicks, phi_d, phases)))
            values: list[float] = []
            for _, same in itertools.groupby((self.rows[e] for e in block), len):
                amps = np.array(list(same))
                values.extend(self.echo(amps) if mode == "fidelity"
                              else _spreads(amps))
            memo.update(zip(block, values))
            for e in block:
                if all(e in read for read in self.values.values()):
                    del self.rows[e]
        return [memo[e] for e in epsilons]


def _spreads(amps: np.ndarray) -> list[float]:
    """sigma_x of each row of a (P, 2M+1) block.

    The block is synthesized once on the observation grid, and the (P, n)
    densities |Psi|^2 go through the density value rules and the sigma_x
    arithmetic as one stack; no state or Density is built per row.
    """
    n = default_n_points((amps.shape[1] - 1) // 2)
    return _position_sigmas(np.abs(_synthesize(amps, n)) ** 2).tolist()


#: the sweep auto_range, auto_scan and _widths keep open; unset outside them
_OPEN_SWEEP: contextvars.ContextVar[_Sweep | None] = contextvars.ContextVar(
    "_OPEN_SWEEP", default=None)


@contextlib.contextmanager
def _open(kicks: int, phi_d: float, l: int, modes: tuple):
    """Keep a sweep open for the block: the open one when it is of the same
    (kicks, phi_d, l) and serves every mode in modes, else a new one."""
    sweep = _OPEN_SWEEP.get()
    if (sweep is None or sweep.key != (kicks, phi_d, l)
            or not set(modes) <= sweep.values.keys()):
        sweep = _Sweep(kicks, phi_d, l, modes)
    token = _OPEN_SWEEP.set(sweep)
    try:
        yield sweep
    finally:
        _OPEN_SWEEP.reset(token)


def _sweep_values(
    mode: str,
    kicks: int,
    phi_d: float,
    l: int,
    epsilons: np.ndarray,
    # unused: the benchmark's probe-step test wraps this signature
    threads: int = 1,
) -> np.ndarray:
    """The observable at each detuning, read from the open sweep, or from a
    sweep of this call alone when none of (kicks, phi_d, l) is open."""
    with _open(kicks, phi_d, l, (mode,)) as sweep:
        return np.array(sweep.read(mode, epsilons.tolist()))


def _check_points(points: int) -> int:
    points = _as_int("points", points)
    if points < 33 or points % 2 == 0:
        raise ValueError("points must be odd and >= 33")
    return points


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")


@dataclass(frozen=True)
class EpsilonScan:
    """One observable swept over a symmetric detuning grid."""

    kicks: int
    mode: str
    epsilons: np.ndarray
    values: np.ndarray
    _profile: Profile = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_mode(self.mode)
        # Profile checks the shape and order and keeps frozen copies
        profile = Profile(self.epsilons, self.values)
        _check_points(len(profile.abscissa))
        if profile.abscissa[len(profile.abscissa) // 2] != 0.0:
            raise ValueError("scan grid must contain epsilon = 0")
        object.__setattr__(self, "epsilons", profile.abscissa)
        object.__setattr__(self, "values", profile.ordinate)
        object.__setattr__(self, "_profile", profile)

    def profile(self) -> Profile:
        return self._profile


def scan_epsilon(
    kicks: int,
    phi_d: float,
    l: int,
    mode: str,
    epsilon_max: float,
    points: int = 65,
) -> EpsilonScan:
    """Sweep the chosen observable over [-epsilon_max, epsilon_max]."""
    # the sweep rule: a profile needs at least one kick, in either mode
    kicks = _as_int("kicks", kicks, 1)
    points = _check_points(points)
    epsilon_max = _as_finite("epsilon_max", epsilon_max, positive=True)
    _check_mode(mode)
    eps = _symmetric_grid(epsilon_max, points)
    vals = _sweep_values(mode, kicks, phi_d, l, eps)
    return EpsilonScan(kicks, mode, eps, vals)


def _adequate(mode: str, values: np.ndarray) -> bool:
    """Is the sweep range wide enough to support a width measurement?

    Fidelity: both edges must sit below the absolute half level 1/2.
    Position: each side must hold a strictly interior minimum, so the dip
    flanking the central peak is bracketed and the floor estimate has
    converged; the half-level crossings then lie between peak and floor,
    inside the sweep by construction. Edge values cannot decide this:
    past the dip the spread recovers to near its peak value, and a
    decaying profile puts its edges below any edge-based midpoint
    immediately.
    """
    if mode == "fidelity":
        return values[0] < FIDELITY_HALF_LEVEL and values[-1] < FIDELITY_HALF_LEVEL
    center = len(values) // 2
    for side in (values[center:], values[center::-1]):
        i_min = int(np.argmin(side))
        if not 0 < i_min < len(side) - 1:
            return False
    return True


def auto_range(
    kicks: int,
    phi_d: float,
    l: int,
    mode: str,
    cap: float = RANGE_CAP,
) -> float:
    """Smallest range from the doubling ladder 0.1/N^2, 0.2/N^2, ... that
    brackets the profile, so that a width extraction succeeds.

    Each probe step is one sweep of PROBE_POINTS detunings, of which only
    those the earlier steps did not evaluate are propagated. Raises
    RangeCapError when the cap is reached first.
    """
    kicks = _as_int("kicks", kicks, 1)
    _check_mode(mode)
    # a NaN cap would never stop the doubling ladder
    _as_finite("cap", cap, positive=True)
    r = min(0.1 / (kicks * kicks), cap)
    with _open(kicks, phi_d, l, (mode,)):
        while True:
            grid = _symmetric_grid(r, PROBE_POINTS)
            if _adequate(mode, _sweep_values(mode, kicks, phi_d, l, grid)):
                return r
            if r >= cap:
                raise RangeCapError(
                    f"profile not bracketed within |epsilon| <= {cap} "
                    f"(kicks={kicks}, mode={mode})"
                )
            r = min(2.0 * r, cap)


def auto_scan(
    kicks: int,
    phi_d: float,
    l: int,
    mode: str,
    points: int = 65,
) -> EpsilonScan:
    """The scan_epsilon sweep over [-r, r] for the range r that auto_range
    returns under RANGE_CAP, reusing the probes' detunings.

    The probe ladder and the final grid read one open sweep, so each
    distinct |detuning| is propagated once.
    """
    points = _check_points(points)
    with _open(kicks, phi_d, l, (mode,)):
        r = auto_range(kicks, phi_d, l, mode)
        return scan_epsilon(kicks, phi_d, l, mode, r, points)


def scan_width(scan: EpsilonScan) -> float:
    """Full width at half depth of a sweep, with the mode's level rule.

    Echo profiles use the absolute level 1/2 once the edges reach below
    it (the peak is exactly 1 and the floor is 0); otherwise the level is
    midway between the peak and the lower of the two edge samples, however
    low the profile dips inside them. Position profiles use the level
    midway between peak and lowest sample.
    """
    half = None
    if scan.mode == "fidelity":
        edge = min(scan.values[0], scan.values[-1])
        if edge < FIDELITY_HALF_LEVEL:
            half = FIDELITY_HALF_LEVEL
        else:
            half = 0.5 * (float(scan.values.max()) + float(edge))
    return fwhm(scan.profile(), half)


@dataclass(frozen=True)
class WidthScaling:
    """Widths per kick number and their fitted power law."""

    kick_numbers: np.ndarray
    widths: np.ndarray
    gamma: float
    intercept: float
    r_squared: float


def _kick_numbers(n_values, least: int = 1) -> np.ndarray:
    # _as_int refuses 4.5, which a dtype=int cast would truncate to 4; the
    # range keeps log N finite and the cast from overflowing
    ns = [_as_int("kick number", n) for n in n_values]
    # repeated kick numbers leave the log-log design rank-deficient
    if len(set(ns)) < 4:
        raise ValueError("need at least 4 distinct kick numbers")
    if not all(least <= n < 2**63 for n in ns):
        raise ValueError(f"kick numbers must lie in [{least}, 2**63), got {ns}")
    return np.array(ns, dtype=int)


def fit_widths(n_values, widths) -> WidthScaling:
    """Fit a power law to given widths: the least-squares slope gamma,
    intercept and r^2 of log(width) against log(N).

    Raises FitRefusalError for a non-finite width or r^2 below 0.9, and
    ValueError for a kick number that is not an integer in [1, 2**63), a
    width list that is not one width per kick number, a non-positive
    width or fewer than 4 distinct kick numbers.
    """
    n_arr = _kick_numbers(n_values)
    w_arr = np.asarray(widths, dtype=float)
    if w_arr.shape != n_arr.shape:
        raise ValueError(f"need one width per kick number: {len(n_arr)} kick "
                         f"numbers, widths of shape {w_arr.shape}")
    # written to fail closed: a NaN width or r^2 never passes a check
    if not np.all(np.isfinite(w_arr)):
        raise FitRefusalError(f"non-finite width in {w_arr.tolist()}")
    if not np.all(w_arr > 0):
        raise ValueError("widths must be positive")
    logn = np.log(n_arr.astype(float))
    logw = np.log(w_arr)
    design = np.vstack([logn, np.ones_like(logn)]).T
    (gamma, intercept), *_ = np.linalg.lstsq(design, logw, rcond=None)
    residual = logw - design @ [gamma, intercept]
    ss_tot = float(np.sum((logw - logw.mean()) ** 2))
    ss_res = float(np.sum(residual**2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    if not r2 >= 0.9:
        raise FitRefusalError(
            f"r_squared = {r2:.4f} below 0.9; widths do not follow a power law"
        )
    return WidthScaling(n_arr, w_arr, float(gamma), float(intercept), r2)


def width_scaling(
    n_list,
    phi_d: float,
    l: int,
    mode: str,
    points: int = 65,
    threads: int = 1,
) -> WidthScaling:
    """Measure profile widths over the given kick numbers and fit the law.

    Per kick number, one auto_scan: the probes and the final scan read
    one sweep, so each distinct |detuning| is propagated once.
    """
    n_arr = _kick_numbers(n_list, least=2)
    return fit_widths(n_arr, _widths(n_arr, phi_d, l, (mode,), points)[0])


def _widths(n_arr: np.ndarray, phi_d: float, l: int, modes: tuple,
            points: int) -> list[list[float]]:
    """Per mode, the auto_scan width at each kick number.

    The modes of one kick number read one sweep, so a |detuning| that
    several modes need is propagated once; the sweep is closed when that
    kick number is done, and on any error.
    """
    widths: list[list[float]] = [[] for _ in modes]
    for N in n_arr.tolist():
        with _open(N, phi_d, l, modes):
            # auto_scan validates mode and points before it propagates
            for mode, column in zip(modes, widths):
                column.append(scan_width(auto_scan(N, phi_d, l, mode, points)))
    return widths


@dataclass(frozen=True)
class ModeComparison:
    """Position and echo width laws side by side on one kick-number list."""

    position: WidthScaling
    fidelity: WidthScaling
    #: per-N rows (N, position width, fidelity width, position/fidelity)
    table: tuple
    #: first listed N whose position width meets or exceeds the fidelity
    #: width; None when the lists never cross
    crossover_first_exceed: int | None
    #: kick number where the two fitted laws intersect
    crossover_fit: float


def compare_modes(
    n_list,
    phi_d: float,
    l: int,
    points: int = 65,
    threads: int = 1,
) -> ModeComparison:
    """Run both width scalings on one kick-number list and compare them.

    Bit for bit the two width_scaling calls, but each kick number is
    measured in both modes before the next, from one set of driven rows;
    so the first error raised is that of the first kick number that fails.
    """
    n_arr = _kick_numbers(n_list, least=2)
    pos, fid = (fit_widths(n_arr, w)
                for w in _widths(n_arr, phi_d, l, MODES, points))
    rows = []
    first_exceed = None
    for N, wp, wf in zip(pos.kick_numbers, pos.widths, fid.widths):
        rows.append((int(N), float(wp), float(wf), float(wp / wf)))
        if first_exceed is None and wp >= wf:
            first_exceed = int(N)
    cross = math.exp(
        (fid.intercept - pos.intercept) / (pos.gamma - fid.gamma)
    )
    return ModeComparison(pos, fid, tuple(rows), first_exceed, cross)
