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
table, propagator._revival_phases, which the core forms once per block.
Every block of a sweep runs on the one ladder the core sizes from the
kick number, default_half_width(kicks, phi_d).
A block of position rows is synthesized as one stack on the observation
grid, and its densities |Psi|^2 are checked and observed as one stack
(observables._position_sigmas), each row bit-identical to sigma_x of its
own Density; an echo row is one vdot against a target built once per
sweep. Results are bitwise identical from run to run.

At beta = 0 both profiles are exactly even in epsilon: the period map
obeys conj(U_eps) = S U_{-eps} S with S = diag((-1)^m), so psi_m(-eps) =
(-1)^m conj psi_m(eps), F(-eps) = F(eps), and the density at -eps is the
one at eps shifted by pi. A sweep therefore reads every detuning as
-|epsilon|, and both signs return the identical float. The key is -|eps|,
not +|eps|, because sigma_x is not invariant under that shift (see
observables.sigma_x): keyed by -|eps|, every auto_scan width stays within
rounding of the one that propagated both signs.

Every rule that differs between the modes lives in one table, PROBES,
one entry per mode: how a sweep observes a propagated block, when an
auto_range probe sweep brackets the profile, and the level scan_width
measures at. No other code branches on a mode name, so a new probe is
one more entry of the table.

One object, _Sweep, holds each mode's values of a sweep, keyed by
-|epsilon|, so a +- pair is propagated once per sweep. A read propagates
the detunings it lacks one block at a time and observes each block in
every mode the sweep serves as soon as the core returns it: the sweep
keeps values, never rows, and a read keeps one block's stack at a time,
whatever its point count and however many modes the sweep serves. A
two-mode sweep thus also observes, in the other mode, the rows only one
mode asked for. auto_range, auto_scan and _widths keep one sweep open
while they run; every other call sweeps on its own. auto_scan is
scan_epsilon over the auto_range range in one open sweep: the probe grids
and the final grid are all multiples of r/2^k, so every repeated |detuning|
is the identical float and is computed once. _widths keeps one sweep per
kick number, read by every mode it measures, and reads it in two blocks:
the union of the probe grids of rungs 0..k*, where k* is the deepest rung
any mode's walk stopped at for the previous kick number in the list (every
rung up to RANGE_CAP for the first), then the union of every mode's final
grid. A walk that climbs past the first block reads each further rung in
one core call, as a lone auto_range does; every other value the walks and
final scans ask for is in the sweep. The widths follow power laws in N, so
the rung a walk stops at hardly moves from one kick number to the next,
and a width law makes about two core calls per kick number (while a union
fits in SWEEP_BLOCK): compare_modes over N = 5..18 makes 29 calls on 773
rows, one more call than with every rung up to the cap in the first block,
at N = 6, where the position walk climbs one rung past N = 5's stop, and
221 fewer rows, which lay above every stop and were never read.
auto_range and auto_scan called on their own keep one read per rung.
width_scaling and compare_modes accept a threads argument and ignore it,
because the contract tests and the benchmark's sweep workload pass one
(timings in the README); no other sweep takes one. Detunings beyond the
config validity window are legitimate here: the propagation is exact
unitary evolution at any detuning (the 1e-2 window bounds only the
first-order analytics), and at small kick numbers the profile tails
extend past it.
"""
from __future__ import annotations

import contextlib
import contextvars
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .observables import _fwhm, _position_sigmas
from .propagator import _echo_fidelities, _revival_phases, _run
from .wavepacket import (NumericalError, _as_finite, _as_int, _synthesize,
                         default_n_points)

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
    """One sweep (kicks, phi_d, l): each mode's values, keyed by -|epsilon|.

    read maps every requested detuning to -|epsilon| before the memo, so
    a +- pair is propagated, observed and stored once, and both signs
    read the identical float (module docstring); 0.0 stays 0.0. It is the
    only caller of the core in this module, so no sweep bypasses the
    keying. The missing keys are propagated SWEEP_BLOCK at a time, one
    core call per block on its phase table, and each returned stack is
    observed at once in every mode of the sweep, so every mode holds the
    same keys and no stack outlives the read that made it. Each mode's
    observer is made once per sweep from its PROBES entry, so the echo
    target is built once per sweep.
    """

    def __init__(self, kicks: int, phi_d: float, l: int, modes: tuple):
        self.key = (kicks, phi_d, l)
        self.values: dict[str, dict[float, float]] = {m: {} for m in modes}
        # the lookup refuses an unknown mode before any kick
        self.observe = {m: _check_mode(m).observer(kicks, phi_d) for m in modes}

    def read(self, mode: str, epsilons: list[float]) -> list[float]:
        memo = self.values[mode]
        # -|e|: e > 0 reads its mirror, and 0.0 stays 0.0
        epsilons = [-e if e > 0 else e for e in epsilons]
        missing = [e for e in dict.fromkeys(epsilons) if e not in memo]
        kicks, phi_d, l = self.key
        for start in range(0, len(missing), SWEEP_BLOCK):
            block = missing[start:start + SWEEP_BLOCK]
            amps = _run(kicks, phi_d, functools.partial(_revival_phases, l, block))
            for m, values in self.values.items():
                values.update(zip(block, self.observe[m](amps)))
        return [memo[e] for e in epsilons]


def _spreads(amps: np.ndarray) -> list[float]:
    """sigma_x of each row of a (P, 2M+1) block.

    The block is synthesized once on the observation grid, and the (P, n)
    densities |Psi|^2 go through the density value rules and the sigma_x
    arithmetic as one stack; no state or Density is built per row.
    """
    n = default_n_points((amps.shape[1] - 1) // 2)
    return _position_sigmas(np.abs(_synthesize(amps, n)) ** 2).tolist()


def _brackets_dips(values: np.ndarray) -> bool:
    """Does a position probe sweep bracket the profile?

    Each side must hold a strictly interior minimum, so the dip flanking
    the central peak is bracketed and the floor estimate has converged;
    the half-level crossings then lie between peak and floor, inside the
    sweep by construction. Edge values cannot decide this: past the dip
    the spread recovers to near its peak value, and a decaying profile
    puts its edges below any edge-based midpoint immediately.
    """
    center = len(values) // 2
    for side in (values[center:], values[center::-1]):
        i_min = int(np.argmin(side))
        if not 0 < i_min < len(side) - 1:
            return False
    return True


def _brackets_half_level(values: np.ndarray) -> bool:
    """Does an echo probe sweep bracket the profile? Both edges must sit
    below the absolute half level 1/2."""
    return values[0] < FIDELITY_HALF_LEVEL and values[-1] < FIDELITY_HALF_LEVEL


def _echo_level(values: np.ndarray) -> float:
    """The half level of an echo profile: 1/2 once an edge reaches below it
    (the peak is exactly 1 and the floor is 0); otherwise midway between
    the peak and the lower of the two edge samples, however low the
    profile dips inside them."""
    edge = min(values[0], values[-1])
    if edge < FIDELITY_HALF_LEVEL:
        return FIDELITY_HALF_LEVEL
    return 0.5 * (float(values.max()) + float(edge))


class _Probe(NamedTuple):
    """The rules of one sweep mode."""

    #: (kicks, phi_d) -> the sweep's observer, from a (P, 2M+1) block of
    #: driven rows to their P values
    observer: Callable
    #: auto_range: do a probe sweep's values bracket the profile?
    adequate: Callable[[np.ndarray], bool]
    #: scan_width: the half level of a scan's values; None is _fwhm's default,
    #: midway between the peak and the lowest sample
    level: Callable[[np.ndarray], float | None]


#: every sweep mode and its rules; MODES keeps this order
PROBES = {
    "position": _Probe(lambda kicks, phi_d: _spreads, _brackets_dips,
                       lambda values: None),
    "fidelity": _Probe(_echo_fidelities, _brackets_half_level, _echo_level),
}
MODES = tuple(PROBES)


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


def _check_mode(mode: str) -> _Probe:
    """The PROBES entry of a mode; ValueError for an unknown one."""
    if mode not in PROBES:
        raise ValueError(f"mode must be one of {MODES}")
    return PROBES[mode]


@dataclass(frozen=True)
class EpsilonScan:
    """One observable swept over a symmetric detuning grid.

    The sampled profile a width is taken of: one value per detuning, both
    1-d, every sample finite (a NaN or an infinity never reaches a width),
    the detunings strictly increasing, an odd count of at least 33 and
    epsilon = 0 at the centre. It keeps read-only copies of both arrays.
    """

    kicks: int
    mode: str
    epsilons: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _check_mode(self.mode)
        eps = np.array(self.epsilons, dtype=float)
        vals = np.array(self.values, dtype=float)
        if eps.shape != vals.shape or eps.ndim != 1:
            raise ValueError("a scan needs one value per detuning, both 1-d")
        if not (np.isfinite(eps).all() and np.isfinite(vals).all()):
            raise ValueError("scan samples must be finite")
        if not np.all(np.diff(eps) > 0):
            raise ValueError("detunings must be strictly increasing")
        _check_points(len(eps))
        if eps[len(eps) // 2] != 0.0:
            raise ValueError("scan grid must contain epsilon = 0")
        eps.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "values", vals)


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
    eps = _symmetric_grid(epsilon_max, points)
    # the sweep refuses an unknown mode before it propagates
    vals = _sweep_values(mode, kicks, phi_d, l, eps)
    return EpsilonScan(kicks, mode, eps, vals)


def _rungs(kicks: int, cap: float) -> list[float]:
    """The doubling ladder of auto_range: 0.1/N^2, 0.2/N^2, ..., cap.

    Finitely many rungs: the first is positive (0.1 / N^2 is at least
    5e-310 wherever N^2 converts to a float, and refused with ValueError
    elsewhere), and each doubles to the cap, which must be finite and
    positive. Doubling is exact, so the probe grids of two rungs below the
    cap share their common detunings as identical floats.
    """
    # a NaN cap would never end the doubling ladder
    _as_finite("cap", cap, positive=True)
    rungs = [min(0.1 / _as_int("kicks squared", kicks * kicks), cap)]
    while rungs[-1] < cap:
        rungs.append(min(2.0 * rungs[-1], cap))
    return rungs


def _first_bracket(kicks: int, phi_d: float, l: int, mode: str,
                   rungs: list[float]) -> float | None:
    """The first of the rungs whose probe sweep the mode's adequacy rule
    accepts, or None when none does. Each rung is one _sweep_values read
    of PROBE_POINTS detunings."""
    probe = PROBES[mode]
    for r in rungs:
        grid = _symmetric_grid(r, PROBE_POINTS)
        if probe.adequate(_sweep_values(mode, kicks, phi_d, l, grid)):
            return r
    return None


def _range_cap_error(kicks: int, mode: str, cap: float) -> RangeCapError:
    return RangeCapError(
        f"profile not bracketed within |epsilon| <= {cap} "
        f"(kicks={kicks}, mode={mode})"
    )


def auto_range(
    kicks: int,
    phi_d: float,
    l: int,
    mode: str,
    cap: float = RANGE_CAP,
) -> float:
    """Smallest range from the doubling ladder 0.1/N^2, 0.2/N^2, ..., cap
    that brackets the profile by the adequacy rule of the mode's PROBES
    entry, so that a width extraction succeeds.

    Each probe step is one sweep of PROBE_POINTS detunings, of which only
    those the earlier steps (or the open sweep) did not evaluate are
    propagated. Raises RangeCapError when no rung up to the cap brackets
    the profile, and ValueError, before any probe, for a kick number whose
    square is past the float range.
    """
    kicks = _as_int("kicks", kicks, 1)
    _check_mode(mode)
    rungs = _rungs(kicks, cap)
    with _open(kicks, phi_d, l, (mode,)):
        r = _first_bracket(kicks, phi_d, l, mode, rungs)
    if r is None:
        raise _range_cap_error(kicks, mode, cap)
    return r


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
    """Full width at half depth of a sweep's values over its detunings, at
    the half level that the level rule of the mode's PROBES entry sets:
    for an echo profile 1/2, or mid-depth to its lower edge; for a
    position profile midway between peak and lowest sample.
    """
    level = _check_mode(scan.mode).level(scan.values)
    return _fwhm(scan.epsilons, scan.values, level)


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


def _fit_widths(n_values, widths) -> WidthScaling:
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

    Per kick number, the auto_scan width, bit for bit, from two block
    reads of one sweep (_widths): the probe grids of the rungs up to the
    previous kick number's stop, then the final grid; a walk past that
    stop reads each further rung on its own. Each distinct |detuning| is
    propagated once.
    """
    n_arr = _kick_numbers(n_list, least=2)
    return _fit_widths(n_arr, _widths(n_arr, phi_d, l, (mode,), points)[0])


def _widths(n_arr: np.ndarray, phi_d: float, l: int, modes: tuple,
            points: int) -> list[list[float]]:
    """Per mode, the auto_scan width at each kick number, bit for bit.

    The modes of one kick number read one sweep, in two blocks: the union
    of the probe grids of rungs 0..k*, where k* is the deepest rung any
    mode's walk stopped at for the previous kick number (every rung up to
    RANGE_CAP for the first), and then the union of every mode's final
    grid, after which each scan_epsilon finds every value in the sweep.
    Each mode's ladder walk (the one auto_range makes) reads its rungs
    from the sweep, and a rung past the first block in one core call of
    its own. So a kick number costs two core calls, plus one per rung a
    walk climbs past the previous stop, for as long as a union fits in
    SWEEP_BLOCK, and every mode observes every block. An unknown mode and
    bad points are refused before the first block. A mode whose ladder
    brackets nothing raises its RangeCapError only after the widths of
    the modes before it, as a mode-by-mode auto_scan would. The sweep is
    closed when that kick number is done, and on any error.
    """
    widths: list[list[float]] = [[] for _ in modes]
    # rungs in the first block: all of them for the first kick number, then
    # up to the deepest one a walk of the previous kick number stopped at
    depth = None
    for N in n_arr.tolist():
        # the sweep refuses an unknown mode, then points are checked,
        # before either block propagates
        with _open(N, phi_d, l, modes) as sweep:
            points = _check_points(points)
            rungs = _rungs(N, RANGE_CAP)
            # each block is observed in every mode; the walks and scans
            # below read its values, and a walk past the first block reads
            # each further rung in one core call
            sweep.read(modes[0], [e for r in rungs[:depth]
                                  for e in _symmetric_grid(r, PROBE_POINTS).tolist()])
            ranges = []
            for mode in modes:
                r = _first_bracket(N, phi_d, l, mode, rungs)
                if r is None:
                    break
                ranges.append(r)
            sweep.read(modes[0], [e for r in ranges
                                  for e in _symmetric_grid(r, points).tolist()])
            for mode, r, column in zip(modes, ranges, widths):
                column.append(scan_width(scan_epsilon(N, phi_d, l, mode, r, points)))
            if len(ranges) < len(modes):
                raise _range_cap_error(N, modes[len(ranges)], RANGE_CAP)
            depth = max(map(rungs.index, ranges)) + 1
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
    measured in both modes before the next, from one set of driven rows:
    one block of the probe grids up to the deepest rung either walk
    stopped at for the previous kick number, one core call per rung a walk
    climbs past it, and one block of both final grids, each observed in
    both modes. So the first error raised is that of the first kick number
    that fails.
    """
    n_arr = _kick_numbers(n_list, least=2)
    pos, fid = (_fit_widths(n_arr, w)
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
