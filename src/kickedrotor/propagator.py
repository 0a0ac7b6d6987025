"""One-period Floquet evolution: kick and free flight, and the echo overlap.

Each period applies the kick factor exp(-i phi_d cos X) followed by the
free-flight factor exp(-i hbar_s m^2 / 2). At the primary revivals
(hbar_s = 4 pi l) the free factor is the identity on the integer ladder,
so everything interesting near a revival is carried by the detuning phase
theta_m = 2 pi l m^2 epsilon. That phase is always computed directly from
epsilon: forming it as a difference of two large phases loses about ten
significant digits at epsilon = 1e-8, m = 40. One function owns the rule
and its overflow refusal, _revival_phases, which forms the phase table of
a whole block of detunings at once; FreePhaseSpec's revival phases are
its one-row case.

Two independent evolution routes are kept deliberately separate: the
spectral route (one core, _run, kicking on its own FFT length on one
ladder per run, sized once; it propagates a whole stack of detunings at
once, and a single state is the one-row case) and a dense-matrix route
whose kick is built from Bessel coefficients. They share no transform
code and cross-validate each other to 1e-9. The echo's reversed pulse is
not a pass of its own but an overlap (see fidelity_protocol).

The dense route, evolve_dense, propagates only the even half of the
ladder, a_m for m = 0..M, with the (M+1) x (M+1) matrix E[n, 0] = c_n,
E[n, m] = c_{(n-m) mod L} + c_{(n+m) mod L} (L = 2M+1) gathered from the
wrapped kick column c. This is exact because the delta_0 start is even,
c_{-d} = c_d, and both free-phase modes depend on m^2 only. It holds at
quasi-momentum beta = 0 only: a row with beta != 0 is not even and would
need the full ladder (kick_matrix). The spectral route propagates the
full ladder, odd part included, and its parity test (TestParity in the
propagator tests) stays the guard on that odd part. The column's orders
past one kick's reach, |d| > wavepacket._kick_reach(phi_d), are exact
zeros, as in every Bessel ladder (analytics._bessel_j_ladder); the true
values are below 7e-16 (below 5.7e-58 at phi_d = 0.485), and zeros spare
E's products with the state's far tail from underflowing to slow
subnormals.

The spectral core takes its free flight as one phase function,
phases(m), which returns the block's theta table on the ladder m: the
sweeps pass their block of detunings to _revival_phases, propagate and
fidelity_protocol pass FreePhaseSpec.phases, and the echo target zero
phases. It is read once per run, on the final ladder M, and exp(-i theta)
is formed for the whole block in one pass.

The final ladder is sized once, from the kick number alone
(default_half_width), unless the caller names one. It carries the
Bessel tail of the resonant state (-i)^m J_m(N phi_d) to about 1e-12,
and the detuned and general-mode runs the propagator tests draw reach
no further. A run that reaches the edge anyway is refused: LeakageError
names the period, and the run is not retried.

At resonance the cloud's momentum grows ballistically, so after k kicks
the state reaches about k phi_d sites. A long run therefore kicks its
early periods on the ladder their reach needs (_stages): period k needs
M_k = M - floor(phi_d (N - k)), never less than min(M,
default_half_width(k, phi_d)), and a new stage starts wherever the FFT
length of M_k shrinks by _STAGE_RATIO = 1.25. N = 2000 at phi_d = 0.485
runs on ten stages, 256, 324, 432, 540, 675, 864, 1080, 1350, 1728 and
2160 points; every N <= 23 is one stage. Each stage kicks on its own
exact length and takes the central slice of the one table of free-flight
factors, so a table the final ladder refuses is refused before period 1.

The spectral core keeps its stack on one (P, n) buffer in FFT order
(wavepacket._fft_slots) through each stage. A period, _kick, is an
in-place ifft, the kick multiply, an in-place fft, the edge check and
one multiply by the free-flight factors, which are zero off the stage's
ladder and so also truncate; the transform pair's scales cancel, so none
is applied. The stack returns to ladder order at the end of each stage,
where the next stage takes it over; a short run is one stage.
"""
from __future__ import annotations

import bisect
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .analytics import MINUS_I_POW, _bessel_j_ladder
from .wavepacket import (
    EDGE_LEAK_BOUND,
    TWO_PI,
    MomentumWavefunction,
    NumericalError,
    SimConfig,
    SpatialGrid,
    _as_finite,
    _as_int,
    _fft_slots,
    _propagation_points,
    default_half_width,
)

#: dense route is an oracle, not a workhorse; keep the cost bounded
DENSE_HALF_WIDTH_CAP = 512
#: a new stage of a long run starts where the FFT length shrinks this much;
#: the finest ratio at which every N <= 23 at phi_d = 0.485 (the sweeps'
#: 5..18 included) is still one stage
_STAGE_RATIO = 1.25


class LeakageError(NumericalError):
    """Probability reached the ladder edge; the truncation is too tight."""

    def __init__(self, occupancy: float, period: int):
        self.occupancy = occupancy
        self.period = period
        super().__init__(
            f"edge occupancy {occupancy:.3e} exceeds {EDGE_LEAK_BOUND:.0e}"
            f" during period {period}; enlarge half_width"
        )


@dataclass(frozen=True)
class FreePhaseSpec:
    """Free-flight phases on the ladder.

    revival_relative mode keeps only the detuning part of the phase,
    theta_m = 2 pi l m^2 epsilon; the exactly periodic part is the identity
    and is dropped. Its phases are the one-row case of _revival_phases,
    the rule the sweeps apply to a whole block of detunings. general mode
    applies theta_m = (hbar_s/2) m^2 reduced mod 2 pi through the
    integer-exact split u = hbar_s/(4 pi), theta_m = 2 pi frac(u m^2), so
    that rational u (the recurrence points) produces bit-exact phases.
    phases refuses phases that overflow, in both modes, the one check both
    evolution routes make on their input; it compares the largest phase
    argument with the float range before forming any phase, so the
    refusal comes without a numpy overflow warning. propagate passes
    phases to the spectral core; factors, exp(-i theta_m), serves the
    dense route.
    """

    mode: str
    l: int = 1
    epsilon: float = 0.0
    hbar_s: float = 0.0

    def __post_init__(self):
        if self.mode not in ("revival_relative", "general"):
            raise ValueError(f"unknown free-phase mode {self.mode!r}")
        if self.mode == "revival_relative":
            object.__setattr__(self, "l", _as_int("l", self.l, 1))
        _as_finite("epsilon", self.epsilon)
        _as_finite("hbar_s", self.hbar_s)

    @classmethod
    def revival_relative(cls, l: int, epsilon: float) -> "FreePhaseSpec":
        return cls(mode="revival_relative", l=l, epsilon=float(epsilon))

    @classmethod
    def general(cls, hbar_s: float) -> "FreePhaseSpec":
        return cls(mode="general", hbar_s=float(hbar_s))

    def phases(self, m: np.ndarray) -> np.ndarray:
        if self.mode == "revival_relative":
            return _revival_phases(self.l, self.epsilon, m)
        u = self.hbar_s / (2.0 * TWO_PI)
        _refuse_overflow(abs(u), m)
        return TWO_PI * np.mod(u * m.astype(float) ** 2, 1.0)

    def factors(self, m: np.ndarray) -> np.ndarray:
        return np.exp(-1j * self.phases(m))


def _refuse_overflow(scale: float, m: np.ndarray) -> None:
    """Raise ValueError when the largest phase argument, scale * M^2 in the
    order the phases multiply it out, leaves the float range; Python floats
    overflow to inf without a warning."""
    if not math.isfinite(scale * float(np.abs(m).max()) ** 2):
        raise ValueError("free-flight phases overflow at this detuning")


def _revival_phases(l: int, epsilons, m: np.ndarray) -> np.ndarray:
    """The free-flight phase table theta = 2 pi l epsilon m^2 near the
    revival hbar_s = 4 pi l, along a leading axis of detunings.

    A (P,) array of detunings gives a (P, 2M+1) table, one detuning gives
    a (2M+1,) row; each row is bit-identical to that detuning's own
    phases. l must be an integer >= 1. A block whose largest |epsilon|
    overflows is refused as a whole, before any phase is formed.
    """
    l = _as_int("l", l, 1)
    eps = np.asarray(epsilons, dtype=float)
    _refuse_overflow(TWO_PI * l * float(np.abs(eps).max()), m)
    return np.multiply.outer(TWO_PI * l * eps, m.astype(float) ** 2)


def _kick_phases(n: int, phi: float) -> np.ndarray:
    """exp(-i phi cos X_j) on the n-point grid; phi < 0 gives the adjoint kick."""
    return np.exp(-1j * phi * np.cos(SpatialGrid(n).nodes))


def _kick(buf: np.ndarray, kick: np.ndarray, factors: np.ndarray,
          half_width: int, period: int) -> None:
    """One Floquet period, in place on a (P, n) stack held in FFT order.

    buf holds ladder rows of half width M placed by _fft_slots on the
    n-point grid of kick, zero off the ladder. The rows go to the grid and
    back through the exact transform pair ifft, fft, with the kick
    multiplied in between; the pair's 1/n and n cancel, so no scale is
    applied. factors, the free-flight factors in FFT order with exact
    zeros off the ladder, then truncates every row back to [-M, M] and
    applies the free flight in one multiply. Before that multiply, raises
    LeakageError, with the worst occupancy and the period, when the edge
    sites m = +-M of any row hold more than EDGE_LEAK_BOUND, or a NaN.
    """
    np.fft.ifft(buf, out=buf)
    buf *= kick
    np.fft.fft(buf, out=buf)
    occ = np.abs(buf[:, half_width]) ** 2 + np.abs(buf[:, -half_width]) ** 2
    worst = occ.max()  # NaN if any row holds one
    if not worst <= EDGE_LEAK_BOUND:
        raise LeakageError(float(worst), period)
    buf *= factors


def _stages(kicks: int, phi_d: float, half_width: int) -> list[tuple[int, int]]:
    """The ladder schedule of an N-period run on the final ladder M: one
    (last period, half width) pair per stage, in order, the last (N, M).

    Period k needs the final ladder less the reach of the kicks still to
    come, M_k = M - floor(phi_d (N - k)), and never less than
    min(M, default_half_width(k, phi_d)); M_k never decreases with k.
    Walking back from the last stage, the stage before a stage ends at the
    last period whose grid _propagation_points(M_k) is at most
    1/_STAGE_RATIO of that stage's grid. Each stage runs on the ladder of
    its own last period, which holds every period in it. At phi_d = 0.485
    every N <= 23 is one stage; N = 24 is the first with two.
    """
    def ladder(k: int) -> int:
        return max(half_width - math.floor(phi_d * (kicks - k)),
                   min(half_width, default_half_width(k, phi_d)))

    def shrunk(k: int, n: int) -> bool:
        return _STAGE_RATIO * _propagation_points(ladder(k), phi_d) <= n

    stages = [(kicks, half_width)]
    n = _propagation_points(half_width, phi_d)
    while stages[0][0] > 1 and shrunk(1, n):
        # shrunk holds up to some period and fails after it: find that one
        last = bisect.bisect_left(range(1, stages[0][0]), True,
                                  key=lambda k: not shrunk(k, n))
        stages.insert(0, (last, ladder(last)))
        n = _propagation_points(stages[0][1], phi_d)
    return stages


def _periods(kicks: int, phi_d: float, phases: Callable[..., np.ndarray],
             half_width: int) -> np.ndarray:
    """delta_{m,0} through kicks periods of kick phi_d, once per row of the
    phase table phases(m): a (P, 2M+1) stack in ladder order.

    phases is read once, on the final ladder M, and its free-flight
    factors exp(-i theta) are formed for the whole block in one pass; each
    stage of _stages takes the central slice of them for its own ladder
    and kicks on its own _propagation_points length. The stack stays in
    FFT order on one (P, n) buffer through each stage. At its end the
    stage's 2M_s+1 ladder entries are read back to ladder order through
    _fft_slots, and the next stage places them at the centre of its own
    ladder; the last stage's read is the result, C-ordered, so that a
    row is summed (np.vdot) as its one-row run is.
    """
    M = half_width
    free = np.atleast_2d(np.exp(-1j * phases(np.arange(-M, M + 1))))
    # delta_{m,0}, in ladder order on a ladder of half width 0
    rows, start = np.ones((len(free), 1), dtype=complex), 1
    for last, M_s in _stages(kicks, phi_d, M):
        kick = _kick_phases(_propagation_points(M_s, phi_d), phi_d)
        slots = _fft_slots(M_s, len(kick))
        was = (rows.shape[1] - 1) // 2
        buf = np.zeros((len(free), len(kick)), dtype=complex)
        buf[:, slots[M_s - was:M_s + was + 1]] = rows
        factors = np.zeros_like(buf)
        factors[:, slots] = free[:, M - M_s:M + M_s + 1]
        for period in range(start, last + 1):
            _kick(buf, kick, factors, M_s, period)
        rows, start = buf.take(slots, axis=1), last + 1
    return rows


def _run(kicks: int, phi_d: float, phases: Callable[..., np.ndarray],
         half_width: int | None = None) -> np.ndarray:
    """The spectral core: delta_{m,0} through N periods (kick, free flight),
    once per row of the free-flight phase table, as one (P, 2M+1) stack.

    phases maps the ladder m = -M..M to the block's phase table, (P, 2M+1),
    or (2M+1,) for one state; it is called once, on the final ladder, and
    may refuse the block with ValueError before any kick. All rows share
    one final ladder, half_width or else default_half_width(kicks, phi_d),
    and one stage schedule (_stages), which follows from (kicks, phi_d, M)
    alone; row p gets the free flight of table row p and comes out
    bit-identical to a one-row run on the same ladder. Each period,
    numbered 1..N across the stages, is one _kick on the stack, kept in
    FFT order between periods. A leak in any row of any stage raises
    LeakageError with that period.

    Every stage is kicked on _propagation_points(M_s, phi_d) points for
    its own ladder M_s, on which the kick is exact; no caller picks the
    grid. Bad arguments raise ValueError before the first kick.
    """
    _as_finite("phi_d", phi_d, positive=True)
    kicks = _as_int("kicks", kicks, 0)
    if half_width is None:
        M = default_half_width(kicks, phi_d)
    else:
        M = _as_int("half_width", half_width, 1)
    return _periods(kicks, phi_d, phases, M)


def _echo_fidelities(kicks: int, phi_d: float):
    """The echo read-out of N driven periods, F = |<K(N phi_d) delta_0 | psi_N>|^2.

    Returns a function from a (P, 2M+1) stack of driven rows to their P
    fidelities. Every stack read with one such function lies on one
    ladder, default_half_width(kicks, phi_d): each block of a sweep and
    fidelity_protocol's one row alike. So one target K(N phi_d) delta_0
    is kept, built on the first read, on that read's ladder and the grid
    that kicks by N phi_d exactly; a stack on another ladder is refused
    by np.vdot with a ValueError. The target is one period of the core
    with zero free-flight phases, whose factors are exactly 1: the pulse
    and the truncation, no free flight.
    """
    pulse = _as_int("kicks", kicks, 1) * phi_d
    target = None

    def fidelities(amps: np.ndarray) -> list[float]:
        nonlocal target
        if target is None:
            M = (amps.shape[1] - 1) // 2
            target = _periods(1, pulse, lambda m: np.zeros(len(m)), M)[0]
        # one vdot per row: a stacked matmul would break row bit-identity
        return [abs(complex(np.vdot(target, row))) ** 2 for row in amps]

    return fidelities


def propagate(
    kicks: int,
    phi_d: float,
    free: FreePhaseSpec,
    half_width: int | None = None,
) -> MomentumWavefunction:
    """Parameter-level evolution of delta_{m,0} through N periods.

    Exact at any detuning (the unitary propagation has no small-epsilon
    restriction; only the first-order analytics do). Runs on half_width,
    or else on default_half_width(kicks, phi_d); a tripped edge-leakage
    bound raises LeakageError. Nor is the kick number limited, unlike the
    closed form resonant_state, which refuses N*phi_d > 1000. The FFT
    length is the core's own.
    """
    amps = _run(kicks, phi_d, free.phases, half_width)
    return MomentumWavefunction((amps.shape[1] - 1) // 2, amps[0])


def evolve(config: SimConfig) -> MomentumWavefunction:
    """Propagate delta_{m,0} through config.kicks periods.

    Each period is kick(phi_d) then free flight at config's detuning from
    the revival; the returned state is the one after the final free
    flight: propagate's on config.half_width, as config.n_points names
    only the observation grid. A tripped edge-leakage bound raises
    LeakageError.
    """
    spec = FreePhaseSpec.revival_relative(config.l, config.epsilon)
    return propagate(config.kicks, config.phi_d, spec, config.half_width)


def _unitarity_error(c: np.ndarray) -> float:
    """max |U^H U - I| of the circulant U generated by the column c.

    U^H U is circulant too, so its first column, sum_n conj(c_n) c_{n+k}
    (indices mod L), holds every distinct entry of the Gram matrix: a
    circular autocorrelation of c, with no L x L matrix built.
    """
    gram = np.correlate(np.concatenate([c, c[:-1]]), c, "valid")
    gram[0] -= 1.0
    return float(np.max(np.abs(gram)))


def _kick_column(phi: float, half_width: int) -> np.ndarray:
    """The generating column c of the wrapped kick on the ladder, c_d =
    (-i)^d J_d(phi) for d = -M..M stored at d mod L, L = 2M+1.

    Order differences are wrapped onto [-M, M]; a plain truncation would
    leave every edge column short of its coefficient tail by (1 - J_0^2)/2
    regardless of M, while the wrapped form is the kick phase expanded on
    the finite ladder and stays unitary. Wrap and truncation agree to
    better than 1e-12 once half_width >= phi + 32; a warning is emitted
    when unitarity still degrades past 1e-8. c is exactly even, c_{-d} =
    c_d: J_{-d} = (-1)^d J_d and (-i)^{-d} = (-1)^d (-i)^d, each applied as
    an exact sign.
    """
    M = _as_int("half_width", half_width, 1)
    L = 2 * M + 1
    J = _bessel_j_ladder(abs(phi), M)
    # signed representative of each order difference modulo L
    diff = (np.arange(L) + M) % L - M
    # J_d(-x) = J_{-d}(x): a negative kick reads the ladder reversed
    c = MINUS_I_POW[np.mod(diff, 4)] * (J[M - diff] if phi < 0 else J[M + diff])
    gram_err = _unitarity_error(c)
    # fails closed: a NaN Gram error warns
    if not gram_err <= 1e-8:
        warnings.warn(
            f"kick matrix unitarity error {gram_err:.2e} at half_width {M}; "
            "truncation too tight",
            RuntimeWarning,
            stacklevel=3,
        )
    return c


def kick_matrix(phi: float, half_width: int) -> np.ndarray:
    """Dense kick operator on the ladder, entries (-i)^(n-m) J_{n-m}(phi).

    Independent of the spectral route: the matrix is assembled from Bessel
    coefficients, with order differences wrapped onto [-M, M]
    (_kick_column, which also checks unitarity and warns past 1e-8). With
    wrapped differences the matrix is circulant, U[n, m] = c[(n - m) mod
    L], L = 2M+1, so it is gathered from its generating column c.
    """
    c = _kick_column(phi, half_width)
    k = np.arange(len(c))
    return c[np.subtract.outer(k, k) % len(c)]


def evolve_dense(
    config: SimConfig, free: FreePhaseSpec | None = None
) -> MomentumWavefunction:
    """Brute-force twin of evolve using matrix-vector products.

    Same contract as evolve; exists purely as an independent check of the
    spectral route, and shares no transform code with it. It propagates
    the even half of the ladder, a_m for m = 0..M, and mirrors it back at
    the end. That is exact here: the start delta_{m,0} is even, the kick
    column is even (c_{-d} = c_d, see _kick_column) and both free-phase
    modes depend on m^2 only, so every period maps an even state to an
    even one. On even states the circulant kick U[n, m] = c_{(n-m) mod L}
    acts on the half as the (M+1) x (M+1) matrix

        E[n, 0] = c_n,    E[n, m] = c_{(n-m) mod L} + c_{(n+m) mod L},

    gathered straight from c, and one period is a = f * (E @ a), with f the
    free-flight factors for m >= 0. A state that is not even, such as a
    quasi-momentum row with beta != 0, would need the full ladder.

    c is exactly zero past one kick's reach (analytics._bessel_j_ladder), so
    E itself holds no subnormals. The state can: at epsilon = 0 its far
    tail decays into subnormal parts (18 at kicks = 400, M = 452), and
    the products on them are slow. That run takes 34-44 ms against
    22-31 ms at epsilon = 1.1e-6 (2-vCPU Xeon, numpy 2.4.6, medians of 7).

    Capped at half_width 512 because the dense cost grows quadratically.
    Free-flight factors that overflow raise ValueError before the kick
    column is built (FreePhaseSpec.factors); a kick column whose unitarity
    error passes 1e-8 warns.
    """
    M = config.half_width
    if M > DENSE_HALF_WIDTH_CAP:
        raise ValueError(
            f"dense route capped at half_width {DENSE_HALF_WIDTH_CAP}, got {M}"
        )
    spec = free or FreePhaseSpec.revival_relative(config.l, config.epsilon)
    m = np.arange(M + 1)
    factors = spec.factors(m)
    c = _kick_column(config.phi_d, M)
    L = len(c)
    E = c[np.subtract.outer(m, m) % L]
    E[:, 1:] += c[np.add.outer(m, m[1:]) % L]
    half = np.zeros(M + 1, dtype=complex)
    half[0] = 1.0
    for _ in range(config.kicks):
        half = factors * (E @ half)
    return MomentumWavefunction(M, np.concatenate([half[:0:-1], half]))


def fidelity_protocol(
    kicks: int, phi_d: float, epsilon: float, l: int = 1
) -> float:
    """Echo overlap after N driven periods and one reversed pulse.

    Applies N periods (kick phi_d, free flight), then a single reversed
    kick of amplitude N*phi_d with no trailing free flight, and returns
    F = |<delta_0 | psi>|^2. At epsilon = 0 the free flights are identities
    and the reversed pulse cancels the accumulated kick exactly, so F = 1.
    The kick is unitary, K(-a) = K(a)^dagger, so the pulse is evaluated as
    the overlap <K(N phi_d) delta_0 | psi_N> on the driven ladder.

    epsilon is not restricted here: the propagation is exact at any
    detuning, and resonance profiles need the far tails.
    """
    free = FreePhaseSpec.revival_relative(l, epsilon)
    echo = _echo_fidelities(kicks, phi_d)
    return echo(_run(kicks, phi_d, free.phases))[0]
