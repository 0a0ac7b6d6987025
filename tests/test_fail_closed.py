"""Non-finite and extreme inputs through the public entry points.

Every refusal is a ValueError raised before the first kick: the spectral
core's kick step is counted, and a refused call must have made none; a
refused dense run must not have built its kick matrix. A period past the
count a test allows fails it at once, so a missed refusal or leak cannot
run on for the periods it asked for. No drawn input that is accepted is
large enough to run for long or to allocate a large ladder; extreme kick
numbers are drawn only with a ladder of at most 6 sites a side, which
the first kick already overflows.
"""
import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kickedrotor import (
    FreePhaseSpec,
    LeakageError,
    RangeCapError,
    SimConfig,
    SpatialGrid,
    auto_range,
    auto_scan,
    correction_term,
    evolve_dense,
    fidelity_protocol,
    mean_energy,
    perturbative_density,
    propagate,
    resonant_state,
    scan_epsilon,
)
from kickedrotor import propagator
from kickedrotor.scanner import MODES, RANGE_CAP, _Sweep, _sweep_values

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
FRACTIONS = st.floats(-1e6, 1e6).filter(lambda v: not v.is_integer())
NOT_AN_INTEGER = NON_FINITE | FRACTIONS
NOT_FINITE_POSITIVE = NON_FINITE | st.floats(max_value=0.0)
#: |epsilon| large enough that 2 pi l epsilon m^2 overflows at m = 33
OVERFLOWING = st.floats(1e306, 1.7e308) | st.floats(-1.7e308, -1e306)
NEAR_CAP = st.floats(RANGE_CAP * (1 - 1e-9), RANGE_CAP * (1 + 1e-9))
#: a range of at most 7 subnormal steps: too few for 9 distinct half-grid points
SUBNORMAL = st.integers(1, 7).map(lambda k: k * 5e-324)


@contextmanager
def counting_kicks(limit: int):
    """Count the spectral core's periods. A period past limit fails the
    test at once: a run whose refusal or leak was missed would otherwise
    go on for as many periods as it was asked for, up to 10**18. The
    counter is a plain function, not a Mock, so a failure's traceback has
    no frames in unittest.mock, which pytest would re-parse for each
    failing example Hypothesis reports."""
    period = propagator._kick

    def kick(*args):
        kick.call_count += 1
        if kick.call_count > limit:
            raise AssertionError(f"period {kick.call_count} ran; at most {limit} may")
        return period(*args)

    kick.call_count = 0
    with mock.patch.object(propagator, "_kick", kick):
        yield kick


def assert_refused(call):
    with counting_kicks(0) as kick:
        with pytest.raises(ValueError) as err:
            call()
    assert kick.call_count == 0
    return err.value


@st.composite
def refused_propagate(draw):
    a = {"kicks": draw(st.integers(0, 40)), "phi_d": draw(st.floats(1e-3, 2.0)),
         "epsilon": draw(NEAR_CAP), "half_width": draw(st.none() | st.integers(1, 64))}
    bad = draw(st.sampled_from(["kicks", "phi_d", "epsilon", "half_width", "reach"]))
    if bad == "kicks":
        a["kicks"] = draw(NOT_AN_INTEGER | st.integers(-10**18, -1))
    elif bad == "phi_d":
        a["phi_d"] = draw(NOT_FINITE_POSITIVE)
    elif bad == "epsilon":
        a["epsilon"] = draw(NON_FINITE | OVERFLOWING)
        a["half_width"] = draw(st.none() | st.integers(33, 64))
    elif bad == "half_width":
        a["half_width"] = draw(NOT_AN_INTEGER | st.integers(-10**18, 0))
    else:
        # kicks * phi_d overflows, so no ladder can be sized
        a.update(kicks=draw(st.integers(10**9, 10**18)),
                 phi_d=draw(st.floats(1e300, 1e308)), half_width=None)
    return a


@given(refused_propagate())
def test_propagate_refuses_before_any_kick(a):
    assert_refused(lambda: propagate(
        a["kicks"], a["phi_d"], FreePhaseSpec.revival_relative(1, a["epsilon"]),
        a["half_width"]))


@given(st.integers(0, 40), OVERFLOWING, st.integers(33, 64))
def test_evolve_dense_refuses_overflowing_phases(kicks, epsilon, half_width):
    # the dense twin refuses before it builds its kick column, so before its
    # matrix and any product
    config = SimConfig(kicks=kicks, half_width=half_width)
    free = FreePhaseSpec.revival_relative(1, epsilon)
    with mock.patch.object(propagator, "_kick_column",
                           wraps=propagator._kick_column) as build:
        with pytest.raises(ValueError, match="overflow"):
            evolve_dense(config, free)
    assert build.call_count == 0



@pytest.mark.parametrize("spec", [
    FreePhaseSpec.revival_relative(1, 1e306),
    FreePhaseSpec.revival_relative(3, -1.7e308),
    FreePhaseSpec.general(1e307),
    FreePhaseSpec.general(-1e307),
])
def test_overflow_refused_before_numpy_warns(spec):
    # the suite turns every RuntimeWarning into an error, so a warning from
    # forming the phases would fail here before the refusal
    err = assert_refused(lambda: propagate(3, 0.485, spec, half_width=35))
    assert "overflow" in str(err)
    with pytest.raises(ValueError, match="overflow"):
        spec.phases(np.arange(-35, 36))


@pytest.mark.parametrize("mode", MODES)
def test_sweep_block_with_one_overflowing_detuning_is_refused(mode):
    # the block's phase table is refused as a whole, on its largest |epsilon|
    epsilons = np.array([0.0, 5e-324, -RANGE_CAP, RANGE_CAP, 1e306])
    key = (5, 0.485, 1)
    err = assert_refused(lambda: _sweep_values(
        mode, *key, epsilons, _Sweep(*key, (mode,))))
    assert "overflow" in str(err)


def test_table_refused_past_the_first_stage_is_refused_before_any_kick():
    # N = 1000 runs in nine stages, on ladders 84 up to 555; the phase
    # table is read once, on the final ladder, so a table that only ladders
    # wider than the first stage refuse still stops the run before period 1
    first = propagator._stages(1000, 0.485, 555)[0][1]
    assert first == 84

    def phases(m):
        if np.abs(m).max() > first:
            raise ValueError("phase table refused past the first stage")
        return np.zeros(len(m))

    phases(np.arange(-first, first + 1))
    assert_refused(lambda: propagator._run(1000, 0.485, phases))


def test_phases_overflowing_only_at_the_final_edge_are_refused_before_any_kick():
    # 2 pi epsilon m^2 overflows at |m| = M = 193 (N = 300) and nowhere on
    # the first stage's ladder, 58
    epsilon = 1.7976931348623157e308 / (2 * math.pi * 192.5**2)
    spec = FreePhaseSpec.revival_relative(1, epsilon)
    spec.phases(np.arange(-192, 193))
    err = assert_refused(lambda: propagate(300, 0.485, spec))
    assert "overflow" in str(err)


@pytest.mark.parametrize("spec", [
    # largest phase arguments just inside the float range at M = 35
    FreePhaseSpec.revival_relative(1, 1.7e308 / (2 * math.pi * 35**2)),
    FreePhaseSpec.general(1.7e308 / 35**2),
])
def test_largest_finite_phases_accepted(spec):
    state = propagate(3, 0.485, spec, half_width=35)
    assert abs(state.norm_sq() - 1.0) < 1e-12

@given(st.integers(10**6, 10**18), st.floats(0.485, 2.0), NEAR_CAP, st.integers(1, 6))
def test_extreme_kick_numbers_leak_at_the_first_kick(kicks, phi_d, epsilon, half_width):
    # J_M(phi_d) squared is above EDGE_LEAK_BOUND for M <= 6 on this range
    spec = FreePhaseSpec.revival_relative(1, epsilon)
    with counting_kicks(1) as kick:
        with pytest.raises(LeakageError) as err:
            propagate(kicks, phi_d, spec, half_width)
    assert err.value.period == 1
    assert kick.call_count == 1


@st.composite
def refused_fidelity(draw):
    a = {"kicks": draw(st.integers(1, 20)), "phi_d": draw(st.floats(1e-3, 2.0)),
         "epsilon": draw(NEAR_CAP), "l": draw(st.integers(1, 3))}
    bad = draw(st.sampled_from(["kicks", "phi_d", "epsilon", "l"]))
    if bad == "kicks":
        a["kicks"] = draw(NOT_AN_INTEGER | st.integers(-10**18, 0))
    elif bad == "phi_d":
        a["phi_d"] = draw(NOT_FINITE_POSITIVE)
    elif bad == "epsilon":
        a["epsilon"] = draw(NON_FINITE | OVERFLOWING)
    else:
        a["l"] = draw(NOT_AN_INTEGER | st.integers(-10**18, 0))
    return a


@given(refused_fidelity())
def test_fidelity_protocol_refuses_before_any_kick(a):
    assert_refused(lambda: fidelity_protocol(a["kicks"], a["phi_d"], a["epsilon"], a["l"]))


def sweep_args(draw, kicks):
    return {"kicks": draw(kicks), "phi_d": draw(st.floats(1e-3, 1.5)),
            "l": draw(st.integers(1, 3)), "mode": draw(st.sampled_from(MODES)),
            "points": draw(st.sampled_from([33, 35]))}


def bad_sweep_arg(draw, a, bad):
    if bad == "kicks":
        a["kicks"] = draw(NOT_AN_INTEGER | st.integers(-10**18, -1))
    elif bad == "phi_d":
        a["phi_d"] = draw(NOT_FINITE_POSITIVE)
    elif bad == "l":
        a["l"] = draw(NOT_AN_INTEGER | st.integers(-10**18, 0))
    elif bad == "mode":
        a["mode"] = draw(st.text(max_size=10).filter(lambda m: m not in MODES))
    elif bad == "points":
        a["points"] = draw(NOT_AN_INTEGER | st.integers(-10**18, 32)
                           | st.integers(17, 10**6).map(lambda p: 2 * p))
    return a


@st.composite
def refused_scan(draw):
    a = sweep_args(draw, st.integers(0, 8))
    a["epsilon_max"] = draw(NEAR_CAP)
    bad = draw(st.sampled_from(["kicks", "phi_d", "l", "mode", "points", "epsilon_max"]))
    if bad == "epsilon_max":
        a["epsilon_max"] = draw(NOT_FINITE_POSITIVE | SUBNORMAL | OVERFLOWING.map(abs))
    return bad_sweep_arg(draw, a, bad)


@given(refused_scan())
def test_scan_epsilon_refuses_before_any_kick(a):
    assert_refused(lambda: scan_epsilon(a["kicks"], a["phi_d"], a["l"], a["mode"],
                                        a["epsilon_max"], a["points"]))


@st.composite
def refused_auto_scan(draw):
    a = sweep_args(draw, st.integers(1, 8))
    bad = draw(st.sampled_from(["kicks", "phi_d", "l", "mode", "points"]))
    if bad == "kicks":
        # 0 is a valid scan_epsilon kick number, but no probe ladder
        a["kicks"] = draw(NOT_AN_INTEGER | st.integers(-10**18, 0))
        return a
    return bad_sweep_arg(draw, a, bad)


@given(refused_auto_scan())
def test_auto_scan_refuses_before_any_kick(a):
    assert_refused(lambda: auto_scan(a["kicks"], a["phi_d"], a["l"], a["mode"],
                                     a["points"]))


@given(st.integers(1, 6), st.sampled_from(MODES), NEAR_CAP)
def test_scan_at_the_range_cap_is_finite(kicks, mode, epsilon_max):
    scan = scan_epsilon(kicks, 0.485, 1, mode, epsilon_max, 33)
    assert scan.epsilons[-1] == epsilon_max
    assert np.all(np.isfinite(scan.values))
    if mode == "fidelity":
        assert abs(scan.values[16] - 1.0) < 1e-12
        assert np.all((scan.values >= 0) & (scan.values <= 1 + 1e-12))


@given(st.integers(1, 6), st.sampled_from(MODES))
def test_auto_scan_at_the_range_cap_stays_inside_it(kicks, mode):
    try:
        scan = auto_scan(kicks, 0.485, 1, mode, 33)
    except RangeCapError:
        return
    assert 0 < scan.epsilons[-1] <= RANGE_CAP
    assert np.all(np.isfinite(scan.values))


#: an integer that float() cannot convert (it raises OverflowError)
PAST_FLOAT_RANGE = 10**400
#: a kick number whose square float() cannot convert: auto_range's probe
#: ladder starts at 0.1 / N^2, which once escaped as an OverflowError
SQUARE_PAST_FLOAT_RANGE = 10**155


def integer_rule(name, least):
    """Bad values of an integer argument and the one message each gets."""
    cases = [(v, f"{name} must be an integer, got {v!r}")
             for v in (2.5, math.nan, math.inf, -math.inf)]
    cases += [(v, f"{name} must lie within the float range")
              for v in (PAST_FLOAT_RANGE, -PAST_FLOAT_RANGE)]
    return cases + [(least - 1, f"{name} must be >= {least}, got {least - 1!r}")]


def case_id(value):
    """repr(value), with the 401- and 156-digit integers written as powers."""
    if isinstance(value, int) and abs(value) in (PAST_FLOAT_RANGE,
                                                 SQUARE_PAST_FLOAT_RANGE):
        return f"{'-' if value < 0 else ''}10**{len(str(abs(value))) - 1}"
    return repr(value)


def positive_rule(name):
    return [(v, f"{name} must be finite and positive, got {v!r}")
            for v in (math.nan, math.inf, -math.inf, 0.0)]


def finite_rule(name):
    return [(v, f"{name} must be finite, got {v!r}")
            for v in (math.nan, math.inf, -math.inf)]


GRID = SpatialGrid(128)
SPEC = FreePhaseSpec.revival_relative
STATE = resonant_state(3, 0.485, 40)


def sweep_entries(mode):
    ranged_kicks = integer_rule("kicks", 1) + [
        (SQUARE_PAST_FLOAT_RANGE, "kicks squared must lie within the float range")]
    return [
        (f"scan_epsilon[{mode}]",
         lambda kicks=5, phi_d=0.485, l=1, epsilon_max=0.02:
             scan_epsilon(kicks, phi_d, l, mode, epsilon_max, 33),
         {"kicks": integer_rule("kicks", 1), "phi_d": positive_rule("phi_d"),
          "l": integer_rule("l", 1), "epsilon_max": positive_rule("epsilon_max")}),
        (f"auto_range[{mode}]",
         lambda kicks=5, phi_d=0.485, l=1, cap=0.1: auto_range(kicks, phi_d, l, mode, cap),
         {"kicks": ranged_kicks, "phi_d": positive_rule("phi_d"),
          "l": integer_rule("l", 1), "cap": positive_rule("cap")}),
        (f"auto_scan[{mode}]",
         lambda kicks=5, phi_d=0.485, l=1: auto_scan(kicks, phi_d, l, mode, 33),
         {"kicks": ranged_kicks, "phi_d": positive_rule("phi_d"),
          "l": integer_rule("l", 1)}),
    ]


#: (entry point, call with one argument overridden, {argument: bad cases})
SHARED_RULES = [
    ("propagate",
     lambda kicks=3, phi_d=0.485, l=1, epsilon=1e-3, half_width=None:
         propagate(kicks, phi_d, SPEC(l, epsilon), half_width),
     {"kicks": integer_rule("kicks", 0), "phi_d": positive_rule("phi_d"),
      "l": integer_rule("l", 1), "epsilon": finite_rule("epsilon"),
      "half_width": integer_rule("half_width", 1)}),
    ("fidelity_protocol",
     lambda kicks=3, phi_d=0.485, epsilon=1e-3, l=1:
         fidelity_protocol(kicks, phi_d, epsilon, l),
     {"kicks": integer_rule("kicks", 1), "phi_d": positive_rule("phi_d"),
      "l": integer_rule("l", 1), "epsilon": finite_rule("epsilon")}),
    ("SimConfig",
     lambda kicks=3, phi_d=0.485, l=1, half_width=None:
         SimConfig(phi_d=phi_d, l=l, kicks=kicks, half_width=half_width),
     {"kicks": integer_rule("kicks", 0), "phi_d": positive_rule("phi_d"),
      "l": integer_rule("l", 1), "half_width": integer_rule("half_width", 1)}),
    ("FreePhaseSpec.revival_relative",
     lambda l=1, epsilon=1e-3: SPEC(l, epsilon),
     {"l": integer_rule("l", 1), "epsilon": finite_rule("epsilon")}),
    ("FreePhaseSpec.general",
     lambda hbar_s=1.0: FreePhaseSpec.general(hbar_s),
     {"hbar_s": finite_rule("hbar_s")}),
    ("resonant_state",
     lambda t=3, phi_d=0.485, half_width=40: resonant_state(t, phi_d, half_width),
     {"t": integer_rule("t", 0), "phi_d": positive_rule("phi_d"),
      "half_width": integer_rule("half_width", 1)}),
    ("correction_term",
     lambda k=2, phi_d=0.485, epsilon=1e-6, half_width=35, l=1:
         correction_term(k, phi_d, epsilon, GRID, half_width, l=l),
     {"k": integer_rule("k", 1), "phi_d": positive_rule("phi_d"),
      "epsilon": finite_rule("epsilon"), "half_width": integer_rule("half_width", 1),
      "l": integer_rule("l", 1)}),
    ("perturbative_density",
     lambda kicks=3, phi_d=0.485, epsilon=1e-6, half_width=35, l=1:
         perturbative_density(kicks, phi_d, epsilon, GRID, half_width, l=l),
     {"kicks": integer_rule("kicks", 0), "phi_d": positive_rule("phi_d"),
      "epsilon": finite_rule("epsilon"), "half_width": integer_rule("half_width", 1),
      "l": integer_rule("l", 1)}),
    ("mean_energy",
     lambda hbar_s=4 * math.pi: mean_energy(STATE, hbar_s),
     {"hbar_s": finite_rule("hbar_s")}),
    *sweep_entries("position"),
    *sweep_entries("fidelity"),
]

SHARED_CASES = [
    pytest.param(call, arg, value, message, id=f"{entry}-{arg}={case_id(value)}")
    for entry, call, rules in SHARED_RULES
    for arg, cases in rules.items()
    for value, message in cases
]


@pytest.mark.parametrize("call, arg, value, message", SHARED_CASES)
def test_each_rule_has_one_message(call, arg, value, message):
    """Every entry point words a broken argument rule the same way.

    This includes kicks = 0 for every sweep in both modes: a profile
    over zero kicks is flat, so sweeps refuse it before the first kick.
    """
    assert str(assert_refused(lambda: call(**{arg: value}))) == message

