"""Non-finite and extreme inputs through the public entry points.

Every refusal is a ValueError raised before the first kick: the spectral
core's kick step is counted, and a refused call must have made none; a
refused dense run must not have built its kick matrix. No drawn input
that is accepted is large enough to run for long or to allocate a large
ladder; extreme kick numbers are drawn only with a ladder of at most 6
sites a side, which the first kick already overflows.
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
    auto_scan,
    evolve_dense,
    fidelity_protocol,
    propagate,
    scan_epsilon,
)
from kickedrotor import propagator
from kickedrotor.scanner import MODES, RANGE_CAP

# an overflowing detuning warns in numpy before the core refuses it
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                        "ignore:invalid value encountered:RuntimeWarning")

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
def counting_kicks():
    with mock.patch.object(propagator, "_kick", wraps=propagator._kick) as kick:
        yield kick


def assert_refused(call):
    with counting_kicks() as kick:
        with pytest.raises(ValueError):
            call()
    assert kick.call_count == 0


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
    # the dense twin refuses before it builds its matrix, so before any product
    config = SimConfig(kicks=kicks, half_width=half_width)
    free = FreePhaseSpec.revival_relative(1, epsilon)
    with mock.patch.object(propagator, "kick_matrix", wraps=propagator.kick_matrix) as build:
        with pytest.raises(ValueError, match="overflow"):
            evolve_dense(config, free)
    assert build.call_count == 0


@given(st.integers(10**6, 10**18), st.floats(0.485, 2.0), NEAR_CAP, st.integers(1, 6))
def test_extreme_kick_numbers_leak_at_the_first_kick(kicks, phi_d, epsilon, half_width):
    # J_M(phi_d) squared is above EDGE_LEAK_BOUND for M <= 6 on this range
    spec = FreePhaseSpec.revival_relative(1, epsilon)
    with counting_kicks() as kick:
        with pytest.raises(LeakageError) as err:
            propagate(kicks, phi_d, spec, half_width, auto_grow=False)
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
    a["cap"] = draw(NEAR_CAP)
    bad = draw(st.sampled_from(["kicks", "phi_d", "l", "mode", "points", "cap"]))
    if bad == "cap":
        a["cap"] = draw(NOT_FINITE_POSITIVE | SUBNORMAL)
        return a
    if bad == "kicks":
        # 0 is a valid scan_epsilon kick number, but no probe ladder
        a["kicks"] = draw(NOT_AN_INTEGER | st.integers(-10**18, 0))
        return a
    return bad_sweep_arg(draw, a, bad)


@given(refused_auto_scan())
def test_auto_scan_refuses_before_any_kick(a):
    assert_refused(lambda: auto_scan(a["kicks"], a["phi_d"], a["l"], a["mode"],
                                     a["points"], a["cap"]))


@given(st.integers(1, 6), st.sampled_from(MODES), NEAR_CAP)
def test_scan_at_the_range_cap_is_finite(kicks, mode, epsilon_max):
    scan = scan_epsilon(kicks, 0.485, 1, mode, epsilon_max, 33)
    assert scan.epsilons[-1] == epsilon_max
    assert np.all(np.isfinite(scan.values))
    if mode == "fidelity":
        assert abs(scan.values[16] - 1.0) < 1e-12
        assert np.all((scan.values >= 0) & (scan.values <= 1 + 1e-12))


@given(st.integers(1, 6), st.sampled_from(MODES), NEAR_CAP)
def test_auto_scan_at_the_range_cap_stays_inside_it(kicks, mode, cap):
    try:
        scan = auto_scan(kicks, 0.485, 1, mode, 33, cap)
    except RangeCapError:
        return
    assert 0 < scan.epsilons[-1] <= cap
    assert np.all(np.isfinite(scan.values))
