"""Span arithmetic and the outside inference of hidden counts.

Run from the repository root: python3 -m pytest bench/tests
"""
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import kickedrotor  # noqa: E402
from kickedrotor import scanner, wavepacket  # noqa: E402

import spans  # noqa: E402
from spans import Span  # noqa: E402


def _span(id, name, start, end, parent=None, via="bench", **attrs):
    return Span(id, name, name.split(".")[0], via, start, end, parent, attrs=attrs)


def test_covered_length_merges_overlaps_and_clips():
    assert spans.covered_length([], 0.0, 10.0) == 0.0
    assert spans.covered_length([(1, 4), (3, 6), (8, 9)], 0.0, 10.0) == 6.0
    # a child reaching outside its parent only covers the parent's part
    assert spans.covered_length([(-2, 1), (9, 12)], 0.0, 10.0) == 2.0
    assert spans.covered_length([(1, 2), (1, 2)], 0.0, 10.0) == 1.0


def test_self_time_on_hand_made_tree():
    #   scanner.compare_modes [0, 10]
    #     propagator.propagate [1, 4]
    #       wavepacket.default_n_points [2, 3]
    #     propagator.propagate [3, 6]   (overlaps the first: worker threads)
    #     observables.sigma_x [7, 8]
    tree = [
        _span(0, "scanner.compare_modes", 0.0, 10.0),
        _span(1, "propagator.propagate", 1.0, 4.0, parent=0),
        _span(2, "wavepacket.default_n_points", 2.0, 3.0, parent=1),
        _span(3, "propagator.propagate", 3.0, 6.0, parent=0),
        _span(4, "observables.sigma_x", 7.0, 8.0, parent=0),
    ]
    own = spans.self_times(tree)
    assert own == {0: 4.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 1.0}
    m = spans.layer_metrics(tree)
    assert m["scanner.self_s"] == 4.0
    assert m["propagator.self_s"] == 5.0
    assert m["wavepacket.self_s"] == 1.0
    assert m["observables.self_s"] == 1.0
    assert m["analytics.self_s"] == 0.0
    assert m["propagator.calls"] == 2
    # overlapping children each keep their own self time
    assert sum(own.values()) == 10.0 + 1.0


def test_layer_metrics_counts_points_at_the_scanner_boundary():
    key_a = ("fidelity", 5, 0.485, 1, 0.0)
    key_b = ("position", 5, 0.485, 1, 1e-3)
    tree = [
        _span(0, "scanner.auto_range", 0.0, 10.0, probe_steps=3),
        _span(1, "propagator.fidelity_protocol", 1.0, 2.0, 0, "scanner", key=key_a, periods=6),
        _span(2, "propagator.fidelity_protocol", 2.0, 3.0, 0, "scanner", key=key_a, periods=6),
        _span(3, "propagator.propagate", 3.0, 4.0, 0, "scanner", key=key_b, periods=5,
              restarts=1),
        # a call from outside the scanner is not a sweep point
        _span(4, "propagator.propagate", 11.0, 12.0, None, "propagator", periods=7,
              restarts=0),
        _span(5, "propagator.evolve_dense", 12.0, 14.0),
        _span(6, "propagator.kick_matrix", 12.5, 13.5, parent=5),
        # a restart count that could not be inferred adds nothing
        _span(7, "propagator.propagate", 15.0, 16.0, None, "propagator", periods=1,
              restarts=None),
    ]
    m = spans.layer_metrics(tree)
    assert m["scanner.points_evaluated"] == 3
    assert m["scanner.unique_point_ratio"] == 2 / 3
    assert m["scanner.auto_range.probe_steps"] == 3
    assert m["propagator.periods"] == 25
    assert m["propagator.grow_restarts"] == 1
    assert m["propagator.dense.self_s"] == 2.0
    assert m["propagator.s_per_period"] == (7.0 - 2.0) / 25


@pytest.mark.parametrize(
    "initial, returned, restarts",
    [(178, 178, 0), (517, 1034, 1), (1002, 2004, 1), (517, 2068, 2)],
)
def test_grow_restarts_from_returned_half_width(initial, returned, restarts):
    assert spans.grow_restarts(initial, returned) == restarts


@pytest.mark.parametrize("initial, returned", [(517, 1000), (517, 258), (10, 30)])
def test_grow_restarts_is_none_off_the_doubling_ladder(initial, returned):
    assert spans.grow_restarts(initial, returned) is None


def test_probe_steps_from_returned_range():
    start = 0.1 / 25
    assert spans.probe_steps(5, start, 0.1) == 1
    assert spans.probe_steps(5, 2 * start, 0.1) == 2
    assert spans.probe_steps(5, 16 * start, 0.1) == 5
    # the ladder stops at the cap: 0.004 * 2^4 = 0.064, then 0.1
    assert spans.probe_steps(5, 0.1, 0.1) == 6
    # a range below 0.1/N^2 starts capped
    assert spans.probe_steps(1, 0.05, 0.05) == 1
    assert spans.probe_steps(5, 3 * start, 0.1) is None


def test_probe_steps_matches_auto_range():
    calls = []
    original = scanner._sweep_values

    def counting(mode, kicks, phi_d, l, eps, threads=1):
        calls.append(len(eps))
        return original(mode, kicks, phi_d, l, eps, threads)

    scanner._sweep_values = counting
    try:
        r = scanner.auto_range(6, 0.485, 1, "fidelity")
    finally:
        scanner._sweep_values = original
    assert spans.probe_steps(6, r, scanner.RANGE_CAP) == len(calls)


def test_installed_wraps_every_binding_and_restores_it():
    original = wavepacket.default_n_points
    recorder = spans.Recorder()
    with spans.installed(recorder):
        assert kickedrotor.default_n_points is not original
        assert scanner.default_n_points is not original
        assert wavepacket.default_n_points is not original
        state = kickedrotor.propagate(3, 0.485, kickedrotor.FreePhaseSpec.revival_relative(1, 0.0))
    assert wavepacket.default_n_points is original
    assert scanner.default_n_points is original
    assert kickedrotor.default_n_points is original
    names = [s.name for s in recorder.spans]
    assert names.count("propagator.propagate") == 1
    assert "wavepacket.default_half_width" in names
    top = next(s for s in recorder.spans if s.name == "propagator.propagate")
    assert top.parent is None and top.via == "kickedrotor"
    assert all(s.parent == top.id for s in recorder.spans if s is not top)
    m = spans.layer_metrics(recorder.spans)
    assert m["propagator.periods"] == 3
    assert m["propagator.grow_restarts"] == 0
    assert state.half_width == wavepacket.default_half_width(3, 0.485)


def test_worker_thread_spans_are_parented_to_the_waiting_span():
    recorder = spans.Recorder()
    outer = recorder.open("scanner.scan_epsilon", "scanner", "bench")
    seen = []

    def worker():
        inner = recorder.open("propagator.fidelity_protocol", "propagator", "scanner")
        seen.append(inner.parent)
        recorder.close(inner, False)

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    recorder.close(outer, False)
    assert seen == [outer.id]
