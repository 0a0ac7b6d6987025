"""Acceptance gate: one check per shipping criterion, at the stated tolerance.

Each test prints a single PASS/FAIL line carrying the measured numbers, then
asserts, so a failing criterion still reports what was actually measured.

Criterion 5 checks that at a small detuning the position density moves at
first order in eps, matching the closed form `perturbative_density`, while
the momentum density moves only at second order.

Criterion 8 asserts both width-scaling exponent windows over N=5..12, as
written. The implemented estimators do not reach them there, so it fails;
the measured exponents are on its printed line.
"""

import math
import time

import numpy as np

from kickedrotor import (
    Density,
    FreePhaseSpec,
    SimConfig,
    SpatialGrid,
    compare_modes,
    correction_term,
    default_n_points,
    evolve,
    evolve_dense,
    l1_distance,
    mean_energy,
    momentum_density,
    perturbative_density,
    position_density,
    propagate,
    resonant_state,
    sigma_x,
    to_position,
    width_scaling,
)
from kickedrotor.cli import main as cli_main

PHI_D = 0.485
UNIFORM = 1.0 / (2.0 * math.pi)


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    return ok


def _position_density(state, n_points: int | None = None) -> Density:
    grid = SpatialGrid(n_points or default_n_points(state.half_width))
    return position_density(to_position(state, grid))


def test_01_resonant_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for kicks in (1, 5, 10, 40):
        state = propagate(kicks, PHI_D, FreePhaseSpec.revival_relative(1, 0.0))
        exact = resonant_state(kicks, PHI_D, state.half_width)
        worst = max(worst, float(np.max(np.abs(state.amps - exact.amps))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    assert _report(
        1, ok,
        f"closed-form deviation {worst:.3e} (tol 1e-10) over N in (1,5,10,40), "
        f"{elapsed:.2f} s",
    )


def test_02_resonant_position_flatness():
    t0 = time.perf_counter()
    state = propagate(40, PHI_D, FreePhaseSpec.revival_relative(1, 0.0))
    dens = _position_density(state)
    dev = float(np.max(np.abs(dens.values - UNIFORM)))
    elapsed = time.perf_counter() - t0
    ok = dev < 1e-10 and elapsed < 1.0
    assert _report(
        2, ok,
        f"40-kick position density off uniform by {dev:.3e} (tol 1e-10), "
        f"{elapsed:.2f} s",
    )


def test_03_two_kick_recurrence():
    t0 = time.perf_counter()
    spec = FreePhaseSpec.general(2.0 * math.pi)
    weakest = 1.0
    for k in range(1, 11):
        state = propagate(2 * k, PHI_D, spec, half_width=40)
        weakest = min(weakest, float(abs(state.amps[state.half_width])))
    elapsed = time.perf_counter() - t0
    ok = weakest > 1.0 - 1e-10 and elapsed < 1.0
    assert _report(
        3, ok,
        f"weakest even-kick return overlap {weakest:.12f} (floor 1-1e-10), "
        f"{elapsed:.2f} s",
    )


def test_04_dual_route_agreement():
    t0 = time.perf_counter()
    cfg = SimConfig(kicks=10, epsilon=1e-6, half_width=64)
    spectral = evolve(cfg)
    dense = evolve_dense(cfg)
    gap = float(np.max(np.abs(spectral.amps - dense.amps)))
    elapsed = time.perf_counter() - t0
    ok = gap < 1e-9 and elapsed < 5.0
    assert _report(
        4, ok,
        f"spectral vs dense amplitude gap {gap:.3e} (tol 1e-9) at M=64, N=10, "
        f"{elapsed:.2f} s",
    )


def test_05_detuned_position_contrast():
    t0 = time.perf_counter()
    kicks = 40
    on_res = propagate(kicks, PHI_D, FreePhaseSpec.revival_relative(1, 0.0))
    on_res_mom = momentum_density(on_res)

    def detuned(eps: float):
        state = propagate(
            kicks, PHI_D, FreePhaseSpec.revival_relative(1, eps),
            half_width=on_res.half_width,
        )
        mom_gap = l1_distance(on_res_mom, momentum_density(state))
        return state, mom_gap, _position_density(state).values

    state, mom_gap, dens = detuned(1e-8)
    _, mom_gap_2, dens_2 = detuned(2e-8)
    grid = SpatialGrid(len(dens))
    pert = perturbative_density(kicks, PHI_D, 1e-8, grid, state.half_width).values
    pos_gap = float(np.max(np.abs(dens - UNIFORM)))
    pos_gap_2 = float(np.max(np.abs(dens_2 - UNIFORM)))
    predicted = float(np.max(np.abs(pert - UNIFORM)))
    pert_gap = float(np.max(np.abs(dens - pert)))
    pos_ratio = pos_gap_2 / pos_gap
    mom_ratio = mom_gap_2 / mom_gap
    elapsed = time.perf_counter() - t0
    ok = (
        mom_gap < 1e-3
        and pert_gap < 1e-3 * predicted
        and 1.9 <= pos_ratio <= 2.1
        and 3.5 <= mom_ratio <= 4.5
        and elapsed < 2.0
    )
    assert _report(
        5, ok,
        f"momentum L1 {mom_gap:.3e} (tol 1e-3); position deviation from "
        f"uniform {pos_gap:.3e}, off first-order prediction {predicted:.3e} "
        f"by {pert_gap:.3e} (tol 1e-3 of it); on eps doubling position x"
        f"{pos_ratio:.5f} (window [1.9, 2.1]), momentum x{mom_ratio:.5f} "
        f"(window [3.5, 4.5]), {elapsed:.2f} s",
    )


def test_06_perturbative_sigma_accuracy():
    t0 = time.perf_counter()
    kicks, eps = 5, 1e-7

    def pair(e: float):
        state = evolve(SimConfig(kicks=kicks, epsilon=e))
        grid = SpatialGrid(default_n_points(state.half_width))
        full = position_density(to_position(state, grid))
        pert = perturbative_density(kicks, PHI_D, e, grid, state.half_width)
        return full, pert, grid

    full, pert, grid = pair(eps)
    sig_full = sigma_x(full)
    sig_pert = sigma_x(Density("position", grid.nodes, pert.values))
    rel = abs(sig_pert - sig_full) / sig_full

    err = float(np.max(np.abs(pert.values - full.values)))
    full_h, pert_h, _ = pair(eps / 2)
    err_h = float(np.max(np.abs(pert_h.values - full_h.values)))
    ratio = err / err_h
    elapsed = time.perf_counter() - t0
    ok = rel < 0.02 and 3.5 <= ratio <= 4.5 and elapsed < 5.0
    assert _report(
        6, ok,
        f"sigma relative gap {rel:.3e} (tol 2e-2); pointwise error ratio "
        f"{ratio:.3f} on eps halving (window [3.5, 4.5]), {elapsed:.2f} s",
    )


def test_07_quadratic_energy_law():
    t0 = time.perf_counter()
    hbar = 4.0 * math.pi
    spec = FreePhaseSpec.revival_relative(1, 0.0)
    worst = 0.0
    for kicks in range(1, 41):
        state = propagate(kicks, PHI_D, spec)
        expected = hbar**2 * (kicks * PHI_D) ** 2 / 4.0
        rel = abs(mean_energy(state, hbar) - expected) / expected
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 1.0
    assert _report(
        7, ok,
        f"energy law worst relative error {worst:.3e} (tol 1e-8) for N <= 40, "
        f"{elapsed:.2f} s",
    )


def test_08_width_scaling_exponents():
    t0 = time.perf_counter()
    pos = width_scaling(range(5, 13), PHI_D, 1, "position", points=65, threads=8)
    fid = width_scaling(range(5, 13), PHI_D, 1, "fidelity", points=65, threads=8)
    elapsed = time.perf_counter() - t0
    ok = (
        -2.4 <= pos.gamma <= -1.9
        and -3.4 <= fid.gamma <= -2.8
        and pos.r_squared >= 0.98
        and fid.r_squared >= 0.98
        and elapsed < 300.0
    )
    assert _report(
        8, ok,
        f"position gamma {pos.gamma:.4f} (window [-2.4, -1.9], "
        f"r2 {pos.r_squared:.5f}); fidelity gamma {fid.gamma:.4f} "
        f"(window [-3.4, -2.8], r2 {fid.r_squared:.5f}), {elapsed:.1f} s",
    )


def test_09_mode_ordering_and_crossover():
    t0 = time.perf_counter()
    # the two width laws cross in the mid teens, so the list must reach past
    # that for the table crossover to be observable at all
    cmp = compare_modes(range(5, 19), PHI_D, 1, points=65, threads=8)
    n5, wp5, wf5, _ = cmp.table[0]
    first = cmp.crossover_first_exceed
    fit = cmp.crossover_fit
    elapsed = time.perf_counter() - t0
    ok = (
        n5 == 5
        and wp5 < wf5
        and first is not None
        and 10 <= first <= 24
        and 10.0 <= fit <= 24.0
    )
    assert _report(
        9, ok,
        f"N=5 widths: position {wp5:.4e} < fidelity {wf5:.4e} is {wp5 < wf5}; "
        f"crossover first-exceed N={first}, fit intersection {fit:.1f} "
        f"(window [10, 24]), {elapsed:.1f} s",
    )


def test_10_property_suite(tmp_path):
    t0 = time.perf_counter()
    details = []

    state = propagate(100, PHI_D, FreePhaseSpec.revival_relative(1, 1e-3))
    drift = abs(state.norm_sq() - 1.0)
    ok_norm = drift < 1e-10
    details.append(f"norm drift over 100 periods {drift:.3e}")

    M = 40
    grid = SpatialGrid(default_n_points(M))
    worst_integral = 0.0
    for k, eps in ((1, 1e-8), (3, 1e-5), (7, 5e-3)):
        field = correction_term(k, PHI_D, eps, grid, M)
        integral = abs(float(np.sum(field.values)) * grid.spacing)
        worst_integral = max(worst_integral, integral)
    ok_zero = worst_integral < 1e-12
    details.append(f"correction integral {worst_integral:.3e}")

    base = correction_term(3, PHI_D, 1e-6, grid, M)
    doubled = correction_term(3, PHI_D, 2e-6, grid, M)
    ok_linear = bool(np.array_equal(doubled.values, 2.0 * base.values))
    details.append(f"eps doubling exact: {ok_linear}")

    uniform = Density(
        "position", grid.nodes, np.full(grid.n_points, UNIFORM)
    )
    sig_gap = abs(sigma_x(uniform) - math.pi / math.sqrt(3.0))
    ok_sigma = sig_gap < 1e-6
    details.append(f"uniform sigma gap {sig_gap:.3e}")

    def scan_bytes(fmt: str, threads: int) -> bytes:
        out = tmp_path / f"{fmt}-{threads}"
        rc = cli_main([
            "scan", "--mode", "fidelity", "--kicks", "5",
            "--eps-max", "0.032", "--points", "33",
            "--threads", str(threads), "--format", fmt, "--out", str(out),
        ])
        assert rc == 0
        return (out / ("scan." + fmt)).read_bytes()

    ok_bytes = all(
        scan_bytes(fmt, 1) == scan_bytes(fmt, 4) for fmt in ("csv", "json")
    )
    details.append(f"byte-identical across thread counts: {ok_bytes}")

    elapsed = time.perf_counter() - t0
    ok = ok_norm and ok_zero and ok_linear and ok_sigma and ok_bytes
    assert _report(10, ok, "; ".join(details) + f", {elapsed:.1f} s")
