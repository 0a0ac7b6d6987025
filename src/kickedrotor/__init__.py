"""Quantum kicked-ring revival toolkit.

A particle on a ring receives periodic momentum kicks; at special driving
periods the free flight between kicks rephases exactly and the dynamics
admit closed forms. This package propagates the exact quantum map,
evaluates the matching analytic results, and measures how the revival
features narrow as the kick number grows.
"""
from .analytics import (
    CorrectionField,
    PerturbativeDensity,
    TruncationError,
    correction_term,
    perturbative_density,
    resonant_state,
)
from .observables import (
    DegenerateDensityError,
    Density,
    NoCrossingError,
    l1_distance,
    mean_energy,
    momentum_density,
    position_density,
    sigma_x,
)
from .propagator import (
    FreePhaseSpec,
    LeakageError,
    evolve,
    evolve_dense,
    fidelity_protocol,
    kick_matrix,
    propagate,
)
from .scanner import (
    EpsilonScan,
    FitRefusalError,
    ModeComparison,
    RangeCapError,
    WidthScaling,
    auto_range,
    auto_scan,
    compare_modes,
    scan_epsilon,
    scan_width,
    width_scaling,
)
from .wavepacket import (
    GridTooSmallError,
    MomentumWavefunction,
    NumericalError,
    PositionWavefunction,
    SimConfig,
    SpatialGrid,
    default_half_width,
    default_n_points,
    to_position,
)

__version__ = "0.1.0"

__all__ = [
    "CorrectionField",
    "DegenerateDensityError",
    "Density",
    "EpsilonScan",
    "FitRefusalError",
    "FreePhaseSpec",
    "GridTooSmallError",
    "LeakageError",
    "ModeComparison",
    "MomentumWavefunction",
    "NoCrossingError",
    "NumericalError",
    "PerturbativeDensity",
    "PositionWavefunction",
    "RangeCapError",
    "SimConfig",
    "SpatialGrid",
    "TruncationError",
    "WidthScaling",
    "auto_range",
    "auto_scan",
    "compare_modes",
    "correction_term",
    "default_half_width",
    "default_n_points",
    "evolve",
    "evolve_dense",
    "fidelity_protocol",
    "kick_matrix",
    "l1_distance",
    "mean_energy",
    "momentum_density",
    "perturbative_density",
    "position_density",
    "propagate",
    "resonant_state",
    "scan_epsilon",
    "scan_width",
    "sigma_x",
    "to_position",
    "width_scaling",
]
