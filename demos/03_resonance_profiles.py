"""
Resonance profiles: two ways to measure how sharp the revival is
================================================================

Sweep the detuning epsilon through zero and record, at each value,
either the circular spread of the position density or the overlap
recovered by one time-reversing pulse. Both trace out a peak centred
on the resonance whose width shrinks rapidly with the kick number.
"""

from kickedrotor import auto_range, scan_epsilon, scan_width

KICKS = 5
PHI_D = 0.485

# Pick the sweep range automatically: it is grown or shrunk until the
# feature is bracketed, so neither tail nor peak is clipped.
for mode in ("position", "fidelity"):
    reach = auto_range(KICKS, PHI_D, 1, mode)
    scan = scan_epsilon(KICKS, PHI_D, 1, mode, reach, points=65)
    width = scan_width(scan)
    print(f"{mode:>9} scan: |eps| <= {reach:.4g}, "
          f"peak {max(scan.values):.6f}, "
          f"floor {min(scan.values):.6f}, width {width:.4e}")

# The raw profile is available point by point; print a coarse slice of
# the fidelity peak to see the shape (it is symmetric in epsilon).
scan = scan_epsilon(KICKS, PHI_D, 1, "fidelity", 0.032, points=33)
print("\n   epsilon     fidelity")
for eps, val in list(zip(scan.epsilons, scan.values))[16::2]:
    print(f"{eps:>10.4f} {val:>12.6f}")
