"""
Width scaling: how fast each probe narrows with the kick number
===============================================================

The resonance peak narrows as a power of the kick number N, and the
exponent depends on the probe. The echo-overlap peak narrows faster
than the position-spread peak but starts wider, so the two curves
cross; past the crossing the position probe needs the finer control.
"""

from kickedrotor import compare_modes

# Measure both widths on one list of kick numbers and fit width ~ N^gamma.
cmp = compare_modes(range(5, 13), 0.485, 1, points=65)

print("   N   position width   fidelity width   ratio")
for N, wp, wf, ratio in cmp.table:
    print(f"{N:>4}   {wp:>14.6e}   {wf:>14.6e}   {ratio:>5.3f}")

pos, fid = cmp.position, cmp.fidelity
print(f"\nposition exponent: {pos.gamma:+.4f}  (r^2 = {pos.r_squared:.5f})")
print(f"fidelity exponent: {fid.gamma:+.4f}  (r^2 = {fid.r_squared:.5f})")
print(f"fitted curves cross at N ~ {cmp.crossover_fit:.1f}")
if cmp.crossover_first_exceed is None:
    print("no measured N in this list reaches the crossing; extend the list")
else:
    print(f"first measured N past the crossing: {cmp.crossover_first_exceed}")
