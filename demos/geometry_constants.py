"""
Ball overlaps and the segment ratio constant
============================================

The inequality scans rescale ball averages by a dimensional constant:
the volume of a ball divided by the volume of its overlap with an equal
ball centered one radius away.  This script tabulates the ingredients
and cross-checks the two-dimensional value with plain Monte Carlo.
"""

import numpy as np

from sobolev_pointwise import ball_volume, lens_volume, segment_ratio_constant

# Volumes of unit balls in low dimensions, for orientation.

for n in (1, 2, 3, 4):
    print(f"unit ball volume, dim {n}: {ball_volume(n, 1.0):.12f}")

# The overlap of two balls of radius r at center distance d is a lens.
# Dimensions up to three have elementary closed forms; higher ones sum
# two caps, each a regularized incomplete beta function of the cap
# height.  At distance zero the lens is the whole ball, beyond d = 2r it
# vanishes.

print()
for d in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5):
    print(f"lens volume, dim 2, r=1, d={d:.1f}: {lens_volume(2, 1.0, d):.12f}")

# The constant itself, increasing with dimension.  The line value is
# exactly 2 (a segment against half a segment) and the three
# dimensional value is exactly 16/5.

print()
for n in range(1, 7):
    print(f"segment ratio constant, dim {n}: {segment_ratio_constant(n):.12f}")

# Monte Carlo cross-check in the plane: throw points into the bounding
# square, count how many land in the unit disk and how many also land
# in the disk shifted by one radius.  The ratio of the counts estimates
# the constant directly.

rng = np.random.default_rng(2)
pts = rng.uniform(-1.0, 1.0, size=(2_000_000, 2))
in_disk = np.einsum("ij,ij->i", pts, pts) <= 1.0
shifted = pts[in_disk].copy()
shifted[:, 0] -= 1.0
in_lens = np.einsum("ij,ij->i", shifted, shifted) <= 1.0
estimate = in_disk.sum() / in_lens.sum()
exact = segment_ratio_constant(2)
print()
print(f"dim 2 constant: exact {exact:.6f}, Monte Carlo {estimate:.6f}, "
      f"difference {abs(exact - estimate):.2e}")
