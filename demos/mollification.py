"""
Mollified fields keep the inequality
====================================

Smoothing by convolution with a compact kernel is the classical way to
reduce questions about rough functions to smooth ones.  Discretely, the
kernel must respect two norms facts: its averages never increase Lp
norms (Young), and the scanned inequality should be stable as the
smoothing scale shrinks.
"""

import math

import numpy as np

from sobolev_pointwise import (
    Domain,
    GridSpec,
    Mollifier,
    PairSampler,
    SampledField,
    SinusoidField,
    main_inequality_scan,
    mollified_scan,
    young_check,
)

grid = GridSpec.cube(-1.0, 1.0, 201, 1)

# The kernel: a compactly supported bump, normalized to unit mass on
# the grid.  Its taps must straddle at least a few grid cells, so very
# small scales on coarse grids are rejected instead of silently
# degenerating to a point mass.

phi = Mollifier(0.1, dim=1)
taps = phi.taps(grid.spacing)
print(f"kernel: {taps.size} taps, mass {taps.sum():.12f}")

# Convolution smooths: a rough nonnegative field keeps its mass but
# loses oscillation.  Young's inequality bounds every Lp norm of the
# smoothed field by the norm of the original.

rng = np.random.default_rng(0)
values = rng.uniform(0.0, 1.0, size=grid.points)
values[:30] = 0.0
values[-30:] = 0.0
u = SampledField(grid, values)
for p in (1.0, 2.0, math.inf):
    rep = young_check(u, phi, p)
    print(f"Young, p={p}: smoothed {rep.lhs:.4f} <= original {rep.rhs:.4f} "
          f"-> {rep.passed}")

# The same stability holds for the scanned inequality: mollifying the
# field and its coefficient by the same kernel leaves the ratios nearly
# unchanged as the scale shrinks.

field = SinusoidField((3.0,))
domain = Domain(grid)

base = main_inequality_scan(field, 1, grid,
                            PairSampler(domain, 2000, 21, 0.05, 0.3))
print(f"unmollified scan: max ratio {base.max_ratio:.4f}")

for eps in (0.2, 0.1, 0.05):
    rep = mollified_scan(field, 1, eps, grid,
                         PairSampler(domain, 2000, 21, 0.05, 0.3))
    drift = abs(rep.max_ratio - base.max_ratio) / base.max_ratio
    print(f"mollified scan, eps={eps}: max ratio {rep.max_ratio:.4f} "
          f"(drift {drift:.2%}), violations {rep.n_violations}")
