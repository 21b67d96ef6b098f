"""
Coefficient fields, node discarding, and fractional smoothness
==============================================================

The pointwise bound has a family of variants distinguished by what
multiplies the distance power on the right.  This script walks through
three: an explicit coefficient field summed over all interpolation
nodes, the two-endpoint form that discards interior nodes, and a
fractional-smoothness version that undershoots the integer order.
"""

import numpy as np

from sobolev_pointwise import (
    Domain,
    GridSpec,
    PairSampler,
    SampledField,
    SinusoidField,
    all_node_coefficient,
    hatl_scan,
    node_discard_check,
    quasinorm_upper,
    triebel_scan,
)

field = SinusoidField((2.5,))
order = 2
grid = GridSpec.cube(-1.0, 1.0, 201, 1)
domain = Domain(grid)
sampler = PairSampler(domain, 2000, 5, 0.05, 0.4)

# A valid coefficient field: the maximal derivative average scaled by
# order^order.  Summed over all l + 1 interpolation nodes it dominates
# the rescaled defect.

g = all_node_coefficient(field, order, grid, sampler)
report = triebel_scan(field, order, float(order), g, sampler)
print(f"all-node coefficient scan: max ratio {report.max_ratio:.4f}, "
      f"violations {report.n_violations}")

# The same bound survives discarding the interior nodes: endpoint
# coefficients alone suffice, at the price of the order^order factor.

report = node_discard_check(field, order, grid, sampler)
print(f"node discarding:           max ratio {report.max_ratio:.4f}, "
      f"violations {report.n_violations}")

# Fractional smoothness s below the order weakens the distance power,
# so the same coefficient field still works; s may be any value in
# (0, order].

for s in (0.5, 1.0, 2.0):
    report = hatl_scan(field, order, s, g, sampler)
    print(f"fractional scan, s={s}: max ratio {report.max_ratio:.4f}, "
          f"violations {report.n_violations}")

# A zero coefficient field is the canonical negative control: every
# sampled pair of a nonconstant field violates the bound with an
# infinite ratio.

zero = SampledField(grid, np.zeros(grid.points))
report = triebel_scan(field, order, float(order), zero,
                      PairSampler(domain, 200, 5, 0.05, 0.4))
print(f"zero coefficient control:  violations {report.n_violations} "
      f"of {report.n_pairs}, max ratio {report.max_ratio}")

# The coefficient construction also gives a computable upper bound for
# the endpoint quasinorm of the field at any exponent, including the
# quasi-range below one.

for p in (0.75, 1.0, 2.0, np.inf):
    print(f"quasinorm upper bound, p={p}: "
          f"{quasinorm_upper(field, order, p, grid):.4f}")
