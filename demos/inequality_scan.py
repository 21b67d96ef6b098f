"""
Scanning a pointwise inequality
===============================

The central claim under test: the interpolation defect between two
points is controlled by the distance to the power of the order, times
averaged derivative data at the two endpoints only.  The coefficient
is built from a maximal function of the top derivative, scaled by the
segment ratio constant.  A scan samples thousands of point pairs and
reports the worst ratio of the two sides.
"""

from sobolev_pointwise import (
    Domain,
    GridSpec,
    PairSampler,
    SinusoidField,
    lemma1_scan,
    main_inequality_scan,
)

# A smooth field on the unit square, a grid fine enough to resolve its
# oscillation, and a seeded sampler so every run sees the same pairs.

field = SinusoidField((2.0, 3.0))
grid = GridSpec.cube(-1.0, 1.0, 201, 2)
domain = Domain(grid)
sampler = PairSampler(domain, count=5000, seed=42, min_sep=0.05, max_sep=0.4)

# First order: the defect is just |f(y) - f(x)| and the bound uses
# maximal averages of the gradient magnitude at x and y.

report = lemma1_scan(field, grid, sampler)
print("first-order scan")
print("  pairs:      ", report.n_pairs)
print("  violations: ", report.n_violations)
print("  max ratio:  ", round(report.max_ratio, 4))
print("  quantiles:  ", {k: round(v, 4) for k, v in report.quantiles.items()})

# Second order: the left side becomes the defect of linear interpolation
# along the segment, the right side uses second-derivative averages and
# gains a factor distance squared.

report2 = main_inequality_scan(field, 2, grid, sampler)
print("second-order scan")
print("  pairs:      ", report2.n_pairs)
print("  violations: ", report2.n_violations)
print("  max ratio:  ", round(report2.max_ratio, 4))

# Ratios far below one mean the bound holds with room to spare; a
# violation would list the offending pair in report.violations.  The
# full per-pair data can be written as JSON or CSV for later analysis.

report2.write_json("/tmp/second_order_scan.json")
print("wrote /tmp/second_order_scan.json")

# Scans reject pairs whose surrounding balls would poke outside the
# grid, so every maximal average used in the bound is computed from
# fully valid samples.  The params block records those choices.

print("scan parameters:", {k: report2.params[k]
                           for k in ("scan", "order", "deltas", "boundary")})
