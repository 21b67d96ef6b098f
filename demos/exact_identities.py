"""
Exact finite-difference identities
==================================

A walk through the algebraic layer: forward differences, the sign law
relating the alternating node sum to the difference, telescoping in the
order, the Lagrange remainder computed by two unrelated routes, and the
representation of the difference as an integral of a derivative.
"""

from sobolev_pointwise import (
    GaussianField,
    QuadratureRule,
    forward_difference,
    g_integral,
    g_sum,
    lagrange_interpolant,
    lagrange_remainder,
    parse_field,
    taylor_remainder,
    telescope_residual,
)

# A forward difference of order l probes the field at l + 1 equally
# spaced points.  For the parabola t^2 the second difference with unit
# step is the discrete second derivative and equals exactly 2.

f = parse_field("poly:x0^2")
print("second difference of t^2 at step 1:",
      forward_difference(f, (1.0,), (1.0,), 2))

# The alternating node sum flips the sign of odd-order differences.
# Both quantities are assembled from one shared signed sum, so the
# relation is exact in floating point, not merely close.

g = GaussianField(1.2)
for order in range(5):
    a = g_sum(g, (0.2,), (0.15,), order)
    b = (-1.0) ** order * forward_difference(g, (0.2,), (0.15,), order)
    print(f"sign law, order {order}: bitwise equal = {a == b}")

# Differences of consecutive orders telescope: the order-(k-1) sums at
# two base points combine into the order-k difference.  The residual is
# zero up to roundoff for any smooth field.

for order in (2, 3, 4):
    res = telescope_residual(g, (0.1,), (0.12,), order)
    print(f"telescoping residual, order {order}: {res:.2e}")

# The same object appears as an interpolation error.  Interpolate the
# field at the first l of l + 1 equally spaced nodes between x and y;
# the defect at y is the forward difference with step (y - x) / l.

x, y, order = (-0.4,), (0.5,), 3
interp = lagrange_interpolant(g, x, y, order)
defect = g.value(y) - interp
step = ((y[0] - x[0]) / order,)
print("interpolation defect:   ", defect)
print("forward difference:     ", forward_difference(g, x, step, order))
print("packaged remainder:     ", lagrange_remainder(g, x, y, order))

# Replacing the interpolant by the Taylor jet at x gives a remainder
# that annihilates polynomials of degree below the order exactly; for
# polynomial fields the computation runs in integers at a common dyadic
# scale and rounds once, bit-identical to exact rational arithmetic.

low = parse_field("poly:x0^2*x1 - x1^2 + 3")
print("Taylor remainder of a low-degree field:",
      taylor_remainder(low, (0.1, -0.3), (0.7, 0.4), 4))

# Finally the integral form: the order-l difference equals the integral
# of the l-th line derivative over the unit cube of step offsets.  Two
# quadratures evaluate it, a tensor Gauss rule and a collapsed rule
# using the density of a sum of uniform variables.

x, h, order = (0.1,), (0.2,), 3
want = forward_difference(g, x, h, order)
for rule in (QuadratureRule.gauss_tensor(), QuadratureRule.irwin_hall()):
    got = g_integral(g, x, h, order, rule=rule)
    print(f"integral form via {rule.kind}: deviation {abs(got - want):.2e}")
