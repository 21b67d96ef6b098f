"""Equispaced finite differences, Lagrange interpolation, and their identities.

The central objects are the l-th forward difference with step h,

    diff(f, x, h, l) = sum_j (-1)^(l-j) C(l, j) f(x + j h),

the degree l-1 Lagrange interpolant on the nodes x + j h (j < l), and the
iterated-integral representation of the difference.  The interpolation
remainder f(y) - L(y) with h = (y - x) / l equals the forward difference
exactly; the alternating-sign sum `g_sum` equals (-1)^l times it; and the
iterated integral reproduces it to quadrature accuracy.  These identities
are what the verification suites pin down numerically.

Every function takes its geometry as points: a base x with a step h,
or the two endpoints x and y of the remainder.  `forward_difference`,
`g_sum`, `lagrange_interpolant` and `lagrange_remainder` take one point or
(N, dim) batches, and run on the float kernels `_node_sum` and
`_lagrange_sum` that also score the scans.  A single point is a batch of
one, so it gives the float of one row of a batch, except that a
polynomial at one point takes its exact route: the difference from its
exact node values, the interpolant and remainder from exact weights.

Polynomial fields are evaluated, differentiated along lines and
interpolated exactly: every float is a dyadic rational, so all the
coordinates of one call go to integers at a common scale 2^-K, the
rational coefficients to integers over their common denominator, and
each result is one integer over a known denominator, rounded once by
Python's correctly rounded int / int division.  That is the float `Fraction` arithmetic would give,
bit for bit, so identity residuals reflect only the final rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .exceptions import ConfigError, DegeneratePairError, DomainError
from .fields import (
    AnalyticField,
    PolynomialField,
    PowerField,
    _as_point,
    _checked_order,
    _dyadic,
    _line_derivatives,
    evaluate,
)

__all__ = [
    "binomial",
    "forward_difference",
    "g_sum",
    "g_integral",
    "telescope_residual",
    "QuadratureRule",
    "lagrange_interpolant",
    "lagrange_remainder",
    "taylor_remainder",
    "irwin_hall_density",
]

# Tensor-product quadrature guard: refuse rule.order ** l beyond this.
_MAX_TENSOR_NODES = 20_000_000


def binomial(l: int, j: int) -> int:
    """Exact binomial coefficient C(l, j) with 0 <= j <= l."""
    if l < 0 or j < 0 or j > l:
        raise ValueError(f"binomial needs 0 <= j <= l, got l={l}, j={j}")
    return math.comb(l, j)


def _node_reader(f, order: int, points, least: int = 0):
    """The order, checked to be at least `least`; `points` as (N, dim)
    batches; whether they were single points (dim,) (a number when dim is
    1), each then a batch of one; and how the kernels read f at nodes: a
    sampled field by its read-back `at`, an analytic one by `value_batch`.
    A single point thus runs the float operations of one row of a batch."""
    sampled = not isinstance(f, AnalyticField)
    order = _checked_order(order, least, math.inf if sampled else f.max_order)
    dim = f.grid.dim if sampled else f.dim
    single = np.ndim(points[0]) < 2
    arrays = [_as_point(p, dim)[None] if single else np.asarray(p, dtype=float) for p in points]
    if any(a.shape != (len(arrays[0]), dim) for a in arrays):
        raise ValueError(f"expected points of shape ({dim},) or batches of shape (N, {dim})")
    return order, arrays, single, f.at if sampled else f.value_batch


def _node_sum(value_at, x: np.ndarray, h: np.ndarray, coeffs):
    """sum_j coeffs[j] v(x + j h) at a point or a batch, node by node."""
    total = 0.0
    for j, c in enumerate(coeffs):
        total += c * value_at(x + j * h)
    return total


def _line_coordinate(base: np.ndarray, step: np.ndarray, y: np.ndarray) -> np.ndarray:
    """s with y = base + s step, as (y - base).step / step.step, on (N, dim)
    batches; a row whose step.step underflows below the smallest normal
    float is first scaled, exactly, by 2^-e, e the exponent of its largest |step|."""
    offset = y - base
    num = np.einsum("...n,...n->...", offset, step)
    den = np.einsum("...n,...n->...", step, step)
    tiny = den < np.finfo(float).tiny
    if tiny.any():
        _, e = np.frexp(np.abs(step[tiny]).max(axis=-1, keepdims=True))
        offset, unit = np.ldexp(offset[tiny], -e), np.ldexp(step[tiny], -e)
        num[tiny] = np.einsum("...n,...n->...", offset, unit)
        den[tiny] = np.einsum("...n,...n->...", unit, unit)
    return num / den


def _lagrange_sum(value_at, base: np.ndarray, step: np.ndarray, y: np.ndarray,
                  count: int) -> np.ndarray:
    """Float interpolant sum_j L_j(s) v(base + j step), j < count, at the
    `_line_coordinate` s of y, node by node.  Each weight multiplies in
    (s - i) / (j - i) over i != j from the left, the shifts s - i formed
    once."""
    s = _line_coordinate(base, step, y)
    shifts = [s - i for i in range(count)]
    total = 0.0
    for j in range(count):
        w = 1.0
        for n, i in enumerate([i for i in range(count) if i != j]):
            # 1.0 * (s - i) is exact, so the first factor skips the product
            w = (w * shifts[i] if n else shifts[i]) / (j - i)
        total += value_at(base + j * step) * w
    return total


def g_sum(f, x, h, order: int, *, binom=binomial):
    """Alternating node sum sum_j (-1)^j C(l, j) f(x + j h).

    `f` is an analytic or a sampled field; x and h are one point each or
    (N, dim) batches, and a batch gives an (N,) array.  A polynomial at
    one point sums its exact node values in integers, rounded once; every
    other call sums float node values.  Order 0 returns f(x); a zero step
    with order >= 1 returns 0.  The `binom` argument is a fault-injection
    hook for negative-control tests and must behave like `binomial` in
    normal use.
    """
    order, (x, h), single, value_at = _node_reader(f, order, (x, h))
    signs = [(-1) ** j * binom(order, j) for j in range(order + 1)]
    if single and isinstance(f, PolynomialField):
        # the nodes x + j h are exact integers at the dyadic scale of x and h
        (xs, hs), scale = _dyadic(x[0], h[0])
        if order and not h.any():
            return 0.0
        total = sum(c * f._scaled_value([a + j * b for a, b in zip(xs, hs)], scale)
                    for j, c in enumerate(signs))
        return total / f._scaled_den(scale)
    if order == 0:
        total = value_at(x)
    else:
        total = np.where(h.any(axis=-1), _node_sum(value_at, x, h, signs), 0.0)
    return float(total[0]) if single else total


def forward_difference(f, x, h, order: int, *, binom=binomial):
    """l-th forward difference sum_j (-1)^(l-j) C(l, j) f(x + j h).

    This is (-1)^l * `g_sum`, the same floats with a final negation 0.0 - g
    (an exact zero stays +0.0), so the sign law between the two holds
    exactly; the conventions and arguments are those of `g_sum`.
    """
    signed = g_sum(f, x, h, order, binom=binom)
    return signed if order % 2 == 0 else 0.0 - signed


def telescope_residual(f: AnalyticField, x, h, order: int, *, binom=binomial) -> float:
    """Residual of the two-term recursion tying order l-1 sums to the order l difference.

    Returns g_sum(f, x, h, l-1) - g_sum(f, x+h, h, l-1) - g_sum(f, x, h, l), where the
    last sum is (-1)^l * forward_difference(f, x, h, l) exactly; this is
    zero in exact arithmetic by Pascal's rule.
    """
    order = _checked_order(order, 1, f.max_order)
    x = _as_point(x, f.dim)
    h = _as_point(h, f.dim)
    return (g_sum(f, x, h, order - 1, binom=binom) - g_sum(f, x + h, h, order - 1, binom=binom)
            - g_sum(f, x, h, order, binom=binom))


# ---------------------------------------------------------------------------
# Lagrange interpolation


def lagrange_interpolant(f, x, y, order: int):
    """Degree order-1 Lagrange interpolant at y on the nodes x + j h, j < order.

    The step h = (y - x) / order is rounded once, so the nodes are the
    floats x + j h.  x and y are one point each or (N, dim) batches, as in
    `g_sum`; a row whose step is all zero -- x == y, or y - x so small that
    the division underflows -- raises `DegeneratePairError`.

    A polynomial at one point is interpolated exactly, with a single
    final rounding: x, h, y and the float nodes go to integers at one
    dyadic scale (`_dyadic`), so the line coordinate of y is a ratio a / b
    of integers, and the basis weights multiplied through by (order-1)!
    are integers,

        (order-1)! L_j(a / b) = (-1)^(order-1-j) C(order-1, j)
                                prod_{i != j} (a - i b) / b^(order-1).

    Every other call runs the float weight kernel `_lagrange_sum`.
    """
    order, (x, y), single, value_at = _node_reader(f, order, (x, y), 1)
    h = (y - x) / order
    if not h.any(axis=-1).all():
        raise DegeneratePairError("the remainder nodes need a nonzero step (y - x) / order")
    if single and isinstance(f, PolynomialField):
        x, h, y = x[0], h[0], y[0]
        (xs, hs, ys, *nodes), scale = _dyadic(x, h, y, *(x + j * h for j in range(order)))
        a = sum((v - o) * st for v, o, st in zip(ys, xs, hs))
        b = sum(st * st for st in hs)
        total = 0
        for j, node in enumerate(nodes):
            weight = (-1) ** (order - 1 - j) * math.comb(order - 1, j)
            for i in range(order):
                if i != j:
                    weight *= a - i * b
            total += f._scaled_value(node, scale) * weight
        return total / (f._scaled_den(scale) * b ** (order - 1) * math.factorial(order - 1))
    interp = _lagrange_sum(value_at, x, h, y, order)
    return float(interp[0]) if single else interp


def lagrange_remainder(f, x, y, order: int):
    """Interpolation remainder f(y) - L(y) on the equispaced remainder nodes.

    L is `lagrange_interpolant` on the `order` nodes x + j (y - x) / order,
    so the remainder equals forward_difference(f, x, h, order) with
    h = (y - x) / order -- computed here by the dual interpolation route,
    never by the alternating sum.  The arguments and the zero-step rule
    are those of `lagrange_interpolant`; a polynomial at one point takes
    its exact route.
    """
    order, (x, y), single, value_at = _node_reader(f, order, (x, y))
    if single and isinstance(f, PolynomialField):
        return evaluate(f, y[0]) - lagrange_interpolant(f, x[0], y[0], order)
    interp = lagrange_interpolant(f, x, y, order)  # a zero step raises before f is read
    remainder = value_at(y) - interp
    return float(remainder[0]) if single else remainder


def taylor_remainder(f: AnalyticField, x, y, order: int) -> float:
    """f(y) minus its degree order-1 Taylor jet along the segment from x.

    The jet is sum_{j < order} (1/j!) d^j/ds^j f(x + s (y - x)) at s = 0.
    """
    order = _checked_order(order, 1, f.max_order)
    x = _as_point(x, f.dim)
    y = _as_point(y, f.dim)
    if isinstance(f, PolynomialField):
        # x and y at one dyadic scale, so the direction y - x is exact and
        # s = 1 hits y exactly; the j-th jet term d^j/ds^j / j! at s = 0 is
        # the s^j coefficient, so the remainder is the sum of the others
        (xs, ys), scale = _dyadic(x, y)
        coeffs, den = f._scaled_line(xs, [b - a for a, b in zip(xs, ys)], scale)
        return sum(coeffs[order:]) / den
    jet = 0.0
    for j in range(order):
        jet += float(_line_derivatives(f, x, y - x, j, np.zeros(1))[0]) / math.factorial(j)
    return evaluate(f, y) - jet


# ---------------------------------------------------------------------------
# the iterated-integral representation


@lru_cache(maxsize=None)
def _legendre01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights shifted to [0, 1]."""
    t, w = leggauss(order)
    return 0.5 * (t + 1.0), 0.5 * w


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature for the iterated-integral form of the difference.

    `gauss_tensor` integrates over the cube [0, 1]^l with a tensor
    Gauss-Legendre rule; `irwin_hall` collapses the cube integral onto
    [0, l] against the Irwin-Hall density and integrates each unit
    subinterval with its own Gauss-Legendre panel (the density has kinks
    at the integers, so a single panel would not converge fast).
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("gauss_tensor", "irwin_hall"):
            raise ConfigError(f"unknown quadrature kind {self.kind!r}")

    @property
    def order(self) -> int:
        """Gauss-Legendre points: 8 per cube axis, or 16 per unit panel."""
        return {"gauss_tensor": 8, "irwin_hall": 16}[self.kind]

    @classmethod
    def gauss_tensor(cls) -> "QuadratureRule":
        return cls("gauss_tensor")

    @classmethod
    def irwin_hall(cls) -> "QuadratureRule":
        return cls("irwin_hall")


def irwin_hall_density(order: int, s) -> np.ndarray:
    """Density of the sum of `order` independent uniform [0, 1] draws.

    Piecewise polynomial of degree order-1 on [0, order], zero outside.
    """
    if order < 1:
        raise ValueError("the density needs order >= 1")
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    scale = 1.0 / math.factorial(order - 1)
    for k in range(order + 1):
        term = scale * ((-1) ** k) * math.comb(order, k) * (s - k) ** (order - 1)
        out = out + np.where(s >= k, term, 0.0)
    inside = (s >= 0.0) & (s <= order)
    return np.where(inside, np.maximum(out, 0.0), 0.0)


def g_integral(f: AnalyticField, x, h, order: int, rule: QuadratureRule | None = None) -> float:
    """Iterated integral of the order-th line derivative over the unit cube.

    Computes int_{[0,1]^l} d^l/ds^l f(x + s h) at s = t_1 + ... + t_l,
    which reproduces forward_difference(f, x, h, l) for smooth fields.
    The whole segment from x to x + l h must lie inside the domain.
    """
    order = _checked_order(order, 1, f.max_order)
    x = _as_point(x, f.dim)
    h = _as_point(h, f.dim)
    if isinstance(f, PowerField) and not f.segment_in_domain(x, h, 0.0, float(order)):
        raise DomainError("integration segment crosses the excluded ball at the origin")
    if rule is None:
        rule = QuadratureRule.gauss_tensor()
    t, w = _legendre01(rule.order)
    if rule.kind == "gauss_tensor":
        if rule.order ** order > _MAX_TENSOR_NODES:
            raise ConfigError(
                f"tensor rule of order {rule.order} is too large for l={order}; "
                "use the irwin_hall rule")
        s = np.zeros(1)
        weights = np.ones(1)
        for _ in range(order):
            s = (s[:, None] + t[None, :]).ravel()
            weights = (weights[:, None] * w[None, :]).ravel()
        return float(weights @ _line_derivatives(f, x, h, order, s))
    s = np.arange(order)[:, None] + t  # panel k holds the nodes k + t
    derivs = _line_derivatives(f, x, h, order, s.ravel()).reshape(s.shape)
    total = 0.0
    for panel, d in zip(s, derivs):
        total += float(np.sum(w * irwin_hall_density(order, panel) * d))
    return total
