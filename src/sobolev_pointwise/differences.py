"""Equispaced finite differences, Lagrange interpolation, and their identities.

The central objects are the l-th forward difference with step h,

    diff(f, x, h, l) = sum_j (-1)^(l-j) C(l, j) f(x + j h),

the degree l-1 Lagrange interpolant on the nodes x + j h (j < l), and the
iterated-integral representation of the difference.  The interpolation
remainder f(y) - L(y) with h = (y - x) / l equals the forward difference
exactly; the alternating-sign sum `g_sum` equals (-1)^l times it; and the
iterated integral reproduces it to quadrature accuracy.  These identities
are what the verification suites pin down numerically.

`forward_difference`, `g_sum` and `lagrange_remainder` take one point or
(N, dim) batches, and run on the float kernels `_node_sum` and
`_lagrange_sum` that also score the scans.  A one-point call gives the
float of one row of a batch, except that a polynomial at one point reads
its nodes exactly.

Polynomial fields are evaluated, restricted to lines and interpolated
exactly: every float is a dyadic rational, so all the coordinates of one
call go to integers at a common scale 2^-K, the rational coefficients to
integers over their common denominator, and each result is one integer
over a known denominator, rounded once by Python's correctly rounded
int / int division.  That is the float `Fraction` arithmetic would give,
bit for bit, so identity residuals reflect only the final rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .exceptions import (
    ConfigError,
    DegenerateNodesError,
    DegeneratePairError,
    DomainError,
    GeometryError,
    UnsupportedOrderError,
)
from .fields import AnalyticField, PolynomialField, PowerField, _as_point, _dyadic, evaluate

__all__ = [
    "binomial",
    "forward_difference",
    "g_sum",
    "g_integral",
    "telescope_residual",
    "NodeFamily",
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


def _node_reader(f, order: int, points):
    """The checked order, `points` as arrays, whether they are single
    points (dim,) (a number when dim is 1) rather than batches (N, dim),
    and how the kernels read f at nodes: a sampled field by its read-back
    `at`, an analytic field at a single point by `value` (exact for a
    polynomial, otherwise `value_batch` on that point, bit for bit), and
    a batch by `value_batch`.  A single point thus runs the float
    operations of one row of a batch."""
    sampled = not isinstance(f, AnalyticField)
    if sampled and not (isinstance(order, (int, np.integer)) and order >= 0):
        raise UnsupportedOrderError(f"the order must be a nonnegative integer, got {order!r}")
    order, dim = (int(order), f.grid.dim) if sampled else (f._check_order(order), f.dim)
    single = np.ndim(points[0]) < 2
    arrays = [_as_point(p, dim) if single else np.asarray(p, dtype=float) for p in points]
    if not single and any(a.shape != (len(arrays[0]), dim) for a in arrays):
        raise ValueError(f"expected points of shape ({dim},) or batches of shape (N, {dim})")
    if sampled:
        return order, arrays, single, f.at
    return order, arrays, single, f.value if single else f.value_batch


def _node_sum(value_at, x: np.ndarray, h: np.ndarray, coeffs):
    """sum_j coeffs[j] v(x + j h) at a point or a batch, node by node."""
    total = 0.0
    for j, c in enumerate(coeffs):
        total += c * value_at(x + j * h)
    return total


def _lagrange_sum(value_at, base: np.ndarray, step: np.ndarray, y: np.ndarray,
                  count: int) -> np.ndarray:
    """Float interpolant sum_j L_j(s) v(base + j step), j < count, at the
    line coordinate s of y, at a point or a batch, node by node."""
    s = np.einsum("...n,...n->...", y - base, step) / np.einsum("...n,...n->...", step, step)
    total = 0.0
    for j in range(count):
        w = 1.0
        for i in range(count):
            if i != j:
                w = w * (s - i) / (j - i)
        total += value_at(base + j * step) * w
    return total


def g_sum(f, x, h, order: int, *, binom=binomial):
    """Alternating node sum sum_j (-1)^j C(l, j) f(x + j h).

    `f` is an analytic or a sampled field; x and h are one point each or
    (N, dim) batches, and a batch gives an (N,) array.  Order 0 returns
    f(x); a zero step with order >= 1 returns 0.  The `binom` argument is
    a fault-injection hook for negative-control tests and must behave
    like `binomial` in normal use.
    """
    order, (x, h), single, value_at = _node_reader(f, order, (x, h))
    if order == 0:
        total = value_at(x)
    else:
        signs = [(-1) ** j * binom(order, j) for j in range(order + 1)]
        total = np.where(h.any(axis=-1), _node_sum(value_at, x, h, signs), 0.0)
    return float(np.ravel(total)[0]) if single else total


def forward_difference(f, x, h, order: int, *, binom=binomial):
    """l-th forward difference sum_j (-1)^(l-j) C(l, j) f(x + j h).

    This is (-1)^l * `g_sum`, the same floats with a final negation, so
    the sign law between the two holds exactly; the conventions and
    arguments are those of `g_sum`.
    """
    signed = g_sum(f, x, h, order, binom=binom)
    return signed if order % 2 == 0 else -signed


def telescope_residual(f: AnalyticField, x, h, order: int, *, binom=binomial) -> float:
    """Residual of the two-term recursion tying order l-1 sums to the order l difference.

    Returns g_sum(f, x, h, l-1) - g_sum(f, x+h, h, l-1) - g_sum(f, x, h, l), where the
    last sum is (-1)^l * forward_difference(f, x, h, l) exactly; this is
    zero in exact arithmetic by Pascal's rule.
    """
    if order < 1:
        raise UnsupportedOrderError("the telescoping recursion needs order >= 1")
    x = _as_point(x, f.dim)
    h = _as_point(h, f.dim)
    return (g_sum(f, x, h, order - 1, binom=binom) - g_sum(f, x + h, h, order - 1, binom=binom)
            - g_sum(f, x, h, order, binom=binom))


# ---------------------------------------------------------------------------
# node families and Lagrange interpolation


@dataclass(frozen=True)
class NodeFamily:
    """Equispaced nodes base + j * step for j = 0, ..., count - 1."""

    base: tuple[float, ...]
    step: tuple[float, ...]
    count: int

    def __post_init__(self):
        base = tuple(float(v) for v in np.atleast_1d(self.base))
        step = tuple(float(v) for v in np.atleast_1d(self.step))
        if len(base) != len(step):
            raise DegenerateNodesError("node base and step must have the same dimension")
        if self.count < 1:
            raise DegenerateNodesError("a node family needs at least one node")
        if not any(step):
            raise DegenerateNodesError("node step must be nonzero")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "count", int(self.count))

    @classmethod
    def for_remainder(cls, x, y, order: int) -> "NodeFamily":
        """Nodes for the order-th interpolation remainder at y: step exactly (y - x) / order."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if order < 1:
            raise UnsupportedOrderError("the interpolation remainder needs order >= 1")
        if x.shape != y.shape:
            raise DegeneratePairError("x and y must have the same dimension")
        if np.array_equal(x, y):
            raise DegeneratePairError("the remainder form needs distinct endpoints")
        return cls(tuple(x), tuple((y - x) / order), order)

    @property
    def dim(self) -> int:
        return len(self.base)

    def node(self, j: int) -> np.ndarray:
        return np.asarray(self.base) + j * np.asarray(self.step)

    def line_coordinate(self, y) -> float:
        """Coordinate s with y = base + s * step; off-line points are geometry errors."""
        y = _as_point(y, self.dim)
        d = y - np.asarray(self.base)
        step = np.asarray(self.step)
        step2 = float(step @ step)
        s = float(d @ step) / step2
        residual = float(np.linalg.norm(d - s * step))
        if residual > 1e-9 * math.sqrt(step2):
            raise GeometryError(
                f"point {y.tolist()} is off the node line (residual {residual:.3e})")
        return s


def lagrange_interpolant(f: AnalyticField, nodes: NodeFamily, y) -> float:
    """Degree count-1 Lagrange interpolant of f on the node family, at y.

    Polynomial fields are interpolated exactly, with a single final
    rounding: the base, step, y and the float nodes go to integers at one
    dyadic scale (`_dyadic`), so the line coordinate of y is a ratio a / b
    of integers, and the basis weights multiplied through by (count-1)!
    are integers,

        (count-1)! L_j(a / b) = (-1)^(count-1-j) C(count-1, j)
                                prod_{i != j} (a - i b) / b^(count-1).

    Other fields use the float weight kernel the batch remainder runs.
    """
    if nodes.dim != f.dim:
        raise ConfigError("node family dimension does not match the field")
    y = _as_point(y, f.dim)
    nodes.line_coordinate(y)  # GeometryError when y is off the node line
    count = nodes.count
    if isinstance(f, PolynomialField):
        (base, step, yi, *xs), scale = _dyadic(nodes.base, nodes.step, y,
                                               *(nodes.node(j) for j in range(count)))
        a = sum((v - o) * st for v, o, st in zip(yi, base, step))
        b = sum(st * st for st in step)
        total = 0
        for j, node in enumerate(xs):
            weight = (-1) ** (count - 1 - j) * math.comb(count - 1, j)
            for i in range(count):
                if i != j:
                    weight *= a - i * b
            total += f._scaled_value(node, scale) * weight
        return total / (f._scaled_den(scale) * b ** (count - 1) * math.factorial(count - 1))
    return float(_lagrange_sum(f.value, np.asarray(nodes.base), np.asarray(nodes.step), y,
                               count))


def lagrange_remainder(f: AnalyticField, x, y, order: int):
    """Interpolation remainder f(y) - L(y) on the equispaced remainder nodes.

    The interpolant uses the `order` nodes x + j (y - x) / order for
    j < order, so the remainder equals forward_difference(f, x, h, order)
    with h = (y - x) / order -- computed here by the dual interpolation
    route, never by the alternating sum.  x and y are one point each or
    (N, dim) batches, as in `g_sum`; a polynomial at one point takes the
    exact route of `lagrange_interpolant`.
    """
    order, (x, y), single, value_at = _node_reader(f, order, (x, y))
    if single and isinstance(f, PolynomialField):
        return evaluate(f, y) - lagrange_interpolant(f, NodeFamily.for_remainder(x, y, order), y)
    if order < 1:
        raise UnsupportedOrderError("the interpolation remainder needs order >= 1")
    if (x == y).all(axis=-1).any():
        raise DegeneratePairError("the remainder form needs distinct endpoints")
    remainder = value_at(y) - _lagrange_sum(value_at, x, (y - x) / order, y, order)
    return float(np.ravel(remainder)[0]) if single else remainder


def taylor_remainder(f: AnalyticField, x, y, order: int) -> float:
    """f(y) minus its degree order-1 Taylor jet along the segment from x.

    The jet is sum_{j < order} (1/j!) d^j/ds^j f(x + s (y - x)) at s = 0.
    """
    order = f._check_order(order)
    if order < 1:
        raise UnsupportedOrderError("the Taylor remainder needs order >= 1")
    x = _as_point(x, f.dim)
    y = _as_point(y, f.dim)
    f._check_point(x)
    if isinstance(f, PolynomialField):
        # x and y at one dyadic scale, so the direction y - x is exact and
        # s = 1 hits y exactly; the j-th jet term d^j/ds^j / j! at s = 0 is
        # the s^j coefficient, so the remainder is the sum of the others
        (xs, ys), scale = _dyadic(x, y)
        line = f._scaled_line(xs, [b - a for a, b in zip(xs, ys)], scale)
        return sum(line.coeffs[order:]) / line.den
    line = f.line_restriction(x, y - x)
    jet = 0.0
    for j in range(order):
        jet += line.deriv(j, 0.0) / math.factorial(j)
    return evaluate(f, y) - jet


# ---------------------------------------------------------------------------
# the iterated-integral representation


@lru_cache(maxsize=None)
def _legendre01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights shifted to [0, 1]."""
    if order < 1:
        raise ConfigError("quadrature order must be at least 1")
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
    order: int

    def __post_init__(self):
        if self.kind not in ("gauss_tensor", "irwin_hall"):
            raise ConfigError(f"unknown quadrature kind {self.kind!r}")
        if self.order < 1:
            raise ConfigError("quadrature order must be at least 1")

    @classmethod
    def gauss_tensor(cls, order: int = 8) -> "QuadratureRule":
        return cls("gauss_tensor", order)

    @classmethod
    def irwin_hall(cls, order: int = 16) -> "QuadratureRule":
        return cls("irwin_hall", order)


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
    order = f._check_order(order)
    if order < 1:
        raise UnsupportedOrderError("the integral representation needs order >= 1")
    x = _as_point(x, f.dim)
    h = _as_point(h, f.dim)
    f._check_point(x)
    if isinstance(f, PowerField) and not f.segment_in_domain(x, h, 0.0, float(order)):
        raise DomainError("integration segment crosses the excluded ball at the origin")
    if rule is None:
        rule = QuadratureRule.gauss_tensor()
    line = f.line_restriction(x, h)
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
        return float(weights @ line.deriv_array(order, s))
    total = 0.0
    for k in range(order):
        s = k + t
        total += float(np.sum(w * irwin_hall_density(order, s) * line.deriv_array(order, s)))
    return total
