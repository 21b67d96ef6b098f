"""Exact polynomial routines in `fractions.Fraction` arithmetic.

The package evaluates polynomial fields in integers at a common dyadic
scale and rounds once.  These are the rational routines it replaced,
kept as the reference that route must match bit for bit: every result
here is a `Fraction`, and `float` of it is the correctly rounded value.
"""

import math
from fractions import Fraction

import numpy as np

from sobolev_pointwise.differences import NodeFamily
from sobolev_pointwise.fields import PolynomialField, _as_point


def value_fraction(f: PolynomialField, x) -> Fraction:
    pt = [Fraction(v) for v in _as_point(x, f.dim)]
    total = Fraction(0)
    for exps, c in f.terms:
        mono = c
        for xi, ei in zip(pt, exps):
            if ei:
                mono *= xi ** ei
        total += mono
    return total


def line_from_fractions(f: PolynomialField, pt, hv) -> list[Fraction]:
    """Coefficients of s |-> f(pt + s hv), lowest power first."""
    total = [Fraction(0)]
    for exps, c in f.terms:
        term = [c]
        for xi, hi, ei in zip(pt, hv, exps):
            for _ in range(ei):
                nxt = [Fraction(0)] * (len(term) + 1)
                for k, a in enumerate(term):
                    nxt[k] += a * xi
                    nxt[k + 1] += a * hi
                term = nxt
        if len(term) > len(total):
            total += [Fraction(0)] * (len(term) - len(total))
        for k, a in enumerate(term):
            total[k] += a
    return total


def line_restriction(f: PolynomialField, x, h) -> list[Fraction]:
    return line_from_fractions(f, [Fraction(v) for v in _as_point(x, f.dim)],
                               [Fraction(v) for v in _as_point(h, f.dim)])


def _falling(k: int, order: int) -> int:
    out = 1
    for j in range(order):
        out *= k - j
    return out


def deriv_fraction(coeffs: list[Fraction], order: int, t: Fraction) -> Fraction:
    total = Fraction(0)
    for k in range(order, len(coeffs)):
        total += coeffs[k] * _falling(k, order) * t ** (k - order)
    return total


def deriv_array(coeffs: list[Fraction], order: int, ts) -> np.ndarray:
    """The float Horner evaluation, on coefficients rounded from fractions."""
    ts = np.asarray(ts, dtype=float)
    cs = [float(coeffs[k] * _falling(k, order)) for k in range(order, len(coeffs))]
    out = np.zeros_like(ts)
    for c in reversed(cs):
        out = out * ts + c
    return out


def _basis_fraction(count: int, j: int, s: Fraction) -> Fraction:
    out = Fraction(1)
    for i in range(count):
        if i != j:
            out *= (s - i) / (j - i)
    return out


def lagrange_interpolant(f: PolynomialField, nodes: NodeFamily, y) -> Fraction:
    """Node values at the float nodes, basis weights at the exact line
    coordinate of y."""
    nodes.line_coordinate(y)
    base = [Fraction(v) for v in nodes.base]
    step = [Fraction(v) for v in nodes.step]
    dy = [Fraction(v) - b for v, b in zip(_as_point(y, f.dim), base)]
    step2 = sum(st * st for st in step)
    s = sum(d * st for d, st in zip(dy, step)) / step2
    total = Fraction(0)
    for j in range(nodes.count):
        total += value_fraction(f, nodes.node(j)) * _basis_fraction(nodes.count, j, s)
    return total


def lagrange_remainder(f: PolynomialField, x, y, order: int) -> float:
    nodes = NodeFamily.for_remainder(x, y, order)
    return float(value_fraction(f, y)) - float(lagrange_interpolant(f, nodes, y))


def taylor_remainder(f: PolynomialField, x, y, order: int) -> Fraction:
    pt = [Fraction(v) for v in _as_point(x, f.dim)]
    hv = [Fraction(b) - a for a, b in zip(pt, (Fraction(v) for v in _as_point(y, f.dim)))]
    coeffs = line_from_fractions(f, pt, hv)
    jet = Fraction(0)
    for j in range(order):
        jet += deriv_fraction(coeffs, j, Fraction(0)) / math.factorial(j)
    return value_fraction(f, y) - jet


def exact_difference(f: PolynomialField, x, h, order: int, binom=math.comb) -> Fraction:
    coeffs = line_restriction(f, x, h)
    return sum((-1) ** (order - j) * binom(order, j) * deriv_fraction(coeffs, 0, Fraction(j))
               for j in range(order + 1))
