"""Exact polynomial routines in `fractions.Fraction` arithmetic.

The package evaluates polynomial fields in integers at a common dyadic
scale and rounds once.  These are the rational routines it replaced,
kept as the reference that route must match bit for bit: every result
here is a `Fraction`, and `float` of it is the correctly rounded value.
"""

import math
from fractions import Fraction

import numpy as np

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


def lagrange_interpolant(f: PolynomialField, x, y, order: int) -> Fraction:
    """Node values at the float nodes x + j h, with h = (y - x) / order
    rounded once, and basis weights at the exact line coordinate of y."""
    x = _as_point(x, f.dim)
    y = _as_point(y, f.dim)
    h = (y - x) / order
    base = [Fraction(v) for v in x]
    step = [Fraction(v) for v in h]
    dy = [Fraction(v) - b for v, b in zip(y, base)]
    step2 = sum(st * st for st in step)
    s = sum(d * st for d, st in zip(dy, step)) / step2
    total = Fraction(0)
    for j in range(order):
        total += value_fraction(f, x + j * h) * _basis_fraction(order, j, s)
    return total


def lagrange_remainder(f: PolynomialField, x, y, order: int) -> float:
    return float(value_fraction(f, y)) - float(lagrange_interpolant(f, x, y, order))


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


def random_polynomial(rng: np.random.Generator, dim: int, max_degree: int = 6,
                      max_terms: int = 6, exact_degree: int | None = None) -> PolynomialField:
    """The stress-draw polynomial built term by term in `Fraction`s, with
    its denominators drawn by `rng.choice`."""
    top = exact_degree if exact_degree is not None else max_degree
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(max_terms):
        exps = tuple(int(v) for v in rng.integers(0, top + 1, dim))
        if sum(exps) > top:
            continue
        num = int(rng.integers(-2, 3))
        den = int(rng.choice((1, 2, 4)))
        if num:
            terms[exps] = terms.get(exps, Fraction(0)) + Fraction(num, den)
    terms = {e: c for e, c in terms.items() if c != 0}
    if exact_degree is not None and not any(sum(e) == exact_degree for e in terms):
        lead = [0] * dim
        for _ in range(exact_degree):
            lead[int(rng.integers(0, dim))] += 1
        terms[tuple(lead)] = terms.get(tuple(lead), Fraction(0)) + Fraction(1, 2)
    if not terms:
        terms[(0,) * dim] = Fraction(1)
    return PolynomialField(terms, dim=dim)
