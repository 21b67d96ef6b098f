"""The integer route for polynomial fields against the rational reference.

Every scalar polynomial path works in integers at one dyadic scale and
rounds once; `rational_reference` holds the `Fraction` routines it
replaced.  Both round the same exact rational once, so the floats must be
the same bit for bit, at random points and at edge points (signed zero,
the smallest subnormal, tiny and huge powers of two, exact integers).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import rational_reference as ref
from grid_reference import grid_nodes
from sobolev_pointwise import (
    GridSpec,
    PolynomialField,
    binomial,
    forward_difference,
    g_sum,
    lagrange_interpolant,
    lagrange_remainder,
    random_polynomial,
    sample,
    taylor_remainder,
)
from sobolev_pointwise.fields import _line_derivatives

# non-dyadic coefficients, so the common denominator q is not a power of 2
COEFFS = [Fraction(1, 3), Fraction(-5, 7), Fraction(2, 9), Fraction(11, 6), Fraction(-1),
          Fraction(3, 4), Fraction(7, 5)]
EDGES = [-0.0, 0.0, 5e-324, -(2.0 ** -1000), 2.0 ** 60, 3.0, -7.0, 0.1]


def _bits(value) -> np.ndarray:
    return np.asarray(value, dtype=float).view(np.uint64)


def assert_same_float(got, want):
    """Equal bit for bit: value, and the sign of a zero."""
    assert np.array_equal(_bits(got), _bits(want)), (got, want)


def _poly(rng: np.random.Generator, dim: int, degree: int) -> PolynomialField:
    terms = {}
    for _ in range(5):
        exps = [0] * dim
        for _ in range(int(rng.integers(0, degree + 1))):
            exps[int(rng.integers(0, dim))] += 1
        terms[tuple(exps)] = COEFFS[int(rng.integers(len(COEFFS)))]
    lead = [0] * dim
    lead[0] = degree
    terms[tuple(lead)] = Fraction(-5, 7)
    return PolynomialField(terms, dim=dim)


def _cases(seed: int):
    """(field, order, x, y) over dims 1-3 and orders 1-6, points in [-1.2, 1.2]."""
    rng = np.random.default_rng(seed)
    for dim in (1, 2, 3):
        for order in range(1, 7):
            f = _poly(rng, dim, int(rng.integers(order - 1, 7)))
            yield f, order, rng.uniform(-1.2, 1.2, dim), rng.uniform(-1.2, 1.2, dim)


def _edge_cases():
    """Each edge coordinate against a random partner, in every dimension."""
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3):
        for k, edge in enumerate(EDGES):
            x = rng.uniform(-1.0, 1.0, dim)
            y = rng.uniform(-1.0, 1.0, dim)
            x[k % dim] = edge
            y[(k + 1) % dim] = EDGES[-1 - k]
            yield _poly(rng, dim, 1 + k % 6), 1 + k % 6, x, y


CASES = [*_cases(1), *_cases(2), *_edge_cases()]


@pytest.mark.parametrize("f, order, x, y", CASES)
class TestBitForBit:
    def test_value(self, f, order, x, y):
        for pt in (x, y):
            assert_same_float(f.value(pt), float(ref.value_fraction(f, pt)))

    def test_line_derivatives(self, f, order, x, y):
        h = y - x
        want = ref.line_restriction(f, x, h)
        ts = np.array([0.0, -0.0, 1.0, 0.37, -1.5, 2.0 ** -40])
        for r in range(order + 2):
            assert_same_float(_line_derivatives(f, x, h, r, ts), ref.deriv_array(want, r, ts))

    def test_lagrange(self, f, order, x, y):
        assert_same_float(lagrange_interpolant(f, x, y, order),
                          float(ref.lagrange_interpolant(f, x, y, order)))
        assert_same_float(lagrange_remainder(f, x, y, order),
                          ref.lagrange_remainder(f, x, y, order))

    def test_taylor(self, f, order, x, y):
        assert_same_float(taylor_remainder(f, x, y, order),
                          float(ref.taylor_remainder(f, x, y, order)))

    def test_forward_difference(self, f, order, x, y):
        h = (y - x) / order
        exact = ref.exact_difference(f, x, h, order)
        assert_same_float(forward_difference(f, x, h, order), float(exact))
        assert_same_float(g_sum(f, x, h, order), float((-1) ** order * exact))


def test_forward_difference_keeps_the_binomial_hook():
    def bad(l, j):
        return math.comb(l, j) + (1 if (l, j) == (4, 2) else 0)

    f = PolynomialField({(3,): Fraction(1, 3), (1,): Fraction(-5, 7)})
    x, h = np.array([0.3]), np.array([0.11])
    assert_same_float(forward_difference(f, x, h, 4), 0.0)
    got = forward_difference(f, x, h, 4, binom=bad)
    assert got != 0.0
    assert_same_float(got, float(ref.exact_difference(f, x, h, 4, bad)))


def _corrupted(l, j):
    """A binomial table off by one at j = 0, so each sum gains +-f(x)."""
    return binomial(l, j) + (j == 0)


@pytest.mark.parametrize("order", range(1, 7))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_low_degree_differences_are_exactly_zero(dim, order):
    rng = np.random.default_rng(10 * dim + order)
    for _ in range(20):
        f = random_polynomial(rng, dim, exact_degree=order - 1)
        x, h = rng.uniform(-1.2, 1.2, dim), rng.uniform(-0.4, 0.4, dim)
        assert_same_float(forward_difference(f, x, h, order), 0.0)
        assert_same_float(g_sum(f, x, h, order), 0.0)
        assert forward_difference(f, x, h, order, binom=_corrupted) != 0.0
        assert g_sum(f, x, h, order, binom=_corrupted) != 0.0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_zero_step_is_zero_whatever_the_binomial(dim):
    f = _poly(np.random.default_rng(dim), dim, 4)
    x, h = np.full(dim, 0.3), np.zeros(dim)
    for order in range(1, 7):
        for fn in (forward_difference, g_sum):
            assert_same_float(fn(f, x, h, order, binom=_corrupted), 0.0)
            assert_same_float(fn(f, x[None], h[None], order, binom=_corrupted), [0.0])


def _sample_field(kind: str, dim: int) -> PolynomialField:
    if kind == "random":
        return _poly(np.random.default_rng(dim), dim, 5)
    if kind == "zero":
        return PolynomialField({}, dim=dim)
    if kind == "constant":
        return PolynomialField({(0,) * dim: Fraction(-5, 7)})
    # one variable, on the lead or the last axis: its integer total is a
    # column that broadcasts against the grid's other axes
    axis = 0 if kind == "x0 only" else dim - 1
    return PolynomialField({tuple(3 * (i == axis) for i in range(dim)): Fraction(1, 3),
                            tuple(int(i == axis) for i in range(dim)): Fraction(-5, 7)})


# 23^3: the lead axis is not a whole number of slabs; 10001 nodes: more than one slab
@pytest.mark.parametrize("dim, points, kind", [
    (1, 101, "random"), (2, 21, "random"), (3, 7, "random"), (3, 23, "random"),
    (1, 10001, "random"),
    *[(dim, 9, kind) for dim in (2, 3) for kind in ("zero", "constant", "x0 only", "last only")],
])
def test_sample_matches_the_rational_values(dim, points, kind):
    f = _sample_field(kind, dim)
    grid = GridSpec.cube(-1.3, 0.9, points, dim)
    want = [float(ref.value_fraction(f, p)) for p in grid_nodes(grid)]
    assert_same_float(sample(f, grid).values.ravel(), want)


@pytest.mark.parametrize("exact_degree", [None, 0, 1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_random_polynomial_draws_what_the_rational_reference_draws(dim, exact_degree):
    for seed in range(500):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):  # the second draw starts where the first left the stream
            assert (random_polynomial(new, dim, exact_degree=exact_degree)
                    == ref.random_polynomial(old, dim, exact_degree=exact_degree))
        assert new.bit_generator.state == old.bit_generator.state


def test_zero_polynomial():
    f = PolynomialField({}, dim=2)
    assert_same_float(f.value((0.25, -3.0)), 0.0)
    assert_same_float(_line_derivatives(f, np.array([0.25, -3.0]), np.array([1.0, 0.5]), 0,
                                        [0.5])[0], 0.0)
    assert_same_float(taylor_remainder(f, (0.25, -3.0), (1.0, 0.5), 2), 0.0)


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the type is what is compared
        return type(exc)
    return None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", [0, 1])
def test_nonfinite_coordinates_raise_as_the_rational_route_does(bad, axis):
    f = PolynomialField({(2, 1): Fraction(1, 3), (0, 1): Fraction(-5, 7), (0, 0): 1})
    good = np.array([0.3, -0.2])
    other = np.array([-0.5, 0.7])
    bad_pt = good.copy()
    bad_pt[axis] = bad
    two_point = [  # (new route, reference) taking two points
        (lambda a, b: _line_derivatives(f, a, b, 0, [0.0]),
         lambda a, b: ref.line_restriction(f, a, b)),
        (lambda a, b: lagrange_interpolant(f, a, b, 3),
         lambda a, b: ref.lagrange_interpolant(f, a, b, 3)),
        (lambda a, b: taylor_remainder(f, a, b, 2),
         lambda a, b: ref.taylor_remainder(f, a, b, 2)),
        (lambda a, b: lagrange_remainder(f, a, b, 3),
         lambda a, b: ref.lagrange_remainder(f, a, b, 3)),
        (lambda a, b: forward_difference(f, a, b, 3),
         lambda a, b: ref.exact_difference(f, a, b, 3)),
    ]
    calls = [(f.value, lambda a: ref.value_fraction(f, a), (bad_pt,))]
    calls += [(new, old, args) for new, old in two_point
              for args in ((bad_pt, other), (other, bad_pt))]
    with np.errstate(invalid="ignore"):
        for new, old, args in calls:
            expected = _raised(old, *args)
            assert expected is not None
            assert _raised(new, *args) is expected
