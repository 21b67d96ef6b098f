"""Forward differences, interpolation nodes, and the integral form."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from rational_reference import exact_difference

from sobolev_pointwise import (
    ConfigError,
    DegeneratePairError,
    GaussianField,
    GridSpec,
    PolynomialField,
    PowerField,
    QuadratureRule,
    SinusoidField,
    UnsupportedOrderError,
    binomial,
    forward_difference,
    g_integral,
    g_sum,
    gradient_magnitude_field,
    irwin_hall_density,
    lagrange_interpolant,
    lagrange_remainder,
    parse_field,
    sample,
    taylor_remainder,
    telescope_residual,
)


class TestBinomial:
    def test_small_table(self):
        assert [binomial(4, j) for j in range(5)] == [1, 4, 6, 4, 1]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binomial(3, 4)
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @given(st.integers(1, 40), st.data())
    def test_pascal_rule(self, l, data):
        j = data.draw(st.integers(1, l))
        assert binomial(l + 1, j) == binomial(l, j) + binomial(l, j - 1)


class TestForwardDifference:
    def test_square_at_unit_step(self):
        f = parse_field("poly:x0^2")
        # (3^2 - 2*2^2 + 1^2) = 2 for the second difference from 1
        assert forward_difference(f, (1.0,), (1.0,), 2) == 2.0

    def test_cube_third_difference_is_scaled_factorial(self):
        f = parse_field("poly:x0^3")
        got = forward_difference(f, (0.0,), (0.5,), 3)
        assert got == pytest.approx(6 * 0.5 ** 3, rel=0, abs=0)

    def test_order_zero_is_point_value(self):
        f = GaussianField(1.0)
        assert forward_difference(f, (0.2,), (0.1,), 0) == f.value((0.2,))

    def test_zero_step_vanishes(self):
        f = SinusoidField((2.0,))
        assert forward_difference(f, (0.3,), (0.0,), 3) == 0.0

    def test_sign_law_is_exact(self):
        f = SinusoidField((2.7,))
        for order in range(7):
            a = g_sum(f, (0.11,), (0.07,), order)
            b = (-1.0) ** order * forward_difference(f, (0.11,), (0.07,), order)
            assert a == b

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-0.9, 0.9), st.floats(-0.2, 0.2), st.integers(0, 5))
    def test_linearity(self, x, h, order):
        f = parse_field("poly:x0^3 - x0")
        g = parse_field("poly:2*x0^2 + 1/2")
        combo = parse_field("poly:2*x0^3 - 6*x0^2 - 2*x0 - 3/2")
        combo_f = forward_difference(f, (x,), (h,), order)
        combo_g = forward_difference(g, (x,), (h,), order)
        got = forward_difference(combo, (x,), (h,), order)
        scale = 1.0 + abs(combo_f) + abs(combo_g)
        assert abs(got - (2.0 * combo_f - 3.0 * combo_g)) <= 1e-12 * scale

    def test_telescoping_of_gaussian(self):
        f = GaussianField(1.3)
        delta = forward_difference(f, (0.15,), (0.08,), 4)
        assert abs(telescope_residual(f, (0.15,), (0.08,), 4)) <= 1e-12 * (1 + abs(delta))


class TestNodes:
    def test_degenerate_pair_rejected(self):
        with pytest.raises(DegeneratePairError):
            lagrange_interpolant(parse_field("poly:x0^2"), (0.5,), (0.5,), 3)

    @pytest.mark.parametrize("f", [parse_field("poly:x0^3 - x0"), GaussianField(1.0)])
    def test_zero_step_is_refused_on_every_route(self, f):
        # (y - x) / 3 underflows to 0 although x != y
        x, y = (0.0,), (5e-324,)
        with pytest.raises(DegeneratePairError):
            lagrange_interpolant(f, x, y, 3)
        with pytest.raises(DegeneratePairError):
            lagrange_remainder(f, x, y, 3)
        with pytest.raises(DegeneratePairError):
            lagrange_remainder(f, [[0.1], x], [[0.4], y], 3)

    def test_step_whose_square_underflows_keeps_its_line_coordinate(self):
        # h = 5e-201 is a normal float, but h * h underflows to 0
        f = GaussianField(1.0)
        rem = lagrange_remainder(f, (0.0,), (1e-200,), 2)
        assert math.isfinite(rem)
        assert rem == forward_difference(f, (0.0,), (5e-201,), 2)
        g = SinusoidField((2.0, 1.0))
        x = np.array([[0.0, 0.0], [0.3, 0.1]])
        y = x + np.array([[3e-170, 1e-171], [0.2, 0.1]])
        np.testing.assert_array_equal(lagrange_remainder(g, x, y, 3),
                                      forward_difference(g, x, (y - x) / 3, 3))

    @pytest.mark.parametrize("call", [
        lambda f: lagrange_interpolant(f, (0.1,), (0.4,), 0),
        lambda f: lagrange_interpolant(sample(f, GridSpec.cube(-1.0, 1.0, 21, 1)),
                                       (0.1,), (0.4,), 0),
        lambda f: lagrange_remainder(f, (0.1,), (0.4,), 0),
        lambda f: taylor_remainder(f, (0.1,), (0.4,), 0),
        lambda f: g_integral(f, (0.1,), (0.2,), 0),
        lambda f: telescope_residual(f, (0.1,), (0.2,), 0),
        lambda f: gradient_magnitude_field(f, GridSpec.cube(-1.0, 1.0, 21, 1), 0),
    ])
    def test_order_zero_is_refused_where_order_one_is_the_least(self, call):
        with pytest.raises(UnsupportedOrderError):
            call(GaussianField(1.0))

    @pytest.mark.parametrize("call", [g_sum, forward_difference, lagrange_interpolant,
                                      lagrange_remainder])
    def test_a_bool_order_is_refused_for_analytic_and_sampled_fields(self, call):
        f = GaussianField(1.0)
        for field in (f, sample(f, GridSpec.cube(-1.0, 1.0, 21, 1))):
            with pytest.raises(UnsupportedOrderError, match="order must be an integer"):
                call(field, (0.1,), (0.4,), True)
            assert call(field, (0.1,), (0.4,), np.int64(2)) == call(field, (0.1,), (0.4,), 2)

    def test_interpolant_reproduces_low_degree(self):
        f = parse_field("poly:x0^3 - 2*x0 + 1")
        y = (0.31,)
        assert lagrange_interpolant(f, (-0.5,), y, 4) == pytest.approx(f.value(y), rel=1e-14)


class TestRemainder:
    def test_two_routes_agree_for_gaussian(self):
        f = GaussianField(0.8)
        x, y, order = (-0.4,), (0.5,), 3
        rem = lagrange_remainder(f, x, y, order)
        h = ((y[0] - x[0]) / order,)
        direct = forward_difference(f, x, h, order)
        assert rem == pytest.approx(direct, rel=1e-12)

    def test_taylor_remainder_annihilates_low_degree(self):
        f = parse_field("poly:x0^2*x1 - x1^2 + 3")
        assert taylor_remainder(f, (0.1, -0.3), (0.7, 0.4), 4) == 0.0

    def test_taylor_remainder_of_quartic_along_axis(self):
        f = parse_field("poly:x0^4")
        x, y = (0.0,), (0.5,)
        # the cubic jet of t^4 at 0 is 0, so the remainder is y^4 exactly
        assert taylor_remainder(f, x, y, 4) == 0.5 ** 4


def _mp_taylor_remainder(f, x, y, order: int):
    """f(y) minus its degree order-1 jet along the segment from x, and the
    sum of the absolute values of f(y) and the jet terms, from the closed
    form of a Gaussian, power or sinusoid field differentiated with mpmath
    at 40 digits."""
    import mpmath as mp

    with mp.workdps(40):
        xs = [mp.mpf(float(v)) for v in x]
        hs = [mp.mpf(float(b)) - a for a, b in zip(xs, y)]

        def line(s):
            pt = [a + s * h for a, h in zip(xs, hs)]
            if isinstance(f, GaussianField):
                return mp.exp(-mp.mpf(f.a) * mp.fsum(p * p for p in pt))
            if isinstance(f, PowerField):
                return mp.fsum(p * p for p in pt) ** (mp.mpf(f.alpha) / 2)
            return mp.fprod(mp.sin(mp.mpf(float(w)) * p) for w, p in zip(f.omegas, pt))

        terms = [line(1)] + [-mp.diff(line, 0, j) / mp.factorial(j) for j in range(order)]
        return float(mp.fsum(terms)), float(mp.fsum(abs(t) for t in terms))


class TestTaylorRemainderOfClosedForms:
    """The float jet of `taylor_remainder`, which every non-polynomial field
    takes, against a 40-digit line derivative of the closed form."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["gauss", "sin", "pow"])
    def test_remainder_matches_mpmath(self, kind, dim):
        rng = np.random.default_rng(dim)
        if kind == "gauss":
            f, lo, hi = GaussianField(1.3, dim), -1.0, 1.0
        elif kind == "sin":
            f, lo, hi = SinusoidField(rng.uniform(0.5, 3.0, dim)), -1.0, 1.0
        else:  # a positive-orthant box keeps the segment clear of the excluded ball
            f, lo, hi = PowerField(1.5, dim), 0.2, 0.9
        for order in range(1, 6):
            for _ in range(4):
                x, y = rng.uniform(lo, hi, dim), rng.uniform(lo, hi, dim)
                ref, size = _mp_taylor_remainder(f, x, y, order)
                assert abs(taylor_remainder(f, x, y, order) - ref) <= 1e-14 * size, (x, y, order)


class TestBatches:
    @pytest.mark.parametrize("order", [1, 2, 4])
    @pytest.mark.parametrize("f", [GaussianField(1.1, 2), PowerField(1.5, 2),
                                   SinusoidField((2.0, 3.0))], ids=str)
    def test_one_point_gives_its_batch_row(self, f, order, rng):
        x = rng.uniform(0.3, 1.2, (30, 2))
        y = rng.uniform(0.3, 1.2, (30, 2))
        h = (y - x) / order
        for fn, a, b in ((forward_difference, x, h), (g_sum, x, h), (lagrange_remainder, x, y)):
            batch = fn(f, a, b, order)
            assert batch.shape == (30,)
            assert np.array_equal(batch, [fn(f, p, q, order) for p, q in zip(a, b)])

    def test_polynomial_point_is_exact_and_batch_row_is_float(self):
        f = parse_field("poly:x0^3*x1 - 1/3*x1^2")
        x, h = np.array([0.3, -0.7]), np.array([0.11, 0.05])
        assert forward_difference(f, x, h, 3) == float(exact_difference(f, x, h, 3))

        total = 0.0
        for j in range(4):
            node = f.value_batch((x + j * h)[None])[0]
            total = total + binomial(3, j) * node if j % 2 == 0 else total - binomial(3, j) * node
        assert forward_difference(f, x[None], h[None], 3)[0] == -total

    def test_sampled_field_reads_back_its_nodes(self, grid_1d):
        u = sample(parse_field("poly:x0^2"), grid_1d)
        got = forward_difference(u, [[0.0], [-0.5]], [[0.1], [0.2]], 2)
        np.testing.assert_allclose(got, [0.02, 0.08], rtol=1e-13)

    def test_zero_step_rows_vanish(self):
        f = SinusoidField((2.0,))
        got = forward_difference(f, [[0.3], [0.3]], [[0.0], [0.1]], 3)
        assert got[0] == 0.0
        assert got[1] == forward_difference(f, (0.3,), (0.1,), 3)

    def test_bad_batches_are_rejected(self):
        f = SinusoidField((2.0,))
        with pytest.raises(ValueError):
            forward_difference(f, np.zeros((3, 1)), np.ones((2, 1)), 2)
        with pytest.raises(DegeneratePairError):
            lagrange_remainder(f, [[0.1], [0.2]], [[0.4], [0.2]], 2)


class TestIntegralForm:
    def test_matches_difference_for_gaussian(self):
        f = GaussianField(1.2)
        x, h, order = (0.1,), (0.2,), 3
        want = forward_difference(f, x, h, order)
        got = g_integral(f, x, h, order)
        assert got == pytest.approx(want, rel=1e-10)

    def test_two_rules_agree(self):
        f = SinusoidField((2.2,))
        x, h, order = (-0.3,), (0.25,), 3
        a = g_integral(f, x, h, order, rule=QuadratureRule.gauss_tensor())
        b = g_integral(f, x, h, order, rule=QuadratureRule.irwin_hall())
        assert a == pytest.approx(b, rel=1e-10)

    def test_polynomial_case_is_machine_exact(self):
        f = parse_field("poly:x0^4 - x0^2")
        x, h, order = (0.2,), (0.3,), 2
        want = forward_difference(f, x, h, order)
        got = g_integral(f, x, h, order)
        assert got == pytest.approx(want, rel=1e-13)

    def test_order_one_reduces_to_fundamental_theorem(self):
        f = GaussianField(1.0)
        got = g_integral(f, (0.0,), (0.4,), 1)
        assert got == pytest.approx(f.value((0.4,)) - f.value((0.0,)), rel=1e-12)

    @pytest.mark.parametrize("f", [GaussianField(1.0, 3), SinusoidField((2.0, 1.0, 1.0))],
                             ids=str)
    def test_tensor_rule_memory_is_blocked(self, f):
        # 8^6 tensor nodes: the nodes, weights and line derivatives are
        # three node arrays; a block's partials stay off that scale
        nodes = 8 ** 6
        x, h = (0.1, -0.2, 0.3), (0.05, 0.04, -0.03)
        tracemalloc.start()
        try:
            got = g_integral(f, x, h, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == pytest.approx(forward_difference(f, x, h, 6), rel=1e-8)
        assert peak < 8 * nodes * 8

    def test_tensor_rule_too_large_for_the_order_is_refused(self):
        # 8^9 nodes exceed the tensor budget of 2e7
        with pytest.raises(ConfigError, match="too large for l=9"):
            g_integral(GaussianField(1.0), (0.0,), (0.01,), 9, rule=QuadratureRule.gauss_tensor())


class TestIrwinHall:
    def test_density_normalizes(self):
        # midpoint rule sidesteps the value convention at the kinks
        for order in (1, 2, 3, 4, 6):
            n = 20000
            s = (np.arange(n) + 0.5) * order / n
            mass = irwin_hall_density(order, s).mean() * order
            assert mass == pytest.approx(1.0, rel=1e-6)

    def test_density_is_triangle_for_order_two(self):
        s = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        np.testing.assert_allclose(irwin_hall_density(2, s),
                                   [0.0, 0.5, 1.0, 0.5, 0.0], rtol=0, atol=1e-14)

    def test_density_vanishes_outside_support(self):
        s = np.array([-0.5, 3.5])
        np.testing.assert_allclose(irwin_hall_density(3, s), 0.0, rtol=0, atol=0)

    def test_peak_value_order_three(self):
        # the order-three density at its mode s = 3/2 equals 3/4
        assert irwin_hall_density(3, np.array([1.5]))[0] == pytest.approx(0.75, rel=1e-14)


class TestFaultInjection:
    def test_corrupted_binomial_breaks_sign_law(self):
        def bad(l, j):
            return binomial(l, j) + (1 if (l, j) == (4, 2) else 0)

        f = SinusoidField((2.7,))
        a = g_sum(f, (0.11,), (0.07,), 4, binom=bad)
        b = forward_difference(f, (0.11,), (0.07,), 4, binom=bad)
        clean = forward_difference(f, (0.11,), (0.07,), 4)
        assert b != clean
        assert a == b  # both routes share the same corrupted table

    def test_corrupted_binomial_breaks_telescoping(self):
        def bad(l, j):
            return binomial(l, j) + (1 if (l, j) == (4, 2) else 0)

        f = GaussianField(1.0)
        residual = telescope_residual(f, (0.3,), (0.2,), 4, binom=bad)
        assert abs(residual) > 1e-6
