"""Field construction, line restrictions, sampling, and the parser."""

import gc
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from grid_reference import grid_nodes
from rational_reference import deriv_fraction, line_restriction, value_fraction

from sobolev_pointwise import (
    Box,
    ConfigError,
    DomainError,
    GaussianField,
    GridSpec,
    PolynomialField,
    PowerField,
    QuadratureRule,
    SampledField,
    SinusoidField,
    UnsupportedOrderError,
    default_directions,
    evaluate,
    g_integral,
    gradient_magnitude_field,
    parse_field,
    random_polynomial,
    sample,
    scan_corpus,
)
from sobolev_pointwise.fields import (
    _compositions,
    _derivative_magnitude,
    _line_derivatives,
    _slabs,
)
from sobolev_pointwise.verify import Domain, PairSampler, _CoefficientLadder, _rung_config

# Frozen from a 50-digit series evaluation of the corresponding line
# functions (fourth, third, and third derivative respectively).
GAUSS_LINE_D4 = 14.814967954753041398
SIN_LINE_D3 = 7.3808834673391194292
POW_LINE_D3 = 1.8573931021929233011


def _line_derivative(f, x, h, order: int, t: float = 0.0) -> float:
    """d^order/ds^order f(x + s h) at s = t, through `_line_derivatives`."""
    return float(_line_derivatives(f, np.asarray(x, dtype=float), np.asarray(h, dtype=float),
                                   order, [t])[0])


class TestPolynomial:
    def test_value_matches_hand_expansion(self):
        f = PolynomialField({(2, 1): 1, (1, 0): Fraction(-3, 2), (0, 0): Fraction(1, 4)})
        assert f.value((2.0, 1.0)) == 2.0 ** 2 * 1.0 - 1.5 * 2.0 + 0.25

    def test_parser_agrees_with_constructor(self):
        f = parse_field("poly:x0^2*x1 - 3/2*x0 + 0.25")
        g = PolynomialField({(2, 1): 1, (1, 0): -1.5, (0, 0): 0.25})
        assert f == g

    def test_line_restriction_is_exact(self):
        f = parse_field("poly:x0^2*x1 - 3/2*x0 + 1/4")
        x, h = (0.5, 0.5), (1.0, 0.0)
        # phi(t) = 0.5 t^2 - t - 0.375 by direct substitution
        assert _line_derivative(f, x, h, 0) == -0.375
        assert _line_derivative(f, x, h, 1) == -1.0
        assert _line_derivative(f, x, h, 2) == 1.0
        assert _line_derivative(f, x, h, 3) == 0.0

    def test_degree_and_dim(self):
        f = parse_field("poly:x0^3*x1^2 + x2")
        assert f.dim == 3
        assert f.degree == 5

    def test_line_derivatives_match_symbolic(self):
        import sympy

        x0, x1, t = sympy.symbols("x0 x1 t")
        expr = x0 ** 3 * x1 - 2 * x0 * x1 ** 2 + 7
        f = parse_field("poly:x0^3*x1 - 2*x0*x1^2 + 7")
        point, direction = (0.4, -0.7), (0.6, 0.8)
        line = expr.subs({x0: point[0] + t * direction[0],
                          x1: point[1] + t * direction[1]})
        for order in range(5):
            want = float(sympy.diff(line, t, order).subs(t, 0))
            got = _line_derivative(f, point, direction, order)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-13)

    @given(st.integers(-8, 8), st.integers(-8, 8))
    def test_value_is_exact_at_dyadic_points(self, a, b):
        f = PolynomialField({(3, 0): Fraction(1, 3), (1, 1): -2, (0, 0): 5})
        x = (a / 4.0, b / 4.0)
        exact = value_fraction(f, x)
        assert exact == Fraction(1, 3) * Fraction(a, 4) ** 3 - 2 * Fraction(a * b, 16) + 5
        assert f.value(x) == float(exact)

    def test_value_batch_multiplies_powers_up(self, rng):
        pts = rng.uniform(-1.5, 1.5, (4000, 2))
        x, y = pts[:, 0], pts[:, 1]
        want = np.ones(len(x))
        for k in range(7):
            got = PolynomialField({(k, 0): 1}, dim=2).value_batch(pts)
            assert np.array_equal(got, want), k
            want = x if k == 0 else want * x
        # x^3 y^2: the coefficient times x^3 = (x * x) * x, then times y * y
        f = PolynomialField({(3, 2): Fraction(-5, 7), (0, 0): 1})
        want = float(Fraction(-5, 7)) * ((x * x) * x) * (y * y) + 1.0
        assert np.array_equal(f.value_batch(pts), want)

    def test_value_batch_up_to_squares_is_the_power_formula(self, rng):
        # exponents up to 2 take numpy's exact power fast paths
        f = parse_field("poly:0.5*x0^2*x1 - 3/7*x1^2 + x0*x1 - 2")
        pts = rng.uniform(-2.0, 2.0, (5000, 2))
        want = np.zeros(len(pts))
        for exps, c in f.terms:
            mono = np.full(len(pts), float(c))
            for i, e in enumerate(exps):
                if e:
                    mono = mono * pts[:, i] ** e
            want += mono
        assert np.array_equal(f.value_batch(pts), want)

    def test_value_batch_is_near_the_exact_value(self, rng):
        f = parse_field("poly:x0^5*x1 - 1/3*x0^3*x1^3 + 2*x1^6 - x0")
        pts = rng.uniform(-1.3, 1.3, (300, 2))
        got = f.value_batch(pts)
        for p, v in zip(pts, got):
            scale = sum(abs(float(c)) * math.prod(abs(xi) ** e for xi, e in zip(p, exps))
                        for exps, c in f.terms)
            assert abs(v - f.value(p)) <= 1e-14 * scale


class TestAnalyticLines:
    def test_frozen_oracles_regenerate(self):
        """The pinned constants above come from this computation."""
        import mpmath as mp

        with mp.workdps(40):
            line = lambda t: mp.e ** (-mp.mpf("1.5") * ((0.3 + 0.6 * t) ** 2
                                                        + (-0.2 + 0.8 * t) ** 2))
            value = mp.diff(line, mp.mpf("0.2"), 4)
        assert float(value) == pytest.approx(GAUSS_LINE_D4, rel=1e-12)

    def test_gaussian_line_derivative(self):
        f = GaussianField(1.5, dim=2)
        got = _line_derivative(f, (0.3, -0.2), (0.6, 0.8), 4, t=0.2)
        assert got == pytest.approx(GAUSS_LINE_D4, rel=1e-12)

    def test_sinusoid_line_derivative(self):
        f = SinusoidField((2.0, 3.0))
        got = _line_derivative(f, (0.3, -0.2), (0.6, 0.8), 3, t=-0.1)
        assert got == pytest.approx(SIN_LINE_D3, rel=1e-12)

    def test_power_line_derivative(self):
        f = PowerField(2.5, dim=2)
        got = _line_derivative(f, (0.6, 0.8), (1.0, 0.0), 3, t=0.25)
        assert got == pytest.approx(POW_LINE_D3, rel=1e-12)

    def test_gaussian_value(self):
        f = GaussianField(1.0, dim=2)
        assert evaluate(f, (0.0, 0.0)) == 1.0

    def test_power_value_is_norm_power(self):
        f = PowerField(2.0, dim=2)
        assert evaluate(f, (3.0, 4.0)) == 25.0

    def test_power_rejects_points_near_origin(self):
        f = PowerField(2.5, dim=2)
        with pytest.raises(DomainError):
            evaluate(f, (0.01, 0.0))

    def test_order_cap(self):
        f = GaussianField(1.0)
        with pytest.raises(UnsupportedOrderError):
            g_integral(f, (0.0,), (1.0,), 25)

    def test_power_order_cap_is_where_cancellation_stays_below_1e_12(self):
        # order 8 is the highest order test_partials_give_directional_derivatives
        # holds the radial power to its 1e-12 bound; order 9 is refused
        f = PowerField(1.5, dim=2)
        rule = QuadratureRule.irwin_hall()
        assert math.isfinite(g_integral(f, (0.5, 0.4), (1.0, 0.3), 8, rule))
        with pytest.raises(UnsupportedOrderError):
            g_integral(f, (0.5, 0.4), (1.0, 0.3), 9, rule)

    def test_power_integral_rejects_segments_across_the_ball(self):
        f = PowerField(2.5, dim=2)
        # the segment from (-0.5, 0.01) to (0.5, 0.01) passes 0.01 from the origin
        with pytest.raises(DomainError):
            g_integral(f, (-0.5, 0.01), (0.5, 0.0), 2)

    def test_power_grid_rejects_boxes_holding_the_origin(self):
        f = PowerField(2.5, dim=2)
        grid = GridSpec.cube(-1.0, 1.0, 21, 2)
        with pytest.raises(DomainError):
            sample(f, grid)
        with pytest.raises(DomainError):
            gradient_magnitude_field(f, grid, 1)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["gauss", "pow", "sin"])
    def test_value_batch_matches_scalar(self, rng, kind, dim):
        f, lo, hi = _float_field(kind, dim)
        pts = rng.uniform(lo, hi, size=(400, dim))
        batch = f.value_batch(pts)
        scalar = np.array([evaluate(f, p) for p in pts])
        assert np.array_equal(batch, scalar)
        assert np.array_equal([f.value_batch(p) for p in pts], scalar)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["gauss", "pow", "sin"])
    def test_value_batch_is_the_row_formula_bit_for_bit(self, rng, kind, dim):
        # the column route against each kind's formula on rows of points
        f, lo, hi = _float_field(kind, dim)
        if kind == "gauss":
            rows = lambda pts: np.exp(-f.a * (pts * pts).sum(-1))
        elif kind == "pow":
            rows = lambda pts: np.asarray((pts * pts).sum(-1)) ** (f.alpha / 2)
        else:
            rows = lambda pts: np.sin(f.omegas * pts).prod(-1)
        pts = rng.uniform(lo, hi, size=(5000, dim))
        assert np.array_equal(f.value_batch(pts).view(np.uint64), rows(pts).view(np.uint64))
        for p in pts[:500]:
            got, want = np.asarray(f.value_batch(p)), np.asarray(rows(p))
            assert got.shape == want.shape == ()
            assert got.view(np.uint64) == want.view(np.uint64), p


def _float_field(kind: str, dim: int):
    """A field of a kind without an exact route, and a box in its domain."""
    if kind == "gauss":
        return GaussianField(1.3, dim), -1.0, 1.0
    if kind == "pow":
        return PowerField(1.5, dim), 0.2, 1.3
    return SinusoidField((2.0, 3.0, 1.5)[:dim]), -1.0, 1.0


class TestGridAndSampling:
    @pytest.mark.parametrize("dim, points", [(1, 201), (2, 41), (3, 11)])
    @pytest.mark.parametrize("kind", ["gauss", "pow", "sin", "poly"])
    def test_sample_reads_back_evaluate_bit_for_bit(self, kind, dim, points):
        # a polynomial samples by its integer grid pass, `evaluate` by its exact point route
        f, lo, hi = (scan_corpus(dim)[0], -1.0, 1.0) if kind == "poly" else _float_field(kind, dim)
        grid = GridSpec.cube(lo, hi, points, dim)
        u = sample(f, grid)
        flat = grid_nodes(grid)
        assert np.array_equal(u.values.ravel(), [evaluate(f, p) for p in flat])
        assert np.array_equal(u.at(flat), u.values.ravel())

    def test_axes_include_endpoints(self, grid_1d):
        axis = grid_1d.axes[0]
        assert axis[0] == -1.0 and axis[-1] == 1.0
        assert len(axis) == 201

    def test_sample_reads_back_exact_values(self, grid_2d):
        f = GaussianField(2.0, dim=2)
        u = sample(f, grid_2d)
        idx = (7, 33)
        pt = tuple(grid_2d.axes[k][idx[k]] for k in range(2))
        assert u.values[idx] == f.value(pt)

    def test_at_is_exact_on_nodes(self, grid_1d):
        f = SinusoidField((3.0,))
        u = sample(f, grid_1d)
        pts = grid_1d.axes[0][[0, 50, 200]].reshape(-1, 1)
        np.testing.assert_allclose(u.at(pts), u.values[[0, 50, 200]], rtol=0, atol=1e-15)

    def test_at_rejects_points_outside_box(self, grid_1d):
        u = sample(GaussianField(1.0), grid_1d)
        for pt in (1.5, np.nextafter(-1.0, -2.0), np.nan):
            with pytest.raises(ValueError):
                u.at(np.array([[pt]]))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_at_takes_points_as_rows_only(self, dim):
        grid = GridSpec.cube(-1.0, 1.0, 11, dim)
        u = SampledField(grid, np.zeros(grid.points))
        with pytest.raises(ValueError, match=rf"expected points of shape \(N, {dim}\)"):
            u.at(np.full(2 * dim, 0.1))

    def test_sampled_field_rejects_nonfinite(self, grid_1d):
        values = np.zeros(grid_1d.points)
        values[3] = np.nan
        with pytest.raises(ValueError):
            SampledField(grid_1d, values)

    def test_polynomial_sample_memory_is_slabbed(self):
        grid = GridSpec.cube(-1.0, 1.0, 41, 3)
        tracemalloc.start()
        try:
            sample(scan_corpus(3)[0], grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output plus one slab of integer numerators; one pass over the
        # whole grid peaks near 16 times the output
        assert peak < 6 * 41 ** 3 * 8

    @pytest.mark.parametrize("kind", ["gauss", "pow", "sin"])
    def test_float_sample_memory_is_slabbed(self, kind):
        f, lo, hi = _float_field(kind, 3)
        grid = GridSpec.cube(lo, hi, 61, 3)
        tracemalloc.start()
        try:
            sample(f, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output plus one slab's temporaries; the grid's nodes as rows
        # (N, 3) and their squares peak near 7 times the output
        assert peak < 2 * 61 ** 3 * 8

    @pytest.mark.parametrize("lo, hi", [((-1.0, math.nan), (1.0, 1.0)),
                                        ((-1.0, -1.0), (1.0, math.inf)),
                                        ((-math.inf, -1.0), (1.0, 1.0))])
    def test_grid_rejects_nonfinite_bounds(self, lo, hi):
        with pytest.raises(ConfigError, match="finite"):
            GridSpec(lo, hi, (5, 5))

    @pytest.mark.parametrize("points", [(40.9,) * 3, (math.nan, 41), (41, math.inf), (41, 40.5)])
    def test_grid_rejects_a_point_count_that_is_not_an_integer(self, points):
        # GridSpec.cube(-1, 1, 40.9, 3) once built a 40^3 grid
        with pytest.raises(ConfigError, match="integers"):
            GridSpec((-1.0,) * len(points), (1.0,) * len(points), points)

    def test_grid_takes_an_integral_float_point_count(self):
        assert GridSpec.cube(-1.0, 1.0, 41.0, 2).points == (41, 41)

    def test_grid_is_its_box(self):
        grid = GridSpec((-1.0, 0.0), (1.0, 0.5), (5, 3))
        assert isinstance(grid, Box)
        assert (grid.dim, grid.extent) == (2, (2.0, 0.5))
        assert Box.of_grid(grid) == Box((-1.0, 0.0), (1.0, 0.5))
        with pytest.raises(ConfigError, match="positive extent"):
            GridSpec((-1.0,), (-1.0,), (5,))

    def test_holds_is_closed_containment(self):
        box = Box((-1.0, 0.0), (1.0, 0.5))
        grid = GridSpec(box.lo, box.hi, (5, 3))
        assert box.holds(box) and grid.holds(box) and box.holds(grid)
        assert box.holds(Box((-0.5, 0.1), (0.5, 0.2)))
        for lo, hi in (((-1.5, 0.0), (1.0, 0.5)), ((-1.0, 0.0), (1.0, np.nextafter(0.5, 1.0))),
                       ((-3.0, -3.0), (3.0, 3.0)), ((2.0, 0.0), (3.0, 0.5))):
            assert not box.holds(Box(lo, hi))
            assert not grid.holds(Box(lo, hi))
        assert not box.holds(Box((-0.5,), (0.5,)))

    def test_trapezoid_weights_sum_to_volume(self, grid_2d):
        w = grid_2d.trapezoid_weights
        assert float(w.sum()) == pytest.approx(4.0, rel=1e-12)


GATHER_GRIDS = [
    GridSpec.cube(-1.0, 1.0, 2001, 1),
    GridSpec.cube(-1.0, 1.0, 201, 2),
    GridSpec.cube(-1.0, 1.0, 41, 3),
    GridSpec((-0.3, 0.1), (1.7, 2.9), (7, 9)),
    GridSpec((-0.3, 0.1, -2.0), (1.7, 2.9, 0.5), (7, 9, 11)),
]


def _gather_points(grid: GridSpec, rng) -> dict:
    """Random points, every node, the far corner, and each node's
    floating-point neighbours on both sides, clipped to the box."""
    lo, hi = np.array(grid.lo), np.array(grid.hi)
    nodes = grid_nodes(grid)
    return {
        "random": rng.uniform(lo, hi, size=(20_000, grid.dim)),
        "nodes": nodes,
        "far corner": hi[None, :],
        "above nodes": np.clip(np.nextafter(nodes, np.inf), lo, hi),
        "below nodes": np.clip(np.nextafter(nodes, -np.inf), lo, hi),
    }


class TestGridGather:
    @pytest.mark.parametrize("grid", GATHER_GRIDS, ids=lambda g: "x".join(map(str, g.points)))
    def test_at_is_scipy_linear_interpolation_bit_for_bit(self, grid):
        from scipy.interpolate import RegularGridInterpolator

        rng = np.random.default_rng(sum(grid.points))
        # magnitudes over six decades, so a changed rounding shows
        values = rng.standard_normal(grid.points) * 10.0 ** rng.uniform(-3, 3, grid.points)
        u = SampledField(grid, values)
        ref = RegularGridInterpolator(grid.axes, u.values, bounds_error=True)
        for name, pts in _gather_points(grid, rng).items():
            assert np.array_equal(u.at(pts), ref(pts)), name

    def test_endpoint_rhs_is_the_per_rung_masked_read_back(self):
        from scipy.interpolate import RegularGridInterpolator

        grid = GridSpec.cube(-1.0, 1.0, 21, 3)
        sampler = PairSampler(Domain(Box.of_grid(grid)), 3000, 4, 0.1, 0.8)
        config = _rung_config(sampler, grid, None)
        ladder = _CoefficientLadder(GaussianField(1.3, 3), grid, 2, config)
        pairs = sampler.draw(config.deltas, config.margins)
        idx = ladder.delta_index(pairs.dist)
        assert len(set(idx.tolist())) > 1

        def per_rung(pts):
            out = np.empty(len(pts))
            for i, rung in enumerate(ladder.stack):
                mask = idx == i
                ref = RegularGridInterpolator(grid.axes, rung, bounds_error=True)
                out[mask] = ref(pts[mask])
            return out

        expected = pairs.dist ** 2 * (per_rung(pairs.x) + per_rung(pairs.y))
        assert np.array_equal(ladder.endpoint_rhs(pairs), expected)


class TestDirectionsAndGradient:
    def test_directions_are_unit(self):
        for dim in (1, 2, 3):
            dirs = default_directions(dim)
            np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0,
                                       rtol=0, atol=1e-14)

    def test_directions_cover_half_turn_without_antipodes(self):
        dirs = default_directions(2)
        angles = np.arctan2(dirs[:, 1], dirs[:, 0])
        assert np.all(angles >= -1e-12) and np.all(angles < np.pi + 1e-12)
        gram = dirs @ dirs.T
        assert not np.any(np.isclose(gram, -1.0, atol=1e-12))

    def test_gradient_of_linear_field_is_constant(self, grid_1d):
        f = parse_field("poly:2*x0 + 1")
        g = gradient_magnitude_field(f, grid_1d)
        np.testing.assert_allclose(g.values, 2.0, rtol=0, atol=1e-14)

    def test_second_order_gradient_of_quadratic(self, grid_1d):
        f = parse_field("poly:3*x0^2")
        g = gradient_magnitude_field(f, grid_1d, order=2)
        np.testing.assert_allclose(g.values, 6.0, rtol=1e-13, atol=0)


def _weight(beta) -> float:
    """order! / beta!, the multinomial weight of d^beta in a directional derivative."""
    return math.factorial(sum(beta)) / math.prod(math.factorial(b) for b in beta)


def _hessian_partials(mats: np.ndarray) -> np.ndarray:
    """Second partials (K, N) of symmetric matrices (N, n, n), in
    `_compositions(2, n)` order."""
    rows = []
    for beta in _compositions(2, mats.shape[-1]):
        i, j = [axis for axis, b in enumerate(beta) for _ in range(b)]
        rows.append(mats[:, i, j])
    return np.stack(rows)


def _half_quadratic_form(a) -> PolynomialField:
    """x^T A x / 2, whose Hessian is A at every point."""
    n = len(a)
    coeffs = {}
    for i in range(n):
        for j in range(n):
            exps = tuple((k == i) + (k == j) for k in range(n))
            coeffs[exps] = coeffs.get(exps, 0) + Fraction(a[i][j]) / 2
    return PolynomialField(coeffs, dim=n)


def _direction_max(f, pts: np.ndarray, order: int) -> np.ndarray:
    """Largest |d^order/ds^order f(x + s e)| at s = 0 over `default_directions`,
    one direction at a time from the weighted partials: the magnitude as it
    was computed before the exact norms."""
    parts = f.partials_batch(pts, order)
    best = np.zeros(len(pts))
    for e in default_directions(f.dim):
        vals = sum(_weight(beta) * math.prod(e ** np.asarray(beta)) * p
                   for beta, p in zip(_compositions(order, f.dim), parts))
        np.maximum(best, np.abs(vals), out=best)
    return best


def _mp_line_derivative(f, x, h, order: int) -> float:
    """d^order/ds^order f(x + s h) at s = 0, differentiating the closed form
    of a Gaussian, power or sinusoid field with mpmath at 40 digits."""
    import mpmath as mp

    with mp.workdps(40):
        xs = [mp.mpf(float(v)) for v in x]
        hs = [mp.mpf(float(v)) for v in h]

        def line(s):
            pt = [a + s * b for a, b in zip(xs, hs)]
            if isinstance(f, GaussianField):
                return mp.exp(-mp.mpf(f.a) * mp.fsum(p * p for p in pt))
            if isinstance(f, PowerField):
                return mp.fsum(p * p for p in pt) ** (mp.mpf(f.alpha) / 2)
            return mp.fprod(mp.sin(mp.mpf(float(w)) * p) for w, p in zip(f.omegas, pt))

        return float(mp.diff(line, 0, order))


class TestPartialsAndMagnitude:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("order", range(9))
    def test_partials_give_directional_derivatives(self, dim, order):
        # polynomials against their exact rational line, the closed-form
        # kinds against a 40-digit line derivative of the closed form
        rng = np.random.default_rng(10 * dim + order)
        corpus = [random_polynomial(rng, dim), GaussianField(0.7, dim),
                  PowerField(1.5, dim), SinusoidField(rng.uniform(0.5, 3.0, dim))]
        # inside the unit box but outside the power field's excluded ball
        pts = rng.uniform(0.2, 0.9, size=(6, dim))
        betas = _compositions(order, dim)
        for f in corpus:
            parts = f.partials_batch(pts, order)
            assert parts.shape == (len(betas), len(pts))
            for x, col in zip(pts, parts.T):
                e = rng.standard_normal(dim)
                terms = [_weight(beta) * math.prod(e ** np.asarray(beta)) * p
                         for beta, p in zip(betas, col)]
                if isinstance(f, PolynomialField):
                    ref = float(deriv_fraction(line_restriction(f, x, e), order, Fraction(0)))
                else:
                    ref = _mp_line_derivative(f, x, e, order)
                assert abs(sum(terms) - ref) <= 1e-12 * sum(abs(t) for t in terms), (f, x, e)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_polynomial_partials_are_the_partial_polynomials_values(self, dim):
        # each row bit for bit the value_batch of d^beta f, built here from
        # terms differentiated one axis step at a time in Fractions
        rng = np.random.default_rng(dim)
        for _ in range(20):
            f = random_polynomial(rng, dim)
            pts = rng.uniform(-1.3, 1.3, size=(50, dim))
            for order in range(7):
                parts = f.partials_batch(pts, order)
                for beta, row in zip(_compositions(order, dim), parts):
                    terms = dict(f.terms)
                    for axis, b in enumerate(beta):
                        for _ in range(b):
                            terms = {tuple(e - (i == axis) for i, e in enumerate(exps)): c * exps[axis]
                                     for exps, c in terms.items() if exps[axis]}
                    want = PolynomialField(terms, dim=dim).value_batch(pts)
                    assert np.array_equal(row.view(np.uint64), want.view(np.uint64)), (f, beta)

    def test_partials_keep_no_polynomial_alive(self):
        f = parse_field("poly:x0^3*x1 - 2*x0*x1^2 + 7")
        f.partials_batch(np.zeros((3, 2)), 2)
        alive = weakref.ref(f)
        del f
        gc.collect()
        assert alive() is None

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_hessian_spectral_norm_matches_eigvalsh(self, dim):
        rng = np.random.default_rng(dim)
        raw = rng.standard_normal((2000, dim, dim))
        v = rng.standard_normal((300, dim))
        eye = np.eye(dim)
        mats = [
            raw + raw.transpose(0, 2, 1),
            # isotropic plus rank one: a double (or higher) eigenvalue
            rng.standard_normal(300)[:, None, None] * eye
            + rng.standard_normal(300)[:, None, None] * v[:, :, None] * v[:, None, :],
            [2.5 * eye, np.zeros((dim, dim)), np.diag([(-1.0) ** k for k in range(dim)])],
        ]
        q = rng.standard_normal(300)[:, None, None]
        unit = v / np.linalg.norm(v, axis=1, keepdims=True)
        outer = unit[:, :, None] * unit[:, None, :]
        sym = raw[:300] + raw[:300].transpose(0, 2, 1)
        # near-double: q I + eps v v^T with eps / |q| = 1e-4, 1e-8, 1e-12, of either sign
        mats += [q * eye + r * np.abs(q) * rng.choice([-1.0, 1.0], (300, 1, 1)) * outer
                 for r in (1e-4, 1e-8, 1e-12)]
        # q I plus a perturbation p far below |q|
        mats += [q * eye + r * np.abs(q) * sym for r in (1e-6, 1e-10, 1e-14)]
        # a near-double pair that holds the norm, over a rotated third eigenvalue
        rot = np.linalg.qr(rng.standard_normal((300, dim, dim)))[0]
        for r in (1e-4, 1e-8, 1e-12):
            diag = np.concatenate([[1.0 + r, 1.0], rng.uniform(-0.5, 0.5, dim - 2)])
            pair = rot @ (q * diag * eye) @ rot.transpose(0, 2, 1)
            mats.append(0.5 * (pair + pair.transpose(0, 2, 1)))
        # rank one, and negative definite
        mats += [q * outer, -(raw[:300] @ raw[:300].transpose(0, 2, 1)) - 0.1 * eye]
        mats = np.concatenate(mats)
        ref = np.max(np.abs(np.linalg.eigvalsh(mats)), axis=-1)
        got = _derivative_magnitude(_hessian_partials(mats), 2, dim)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
        # partials far below 1 are scaled, not squared into underflow
        tiny = _derivative_magnitude(_hessian_partials(1e-250 * mats), 2, dim)
        np.testing.assert_allclose(tiny, 1e-250 * ref, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("a", [
        [[3, Fraction(1, 2)], [Fraction(1, 2), Fraction(-1, 3)]],
        [[2, Fraction(1, 3), Fraction(-1, 2)], [Fraction(1, 3), -1, Fraction(3, 4)],
         [Fraction(-1, 2), Fraction(3, 4), Fraction(5, 2)]],
    ])
    def test_quadratic_form_magnitude_is_top_eigenvalue(self, a):
        f = _half_quadratic_form(a)
        grid = GridSpec.cube(-1.0, 1.0, 9, f.dim)
        exact = float(np.max(np.abs(np.linalg.eigvalsh(np.array(a, dtype=float)))))
        g = gradient_magnitude_field(f, grid, order=2)
        np.testing.assert_allclose(g.values, exact, rtol=1e-13, atol=0)
        # the top eigenvector is none of the probe directions
        probe = max(abs(_line_derivative(f, grid.lo, e, 2))
                    for e in default_directions(f.dim))
        assert probe < (1 - 1e-6) * exact

    @pytest.mark.parametrize("dim, points", [(2, 41), (3, 21)])
    def test_gaussian_magnitudes_match_closed_form(self, dim, points):
        a = 1.3
        grid = GridSpec.cube(-1.0, 1.0, points, dim)
        r2 = np.sum(grid_nodes(grid) ** 2, axis=1).reshape(grid.points)
        g = np.exp(-a * r2)
        f = GaussianField(a, dim)
        np.testing.assert_allclose(gradient_magnitude_field(f, grid, 1).values,
                                   2 * a * np.sqrt(r2) * g, rtol=1e-13, atol=0)
        np.testing.assert_allclose(gradient_magnitude_field(f, grid, 2).values,
                                   g * np.maximum(2 * a, np.abs(4 * a * a * r2 - 2 * a)),
                                   rtol=1e-13, atol=0)

    def test_sinusoid_gradient_matches_closed_form(self):
        f = SinusoidField((2.0, 1.0, 1.0))
        grid = GridSpec.cube(-1.0, 1.0, 41, 3)
        x = grid_nodes(grid)
        s, c = np.sin(f.omegas * x), np.cos(f.omegas * x)
        others = np.stack([s[:, 1] * s[:, 2], s[:, 0] * s[:, 2], s[:, 0] * s[:, 1]], axis=1)
        ref = np.linalg.norm(f.omegas * c * others, axis=1).reshape(grid.points)
        np.testing.assert_allclose(gradient_magnitude_field(f, grid, 1).values, ref,
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("dim, points", [(2, 201), (3, 41)])
    @pytest.mark.parametrize("order", [1, 2])
    def test_magnitude_dominates_direction_max(self, dim, points, order):
        # ball averages are monotone in the field, so right sides and max
        # ratios cannot rise against the direction-max coefficient
        grid = GridSpec.cube(-1.0, 1.0, points, dim)
        for f in scan_corpus(dim):
            new = gradient_magnitude_field(f, grid, order).values.ravel()
            old = _direction_max(f, grid_nodes(grid), order)
            assert np.all(new >= (1 - 1e-12) * old), f

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("text", ["poly:0", "poly:2*x0 - x1 + 1", "poly:x0^2"])
    def test_flat_magnitudes_raise_no_floating_point_error(self, text, dim):
        # zero, constant and rank-one derivatives: no 0/0 in the norms
        f = parse_field(text, dim)
        grid = GridSpec.cube(-1.0, 1.0, 9, dim)
        x0 = np.abs(grid.axes[0]).reshape([-1] + [1] * (dim - 1))
        want = {"poly:0": (0.0, 0.0, 0.0), "poly:2*x0 - x1 + 1": (math.sqrt(5.0), 0.0, 0.0),
                "poly:x0^2": (2.0 * x0, 2.0, 0.0)}[text]
        with np.errstate(all="raise"):
            for order, value in enumerate(want, 1):
                got = gradient_magnitude_field(f, grid, order).values
                np.testing.assert_allclose(got, np.broadcast_to(value, grid.points),
                                           rtol=1e-15, atol=0)

    def test_magnitude_memory_is_blocked(self):
        grid = GridSpec.cube(-1.0, 1.0, 41, 3)  # fresh: node coordinates built inside
        tracemalloc.start()
        try:
            gradient_magnitude_field(SinusoidField((2.0, 1.0, 1.0)), grid, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 41 ** 3 * 8


# lead axes of 10001 nodes in 1-D and of 201 and 23 rows in 2-D and 3-D:
# none a whole number of `_NODE_BLOCK` slabs
SLAB_GRIDS = {1: (10001, 1), 2: (201, 2), 3: (23, 3)}


class TestColumnRoute:
    """The magnitude's partials come from the grid axes shaped to
    broadcast, slab by slab: bit for bit `partials_batch` at the nodes."""

    @staticmethod
    def _field_and_grid(kind: str, dim: int):
        points = SLAB_GRIDS[dim][0]
        if kind == "pow":  # its box touches the excluded ball at the corner (0.05, ...)
            return PowerField(0.5, dim), GridSpec.cube(0.05, 1.05, points, dim)
        if kind == "poly":
            f = random_polynomial(np.random.default_rng(dim), dim)
            return f, GridSpec.cube(-1.3, 1.3, points, dim)
        f, lo, hi = _float_field(kind, dim)
        return f, GridSpec.cube(lo, hi, points, dim)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["gauss", "pow", "sin", "poly"])
    def test_slab_partials_and_magnitudes_are_the_nodes_bit_for_bit(self, kind, dim):
        f, grid = self._field_and_grid(kind, dim)
        flat = grid_nodes(grid)
        assert len(list(_slabs(grid, grid.axes))) > 1
        for order in range(5):
            want = f.partials_batch(flat, order)
            got = np.concatenate([f._partials(cols, order).reshape(len(want), -1)
                                  for _, cols in _slabs(grid, grid.axes)], axis=1)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), order
            if order:
                mag = gradient_magnitude_field(f, grid, order).values.ravel()
                assert np.array_equal(mag, _derivative_magnitude(want, order, dim)), order

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_power_field_inside_its_excluded_ball_raises(self, dim):
        f = PowerField(0.5, dim)
        with pytest.raises(DomainError):
            gradient_magnitude_field(f, GridSpec.cube(0.0, 1.0, 11, dim), 1)
        with pytest.raises(DomainError):
            f.partials_batch(np.full((1, dim), 0.02), 1)
        # the column route checks its own points, not only a grid box
        cols = [np.array([0.02, 0.5]).reshape([-1] + [1] * (dim - 1))]
        cols += [np.array([0.02]).reshape([1] * dim)] * (dim - 1)
        with pytest.raises(DomainError):
            f._partials(cols, 2)


class TestParser:
    @pytest.mark.parametrize("text, kind", [
        ("gauss:a=2.0", GaussianField),
        ("pow:alpha=1.5", PowerField),
        ("sin:w=2,3", SinusoidField),
        ("poly:x0^2", PolynomialField),
    ])
    def test_kinds(self, text, kind):
        assert isinstance(parse_field(text), kind)

    def test_dim_override(self):
        f = parse_field("gauss:a=1.0", dim=3)
        assert f.dim == 3

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_field("spline:k=3")

    def test_rejects_malformed_poly(self):
        with pytest.raises(ValueError):
            parse_field("poly:x0^^2")


class TestNonfiniteParameters:
    """A field refuses a non-finite parameter, or a dimension that is not
    an integer >= 1, when it is made, not after a grid stage has sampled it."""

    @pytest.mark.parametrize("kind, args, name", [
        (SinusoidField, [(math.inf,)], "frequencies w"),
        (SinusoidField, [(2.0, math.nan)], "frequencies w"),
        (GaussianField, [math.inf], "width a"),
        (GaussianField, [math.nan, 2], "width a"),
        (PowerField, [math.nan], "alpha"),
        (PowerField, [-math.inf, 2], "alpha"),
    ])
    def test_constructor_refuses_it(self, kind, args, name):
        with pytest.raises(ConfigError, match=name):
            kind(*args)

    @pytest.mark.parametrize("make", [
        lambda: GaussianField(1.0, dim=0),
        lambda: GaussianField(1.0, dim=-2),
        lambda: GaussianField(1.0, dim=1.7),
        lambda: GaussianField(1.0, dim=True),
        lambda: PowerField(1.5, dim=0),
        lambda: PowerField(1.5, dim=math.nan),
        lambda: PolynomialField({}, dim=2.5),
        lambda: PolynomialField({}, dim=0),
        lambda: PolynomialField({(): 1}),
        lambda: parse_field("gauss:a=1", dim=0),
        lambda: parse_field("pow:alpha=1.5", dim=0),
        lambda: parse_field("poly:1", dim=0),
    ], ids=["gauss 0", "gauss -2", "gauss 1.7", "gauss True", "pow 0", "pow nan",
            "poly 2.5", "poly 0", "poly of no axes", "parsed gauss 0", "parsed pow 0",
            "parsed poly 0"])
    def test_constructor_refuses_a_dimension_below_one_or_not_whole(self, make):
        with pytest.raises(ConfigError, match="dimension must be an integer >= 1"):
            make()

    def test_finite_parameters_still_build(self):
        assert evaluate(PowerField(1.5), [0.5]) == pytest.approx(0.5 ** 1.5)
        assert evaluate(PowerField(2.0), [0.5]) == 0.25
        assert GaussianField(2.0).dim == 1
        assert SinusoidField((2.0, 3.0)).dim == 2
        # a whole dimension of another type builds as an int
        for f in (GaussianField(1.0, dim=np.int64(2)), PowerField(1.5, dim=2.0),
                  PolynomialField({}, dim=np.int32(2))):
            assert f.dim == 2 and type(f.dim) is int


class TestCorpusAndRandomFields:
    def test_corpus_dimensions(self):
        for dim in (1, 2, 3):
            fields = scan_corpus(dim)
            assert len(fields) >= 3
            assert all(f.dim == dim for f in fields)

    def test_corpus_is_smooth_on_unit_box(self, rng):
        for f in scan_corpus(2):
            pts = rng.uniform(-1, 1, size=(16, 2))
            for order in (1, 2, 3):
                for p in pts:
                    val = _line_derivative(f, p, (1.0, 0.0), order)
                    assert np.isfinite(val)

    def test_random_polynomial_is_deterministic(self):
        a = random_polynomial(np.random.default_rng(5), dim=2)
        b = random_polynomial(np.random.default_rng(5), dim=2)
        assert a == b

    def test_random_polynomial_degree_bound(self, rng):
        for _ in range(20):
            f = random_polynomial(rng, dim=1)
            assert f.degree <= 6

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_random_polynomial_exact_degree(self, seed):
        f = random_polynomial(np.random.default_rng(seed), dim=2, exact_degree=3)
        assert f.degree == 3
