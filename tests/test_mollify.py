"""Mollifier kernels, discrete convolution, and norm inequalities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobolev_pointwise import (
    ConfigError,
    EmptyScanError,
    GridSpec,
    Mollifier,
    SampledField,
    SinusoidField,
    convolve,
    default_epsilons,
    lp_norm,
    sample,
    young_check,
)


def _compact_field(grid, rng, margin_cells):
    """A nonnegative field vanishing on a boundary layer."""
    values = rng.uniform(0.0, 1.0, size=grid.points)
    mask = np.ones(grid.points, dtype=bool)
    interior = tuple(slice(m, n - m) for m, n in zip(margin_cells, grid.points))
    mask[interior] = False
    values[mask] = 0.0
    return SampledField(grid, values)


class TestMollifier:
    def test_taps_have_unit_mass(self, grid_1d):
        for profile in ("bump", "gauss"):
            phi = Mollifier(0.1, 1, profile=profile)
            assert phi.taps(grid_1d.spacing).sum() == pytest.approx(1.0, rel=0,
                                                                    abs=1e-12)

    def test_taps_are_symmetric(self, grid_1d):
        taps = Mollifier(0.15, 1).taps(grid_1d.spacing)
        np.testing.assert_allclose(taps, taps[::-1], rtol=0, atol=0)

    def test_two_dimensional_taps_are_a_product_shape(self, grid_2d):
        taps = Mollifier(0.2, 2).taps(grid_2d.spacing)
        assert taps.ndim == 2
        assert taps.shape[0] == taps.shape[1]
        assert taps.sum() == pytest.approx(1.0, abs=1e-12)

    def test_support_radius(self):
        assert Mollifier(0.25, 1).support_radius == 0.25
        assert Mollifier(0.25, 1, profile="gauss").support_radius == pytest.approx(0.75)

    def test_under_resolved_kernel_rejected(self):
        coarse = GridSpec.cube(-1.0, 1.0, 11, 1)
        with pytest.raises(ConfigError):
            Mollifier(0.05, 1).taps(coarse.spacing)

    def test_spacing_of_another_dimension_is_refused(self, grid_1d):
        with pytest.raises(ConfigError, match="spacing length does not match"):
            Mollifier(0.1, 2).taps(grid_1d.spacing)

    def test_invalid_profile(self):
        with pytest.raises(ConfigError):
            Mollifier(0.1, 1, profile="box")

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, math.nan, math.inf])
    def test_scale_must_be_finite_and_positive(self, epsilon):
        with pytest.raises(ConfigError):
            Mollifier(epsilon, 1)

    @pytest.mark.parametrize("dim", [0, -1, 1.5, True, math.nan, "2"])
    def test_dimension_must_be_a_whole_number_at_least_one(self, dim):
        with pytest.raises(ConfigError, match="mollifier dimension must be an integer >= 1"):
            Mollifier(0.1, dim)

    def test_a_whole_dimension_of_another_type_is_stored_as_an_int(self):
        for dim in (2.0, np.int64(2)):
            phi = Mollifier(0.1, dim)
            assert phi.dim == 2 and type(phi.dim) is int


def _interior(v, phi):
    """The nodes farther than the kernel half-width from the walls: the
    values zero padding does not reach."""
    cells = phi.margin_cells(v.grid.spacing)
    return tuple(slice(c, n - c) for c, n in zip(cells, v.grid.points))


class TestConvolve:
    def test_preserves_constants_in_the_interior(self, grid_1d):
        u = SampledField(grid_1d, np.ones(grid_1d.points))
        phi = Mollifier(0.1, 1)
        v = convolve(u, phi)
        np.testing.assert_allclose(v.values[_interior(v, phi)], 1.0, rtol=0, atol=1e-12)

    def test_smooths_towards_the_mean(self, grid_1d, rng):
        u = SampledField(grid_1d, rng.uniform(0.0, 1.0, size=grid_1d.points))
        phi = Mollifier(0.2, 1)
        v = convolve(u, phi)
        inner = _interior(v, phi)
        assert v.values[inner].std() < u.values[inner].std()

    def test_linear_functions_are_reproduced(self, grid_1d):
        u = SampledField(grid_1d, 2.0 * grid_1d.axes[0] + 0.5)
        phi = Mollifier(0.1, 1)
        v = convolve(u, phi)
        inner = _interior(v, phi)
        np.testing.assert_allclose(v.values[inner], u.values[inner],
                                   rtol=1e-12, atol=1e-12)

    def test_kernel_wider_than_the_grid_is_refused(self):
        grid = GridSpec((0.0,), (0.1,), (11,))
        with pytest.raises(ConfigError):
            convolve(SampledField(grid, np.ones(grid.points)), Mollifier(0.1, 1))

    def test_mollifier_of_another_dimension_is_refused(self, grid_1d):
        u = SampledField(grid_1d, np.ones(grid_1d.points))
        with pytest.raises(ConfigError, match="mollifier dimension does not match the grid"):
            convolve(u, Mollifier(0.1, 2))

    def test_nonnegative_field_stays_nonnegative(self, grid_2d, rng):
        a = SampledField(grid_2d, rng.uniform(0.0, 2.0, size=grid_2d.points))
        b = convolve(a, Mollifier(0.2, 2))
        assert np.all(b.values >= -1e-15)

    @pytest.mark.parametrize("profile", ["bump", "gauss"])
    @pytest.mark.parametrize("grid, epsilon", [
        (GridSpec.cube(-1.0, 1.0, 201, 1), 0.1),
        (GridSpec((-1.0, -0.5), (1.0, 1.5), (41, 57)), 0.2),
        (GridSpec((-1.0, -0.5, 0.0), (1.0, 1.0, 1.2), (21, 25, 31)), 0.4),
    ], ids=["1d", "2d", "3d-unequal"])
    def test_matches_scipy_ndimage(self, grid, epsilon, profile, rng):
        from scipy import ndimage

        phi = Mollifier(epsilon / 3.0 if profile == "gauss" else epsilon, grid.dim, profile)
        u = SampledField(grid, rng.normal(size=grid.points))
        want = ndimage.convolve(u.values, phi.taps(grid.spacing), mode="constant", cval=0.0)
        got = convolve(u, phi).values
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_is_a_convolution_not_a_correlation(self, grid_1d, monkeypatch):
        from scipy import ndimage

        taps = np.zeros(9)
        taps[[1, 6]] = (0.25, 0.75)
        monkeypatch.setattr(Mollifier, "taps", lambda self, spacing: taps)
        u = SampledField(grid_1d, np.sin(3.0 * grid_1d.axes[0]))
        want = ndimage.convolve(u.values, taps, mode="constant", cval=0.0)
        np.testing.assert_array_equal(convolve(u, Mollifier(0.1, 1)).values, want)


class TestLpNorm:
    def test_constant_field(self, grid_1d):
        u = SampledField(grid_1d, np.full(grid_1d.points, 2.0))
        assert lp_norm(u, 1) == pytest.approx(4.0, rel=1e-12)
        assert lp_norm(u, 2) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
        assert lp_norm(u, math.inf) == 2.0

    def test_scaling(self, grid_1d, rng):
        u = SampledField(grid_1d, rng.uniform(0.0, 1.0, size=grid_1d.points))
        v = SampledField(grid_1d, 3.0 * u.values)
        for p in (1.0, 1.5, 2.0, 4.0, math.inf):
            assert lp_norm(v, p) == pytest.approx(3.0 * lp_norm(u, p), rel=1e-12)

    def test_quasi_norm_exponents_are_allowed(self, grid_1d, rng):
        # p in (0, 1) appears in the quasinorm bound and must work
        u = SampledField(grid_1d, rng.uniform(0.0, 1.0, size=grid_1d.points))
        assert lp_norm(u, 0.5) > 0

    def test_rejects_bad_exponent(self, grid_1d):
        u = SampledField(grid_1d, np.zeros(grid_1d.points))
        with pytest.raises(ValueError):
            lp_norm(u, 0.0)


class TestYoung:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, math.inf])
    def test_random_compact_fields(self, p, grid_1d, rng):
        phi = Mollifier(0.1, 1)
        cells = phi.margin_cells(grid_1d.spacing)
        u = _compact_field(grid_1d, rng, tuple(2 * c for c in cells))
        report = young_check(u, phi, p)
        assert report.passed
        assert report.lhs <= report.rhs * (1 + 1e-6)

    def test_two_dimensional_case(self, grid_2d, rng):
        phi = Mollifier(0.25, 2)
        cells = phi.margin_cells(grid_2d.spacing)
        u = _compact_field(grid_2d, rng, tuple(2 * c for c in cells))
        report = young_check(u, phi, 2.0)
        assert report.passed

    def test_rejects_field_touching_the_boundary(self, grid_1d):
        u = SampledField(grid_1d, np.ones(grid_1d.points))
        with pytest.raises(ConfigError):
            young_check(u, Mollifier(0.1, 1), 2.0)

    def test_report_dict_round_trip(self, grid_1d, rng):
        phi = Mollifier(0.1, 1)
        cells = phi.margin_cells(grid_1d.spacing)
        u = _compact_field(grid_1d, rng, tuple(2 * c for c in cells))
        d = young_check(u, phi, 1.0).to_dict()
        assert set(d) == {"p", "lhs", "rhs", "passed"}

    @settings(max_examples=20, deadline=None)
    @given(st.floats(1.0, 6.0), st.integers(0, 2 ** 31 - 1))
    def test_property_over_exponents_and_seeds(self, p, seed):
        grid = GridSpec.cube(-1.0, 1.0, 101, 1)
        phi = Mollifier(0.12, 1)
        cells = phi.margin_cells(grid.spacing)
        u = _compact_field(grid, np.random.default_rng(seed),
                           tuple(2 * c for c in cells))
        assert young_check(u, phi, p).passed


class TestDefaultEpsilons:
    def test_ladder_is_decreasing_and_resolved(self, grid_1d):
        eps = default_epsilons(grid_1d)
        assert all(b < a for a, b in zip(eps, eps[1:]))
        for e in eps:
            Mollifier(e, 1).taps(grid_1d.spacing)  # must not raise

    def test_resolved_defaults_stay_a_quarter_side_ladder(self, grid_1d):
        for profile in ("bump", "gauss"):
            assert default_epsilons(grid_1d, profile) == tuple(
                f * 2.0 / 4.0 for f in (0.4, 0.2, 0.1))

    @pytest.mark.parametrize("profile", ["bump", "gauss"])
    @pytest.mark.parametrize("grid", [GridSpec.cube(-1.0, 1.0, 61, 2),
                                      GridSpec.cube(-1.0, 1.0, 41, 3),
                                      GridSpec((0.0, 0.0), (1.0, 3.0), (15, 200))],
                             ids=["61x61", "41^3", "15x200"])
    def test_coarse_grid_defaults_are_raised_to_resolve(self, grid, profile):
        eps = default_epsilons(grid, profile)
        assert all(b < a for a, b in zip(eps, eps[1:]))
        box_side = [f * min(grid.extent) / 4.0 for f in (0.4, 0.2, 0.1)]
        for e in eps:
            Mollifier(e, grid.dim, profile).taps(grid.spacing)  # must not raise
            if e not in box_side:
                # a raised scale is the smallest one the grid resolves
                with pytest.raises(ConfigError):
                    Mollifier(math.nextafter(e, 0.0), grid.dim, profile).taps(grid.spacing)

    def test_scales_leave_room_for_the_pair_separation(self, grid_1d):
        assert default_epsilons(grid_1d, "bump", 0.4) == (0.2, 0.1, 0.05)
        assert default_epsilons(grid_1d, "gauss", 0.4) == (0.1, 0.05)
        for eps in (0.2, 0.1, 0.05):
            assert Mollifier(eps, 1, "gauss").leaves_room(grid_1d, 0.4) == (eps < 0.2)
        with pytest.raises(EmptyScanError):
            default_epsilons(grid_1d, "bump", 1.0)

    def test_smallest_is_well_inside_the_box(self, grid_2d):
        eps = default_epsilons(grid_2d)
        assert min(eps) < min(grid_2d.extent) / 4
