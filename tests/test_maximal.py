"""Ball and lens geometry, and the discrete maximal function."""

import functools
import itertools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobolev_pointwise import (
    Box,
    ConfigError,
    Domain,
    GaussianField,
    GridSpec,
    MaximalConfig,
    PairSampler,
    SampledField,
    ball_averages,
    ball_volume,
    default_radii,
    ladder_configs,
    lens_volume,
    local_maximal_function,
    parse_field,
    sample,
    segment_ratio_constant,
)
from lens_reference import betainc_volume, cap_profile_volume
from sobolev_pointwise.maximal import _RADIUS_SLACK, _ball_counts, _ball_offsets
from sobolev_pointwise.verify import _CoefficientLadder, _rung_configs


def _pad_cells(spacings, radius):
    return [int(math.floor(radius * _RADIUS_SLACK / sp)) for sp in spacings]


def _cumsum_ball_sums(u, radius):
    """Ball sums added run by run in `_ball_offsets` order, and node
    counts from cumulative sums of a padded field of ones."""
    values = u.values
    spacings = u.grid.spacing
    pad_cells = _pad_cells(spacings, radius)
    padded = np.pad(values, [(c, c) for c in pad_cells])
    ones = np.pad(np.ones_like(values), [(c, c) for c in pad_cells])
    csum = np.concatenate(
        [np.zeros(padded.shape[:-1] + (1,)), np.cumsum(padded, axis=-1)], axis=-1)
    cones = np.concatenate(
        [np.zeros(ones.shape[:-1] + (1,)), np.cumsum(ones, axis=-1)], axis=-1)
    shape = values.shape
    r_last = pad_cells[-1]
    sums = np.zeros(shape)
    counts = np.zeros(shape)
    for q, width in _ball_offsets(spacings, radius):
        lead = tuple(slice(c + qi, c + qi + n)
                     for qi, c, n in zip(q, pad_cells[:-1], shape[:-1]))
        hi = lead + (slice(r_last + width + 1, r_last + width + 1 + shape[-1]),)
        lo = lead + (slice(r_last - width, r_last - width + shape[-1]),)
        sums += csum[hi] - csum[lo]
        counts += cones[hi] - cones[lo]
    return sums, counts


def _loop_ball_offsets(spacings, radius):
    """`_ball_offsets` as a loop over the lead-axis offset lattice: the
    reference its vectorized form must match, ties included."""
    lead_spacings = spacings[:-1]
    r2 = radius * radius * _RADIUS_SLACK
    cells = [int(math.floor(radius * _RADIUS_SLACK / sp)) for sp in lead_spacings]
    combos = []
    for q in itertools.product(*(range(-c, c + 1) for c in cells)):
        partial = sum((qi * sp) ** 2 for qi, sp in zip(q, lead_spacings))
        if partial <= r2:
            width = int(math.floor(math.sqrt(max(r2 - partial, 0.0)) / spacings[-1]))
            combos.append((q, width))
    return combos


def _random_boxes(shape, rng, count=4):
    """Random nonempty node boxes, plus the whole grid and single nodes at
    two opposite corners."""
    boxes = [tuple(slice(0, n) for n in shape), tuple(slice(0, 1) for _ in shape),
             tuple(slice(n - 1, n) for n in shape)]
    for _ in range(count):
        ends = [sorted(rng.choice(n + 1, 2, replace=False)) for n in shape]
        boxes.append(tuple(slice(int(a), int(b)) for a, b in ends))
    return boxes


def _ball_average(u, radius):
    return ball_averages(u, (radius,))[0]


def _whole(u, configs):
    """`local_maximal_function` with every rung on the whole grid."""
    return local_maximal_function(u, configs, [tuple(slice(0, n) for n in u.grid.points)]
                                  * len(configs))


def _brute_ball_average(u, radius):
    """Counting-measure ball average by direct enumeration."""
    grid = u.grid
    pts = grid.flat_points
    flat = u.values.reshape(-1)
    out = np.empty_like(flat)
    for i, p in enumerate(pts):
        mask = np.linalg.norm(pts - p, axis=1) <= radius * (1 + 1e-12)
        out[i] = flat[mask].mean()
    return out.reshape(u.values.shape)


class TestBallVolume:
    def test_known_dimensions(self):
        assert ball_volume(1, 1.0) == 2.0
        assert ball_volume(2, 1.0) == pytest.approx(math.pi, rel=1e-15)
        assert ball_volume(3, 1.0) == pytest.approx(4 * math.pi / 3, rel=1e-15)

    @pytest.mark.parametrize("n", range(5))
    def test_unit_ball_is_scipy_gamma_bit_for_bit(self, n):
        from scipy.special import gamma

        assert ball_volume(n, 1.0) == math.pi ** (n / 2.0) / float(gamma(n / 2.0 + 1.0))

    def test_radius_scaling(self):
        for n in (1, 2, 3, 5):
            assert ball_volume(n, 2.0) == pytest.approx(2 ** n * ball_volume(n, 1.0),
                                                        rel=1e-14)

    def test_zero_radius_and_negative_radius(self):
        assert ball_volume(2, 0.0) == 0.0
        with pytest.raises(ValueError):
            ball_volume(2, -1.0)


class TestLensVolume:
    def test_unit_overlap_values(self):
        assert lens_volume(1, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        want2 = 2 * math.pi / 3 - math.sqrt(3) / 2
        assert lens_volume(2, 1.0, 1.0) == pytest.approx(want2, rel=1e-13)
        assert lens_volume(3, 1.0, 1.0) == pytest.approx(5 * math.pi / 12, rel=1e-13)

    def test_zero_distance_gives_ball(self):
        for n in (1, 2, 3):
            assert lens_volume(n, 0.7, 0.0) == pytest.approx(ball_volume(n, 0.7),
                                                             rel=1e-13)

    def test_disjoint_balls_give_zero(self):
        assert lens_volume(2, 1.0, 2.5) == 0.0

    def test_quadrature_matches_closed_form(self):
        for n in range(2, 9):
            for r in (0.5, 1.0, 1.7):
                for d in (0.2 * r, r, 1.6 * r):
                    closed = lens_volume(n, r, d)
                    quad = cap_profile_volume(n, r, d)
                    assert quad == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_incomplete_beta(self, n):
        for r in (0.3, 1.0, 2.0):
            for d in (0.0, 0.1, 0.5 * r, r, 1.5 * r, 1.9 * r, 1.99 * r, 1.9999 * r):
                want = betainc_volume(n, r, d)
                assert abs(lens_volume(n, r, d) - want) <= 1e-11 * want, (r, d)

    def test_two_dimensional_lens_does_not_cancel_near_tangency(self):
        # the closed form 2r^2 acos(t) - (d/2) sqrt(4r^2 - d^2) lost 7.2e-9
        # relative at d = 1.9999 r; below x = 1/2 the series takes over
        for r in (0.3, 1.0, 2.0):
            for q in (1.5, 1.9, 1.99, 1.9999):
                want = betainc_volume(2, r, q * r)
                assert abs(lens_volume(2, r, q * r) - want) <= 1e-14 * want, (r, q)
        assert segment_ratio_constant(2) == 2.5575302428478484

    @pytest.mark.parametrize("n", [12, 24, 48, 100])
    def test_high_dimensions_match_the_incomplete_beta(self, n):
        for d in (0.1, 0.5, 1.0, 1.2, 1.4, 1.5, 1.9):
            want = betainc_volume(n, 1.0, d)
            assert abs(lens_volume(n, 1.0, d) - want) <= 1e-13 * want, d

    @pytest.mark.parametrize("radius, distance", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (-math.inf, 1.0)])
    def test_non_finite_input_raises(self, radius, distance):
        for n in (2, 4, 7):
            with pytest.raises(ValueError):
                lens_volume(n, radius, distance)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.floats(0.2, 2.0), st.floats(0.0, 1.8),
           st.floats(0.5, 2.0))
    def test_scale_invariance(self, n, r, frac, scale):
        d = frac * r
        big = lens_volume(n, scale * r, scale * d)
        assert big == pytest.approx(scale ** n * lens_volume(n, r, d), rel=1e-9)

    def test_monotone_in_distance(self):
        prev = None
        for d in np.linspace(0.0, 2.0, 21):
            v = lens_volume(3, 1.0, float(d))
            if prev is not None:
                assert v <= prev + 1e-14
            prev = v


class TestSegmentConstant:
    def test_line_value_is_exact(self):
        assert segment_ratio_constant(1) == 2.0

    def test_closed_form_values_are_pinned(self):
        assert [segment_ratio_constant(n) for n in (1, 2, 3)] == [2.0, 2.5575302428478484, 3.2]

    @pytest.mark.parametrize("n", range(4, 9))
    def test_within_four_ulp_of_the_incomplete_beta(self, n):
        with mp.workdps(50):
            want = 1 / mp.betainc(mp.mpf(n + 1) / 2, mp.mpf(1) / 2, 0, mp.mpf(3) / 4,
                                  regularized=True)
            got = segment_ratio_constant(n)
            assert abs(got - want) <= 4 * math.ulp(float(want))

    def test_three_dimensional_value(self):
        assert segment_ratio_constant(3) == pytest.approx(3.2, abs=1e-12)

    def test_increasing_in_dimension(self):
        values = [segment_ratio_constant(n) for n in range(1, 9)]
        assert all(b > a for a, b in zip(values, values[1:]))


GRIDS = [
    GridSpec.cube(-1.0, 1.0, 41, 1),
    GridSpec.cube(-1.0, 1.0, 17, 2),
    GridSpec((-1.0, -0.5), (1.0, 1.5), (13, 21)),
    GridSpec.cube(-1.0, 1.0, 11, 3),
    GridSpec((-1.0, -0.5, 0.0), (1.0, 1.0, 0.7), (7, 9, 11)),
]


class TestBallAverage:
    @pytest.mark.parametrize("dim, points", [(1, 41), (2, 17), (3, 9)])
    def test_matches_brute_force(self, dim, points, rng):
        grid = GridSpec.cube(-1.0, 1.0, points, dim)
        u = SampledField(grid, rng.uniform(0.0, 2.0, size=grid.points))
        for radius in (1.5 * grid.spacing[0], 3.2 * grid.spacing[0]):
            fast = _ball_average(u, radius)
            slow = _brute_ball_average(u, radius)
            np.testing.assert_allclose(fast, slow, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_bit_identical_to_cumsum_counts(self, grid, rng):
        # ball_averages lays every ball's counts out at the ladder's
        # largest padding; exact integers either way
        u = SampledField(grid, rng.uniform(0.0, 2.0, size=grid.points))
        radii = np.geomspace(min(grid.spacing), 0.9, 7)
        for radius in radii:
            _, counts = _cumsum_ball_sums(u, radius)
            offsets = _ball_offsets(grid.spacing, radius)
            for pad in (_pad_cells(grid.spacing, radius), _pad_cells(grid.spacing, radii[-1])):
                np.testing.assert_array_equal(_ball_counts(grid.points, pad, offsets), counts)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_boxed_counts_are_the_whole_grid_counts_sliced(self, grid, rng):
        radii = np.geomspace(min(grid.spacing), 0.9, 7)
        pad = _pad_cells(grid.spacing, radii[-1])
        for radius in radii:
            offsets = _ball_offsets(grid.spacing, radius)
            whole = _ball_counts(grid.points, pad, offsets)
            for box in _random_boxes(grid.points, rng):
                counts = _ball_counts(grid.points, pad, offsets, box)
                assert np.array_equal(counts, whole[box])
                assert np.array_equal(counts, np.round(counts))

    @pytest.mark.parametrize("spacings", [(0.05,), (0.01, 0.01), (0.05, 0.05, 0.05),
                                          (2 / 6, 1.5 / 8, 0.7 / 10), (0.1, 0.05),
                                          (0.025,) * 3])
    def test_offsets_match_the_loop(self, spacings):
        # multiples of the spacing are the radius ties
        for k in np.concatenate([np.arange(1, 13), np.linspace(0.5, 12.3, 31)]):
            radius = float(k * spacings[0])
            assert _ball_offsets(spacings, radius) == _loop_ball_offsets(spacings, radius)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_averages_match_cumsum_reference(self, grid, rng):
        # runs are summed widths first, so only reassociation separates them
        u = SampledField(grid, rng.uniform(0.0, 2.0, size=grid.points))
        for radius in np.geomspace(min(grid.spacing), 0.9, 7):
            sums, counts = _cumsum_ball_sums(u, radius)
            np.testing.assert_allclose(_ball_average(u, radius), sums / counts,
                                       rtol=1e-13, atol=1e-15)

    def test_constant_field_is_fixed_point(self, grid_2d):
        u = SampledField(grid_2d, np.full(grid_2d.points, 3.5))
        np.testing.assert_allclose(_ball_average(u, 0.3), 3.5, rtol=0, atol=1e-13)


class TestBallAverages:
    @pytest.mark.parametrize("grid", GRIDS)
    def test_each_radius_independent_of_the_others(self, grid, rng):
        u = SampledField(grid, rng.uniform(0.0, 2.0, size=grid.points))
        radii = [float(r) for r in np.geomspace(min(grid.spacing), 0.9, 7)]
        together = ball_averages(u, radii)
        for k, radius in enumerate(radii):
            np.testing.assert_array_equal(together[k], _ball_average(u, radius))
        for subset in (radii[::2], radii[1:4], radii[::-1]):
            for avg, radius in zip(ball_averages(u, subset), subset):
                np.testing.assert_array_equal(avg, together[radii.index(radius)])

    @pytest.mark.parametrize("grid", GRIDS)
    def test_boxed_averages_are_the_whole_grid_averages_sliced(self, grid, rng):
        u = SampledField(grid, rng.uniform(0.0, 2.0, size=grid.points))
        radii = [float(r) for r in np.geomspace(min(grid.spacing), 0.9, 7)]
        whole = ball_averages(u, radii)
        boxes = _random_boxes(grid.points, rng, count=len(radii))[-len(radii):]
        for k, avg in enumerate(ball_averages(u, radii, boxes)):
            assert np.array_equal(avg, whole[k][boxes[k]])

    def test_radii_sharing_a_lattice_ball_share_the_average(self, rng):
        grid = GridSpec.cube(-1.0, 1.0, 21, 2)
        u = SampledField(grid, rng.uniform(0.0, 2.0, size=grid.points))
        # 1.0 and 1.2 cells hold the same nodes; 1.5 cells adds the diagonals
        same, other = 1.2 * grid.spacing[0], 1.5 * grid.spacing[0]
        assert _ball_offsets(grid.spacing, 0.1) == _ball_offsets(grid.spacing, same)
        a, b, c = ball_averages(u, (0.1, same, other))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_nonpositive_radius(self, grid_1d):
        u = SampledField(grid_1d, np.ones(grid_1d.points))
        with pytest.raises(ConfigError):
            ball_averages(u, (0.1, 0.0))
        with pytest.raises(ConfigError):
            ball_averages(u, (-0.1,))

    def test_peak_memory_is_one_array_per_ball_plus_a_few(self, rng):
        grid = GridSpec.cube(-1.0, 1.0, 201, 2)
        sampler = PairSampler(Domain(Box.of_grid(grid)), 1, 0, 0.05, 0.4)
        radii = _rung_configs(sampler, grid, None)[-1].radii
        assert len(radii) == 15
        balls = len({tuple(_ball_offsets(grid.spacing, r)) for r in radii})
        u = SampledField(grid, rng.uniform(0.0, 2.0, size=grid.points))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ball_averages(u, radii)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # one array per ball, the cumulative sum, one run sum and the counts
        assert peak < (balls + 8) * u.values.nbytes


class TestMaximalFunction:
    def _config(self, grid, delta=0.3):
        return MaximalConfig(delta=delta, radii=default_radii(delta, grid.spacing[0]))

    def _maximal(self, u, config):
        return _whole(u, [config])[0]

    def test_dominates_each_ball_average(self, grid_1d, rng):
        u = SampledField(grid_1d, rng.uniform(0.0, 1.0, size=grid_1d.points))
        config = self._config(grid_1d)
        m = self._maximal(u, config)
        for radius in config.radii:
            assert np.all(m >= _ball_average(u, radius) - 1e-14)

    def test_rejects_negative_input(self, grid_1d):
        u = SampledField(grid_1d, np.linspace(-1.0, 1.0, grid_1d.points[0]))
        with pytest.raises(ValueError):
            self._maximal(u, self._config(grid_1d))

    def test_sublinearity(self, grid_1d, rng):
        config = self._config(grid_1d)
        a = SampledField(grid_1d, rng.uniform(0.0, 1.0, size=grid_1d.points))
        b = SampledField(grid_1d, rng.uniform(0.0, 1.0, size=grid_1d.points))
        both = SampledField(grid_1d, a.values + b.values)
        lhs = self._maximal(both, config)
        rhs = self._maximal(a, config) + self._maximal(b, config)
        assert np.all(lhs <= rhs + 1e-12)

    def test_homogeneity(self, grid_1d, rng):
        config = self._config(grid_1d)
        u = SampledField(grid_1d, rng.uniform(0.0, 1.0, size=grid_1d.points))
        scaled = SampledField(grid_1d, 4.0 * u.values)
        np.testing.assert_allclose(self._maximal(scaled, config),
                                   4.0 * self._maximal(u, config),
                                   rtol=1e-13, atol=1e-15)

    def test_monotone_in_delta(self, grid_1d, rng):
        u = SampledField(grid_1d, rng.uniform(0.0, 1.0, size=grid_1d.points))
        configs = ladder_configs((0.1, 0.2, 0.4), grid_1d.spacing[0])
        stack = _whole(u, configs)
        for rung, config in enumerate(configs):
            if rung:
                assert np.all(stack[rung] >= stack[rung - 1])
            np.testing.assert_array_equal(stack[rung], self._maximal(u, config))

    def test_all_radii_below_spacing_rejected(self, grid_1d):
        u = SampledField(grid_1d, np.ones(grid_1d.points))
        config = MaximalConfig(delta=0.001, radii=(0.0005, 0.001))
        with pytest.raises(ConfigError):
            self._maximal(u, config)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_rungs_are_maxima_of_their_ball_averages_on_their_boxes(self, grid, rng):
        u = SampledField(grid, rng.uniform(0.0, 2.0, size=grid.points))
        sp = max(grid.spacing)
        configs = ladder_configs((2.2 * sp, 3.5 * sp, 5.0 * sp), sp)
        boxes = [tuple(slice(k, n - 2 * k) for n in grid.points) for k in range(len(configs))]
        stack = local_maximal_function(u, configs, boxes)
        for rung, box, config in zip(stack, boxes, configs):
            best = functools.reduce(np.maximum, [_ball_average(u, r) for r in config.radii])
            assert np.array_equal(rung[box], best[box])
            outside = np.ones(grid.points, dtype=bool)
            outside[box] = False
            assert np.all(np.isnan(rung[outside]))

    def test_rejects_rungs_that_do_not_nest(self, grid_1d):
        u = SampledField(grid_1d, np.ones(grid_1d.points))
        configs = ladder_configs((0.1, 0.2, 0.4), grid_1d.spacing[0])
        with pytest.raises(ConfigError):
            _whole(u, configs[::-1])
        skipped = MaximalConfig(0.4, configs[0].radii[:-1] + configs[-1].radii[-1:])
        with pytest.raises(ConfigError):
            _whole(u, [configs[0], skipped])

    def test_rejects_boxes_that_do_not_nest(self, grid_1d):
        u = SampledField(grid_1d, np.ones(grid_1d.points))
        configs = ladder_configs((0.1, 0.2), grid_1d.spacing[0])
        with pytest.raises(ConfigError):
            local_maximal_function(u, configs, [(slice(5, 50),), (slice(4, 60),)])


class TestLadderConfigs:
    def test_radii_are_nested(self, grid_1d):
        configs = ladder_configs((0.1, 0.2, 0.4), grid_1d.spacing[0])
        sets = [set(c.radii) for c in configs]
        for small, big in zip(sets, sets[1:]):
            assert small <= big

    def test_radii_respect_delta(self, grid_1d):
        for config in ladder_configs((0.1, 0.2, 0.4), grid_1d.spacing[0]):
            assert max(config.radii) <= config.delta * (1 + 1e-12)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MaximalConfig(delta=0.1, radii=(0.05, 0.02))  # not increasing
        with pytest.raises(ConfigError):
            MaximalConfig(delta=0.1, radii=(0.05, 0.2))  # beyond delta
        with pytest.raises(ConfigError):
            MaximalConfig(delta=0.1, radii=(0.05,), boundary="wrap")


class TestOneRungCoefficient:
    """The coefficient C(n) * M^delta(|grad f|) of a one-rung ladder."""

    def test_linear_field_gives_constant(self, grid_1d):
        f = parse_field("poly:3*x0")
        config = MaximalConfig(delta=0.3, radii=default_radii(0.3, grid_1d.spacing[0]))
        a = _CoefficientLadder(f, grid_1d, 1, [config]).stack[0]
        want = segment_ratio_constant(1) * 3.0
        np.testing.assert_allclose(a, want, rtol=1e-13, atol=0)

    def test_gaussian_field_is_positive_and_bounded(self, grid_2d):
        f = GaussianField(1.0, dim=2)
        config = MaximalConfig(delta=0.3, radii=default_radii(0.3, grid_2d.spacing[0]))
        a = _CoefficientLadder(f, grid_2d, 1, [config]).stack[0]
        grad_max = np.sqrt(2 / math.e) * np.sqrt(2)  # coarse bound on |grad|
        assert np.all(a > 0)
        assert np.all(a <= segment_ratio_constant(2) * grad_max + 1e-12)
