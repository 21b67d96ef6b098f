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
    ball_volume,
    gradient_magnitude_field,
    ladder_config,
    lens_volume,
    local_maximal_function,
    main_inequality_scan,
    parse_field,
    sample,
    segment_ratio_constant,
)
from grid_reference import grid_nodes
from lens_reference import betainc_volume, cap_profile_volume
from sobolev_pointwise import maximal
from sobolev_pointwise.maximal import (
    _RADIUS_SLACK,
    _ball_counts,
    _ball_offsets,
    _box_groups,
    _node_boxes,
)
from sobolev_pointwise.verify import _coefficient_stack, _rung_config


def _whole(shape):
    """The node box of the whole grid."""
    return tuple(slice(0, n) for n in shape)


def ball_averages(u, radii, boxes=None):
    """Per-radius ball averages of u, each on its node box in `boxes` (the
    whole grid by default), drained from the ladder kernel `_box_groups`."""
    radii = [float(r) for r in radii]
    if boxes is None:
        boxes = [_whole(u.values.shape)] * len(radii)
    averages = {}
    for _ in _box_groups(u, radii, boxes, averages):
        pass
    return [averages[i] for i in range(len(radii))]


def _pad_cells(spacings, radius):
    return [int(math.floor(radius * _RADIUS_SLACK / sp)) for sp in spacings]


def _cumsum_ball_sums(u, radius, widths_first=False):
    """Ball sums added run by run in `_ball_offsets` order, or with
    `widths_first` in the order `_box_groups` adds them (widths
    ascending, then `_ball_offsets` order), and node counts from
    cumulative sums of a padded field of ones."""
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
    offsets = _ball_offsets(spacings, radius)
    for q, width in sorted(offsets, key=lambda o: o[1]) if widths_first else offsets:
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


def _brute_ball_average(u, radius):
    """Counting-measure ball average by direct enumeration."""
    grid = u.grid
    pts = grid_nodes(grid)
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

    def test_negative_dimension_raises(self):
        with pytest.raises(ValueError, match="dimension must be nonnegative"):
            ball_volume(-1, 1.0)


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

    @pytest.mark.parametrize("dim, radius, distance, message", [
        (0, 1.0, 0.5, "dimension must be at least 1"),
        (2, 0.0, 0.5, "radius must be positive"),
        (2, 1.0, -0.5, "center distance must be nonnegative"),
    ])
    def test_out_of_range_input_raises(self, dim, radius, distance, message):
        with pytest.raises(ValueError, match=message):
            lens_volume(dim, radius, distance)

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
        # _box_groups lays every ball's counts out at the ladder's
        # largest padding; exact integers either way
        u = SampledField(grid, rng.uniform(0.0, 2.0, size=grid.points))
        radii = np.geomspace(min(grid.spacing), 0.9, 7)
        for radius in radii:
            _, counts = _cumsum_ball_sums(u, radius)
            offsets = _ball_offsets(grid.spacing, radius)
            for pad in (_pad_cells(grid.spacing, radius), _pad_cells(grid.spacing, radii[-1])):
                np.testing.assert_array_equal(
                    _ball_counts(grid.points, pad, offsets, _whole(grid.points)), counts)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_boxed_counts_are_the_whole_grid_counts_sliced(self, grid, rng):
        radii = np.geomspace(min(grid.spacing), 0.9, 7)
        pad = _pad_cells(grid.spacing, radii[-1])
        for radius in radii:
            offsets = _ball_offsets(grid.spacing, radius)
            whole = _ball_counts(grid.points, pad, offsets, _whole(grid.points))
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

    def test_scan3d_ladder_counts_no_clipped_ball(self, monkeypatch):
        # under "reject" each rung's box is its delta inside the walls, so
        # every ball of the 41^3 main-scan ladder stays inside the grid
        grid = GridSpec.cube(-1.0, 1.0, 41, 3)
        sampler = PairSampler(Domain(Box.of_grid(grid)), 5000, 1, 0.05, 0.4)

        def refuse(*args):
            raise AssertionError("_ball_counts called")

        monkeypatch.setattr(maximal, "_ball_counts", refuse)
        f = parse_field("sin:w=2,1.5,1", dim=3)
        config = _rung_config(sampler, grid, None)
        stack = _coefficient_stack(f, grid, 2, config, sampler.domain.outer)
        assert len(config.deltas) == 4
        top_box = _node_boxes(grid, sampler.domain.outer, config.margins)[-1]
        assert np.isfinite(stack[-1][top_box]).all()

    @pytest.mark.parametrize("grid", [GridSpec.cube(-1.0, 1.0, 31, 2),
                                      GridSpec((-1.0, -0.5), (1.0, 1.5), (25, 31)),
                                      GridSpec.cube(-1.0, 1.0, 21, 3),
                                      GridSpec((-1.0, -0.5, 0.0), (1.0, 1.0, 0.7), (17, 13, 15))])
    def test_interior_and_clipped_balls_on_several_boxes(self, grid, monkeypatch, rng):
        u = SampledField(grid, rng.uniform(0.0, 2.0, size=grid.points))
        sp = max(grid.spacing)
        radii = [float(r) for r in np.geomspace(1.2 * sp, 4.5 * sp, 8)]
        # the first radii sit well inside the grid, the last ones reach the walls
        boxes = [tuple(slice(k, n - k) for n in grid.points) for k in (6, 6, 5, 5, 4, 2, 1, 0)]
        counted = []
        real = maximal._ball_counts
        monkeypatch.setattr(maximal, "_ball_counts",
                            lambda *args: counted.append(args[2]) or real(*args))
        whole = ball_averages(u, radii)
        counted.clear()
        boxed = ball_averages(u, radii, boxes)
        balls = {tuple(_ball_offsets(grid.spacing, r)) for r in radii}
        assert len({tuple((s.start, s.stop) for s in box) for box in boxes}) >= 4
        assert 0 < len(counted) < len(balls)
        for avg, full, box in zip(boxed, whole, boxes):
            assert np.array_equal(avg, full[box])

    def test_radii_sharing_a_lattice_ball_share_the_average(self, rng):
        grid = GridSpec.cube(-1.0, 1.0, 21, 2)
        u = SampledField(grid, rng.uniform(0.0, 2.0, size=grid.points))
        # 1.0 and 1.2 cells hold the same nodes; 1.5 cells adds the diagonals
        same, other = 1.2 * grid.spacing[0], 1.5 * grid.spacing[0]
        assert _ball_offsets(grid.spacing, 0.1) == _ball_offsets(grid.spacing, same)
        a, b, c = ball_averages(u, (0.1, same, other))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_peak_memory_is_one_array_per_ball_plus_a_few(self, rng):
        grid = GridSpec.cube(-1.0, 1.0, 201, 2)
        sampler = PairSampler(Domain(Box.of_grid(grid)), 1, 0, 0.05, 0.4)
        radii = _rung_config(sampler, grid, None).radii
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

    def test_scan3d_ladder_peak_memory(self):
        # the stack, the cumulative sum, the largest group's sums in its
        # layout, one run buffer and a few field-sized arrays
        grid = GridSpec.cube(-1.0, 1.0, 41, 3)
        sampler = PairSampler(Domain(Box.of_grid(grid)), 5000, 1, 0.05, 0.4)
        config = _rung_config(sampler, grid, None)
        u = gradient_magnitude_field(parse_field("sin:w=2,1.5,1", dim=3), grid, 2)
        outer = sampler.domain.outer
        boxes = _node_boxes(grid, outer, config.margins)
        # the call below finds this plan in the cache
        plan = maximal._ladder_plan(grid.points, grid.spacing, config.radii, maximal._box_key(
            [boxes[sum(n <= i for n in config.sizes)] for i in range(len(config.radii))]))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            local_maximal_function(u, config, outer)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        field = u.values.nbytes
        bound = (len(config.deltas) * field + math.prod(plan.csum_shape) * 8
                 + max(len(g.members) * math.prod(g.layout) for g in plan.groups) * 8
                 + plan.run_size * 8 + 3 * field)
        assert peak < bound


class TestLadderPlan:
    def test_two_same_shape_grids_and_two_box_lists_in_one_process(self, rng):
        # a plan found by shape, radii and boxes alone would hand the
        # third grid the first grid's balls
        shape = (7, 9, 11)
        grids = [GridSpec((-1.0, -0.5, 0.0), (1.0, 1.0, 0.7), shape),
                 GridSpec((-0.75, -0.25, 0.5), (1.25, 1.25, 1.2), shape),
                 GridSpec((-1.0, -0.5, 0.0), (0.5, 1.5, 1.2), shape)]
        radii = (0.27, 0.43, 0.71)
        boxes = [[(slice(1, 6), slice(2, 8), slice(0, 11))] * 3,
                 [(slice(0, 7), slice(0, 9), slice(3, 9)), (slice(2, 5), slice(1, 8), slice(4, 6)),
                  (slice(0, 7), slice(4, 9), slice(0, 1))]]
        for grid in grids:
            u = SampledField(grid, rng.uniform(0.0, 2.0, size=grid.points))
            expected = []
            for radius in radii:
                sums, _ = _cumsum_ball_sums(u, radius, widths_first=True)
                expected.append(sums / _ball_counts(
                    shape, _pad_cells(grid.spacing, radius), _ball_offsets(grid.spacing, radius),
                    _whole(shape)))
            for avg, want in zip(ball_averages(u, radii), expected):
                assert np.array_equal(avg, want)
            for each in boxes:
                for avg, want, box in zip(ball_averages(u, radii, each), expected, each):
                    assert np.array_equal(avg, want[box])

    def test_a_scans_ladders_share_one_plan(self, rng):
        grid = GridSpec.cube(-1.0, 1.0, 21, 3)
        sampler = PairSampler(Domain(Box.of_grid(grid)), 1, 0, 0.1, 0.4)
        config = _rung_config(sampler, grid, None)
        fields = [SampledField(grid, rng.uniform(0.0, 2.0, size=grid.points)) for _ in range(3)]
        local_maximal_function(fields[0], config, sampler.domain.outer)
        before = maximal._ladder_plan.cache_info()
        for u in fields[1:]:
            local_maximal_function(u, config, sampler.domain.outer)
        after = maximal._ladder_plan.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)


class TestMaximalFunction:
    def _config(self, grid, delta=0.3):
        return ladder_config((delta,), grid.spacing[0])

    def _maximal(self, u, config):
        return local_maximal_function(u, config)[0]

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
        config = ladder_config((0.1, 0.2, 0.4), grid_1d.spacing[0])
        stack = local_maximal_function(u, config)
        for rung, (delta, size) in enumerate(zip(config.deltas, config.sizes)):
            if rung:
                assert np.all(stack[rung] >= stack[rung - 1])
            one_rung = MaximalConfig((delta,), config.radii[:size])
            np.testing.assert_array_equal(stack[rung], self._maximal(u, one_rung))

    def test_all_radii_below_spacing_rejected(self, grid_1d):
        u = SampledField(grid_1d, np.ones(grid_1d.points))
        config = MaximalConfig((0.001,), (0.0005, 0.001))
        with pytest.raises(ConfigError):
            self._maximal(u, config)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_rungs_are_maxima_of_their_ball_averages_on_their_boxes(self, grid, rng):
        u = SampledField(grid, rng.uniform(0.0, 2.0, size=grid.points))
        sp = max(grid.spacing)
        config = ladder_config((2.2 * sp, 3.5 * sp, 5.0 * sp), sp)
        # an outer box off the grid's walls by a cell on one side
        outer = Box(np.add(grid.lo, grid.spacing), grid.hi)
        boxes = _node_boxes(grid, outer, config.margins)
        stack = local_maximal_function(u, config, outer)
        for rung, box, size in zip(stack, boxes, config.sizes):
            best = functools.reduce(np.maximum, [_ball_average(u, r) for r in config.radii[:size]])
            assert np.array_equal(rung[box], best[box])
            outside = np.ones(grid.points, dtype=bool)
            outside[box] = False
            assert np.all(np.isnan(rung[outside]))


class TestLadderConfigs:
    def test_radii_are_nested(self, grid_1d):
        config = ladder_config((0.1, 0.2, 0.4), grid_1d.spacing[0])
        sets = [set(config.radii[:size]) for size in config.sizes]
        for small, big in zip(sets, sets[1:]):
            assert small <= big

    def test_radii_respect_delta(self, grid_1d):
        config = ladder_config((0.1, 0.2, 0.4), grid_1d.spacing[0])
        for delta, size in zip(config.deltas, config.sizes):
            assert max(config.radii[:size]) <= delta * (1 + 1e-12)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MaximalConfig((0.1,), (0.05, 0.02))  # not increasing
        with pytest.raises(ConfigError):
            MaximalConfig((0.1,), (0.05, 0.2))  # beyond delta
        with pytest.raises(ConfigError):
            MaximalConfig((0.1,), (0.05,), boundary="wrap")

    @pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, -0.1])
    def test_delta_must_be_finite_and_positive(self, delta):
        with pytest.raises(ConfigError, match="delta"):
            MaximalConfig((delta,), (0.05,))
        with pytest.raises(ConfigError, match="delta"):
            ladder_config((delta,), 0.01)


class TestMaximalConfig:
    """One `MaximalConfig` is the whole ladder: it checks itself once."""

    @pytest.mark.parametrize("deltas, radii", [
        ((0.2, 0.1), (0.05,)),  # deltas decrease
        ((0.1, 0.1), (0.05,)),  # deltas repeat
        ((0.1,), (0.05, 0.05)),  # radii repeat
        ((0.1,), (0.08, 0.05)),  # radii decrease
    ])
    def test_refuses_ladders_that_do_not_increase_strictly(self, deltas, radii):
        with pytest.raises(ConfigError, match="increase strictly"):
            MaximalConfig(deltas, radii)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_refuses_a_nonfinite_delta(self, bad):
        with pytest.raises(ConfigError, match="delta"):
            MaximalConfig((0.1, bad), (0.05,))
        with pytest.raises(ConfigError, match="delta"):
            MaximalConfig((bad,), (0.05,))

    @pytest.mark.parametrize("radii", [(), (math.nan,), (0.05, math.inf), (0.0, 0.05)])
    def test_refuses_missing_or_nonfinite_radii(self, radii):
        with pytest.raises(ConfigError, match="radii"):
            MaximalConfig((0.1,), radii)

    def test_refuses_a_rung_with_no_radius(self):
        with pytest.raises(ConfigError, match="first rung holds no radius"):
            MaximalConfig((0.1, 0.3), (0.2, 0.3))

    def test_refuses_a_radius_above_the_top_delta(self):
        with pytest.raises(ConfigError, match="top delta"):
            MaximalConfig((0.1, 0.3), (0.05, 0.2, 0.31))

    def test_refuses_an_unknown_boundary(self):
        with pytest.raises(ConfigError, match="boundary"):
            MaximalConfig((0.1,), (0.05,), "wrap")


class TestLadderRecipe:
    """`ladder_config` is the one recipe: the default scan ladders and the
    one-rung ladders of `--delta` and `quasinorm_upper` all come from it."""

    def test_one_rung_has_twelve_geometric_radii_up_to_its_delta(self):
        config = ladder_config((0.5,), 0.0125)
        assert config.deltas == (0.5,)
        assert config.radii == tuple(np.geomspace(0.025, 0.5, 12))

    def test_refuses_a_delta_below_twice_the_spacing(self):
        assert ladder_config((0.02,), 0.01).radii == (0.02,)
        with pytest.raises(ConfigError, match="below twice the grid spacing .*refine the grid"):
            ladder_config((0.015, 0.3), 0.01)

    def test_a_default_scan_refuses_max_sep_below_twice_the_spacing(self):
        grid = GridSpec.cube(-1.0, 1.0, 11, 1)
        sampler = PairSampler(Domain(Box.of_grid(grid)), 10, 0, 0.05, 0.3)
        with pytest.raises(ConfigError, match="delta 0.3 is below twice the grid spacing"):
            main_inequality_scan(parse_field("sin:w=2"), 1, grid, sampler)

    def test_default_deltas_start_at_twice_the_spacing_above_min_sep(self):
        grid = GridSpec.cube(-1.0, 1.0, 41, 3)
        sampler = PairSampler(Domain(Box.of_grid(grid)), 1, 0, 0.05, 0.4)
        config = _rung_config(sampler, grid, None)
        assert config.deltas == tuple(np.geomspace(0.1, 0.4, 4))
        assert config == ladder_config(config.deltas, 0.05)

    def test_a_bottom_rung_at_min_sep_is_dropped_and_its_radius_kept(self):
        grid = GridSpec.cube(-1.0, 1.0, 2001, 1)
        sampler = PairSampler(Domain(Box.of_grid(grid)), 1, 0, 0.05, 0.4)
        config = _rung_config(sampler, grid, None)
        full = ladder_config(np.geomspace(0.05, 0.4, 4), grid.spacing[0])
        assert config.deltas == full.deltas[1:] == tuple(np.geomspace(0.05, 0.4, 4)[1:])
        assert config.radii == full.radii and 0.05 in config.radii

    def test_a_single_default_delta_is_kept(self):
        grid = GridSpec.cube(-1.0, 1.0, 201, 1)
        sampler = PairSampler(Domain(Box.of_grid(grid)), 1, 0, 0.3, 0.3)
        assert _rung_config(sampler, grid, None).deltas == (0.3,)

    def test_margins_are_the_deltas_under_reject_and_zero_under_clip(self):
        deltas, radii = (0.1, 0.2, 0.4), (0.05, 0.1, 0.3, 0.4)
        np.testing.assert_array_equal(MaximalConfig(deltas, radii).margins, deltas)
        np.testing.assert_array_equal(MaximalConfig(deltas, radii, "clip").margins, 0.0)

    def test_rungs_cut_the_radii_at_their_deltas(self):
        # a radius within the radius slack of a delta belongs to its rung
        config = MaximalConfig((0.1, 0.2, 0.4), (0.05, 0.1 * (1 + 1e-13), 0.15, 0.2, 0.4))
        assert config.sizes == [2, 4, 5]

    @pytest.mark.parametrize("grid", GRIDS)
    def test_rung_k_is_the_maximum_of_the_averages_up_to_deltas_k(self, grid, rng):
        u = SampledField(grid, rng.uniform(0.0, 2.0, size=grid.points))
        sp = max(grid.spacing)
        config = ladder_config((2.0 * sp, 2.9 * sp, 4.1 * sp), sp)
        stack = local_maximal_function(u, config)
        for rung, delta in zip(stack, config.deltas):
            held = [r for r in config.radii if r <= delta * (1 + 1e-12)]
            assert held
            best = functools.reduce(np.maximum, [_ball_average(u, r) for r in held])
            assert np.array_equal(rung, best)


class TestOneRungCoefficient:
    """The coefficient C(n) * M^delta(|grad f|) of a one-rung ladder."""

    def test_linear_field_gives_constant(self, grid_1d):
        f = parse_field("poly:3*x0")
        config = ladder_config((0.3,), grid_1d.spacing[0])
        a = _coefficient_stack(f, grid_1d, 1, config)[0]
        want = segment_ratio_constant(1) * 3.0
        np.testing.assert_allclose(a, want, rtol=1e-13, atol=0)

    def test_gaussian_field_is_positive_and_bounded(self, grid_2d):
        f = GaussianField(1.0, dim=2)
        config = ladder_config((0.3,), grid_2d.spacing[0])
        a = _coefficient_stack(f, grid_2d, 1, config)[0]
        grad_max = np.sqrt(2 / math.e) * np.sqrt(2)  # coarse bound on |grad|
        assert np.all(a > 0)
        assert np.all(a <= segment_ratio_constant(2) * grad_max + 1e-12)
