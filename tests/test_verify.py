"""Pair sampling, report assembly, and the inequality scan drivers."""

import functools
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import rhs_reference
import sampler_reference as ref
from sobolev_pointwise import (
    Box,
    ConfigError,
    Domain,
    EmptyScanError,
    GaussianField,
    GridSpec,
    MaximalConfig,
    PairSampler,
    PowerField,
    SampledField,
    SinusoidField,
    UnsupportedOrderError,
    all_node_coefficient,
    ball_averages,
    build_report,
    gradient_magnitude_field,
    hatl_scan,
    identity_suite,
    lemma1_scan,
    main_inequality_scan,
    mollified_scan,
    node_discard_check,
    parse_field,
    quasinorm_upper,
    sample,
    segment_ratio_constant,
    triebel_scan,
)
from sobolev_pointwise.maximal import _node_boxes
from sobolev_pointwise.verify import (
    _SAMPLE_BATCH,
    PairBatch,
    _CoefficientLadder,
    _piece,
    _row_norm,
    _rung_config,
    _step,
)

SCHEMA_FILE = Path(__file__).resolve().parent.parent / "docs" / "report_schema.json"


def _domain(grid):
    return Domain(Box.of_grid(grid))


class TestDomain:
    def test_box_membership(self, grid_2d):
        d = _domain(grid_2d)
        pts = np.array([[0.0, 0.0], [1.2, 0.0], [-1.0, 1.0]])
        np.testing.assert_array_equal(d.contains(pts), [True, False, True])

    def test_margin_shrinks_the_box(self, grid_2d):
        d = _domain(grid_2d)
        pts = np.array([[0.95, 0.0]])
        assert d.contains(pts)[0]
        assert not d.contains(pts, margin=0.1)[0]

    @pytest.mark.parametrize("lo, hi", [((math.nan, -0.2), (0.2, 0.2)),
                                        ((-0.2, -0.2), (0.2, math.inf)),
                                        ((-math.inf, -0.2), (0.2, 0.2))])
    def test_box_rejects_nonfinite_bounds(self, lo, hi):
        # a NaN bound fails no comparison, so a NaN hole would hold no point
        with pytest.raises(ConfigError, match="finite"):
            Box(lo, hi)

    def test_hole_is_excluded_and_dilated_by_margin(self, grid_2d):
        d = Domain(Box.of_grid(grid_2d), hole=Box((-0.2, -0.2), (0.2, 0.2)))
        pts = np.array([[0.0, 0.0], [0.25, 0.0], [0.5, 0.5]])
        np.testing.assert_array_equal(d.contains(pts), [False, True, True])
        assert not d.contains(pts, margin=0.1)[1]

    def test_to_dict_is_json_ready(self, grid_1d):
        json.dumps(_domain(grid_1d).to_dict())

    @pytest.mark.parametrize("hole", [None, Box((-0.2, -0.2), (0.2, 0.3))])
    def test_a_grid_is_the_outer_box_of_its_domain(self, grid_2d, hole):
        from sobolev_pointwise import verify

        assert verify.Box is Box
        boxed, gridded = Domain(Box.of_grid(grid_2d), hole), Domain(grid_2d, hole)
        assert gridded.to_dict() == boxed.to_dict()
        a, b = (PairSampler(d, 300, 5, 0.05, 0.5).draw((0.2, 0.5), (0.2, 0.5))
                for d in (boxed, gridded))
        assert a.attempts == b.attempts
        for u, v in ((a.x, b.x), (a.y, b.y), (a.dist, b.dist)):
            assert np.array_equal(u, v)

    def test_hole_must_sit_inside_the_outer_box(self, grid_2d):
        Domain(grid_2d, Box(grid_2d.lo, grid_2d.hi))
        with pytest.raises(ConfigError, match="inside the outer box"):
            Domain(grid_2d, Box((-0.2, -0.2), (0.2, np.nextafter(1.0, 2.0))))
        with pytest.raises(ConfigError, match="dimension"):
            Domain(grid_2d, Box((-0.2,), (0.2,)))

    @pytest.mark.parametrize("hole", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_points_must_have_one_column_per_axis(self, dim, hole):
        domain = _cube_domain(dim, hole)
        point = np.full(dim, 0.5)
        assert domain.contains(point).tolist() == [True]
        assert domain.contains(np.tile(point, (3, 1)), 0.1).tolist() == [True] * 3
        assert domain.contains_segments(point, -point).tolist() == [not hole]
        for k in {1, dim + 1} - {dim}:
            pts = np.zeros((3, k))
            with pytest.raises(ValueError, match=f"shape \\(N, {dim}\\)"):
                domain.contains(pts)
            with pytest.raises(ValueError, match=f"shape \\(N, {dim}\\)"):
                domain.contains(pts, np.zeros(3))
            for x, y in ((pts, np.zeros((3, dim))), (np.zeros((3, dim)), pts), (pts, pts)):
                with pytest.raises(ValueError, match=f"shape \\(N, {dim}\\)"):
                    domain.contains_segments(x, y)
        with pytest.raises(ValueError):
            domain.contains(np.zeros((2, 3, dim)))


class TestPairSampler:
    def test_deterministic_for_fixed_seed(self, grid_2d):
        a = PairSampler(_domain(grid_2d), 64, 7, 0.05, 0.4).draw()
        b = PairSampler(_domain(grid_2d), 64, 7, 0.05, 0.4).draw()
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_seed_changes_pairs(self, grid_2d):
        a = PairSampler(_domain(grid_2d), 64, 7, 0.05, 0.4).draw()
        b = PairSampler(_domain(grid_2d), 64, 8, 0.05, 0.4).draw()
        assert not np.array_equal(a.x, b.x)

    def test_separation_bounds(self, grid_2d):
        batch = PairSampler(_domain(grid_2d), 256, 3, 0.1, 0.3).draw()
        dist = np.linalg.norm(batch.y - batch.x, axis=1)
        assert np.all(dist >= 0.1) and np.all(dist <= 0.3)
        np.testing.assert_allclose(dist, batch.dist, rtol=0, atol=0)

    def test_points_respect_the_margin(self, grid_2d):
        sampler = PairSampler(_domain(grid_2d), 128, 5, 0.05, 0.3)
        batch = sampler.draw([0.3], [0.25])
        for pts in (batch.x, batch.y):
            assert np.all(np.abs(pts) <= 1.0 - 0.25 + 1e-12)

    def test_a_piece_without_room_draws_nothing(self, grid_2d):
        # separations above 0.2 need a margin of 1 on a side of 2
        batch = PairSampler(_domain(grid_2d), 500, 5, 0.05, 0.4).draw([0.2, 0.4], [0.1, 1.0])
        assert np.all(batch.dist <= 0.2)
        assert np.all(np.abs(np.concatenate([batch.x, batch.y])) <= 0.9)

    @pytest.mark.parametrize("count, min_sep, max_sep, ends, margins", [
        (10, 0.05, 0.4, [0.2, 0.4], [1.0, 1.5]),  # every shrunk box is empty
        (300_000, 3.0, 4.0, [math.inf], [0.0]),  # the band is beyond the diagonal
    ])
    def test_no_room_at_any_separation_raises_before_drawing(
            self, grid_2d, count, min_sep, max_sep, ends, margins):
        sampler = PairSampler(_domain(grid_2d), count, 0, min_sep, max_sep)
        with pytest.raises(EmptyScanError, match="no separation"):
            sampler.draw(ends, margins)

    def test_one_point_band(self, grid_2d):
        batch = PairSampler(_domain(grid_2d), 200, 2, 0.2, 0.2).draw([0.1, 0.3], [0.1, 0.3])
        assert np.all(batch.dist == 0.2)
        assert np.all(np.abs(np.concatenate([batch.x, batch.y])) <= 0.7)

    @pytest.mark.parametrize("ends, margins", [
        ([], []), ([0.4], [0.1, 0.2]), ([0.3, 0.2], [0.1, 0.2]), ([0.4], [-0.1])])
    def test_malformed_margin_steps_are_rejected(self, grid_2d, ends, margins):
        with pytest.raises(ConfigError):
            PairSampler(_domain(grid_2d), 10, 0, 0.05, 0.4).draw(ends, margins)

    def test_negative_seed_is_rejected(self, grid_1d):
        with pytest.raises(ConfigError):
            PairSampler(_domain(grid_1d), 16, -1, 0.05, 0.4)

    @pytest.mark.parametrize("count, seed", [
        (100.5, 0), (16, 1.5), (16, math.nan), (math.inf, 0), (True, 0), (16, False), ("16", 0)],
        ids=["float count", "float seed", "nan seed", "inf count", "bool count", "bool seed",
             "str count"])
    def test_a_count_or_seed_that_is_not_an_integer_is_rejected(self, grid_1d, count, seed):
        # once these built a sampler whose draw failed with a numpy TypeError
        with pytest.raises(ConfigError, match="must be an integer"):
            PairSampler(_domain(grid_1d), count, seed, 0.05, 0.4)

    def test_an_integral_float_count_and_seed_are_taken_as_integers(self, grid_1d):
        sampler = PairSampler(_domain(grid_1d), 16.0, np.int64(3), 0.05, 0.4)
        assert (type(sampler.count), type(sampler.seed)) == (int, int)
        assert np.array_equal(sampler.draw().x, PairSampler(_domain(grid_1d), 16, 3, 0.05, 0.4).draw().x)

    @pytest.mark.parametrize("min_sep, max_sep", [
        (0.05, math.inf), (math.nan, 0.4), (0.05, math.nan), (0.0, 0.4), (0.4, 0.05)])
    def test_separations_must_be_finite_and_ordered(self, grid_1d, min_sep, max_sep):
        with pytest.raises(ConfigError):
            PairSampler(_domain(grid_1d), 16, 0, min_sep, max_sep)

    def test_infeasible_request_raises(self, grid_1d):
        sampler = PairSampler(_domain(grid_1d), 16, 0, 3.0, 4.0)
        with pytest.raises(EmptyScanError):
            sampler.draw()

    def test_large_request_that_keeps_nothing_stops_early(self):
        # the box shrunk by 0.1 lies inside the hole dilated by 0.1, which no
        # piece weight sees: the draw stops once 64 pairs fewer than 0.01%
        # of its proposals are kept, not at a budget that grows with count
        grid = GridSpec.cube(-1.0, 1.0, 21, 2)
        domain = Domain(Box.of_grid(grid), hole=Box((-0.9, -0.9), (0.9, 0.9)))
        sampler = PairSampler(domain, 300_000, 0, 0.05, 0.4)
        with pytest.raises(EmptyScanError, match="only 0 of 300000 .* in 647168 attempts"):
            sampler.draw([math.inf], [0.1])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_hole_avoidance_property(self, seed):
        grid = GridSpec.cube(-1.0, 1.0, 51, 2)
        domain = Domain(Box.of_grid(grid), hole=Box((-0.3, -0.3), (0.3, 0.3)))
        batch = PairSampler(domain, 32, seed, 0.05, 0.3).draw()
        for t in np.linspace(0.0, 1.0, 257):
            pts = batch.x + t * (batch.y - batch.x)
            inside_hole = np.all(np.abs(pts) < 0.3, axis=1)
            assert not inside_hole.any()

    def test_three_dimensional_request_beyond_old_budget(self):
        # 30k pairs at the ladder's margins took more than the 1M attempts
        # that uniform-endpoint proposals were allowed
        grid = GridSpec.cube(-1.0, 1.0, 41, 3)
        f = SinusoidField((2.0, 1.5, 3.0))
        report = main_inequality_scan(f, 2, grid, PairSampler(_domain(grid), 30_000, 1,
                                                               0.05, 0.4))
        assert report.n_pairs == 30_000
        assert report.passed
        assert report.n_nonfinite == 0


class TestProposalEfficiency:
    """The proposal knows the rung margins: at most 1.7 proposals per kept
    pair on a 41^3 scan and 1.3 on a 2001-node 1-D scan (6.55 and 1.72
    with x uniform in the whole box; `attempts` counts the proposals up
    to the one that gave the last kept pair)."""

    @pytest.mark.parametrize("dim, points, pairs, limit",
                             [(3, 41, 5000, 1.7), (1, 2001, 100_000, 1.3)])
    def test_proposals_per_kept_pair(self, dim, points, pairs, limit):
        grid = GridSpec.cube(-1.0, 1.0, points, dim)
        sampler = PairSampler(_domain(grid), pairs, 1, 0.05, 0.4)
        report = main_inequality_scan(SinusoidField((2.0, 1.5, 1.0)[:dim]), 2, grid, sampler)
        assert report.n_pairs == pairs
        assert report.params["attempts"] / report.n_pairs <= limit


_LADDER = [0.1, 0.16, 0.25, 0.4]


def _cube_domain(dim, hole):
    return Domain(Box((-1.0,) * dim, (1.0,) * dim),
                  Box((-0.3,) * dim, (0.2,) * dim) if hole else None)


class _ZeroGaussianRows:
    """A generator whose standard normals are 0 in every `every`-th row."""

    def __init__(self, rng, every):
        self._rng = rng
        self._every = every

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_normal(self, size):
        u = self._rng.standard_normal(size)
        u[::self._every] = 0.0
        return u


class TestDrawAgainstReference:
    """`PairSampler.draw` against the three-filter loop it replaced
    (tests/sampler_reference.py): the same x, y and dist bytes, and
    `attempts` within the reference's last whole batch."""

    @staticmethod
    def _check(sampler, ends=(math.inf,), margins=(0.0,)):
        batch = sampler.draw(ends, margins)
        x, y, dist, attempts = ref.draw(sampler, ends, margins)
        assert batch.x.tobytes() == x.tobytes()
        assert batch.y.tobytes() == y.tobytes()
        assert batch.dist.tobytes() == dist.tobytes()
        assert attempts - _SAMPLE_BATCH < batch.attempts <= attempts
        return batch, attempts

    @pytest.mark.parametrize("hole", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 3, 7])
    def test_ladder_margins(self, dim, hole):
        sampler = PairSampler(_cube_domain(dim, hole), 3000, 5, 0.05, 0.4)
        self._check(sampler, _LADDER, _LADDER)

    @pytest.mark.parametrize("hole", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 3, 7])
    def test_clip_margins_and_no_steps(self, dim, hole):
        sampler = PairSampler(_cube_domain(dim, hole), 3000, 6, 0.05, 0.4)
        self._check(sampler, _LADDER, [0.0] * 4)
        self._check(sampler)

    @pytest.mark.parametrize("dim, hole", [(1, False), (2, True), (3, False)])
    def test_mollified_extra_margin(self, dim, hole):
        sampler = PairSampler(_cube_domain(dim, hole), 3000, 7, 0.05, 0.4)
        self._check(sampler, _LADDER, [m + 0.1 for m in _LADDER])

    @pytest.mark.parametrize("hole", [False, True])
    def test_one_point_band(self, hole):
        sampler = PairSampler(_cube_domain(2, hole), 500, 2, 0.2, 0.2)
        self._check(sampler, [0.1, 0.3], [0.1, 0.3])

    @pytest.mark.parametrize("hole", [False, True])
    def test_a_piece_without_room(self, hole):
        # separations above 0.2 need a margin of 1 on a side of 2
        sampler = PairSampler(_cube_domain(2, hole), 2000, 5, 0.05, 0.4)
        self._check(sampler, [0.2, 0.4], [0.1, 1.0])

    @pytest.mark.parametrize("dim, hole, count", [(1, False, 17_000), (2, True, 5000)])
    def test_count_spans_two_batches_and_part_of_a_third(self, dim, hole, count):
        sampler = PairSampler(_cube_domain(dim, hole), count, 3, 0.05, 0.4)
        batch, attempts = self._check(sampler, _LADDER, _LADDER)
        assert attempts == 3 * _SAMPLE_BATCH
        assert batch.attempts < attempts

    def test_attempts_count_proposals_up_to_the_last_kept_pair(self):
        # the draws of 1..40 pairs share their prefix, so the proposal that
        # gave the k-th pair is the last one the k-pair draw counts
        domain = _cube_domain(2, True)
        batches = [PairSampler(domain, k, 4, 0.05, 0.4).draw(_LADDER, _LADDER)
                   for k in range(1, 41)]
        counts = [b.attempts for b in batches]
        assert counts[0] >= 1
        assert all(a < b for a, b in zip(counts, counts[1:]))
        assert counts[-1] < _SAMPLE_BATCH
        for shorter, longer in zip(batches, batches[1:]):
            assert shorter.x.tobytes() == longer.x[:-1].tobytes()

    def test_zero_gaussian_rows_are_never_kept(self, monkeypatch):
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: _ZeroGaussianRows(real(seed), 3))
        for dim, hole in [(1, False), (2, True), (3, False)]:
            sampler = PairSampler(_cube_domain(dim, hole), 12_000, 8, 0.05, 0.4)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                batch, _ = self._check(sampler, _LADDER, _LADDER)
            assert np.all(np.isfinite(batch.y))

    def test_all_zero_gaussians_keep_nothing(self, monkeypatch):
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: _ZeroGaussianRows(real(seed), 1))
        sampler = PairSampler(_cube_domain(1, False), 10, 0, 0.05, 0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyScanError, match="only 0 of 10 .* in 647168 attempts"):
                sampler.draw(_LADDER, _LADDER)

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_row_norm_is_numpy_norm(self, dim, rng):
        v = rng.standard_normal((5000, dim)) * rng.choice([0.0, 1e-160, 1.0, 1e150], (5000, 1))
        v[::7, 0] = 0.0
        assert _row_norm(v).tobytes() == np.linalg.norm(v, axis=1).tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 7])
    def test_domain_tests_match_the_reductions_on_walls(self, dim, rng):
        domain = _cube_domain(dim, True)
        lo, hi = np.asarray(domain.outer.lo), np.asarray(domain.outer.hi)
        hlo, hhi = np.asarray(domain.hole.lo), np.asarray(domain.hole.hi)
        n = 4000
        margin = rng.choice([0.0, 0.05, 0.1, 0.25], n)
        m = margin[:, None]
        # each coordinate on a wall, a shrunk or dilated wall, or anywhere
        walls = np.stack([np.broadcast_to(v, (n, dim)) for v in
                          (lo, hi, lo + m, hi - m, hlo, hhi, hlo - m, hhi + m)]
                         + [rng.uniform(-1.0, 1.0, (n, dim))])

        def pick():
            return np.take_along_axis(walls, rng.integers(0, len(walls), (1, n, dim)), 0)[0]

        pts, other = pick(), pick()
        # some segments stand still along some axes
        still = rng.random((n, dim)) < 0.3
        other[still] = pts[still]
        for d in (domain, _cube_domain(dim, False)):
            for mg in (margin, 0.1, 0.0):
                np.testing.assert_array_equal(d.contains(pts, mg), ref.contains(d, pts, mg))
            for a, b in ((pts, other), (other, pts)):
                np.testing.assert_array_equal(d.contains_segments(a, b),
                                              ref.contains_segments(d, a, b))


    def test_domain_tests_take_the_shapes_the_reductions_took(self):
        domain = _cube_domain(2, True)
        np.testing.assert_array_equal(domain.contains([0.5, 0.5]), [True])
        with pytest.raises(ValueError):
            domain.contains(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            domain.contains_segments(np.zeros((3, 3)), np.ones((3, 3)))

def _reference_pairs(domain, count, seed, min_sep, max_sep, margin_of):
    """Independent uniform endpoints in the outer box, kept by the
    sampler's tests, with the hole checked at 256 segment points."""
    rng = np.random.default_rng(seed)
    lo, hi = np.asarray(domain.outer.lo), np.asarray(domain.outer.hi)
    xs, ys = [], []
    found = 0
    while found < count:
        x = rng.uniform(lo, hi, size=(200_000, domain.dim))
        y = rng.uniform(lo, hi, size=(200_000, domain.dim))
        d = np.linalg.norm(y - x, axis=1)
        keep = (d >= min_sep) & (d <= max_sep)
        x, y, d = x[keep], y[keep], d[keep]
        margin = margin_of(d)
        keep = domain.contains(x, margin) & domain.contains(y, margin)
        for t in np.linspace(0.0, 1.0, 258)[1:-1]:
            keep &= domain.contains(x + t * (y - x), 0.0)
        xs.append(x[keep])
        ys.append(y[keep])
        found += int(keep.sum())
    return np.concatenate(xs)[:count], np.concatenate(ys)[:count]


class TestSamplerLaw:
    """The kept pairs against independent uniform endpoints kept by the
    same tests: KS on the separation and on each coordinate of x, y and
    the midpoint, and chi^2 on the rung occupancy.  Every margin shape the
    scans pass is covered: the rung deltas, the rung deltas plus
    `mollified_scan`'s kernel margin, and one `clip` rung with margin 0."""

    CASES = [(1, False, 0.0, "reject"), (2, False, 0.0, "reject"), (2, True, 0.0, "reject"),
             (3, False, 0.0, "reject"), (1, False, 0.2, "reject"), (2, False, 0.1, "reject"),
             (2, True, 0.0, "clip"), (3, False, 0.0, "clip")]

    @pytest.mark.parametrize("dim, hole, extra, boundary", CASES)
    def test_matches_independent_uniform_endpoints(self, dim, hole, extra, boundary):
        grid = GridSpec.cube(-1.0, 1.0, {1: 201, 2: 41, 3: 21}[dim], dim)
        outer = Box.of_grid(grid)
        domain = Domain(outer, Box((-0.3,) * dim, (0.2,) * dim) if hole else None)
        min_sep, max_sep, count = 0.05, 0.4, 4000
        sampler = PairSampler(domain, count, 11, min_sep, max_sep)
        config = _rung_config(sampler, grid, None)
        if boundary == "clip":
            config = MaximalConfig((max_sep,), config.radii, "clip")
        ladder = _CoefficientLadder(SinusoidField((1.0,) * dim), grid, 1, config)
        batch = sampler.draw(config.deltas, config.margins + extra)

        def margin_of(d):
            if boundary == "clip":
                return np.full_like(d, extra)
            return ladder.deltas[ladder.delta_index(d)] + extra

        ref_x, ref_y = _reference_pairs(domain, count, 12, min_sep, max_sep, margin_of)
        ref_dist = np.linalg.norm(ref_y - ref_x, axis=1)
        samples = [(batch.dist, ref_dist)]
        samples += [(batch.x[:, k], ref_x[:, k]) for k in range(dim)]
        samples += [(batch.y[:, k], ref_y[:, k]) for k in range(dim)]
        samples += [(batch.x[:, k] + batch.y[:, k], ref_x[:, k] + ref_y[:, k])
                    for k in range(dim)]
        for new, ref in samples:
            assert stats.ks_2samp(new, ref).pvalue > 1e-3
        # rung occupancy of the kept pairs, as a 2 x R contingency table
        rungs = len(ladder.deltas)
        table = np.array([np.bincount(ladder.delta_index(d), minlength=rungs)
                          for d in (batch.dist, ref_dist)])
        table = table[:, table.sum(axis=0) > 0]
        if table.shape[1] > 1:
            assert stats.chi2_contingency(table).pvalue > 1e-3


class TestSegmentGeometry:
    HOLE = Box((-0.3, -0.3), (0.3, 0.3))

    def _clear(self, x, y):
        return Domain(Box((-1.0, -1.0), (1.0, 1.0)), hole=self.HOLE).contains_segments(
            np.array([x]), np.array([y]))[0]

    def test_corner_clip_between_old_sample_points_is_rejected(self):
        # x0 + x1 = 0.599 enters the hole only for x0 in (0.299, 0.3),
        # a t-interval of width 0.0017 that falls between t = 32/65 and
        # 33/65, so 64 interior sample points all lie outside the hole
        x, y = np.array([0.0, 0.599]), np.array([0.599, 0.0])
        ts = np.linspace(0.0, 1.0, 66)[1:-1]
        old_points = x + ts[:, None] * (y - x)
        assert not np.any(np.all(np.abs(old_points) < 0.3, axis=1))
        assert not self._clear(x, y)

    @pytest.mark.parametrize("x, y, clear", [
        ((-0.5, 0.0), (0.5, 0.0), False),    # through the middle
        ((-0.5, 0.3), (0.5, 0.3), True),     # along the closed top wall
        ((0.0, 0.6), (0.6, 0.0), True),      # touches the corner only
        ((0.0, 0.5), (0.0, 0.29), False),    # one moving axis, ends inside
        ((0.4, -0.5), (0.4, 0.5), True),     # beside the hole
        ((-0.5, -0.5), (-0.35, -0.35), True),  # stops short of the hole
    ])
    def test_slab_cases(self, x, y, clear):
        assert self._clear(np.array(x), np.array(y)) == clear

    def test_box_without_hole_is_convex(self):
        domain = Domain(Box((-1.0, -1.0), (1.0, 1.0)))
        x = np.array([[-0.9, -0.9], [0.0, 0.0]])
        assert domain.contains_segments(x, -x).all()


class TestReports:
    def _report(self):
        x = np.array([[0.0], [0.1], [0.2]])
        y = np.array([[0.5], [0.6], [0.7]])
        lhs = np.array([1.0, 0.0, 3.0])
        rhs = np.array([2.0, 0.0, 2.0])
        return build_report({"scan": "unit"}, x, y, lhs, rhs, slack=0.05)

    def test_ratio_rules(self):
        r = self._report()
        np.testing.assert_allclose(r.ratio, [0.5, 0.0, 1.5], rtol=0, atol=0)
        assert r.n_violations == 1
        assert not r.passed

    def test_zero_rhs_with_positive_lhs_is_infinite(self):
        r = build_report({}, np.zeros((1, 1)), np.ones((1, 1)),
                         np.array([1.0]), np.array([0.0]), 0.05)
        assert math.isinf(r.max_ratio)
        assert r.n_violations == 1

    @pytest.mark.parametrize("slack", [math.nan, math.inf, -0.01])
    def test_slack_that_passes_everything_is_rejected(self, slack):
        # the zero-coefficient control has infinite ratios, which a NaN or
        # infinite slack would let through
        with pytest.raises(ConfigError):
            build_report({}, np.zeros((1, 1)), np.ones((1, 1)),
                         np.array([1.0]), np.array([0.0]), slack)

    def test_quantiles_are_order_statistics(self):
        r = self._report()
        observed = r.ratio.tolist()
        assert r.quantiles["p50"] == 0.5
        for key in ("p50", "p90", "p99"):
            assert r.quantiles[key] in observed
        assert r.quantiles["p99"] <= r.max_ratio

    def test_json_round_trip_and_schema(self, tmp_path):
        r = self._report()
        path = tmp_path / "report.json"
        r.write_json(path)
        loaded = json.loads(path.read_text())
        jsonschema.validate(loaded, json.loads(SCHEMA_FILE.read_text()))
        assert loaded["n_pairs"] == 3
        assert loaded["params"]["scan"] == "unit"

    def test_json_serializes_infinity_tokens(self, tmp_path):
        r = build_report({}, np.zeros((1, 1)), np.ones((1, 1)),
                         np.array([1.0]), np.array([0.0]), 0.05)
        text = r.to_json()
        assert "Infinity" in text
        assert json.loads(text)["max_ratio"] == math.inf

    def test_csv_has_one_row_per_pair(self, tmp_path):
        r = self._report()
        path = tmp_path / "report.csv"
        r.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + r.n_pairs
        assert lines[0].startswith("index,x0,y0,")

    def test_same_inputs_give_identical_json(self):
        assert self._report().to_json() == self._report().to_json()

    @pytest.mark.parametrize("lhs, rhs", [(math.nan, 1.0), (1.0, math.nan),
                                          (math.nan, math.nan), (math.inf, 1.0),
                                          (1.0, math.inf)])
    def test_nonfinite_side_is_a_violation(self, lhs, rhs):
        x = np.array([[0.0], [0.1]])
        y = np.array([[0.5], [0.6]])
        r = build_report({}, x, y, np.array([lhs, 0.1]), np.array([rhs, 1.0]), 0.05)
        assert not r.passed
        assert r.n_violations == 1 and r.n_nonfinite == 1
        assert math.isinf(r.max_ratio)
        assert r.to_dict()["n_nonfinite"] == 1

    def test_records_keep_the_worst_violations_and_ties_in_draw_order(self, monkeypatch):
        from sobolev_pointwise import verify

        ratios = np.array([2.0, 5.0, math.inf, 3.0, 5.0, 0.5, math.inf, 4.0, 5.0])
        n = len(ratios)
        x, y = np.arange(n, dtype=float)[:, None], np.ones((n, 1))
        lhs = np.where(np.isinf(ratios), 1.0, ratios)
        rhs = np.where(np.isinf(ratios), 0.0, 1.0)
        monkeypatch.setattr(verify, "_VIOLATION_RECORDS", 4)
        r = build_report({}, x, y, lhs, rhs, 0.05)
        assert r.n_violations == 8
        # the two infinities, then of the three tied 5.0 the first two drawn
        assert [v["x"][0] for v in r.violations] == [1.0, 2.0, 4.0, 6.0]
        assert [v["ratio"] for v in r.violations] == [5.0, math.inf, 5.0, math.inf]

    def test_a_scan_with_many_violations_reports_the_100_worst(self, grid_1d, tmp_path):
        # a coefficient field far too small: most pairs violate, at distinct ratios
        f = SinusoidField((2.0,))
        g = SampledField(grid_1d, np.full(grid_1d.points, 1e-6))
        sampler = PairSampler(_domain(grid_1d), 1000, 3, 0.05, 0.4)
        report = hatl_scan(f, 1, 1.0, g, sampler)
        bad = np.flatnonzero(report.ratio > 1.05)
        assert report.n_violations == len(bad) > 100
        records = report.to_dict()["violations"]
        assert len(records) == 100
        kept = np.sort(bad[np.argsort(-report.ratio[bad], kind="stable")[:100]])
        assert [v["ratio"] for v in records] == report.ratio[kept].tolist()
        assert min(v["ratio"] for v in records) >= np.sort(report.ratio[bad])[-100]
        path = tmp_path / "report.json"
        report.write_json(path)
        jsonschema.validate(json.loads(path.read_text()), json.loads(SCHEMA_FILE.read_text()))
        report.write_csv(tmp_path / "report.csv")
        rows = (tmp_path / "report.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 1000
        assert sum(row.endswith(",1") for row in rows) == report.n_violations

    def test_node_discard_counts_nonfinite_main_ratios(self, grid_1d, monkeypatch):
        from sobolev_pointwise import differences

        def nan_interpolant(value_at, base, step, y, count):
            return np.full(len(base), math.nan)

        # the main remainder goes NaN; the node-discard difference does not
        monkeypatch.setattr(differences, "_lagrange_sum", nan_interpolant)
        sampler = PairSampler(_domain(grid_1d), 20, 5, 0.05, 0.4)
        report = node_discard_check(SinusoidField((2.0,)), 2, grid_1d, sampler)
        assert report.params["main_violations"] == 20
        assert math.isinf(report.params["main_max_ratio"])


class TestCoefficientLadder:
    @pytest.mark.parametrize("dim, points, order", [(1, 201, 2), (2, 41, 1), (3, 21, 2)])
    def test_rungs_are_maxima_of_single_radius_averages(self, dim, points, order):
        grid = GridSpec.cube(-1.0, 1.0, points, dim)
        sampler = PairSampler(_domain(grid), 10, 0, 0.05, 0.4)
        config = _rung_config(sampler, grid, None)
        f = SinusoidField((1.5,) * dim)
        ladder = _CoefficientLadder(f, grid, order, config)
        assert len(ladder.stack) == len(config.deltas) > 1
        gradient = gradient_magnitude_field(f, grid, order)
        scale = segment_ratio_constant(dim)
        prev = None
        for size, rung in zip(config.sizes, ladder.stack):
            best = functools.reduce(np.maximum, ball_averages(gradient, config.radii[:size]))
            np.testing.assert_array_equal(rung, scale * best)
            if prev is not None:
                assert np.all(rung >= prev)
            prev = rung

    def test_all_node_coefficient_is_the_node_discard_field(self, grid_1d):
        f = SinusoidField((2.0,))
        sampler = PairSampler(_domain(grid_1d), 150, 5, 0.05, 0.4)
        report = node_discard_check(f, 2, grid_1d, sampler)
        g = all_node_coefficient(f, 2, grid_1d, sampler)
        h = (report.y - report.x) / 2
        gsum = np.zeros(report.n_pairs)
        for l in range(3):
            gsum += g.at(report.x + l * h)
        np.testing.assert_array_equal(report.rhs, np.linalg.norm(h, axis=1) ** 2 * gsum)


# grids, with sampler boxes (lo, hi) and largest separations: the grid's
# own box, and boxes smaller than the grid on every axis or on some axes
BOXED_CASES = [
    # the last box is narrower than twice the top rung's delta
    (GridSpec.cube(-1.0, 1.0, 201, 1),
     [((-1.0,), (1.0,), 0.4), ((-0.45,), (0.8,), 0.3), ((-0.3,), (0.3,), 0.5)]),
    (GridSpec.cube(-1.0, 1.0, 41, 2),
     [((-1.0, -1.0), (1.0, 1.0), 0.4), ((-0.63, -1.0), (0.71, 0.4), 0.3)]),
    (GridSpec((-1.0, -0.5), (1.0, 1.5), (13, 21)),
     [((-1.0, -0.5), (1.0, 1.5), 0.5), ((-0.8, 0.0), (0.9, 1.3), 0.4)]),
    (GridSpec.cube(-1.0, 1.0, 21, 3),
     [((-1.0,) * 3, (1.0,) * 3, 0.4), ((-0.55, -0.9, -1.0), (0.6, 0.35, 1.0), 0.3)]),
    # under "reject" no rung leaves room on the last axis here
    (GridSpec((-1.0, -0.5, 0.0), (1.0, 1.0, 0.7), (7, 9, 11)),
     [((-1.0, -0.5, 0.0), (1.0, 1.0, 0.7), 0.7), ((-0.7, -0.3, 0.05), (0.9, 0.8, 0.65), 0.7)]),
]


def _boxed_cases():
    for grid, boxes in BOXED_CASES:
        for lo, hi, max_sep in boxes:
            for boundary in ("reject", "clip"):
                yield pytest.param(grid, Box(lo, hi), max_sep, boundary,
                                   id=f"{grid.points}-{lo}-{boundary}")


class TestNodeBoxes:
    """A ladder built on node boxes equals the whole-grid ladder wherever
    a pair can read it, and is NaN elsewhere."""

    @staticmethod
    def _config(grid, sampler, boundary):
        config = _rung_config(sampler, grid, None)
        if boundary == "reject":
            return config
        return MaximalConfig((sampler.max_sep,), config.radii, "clip")

    @pytest.mark.parametrize("grid, outer, max_sep, boundary", list(_boxed_cases()))
    def test_boxed_rungs_equal_the_whole_grid_rungs(self, grid, outer, max_sep, boundary):
        sampler = PairSampler(Domain(outer), 2000, 3, 0.05, max_sep)
        config = self._config(grid, sampler, boundary)
        f = SinusoidField((1.5, 1.0, 2.0)[:grid.dim])
        full = _CoefficientLadder(f, grid, 2, config)
        boxed = _CoefficientLadder(f, grid, 2, config, outer)
        boxes = _node_boxes(grid, outer, config.margins)
        for rung, box, whole in zip(boxed.stack, boxes, full.stack):
            assert np.array_equal(rung[box], whole[box])
            assert np.isfinite(rung).sum() == rung[box].size
        for box, inner in zip(boxes, boxes[1:]):
            assert all(a.start <= b.start and b.stop <= a.stop for a, b in zip(box, inner))
        room = np.subtract(outer.hi, outer.lo) > 2 * config.deltas[0]
        if boundary == "reject" and not np.all(room):
            return
        pairs = sampler.draw(config.deltas, config.margins)
        rhs = boxed.endpoint_rhs(pairs)
        assert np.all(np.isfinite(rhs))
        assert np.array_equal(rhs, full.endpoint_rhs(pairs))

    @pytest.mark.parametrize("grid, outer, max_sep, boundary", list(_boxed_cases()))
    def test_admissible_extremes_and_nodes_read_finite_values(self, grid, outer, max_sep,
                                                              boundary):
        sampler = PairSampler(Domain(outer), 10, 0, 0.05, max_sep)
        config = self._config(grid, sampler, boundary)
        ladder = _CoefficientLadder(GaussianField(1.0, grid.dim), grid, 1, config, outer)
        lo, hi = np.asarray(outer.lo), np.asarray(outer.hi)
        for r, delta in enumerate(ladder.deltas):
            margin = delta if boundary == "reject" else 0.0
            a, b = np.maximum(lo + margin, grid.lo), np.minimum(hi - margin, grid.hi)
            if np.any(a > b):
                continue
            # every corner of the admissible box, exactly at lo + delta and
            # hi - delta, and the outermost grid nodes inside it
            axes = [np.concatenate([[p, q], ax[(ax >= p) & (ax <= q)][[0, -1]]])
                    if np.any((ax >= p) & (ax <= q)) else np.array([p, q])
                    for ax, p, q in zip(grid.axes, a, b)]
            pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, grid.dim)
            values = ladder.coefficient_at(np.full(len(pts), r), pts)
            assert np.all(np.isfinite(values)), (r, pts[~np.isfinite(values)])

    def test_a_read_outside_the_box_is_a_nonfinite_violation(self):
        grid = GridSpec.cube(-1.0, 1.0, 41, 2)
        sampler = PairSampler(_domain(grid), 100, 0, 0.05, 0.4)
        f = SinusoidField((1.5, 1.0))
        ladder = _CoefficientLadder(f, grid, 1, _rung_config(sampler, grid, None),
                                    sampler.domain.outer)
        top = float(ladder.deltas[-1])
        # on the wall, so a top-rung pair (kept delta from the walls) never reads here
        x = np.array([[-1.0, 0.0]])
        y = x + [[top, 0.0]]
        assert ladder.delta_index(np.array([top]))[0] == len(ladder.deltas) - 1
        lhs = np.abs(f.value_batch(y) - f.value_batch(x))
        rhs = ladder.endpoint_rhs(PairBatch(x, y, np.array([top]), 1))
        report = build_report({}, x, y, lhs, rhs, 0.05)
        assert report.n_nonfinite == 1
        assert report.n_violations == 1

    def test_scans_that_read_whole_fields_keep_whole_grid_ladders(self):
        grid = GridSpec.cube(-1.0, 1.0, 21, 2)
        sampler = PairSampler(_domain(grid), 200, 0, 0.05, 0.4)
        f = SinusoidField((1.5, 1.0))
        full = _CoefficientLadder(f, grid, 2, _rung_config(sampler, grid, None))
        g = all_node_coefficient(f, 2, grid, sampler)
        assert np.array_equal(g.values, 4.0 * full.stack[-1])
        assert node_discard_check(f, 2, grid, sampler).n_nonfinite == 0


class TestScans:
    def test_lemma1_on_smooth_field(self, grid_1d):
        sampler = PairSampler(_domain(grid_1d), 300, 1, 0.05, 0.4)
        report = lemma1_scan(SinusoidField((2.5,)), grid_1d, sampler)
        assert report.passed
        assert report.params["scan"] == "lemma1"
        assert report.max_ratio < 1.0

    def test_main_scan_records_order(self, grid_1d):
        sampler = PairSampler(_domain(grid_1d), 200, 2, 0.05, 0.4)
        report = main_inequality_scan(GaussianField(1.2), 2, grid_1d, sampler)
        assert report.passed
        assert report.params["order"] == 2

    def test_maximal_config_is_used_as_given(self, grid_1d):
        sampler = PairSampler(_domain(grid_1d), 100, 2, 0.05, 0.4)
        report = main_inequality_scan(SinusoidField((2.0,)), 1, grid_1d, sampler,
                                      MaximalConfig((0.4,), (0.4,)))
        assert report.params["radii_master"] == [0.4]
        assert report.params["deltas"] == [0.4]

    def test_maximal_config_below_the_grid_spacing_is_rejected(self, grid_1d):
        # every radius below the spacing: each ball is its center node alone
        sampler = PairSampler(_domain(grid_1d), 100, 2, 0.001, 0.002)
        config = MaximalConfig((0.002,), (0.001, 0.002))
        with pytest.raises(ConfigError):
            main_inequality_scan(SinusoidField((2.0,)), 1, grid_1d, sampler, config)

    def test_scan_is_deterministic(self, grid_1d):
        def run():
            sampler = PairSampler(_domain(grid_1d), 150, 9, 0.05, 0.4)
            return main_inequality_scan(SinusoidField((2.0,)), 2, grid_1d, sampler)

        assert run().to_json() == run().to_json()

    def test_power_field_scan_on_shifted_box(self):
        grid = GridSpec((0.1, 0.1), (1.1, 1.1), (101, 101))
        sampler = PairSampler(Domain(Box.of_grid(grid)), 200, 4, 0.05, 0.3)
        report = main_inequality_scan(PowerField(2.5, dim=2), 2, grid, sampler)
        assert report.passed

    def test_node_discard_check(self, grid_1d):
        sampler = PairSampler(_domain(grid_1d), 150, 5, 0.05, 0.4)
        report = node_discard_check(SinusoidField((2.0,)), 2, grid_1d, sampler)
        assert report.passed
        assert report.params["main_violations"] == 0

    def test_triebel_with_zero_coefficient_flags_everything(self, grid_1d):
        sampler = PairSampler(_domain(grid_1d), 100, 6, 0.05, 0.4)
        g = SampledField(grid_1d, np.zeros(grid_1d.points))
        report = triebel_scan(GaussianField(1.0), 2, 2.0, g, sampler)
        assert not report.passed
        assert report.n_violations == report.n_pairs
        assert math.isinf(report.max_ratio)

    def test_hatl_scan_accepts_fractional_smoothness(self, grid_1d):
        sampler = PairSampler(_domain(grid_1d), 150, 8, 0.05, 0.4)
        g = all_node_coefficient(SinusoidField((2.0,)), 2, grid_1d, sampler)
        report = hatl_scan(SinusoidField((2.0,)), 2, 0.5, g, sampler)
        assert report.passed

    def test_hatl_rejects_out_of_range_smoothness(self, grid_1d):
        sampler = PairSampler(_domain(grid_1d), 50, 8, 0.05, 0.4)
        g = SampledField(grid_1d, np.ones(grid_1d.points))
        with pytest.raises(ValueError):
            hatl_scan(SinusoidField((2.0,)), 2, 2.5, g, sampler)

    def test_hatl_refuses_a_g_grid_short_of_the_sampler_box_before_drawing(self, grid_1d,
                                                                           monkeypatch):
        sampler = PairSampler(_domain(grid_1d), 50, 8, 0.05, 0.4)
        wide = GridSpec((-1.5,), (1.0,), (251,))
        report = hatl_scan(SinusoidField((2.0,)), 2, 1.0,
                           SampledField(wide, np.ones(wide.points)), sampler)
        assert report.n_pairs == 50

        def draw(*args, **kwargs):
            raise AssertionError("the scan drew pairs before checking the grid of g")

        monkeypatch.setattr(PairSampler, "draw", draw)
        for lo, hi in (((-0.6,), (0.7,)), ((-1.0,), (0.99,))):
            short = GridSpec(lo, hi, (131,))
            with pytest.raises(ConfigError, match="outer box"):
                hatl_scan(SinusoidField((2.0,)), 2, 1.0,
                          SampledField(short, np.ones(short.points)), sampler)

    @pytest.mark.parametrize("name", ["lemma1", "main", "node_discard", "mollified"])
    def test_ladder_scans_refuse_a_sampler_box_the_grid_does_not_hold(self, name, monkeypatch):
        from sobolev_pointwise import verify

        def work(*args, **kwargs):
            raise AssertionError("the scan built its ladder before checking the sampler box")

        monkeypatch.setattr(verify, "gradient_magnitude_field", work)
        grid = GridSpec.cube(-1.0, 1.0, 81, 1)
        sampler = PairSampler(Domain(Box((-1.5,), (1.5,))), 50, 0, 0.05, 0.3)
        with pytest.raises(ConfigError, match="the grid must hold the sampler's outer box"):
            SCANS[name](SinusoidField((2.0,)), 2, grid, sampler, None, 0.05)

    @pytest.mark.parametrize("scan", [hatl_scan, triebel_scan])
    def test_all_node_scans_refuse_a_sampler_box_wider_than_the_grid_of_g(self, scan,
                                                                          monkeypatch):
        def draw(*args, **kwargs):
            raise AssertionError("the scan drew pairs before checking the grid of g")

        monkeypatch.setattr(PairSampler, "draw", draw)
        grid = GridSpec.cube(-1.0, 1.0, 81, 1)
        g = SampledField(grid, np.ones(grid.points))
        sampler = PairSampler(Domain(Box((-1.5,), (1.5,))), 200, 0, 0.05, 0.3)
        with pytest.raises(ConfigError, match="the grid of g must hold the sampler's outer box"):
            scan(SinusoidField((2.0,)), 2, 1.0, g, sampler)

    @pytest.mark.parametrize("scan", [hatl_scan, triebel_scan])
    def test_all_node_scans_refuse_a_negative_g(self, scan, grid_1d):
        values = np.ones(grid_1d.points)
        values[100] = -1e-12
        sampler = PairSampler(_domain(grid_1d), 50, 0, 0.05, 0.3)
        with pytest.raises(ValueError, match="g must be nonnegative"):
            scan(SinusoidField((2.0,)), 2, 1.0, SampledField(grid_1d, values), sampler)

    def test_triebel_with_every_step_longer_than_one_is_infeasible(self):
        grid = GridSpec.cube(-2.0, 2.0, 81, 1)
        g = SampledField(grid, np.ones(grid.points))
        sampler = PairSampler(_domain(grid), 50, 0, 1.2, 1.5)
        with pytest.raises(EmptyScanError, match="step longer than one"):
            triebel_scan(SinusoidField((2.0,)), 1, 1.0, g, sampler)

    def test_mollified_scan_passes(self, grid_1d):
        sampler = PairSampler(_domain(grid_1d), 150, 3, 0.05, 0.3)
        report = mollified_scan(SinusoidField((2.0,)), 1, 0.1, grid_1d, sampler)
        assert report.passed
        assert report.params["epsilon"] == 0.1

    def test_mollified_scan_with_oversized_kernel_is_infeasible(self, grid_1d):
        sampler = PairSampler(_domain(grid_1d), 50, 3, 0.05, 0.3)
        with pytest.raises(EmptyScanError):
            mollified_scan(SinusoidField((2.0,)), 1, 0.9, grid_1d, sampler)


# each scan run as scan(f, order, grid, sampler, g, slack)
SCANS = {
    "lemma1": lambda f, order, grid, sampler, g, slack: lemma1_scan(
        f, grid, sampler, slack=slack),
    "main": lambda f, order, grid, sampler, g, slack: main_inequality_scan(
        f, order, grid, sampler, slack=slack),
    "node_discard": lambda f, order, grid, sampler, g, slack: node_discard_check(
        f, order, grid, sampler, slack=slack),
    "triebel": lambda f, order, grid, sampler, g, slack: triebel_scan(
        f, order, 1.0, g, sampler, slack=slack),
    "hatl": lambda f, order, grid, sampler, g, slack: hatl_scan(
        f, order, 1.0, g, sampler, slack=slack),
    "mollified": lambda f, order, grid, sampler, g, slack: mollified_scan(
        f, order, 0.1, grid, sampler, slack=slack),
}


# a bad slack, then an order below 1, beyond what the field supports, or a
# bool; the lemma1 scan has no order argument
BAD_SCAN_ARGUMENTS = (
    [(name, 2, math.nan, ConfigError, "slack") for name in sorted(SCANS)]
    + [(name, order, 0.05, error, "order") for name in sorted(SCANS) if name != "lemma1"
       for order, error in ((0, ConfigError), (30, UnsupportedOrderError),
                            (True, UnsupportedOrderError))])


class TestScanArguments:
    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_triebel_refuses_a_nonfinite_exponent(self, s, grid_1d):
        g = SampledField(grid_1d, np.ones(grid_1d.points))
        sampler = PairSampler(_domain(grid_1d), 50, 0, 0.05, 0.3)
        with pytest.raises(ConfigError, match="exponent s"):
            triebel_scan(SinusoidField((2.0,)), 2, s, g, sampler)

    @pytest.mark.parametrize("name", sorted(set(SCANS) - {"lemma1"}))
    def test_a_numpy_order_runs_and_is_recorded_as_an_int(self, name, grid_1d):
        g = SampledField(grid_1d, np.ones(grid_1d.points))
        sampler = PairSampler(_domain(grid_1d), 50, 0, 0.05, 0.3)
        report = SCANS[name](SinusoidField((2.0,)), np.int64(2), grid_1d, sampler, g, 0.05)
        order = json.loads(report.to_json())["params"]["order"]
        assert order == 2 and type(order) is int
        assert report.to_json() == SCANS[name](SinusoidField((2.0,)), 2, grid_1d, sampler, g,
                                               0.05).to_json()

    @pytest.mark.parametrize("name", sorted(SCANS))
    def test_numpy_float_slack_and_separations_are_recorded_as_floats(self, name, grid_1d):
        g = SampledField(grid_1d, np.ones(grid_1d.points))
        sampler = PairSampler(_domain(grid_1d), 50, 0, np.float32(0.05), np.float32(0.3))
        assert type(sampler.min_sep) is float and type(sampler.max_sep) is float
        report = SCANS[name](SinusoidField((2.0,)), 2, grid_1d, sampler, g, np.float32(0.05))
        params = json.loads(report.to_json())["params"]
        assert params["slack"] == report.slack == float(np.float32(0.05))
        assert params["sampler"]["max_sep"] == float(np.float32(0.3))

    @pytest.mark.parametrize("name, order, slack, error, match", BAD_SCAN_ARGUMENTS)
    def test_refused_before_any_work(self, name, order, slack, error, match, grid_1d,
                                     monkeypatch):
        from sobolev_pointwise import verify

        def work(*args, **kwargs):
            raise AssertionError("the scan started work before checking its arguments")

        g = SampledField(grid_1d, np.ones(grid_1d.points))
        sampler = PairSampler(_domain(grid_1d), 50, 0, 0.05, 0.3)
        for target, attr in ((verify, "gradient_magnitude_field"), (verify, "sample"),
                             (PairSampler, "draw")):
            monkeypatch.setattr(target, attr, work)
        with pytest.raises(error, match=match):
            SCANS[name](SinusoidField((2.0,)), order, grid_1d, sampler, g, slack)



class TestBlockedScoring:
    """Scans score their pairs in blocks of `_NODE_BLOCK` rows, as read by
    `verify`; every per-pair operation is row-local, so blocks change no bit."""

    @pytest.mark.parametrize("name", sorted(SCANS))
    def test_blocks_give_the_bits_of_one_batch(self, name, grid_1d, monkeypatch):
        from sobolev_pointwise import verify

        f = SinusoidField((2.0,))
        domain, seps = _domain(grid_1d), (0.05, 0.3)
        if name == "triebel":
            # separations up to 3.9 on [-2, 2]: order-2 steps beyond 1 long,
            # which the scan skips, in every block of 7 drawn pairs
            wide = GridSpec((-2.0,), (2.0,), (201,))
            domain, seps = _domain(wide), (1.0, 3.9)
            g = SampledField(wide, np.full(wide.points, 0.1))
        else:
            g = SampledField(grid_1d, np.full(grid_1d.points, 0.3))

        def run(block):
            monkeypatch.setattr(verify, "_NODE_BLOCK", block)
            sampler = PairSampler(domain, 150, 4, *seps)
            return SCANS[name](f, 2, grid_1d, sampler, g, 0.05)

        whole, blocked = run(10 ** 6), run(7)
        assert whole.n_pairs % 7
        assert blocked.to_json() == whole.to_json()
        for attr in ("x", "y", "lhs", "rhs", "ratio"):
            assert np.array_equal(getattr(blocked, attr), getattr(whole, attr))
        if name == "triebel":
            long = PairSampler(domain, 150, 4, *seps).draw().dist > 2.0
            assert all(long[i:i + 7].any() for i in range(0, 150, 7))
            assert whole.params["skipped_long_step"] == long.sum() and whole.n_violations

    def test_blocks_give_the_bits_of_one_batch_in_3d(self, monkeypatch):
        from sobolev_pointwise import verify

        grid = GridSpec.cube(-1.0, 1.0, 21, 3)
        domain = Domain(Box.of_grid(grid), Box((-0.2,) * 3, (0.2,) * 3))
        reports = []
        for block in (10 ** 6, 7):
            monkeypatch.setattr(verify, "_NODE_BLOCK", block)
            sampler = PairSampler(domain, 100, 4, 0.05, 0.4)
            reports.append(main_inequality_scan(SinusoidField((2.0, 1.5, 1.0)), 2, grid,
                                                sampler))
        assert reports[1].to_json() == reports[0].to_json()
        for attr in ("lhs", "rhs", "ratio"):
            assert np.array_equal(getattr(reports[1], attr), getattr(reports[0], attr))

    def test_step_is_the_binary_search(self, rng):
        ends = np.array([0.1, 0.2, 0.35, 0.4])
        dist = np.concatenate([rng.uniform(0.0, 0.5, 2000), ends, np.nextafter(ends, 0.0),
                               np.nextafter(ends, 1.0), [0.0]])
        for k in range(1, len(ends) + 1):
            assert np.array_equal(_step(ends[:k], dist),
                                  np.minimum(np.searchsorted(ends[:k], dist), k - 1))
        assert np.array_equal(_step(np.array([math.inf]), dist), np.zeros(len(dist)))
        assert _step(ends, 0.3) == 2

    def test_piece_pick_is_the_binary_search(self, rng):
        # zero-weight pieces repeat an entry of cum, first, inside and last
        weight = np.array([0.0, 2.0, 0.0, 0.0, 1.5, 0.5, 0.0])
        cum = np.cumsum(weight)
        last = int(np.flatnonzero(weight)[-1])
        t = np.concatenate([rng.random(2000) * cum[-1], cum, np.nextafter(cum, 0.0)])
        assert np.array_equal(_piece(cum, last, t),
                              np.minimum(np.searchsorted(cum, t, side="right"), last))
        assert not np.any(weight[_piece(cum, last, rng.random(2000) * cum[-1])] == 0)

    @pytest.mark.parametrize("dim, points, per_pair", [(1, 2001, 64), (3, 21, 100)])
    def test_peak_memory_grows_by_little_more_than_the_report(self, dim, points, per_pair):
        # a report holds x, y, lhs, rhs and ratio: 40 B a pair in 1-D, 72 in
        # 3-D; the draw adds the separations and the report a quantile copy
        grid = GridSpec.cube(-1.0, 1.0, points, dim)
        f = SinusoidField((2.0, 1.5, 1.0)[:dim])

        def peak(count):
            sampler = PairSampler(_domain(grid), count, 3, 0.05, 0.4)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                main_inequality_scan(f, 2, grid, sampler)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert (peak(200_000) - peak(50_000)) / 150_000 <= per_pair

class TestClosedFormRatios:
    """For f = x0^m every pair's ratio has a closed form in e0, the first
    component of the unit pair direction: |f(y) - L(y)| = m! |h0|^m,
    diff_h^m f = m! h0^m, and |grad^m f| = m! on the whole grid, so
    a = C(n) m! and the ratios pin C(n), m^m and the all-node factor."""

    CASES = [(dim, points, m) for dim, points in [(1, 201), (2, 81)] for m in (1, 2, 3)]

    @pytest.mark.parametrize("dim, points, m", CASES)
    @pytest.mark.parametrize("scan", [main_inequality_scan, node_discard_check],
                             ids=["main", "node_discard"])
    def test_ratios_match_closed_form(self, scan, dim, points, m):
        grid = GridSpec.cube(-1.0, 1.0, points, dim)
        sampler = PairSampler(_domain(grid), 300, 21, 0.05, 0.4)
        report = scan(parse_field(f"poly:x0^{m}", dim=dim), m, grid, sampler)
        # the main scan adds a at 2 endpoints, the node-discard check g at m + 1 nodes
        nodes = 2 if scan is main_inequality_scan else m + 1
        bound = 1.0 / (nodes * segment_ratio_constant(dim) * m ** m)
        step = report.y - report.x
        e0 = np.abs(step[:, 0]) / np.linalg.norm(step, axis=1)
        err = np.abs(report.ratio - bound * e0 ** m)
        assert np.max(err) <= 1e-10 * bound

    # In 1-D with s = m and g constant, every triebel ratio is
    # m! |h|^m / (|h|^m (m + 1) g) and every hatl ratio m! |h|^m / (|y - x|^m 2 g)
    # with |h| = |y - x| / m: the constants (m + 1), 2 and m^m end to end.
    CONTROLS = [(triebel_scan, m, g, math.factorial(m) / ((m + 1) * g))
                for m, g in [(1, 1.0), (2, 1.0), (3, 2.0)]]
    CONTROLS += [(hatl_scan, m, 1.0, math.factorial(m) / (2 * m ** m)) for m in (1, 2, 3)]

    @staticmethod
    def _control(grid_1d, scan, m, g):
        sampler = PairSampler(_domain(grid_1d), 300, 21, 0.05, 0.4)
        field = SampledField(grid_1d, np.full(grid_1d.points, g))
        return scan(parse_field(f"poly:x0^{m}"), m, float(m), field, sampler)

    @pytest.mark.parametrize("scan, m, g, ratio", CONTROLS,
                             ids=lambda v: getattr(v, "__name__", None))
    def test_triebel_and_hatl_ratios_match_closed_form(self, grid_1d, scan, m, g, ratio):
        report = self._control(grid_1d, scan, m, g)
        assert report.passed
        assert report.n_pairs == 300
        assert np.max(np.abs(report.ratio - ratio)) <= 1e-10 * ratio

    @pytest.mark.parametrize("scan, m, g, ratio", CONTROLS,
                             ids=lambda v: getattr(v, "__name__", None))
    def test_a_quarter_of_the_tight_g_fails_every_pair(self, grid_1d, scan, m, g, ratio):
        # g * ratio puts every ratio at exactly 1; a quarter of it at 4
        report = self._control(grid_1d, scan, m, g * ratio / 4.0)
        assert report.n_violations == report.n_pairs == 300
        assert np.max(np.abs(report.ratio - 4.0)) <= 1e-10 * 4.0


class TestQuasinorm:
    def test_linear_field_infinity_norm(self, grid_1d):
        f = parse_field("poly:2*x0")
        got = quasinorm_upper(f, 1, math.inf, grid_1d)
        want = 2.0 + segment_ratio_constant(1) * 2.0
        assert got == pytest.approx(want, rel=1e-12)

    def test_monotone_in_the_field_scale(self, grid_1d):
        small = quasinorm_upper(parse_field("poly:x0^2"), 1, 2.0, grid_1d)
        large = quasinorm_upper(parse_field("poly:3*x0^2"), 1, 2.0, grid_1d)
        assert large == pytest.approx(3.0 * small, rel=1e-10)

    def test_finite_for_quasi_exponent(self, grid_1d):
        value = quasinorm_upper(GaussianField(1.0), 2, 0.75, grid_1d)
        assert math.isfinite(value) and value > 0


class TestIdentitySuite:
    def test_all_identities_pass(self):
        suite = identity_suite(draws=60, seed=3)
        assert suite["passed"]
        assert len(suite["identities"]) == 8
        for entry in suite["identities"].values():
            assert entry["passed"]

    def test_exact_identities_are_bitwise(self):
        suite = identity_suite(draws=60, seed=3)
        assert suite["identities"]["sign_law"]["max_residual"] == 0.0
        assert suite["identities"]["taylor_annihilation"]["max_residual"] == 0.0

    def test_draw_count_is_recorded(self):
        suite = identity_suite(draws=25, seed=0)
        assert suite["draws"] == 25

    @pytest.mark.parametrize("draws, seed", [(0, 0), (-3, 0), (10, -1)])
    def test_no_draws_or_a_negative_seed_is_rejected(self, draws, seed):
        with pytest.raises(ConfigError):
            identity_suite(draws=draws, seed=seed)

    @pytest.mark.parametrize("draws, seed", [(200, 1.5), (200, math.nan), (1.5, 0), (True, 0),
                                             (200, True), (math.inf, 0), ("200", 0)])
    def test_a_draw_count_or_seed_not_whole_is_rejected(self, draws, seed):
        with pytest.raises(ConfigError, match="must be an integer"):
            identity_suite(draws=draws, seed=seed)

    @pytest.mark.parametrize("seed", [389, 685, 844])
    def test_telescoping_roundoff_is_not_a_failure(self, seed):
        # a tolerance of 1e-12 (1 + |difference|) failed these seeds on
        # float roundoff alone; the corrupted table must still fail them
        from sobolev_pointwise.cli import _corrupted_binomial

        assert identity_suite(draws=200, seed=seed)["passed"]
        corrupted = identity_suite(draws=200, seed=seed, binom=_corrupted_binomial)
        assert not corrupted["identities"]["telescoping"]["passed"]

    def test_a_broken_weight_kernel_fails(self, monkeypatch):
        # the scans' remainder kernel with its nodes at (y - x) / (m + 1)
        from sobolev_pointwise import differences

        kernel = differences._lagrange_sum

        def mutant(value_at, base, step, y, count):
            return kernel(value_at, base, step * count / (count + 1), y, count)

        monkeypatch.setattr(differences, "_lagrange_sum", mutant)
        for seed in range(10):
            suite = identity_suite(draws=50, seed=seed)
            assert not suite["identities"]["lagrange_vs_difference"]["passed"], seed

    def test_corrupted_coefficients_fail(self):
        from sobolev_pointwise import binomial

        def bad(l, j):
            return binomial(l, j) + (1 if (l, j) == (4, 2) else 0)

        suite = identity_suite(draws=60, seed=3, binom=bad)
        assert not suite["passed"]


class TestMainRhsOracle:
    """The main scan's right side against `rhs_reference`, which takes
    every ball, rung and corner weight from the definitions alone."""

    GRIDS = {1: GridSpec.cube(-1.0, 1.0, 41, 1), 2: GridSpec.cube(-1.0, 1.0, 21, 2),
             3: GridSpec.cube(-1.0, 1.0, 11, 3)}
    FIELDS = {
        "sin": lambda dim: SinusoidField((2.0, 1.5, 1.0)[:dim]),
        "gauss": lambda dim: GaussianField(1.3, dim),
        "poly": lambda dim: parse_field(f"poly:x0^3-2*x0*x{dim - 1}^2+1", dim=dim),
    }

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("kind", sorted(FIELDS))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rhs_matches_the_definition(self, dim, kind, order):
        grid = self.GRIDS[dim]
        # on 11^3 twice the spacing is 0.4, so a wider band keeps several rungs
        sampler = PairSampler(_domain(grid), 200, 7 + dim, 0.05, 0.6 if dim == 3 else 0.4)
        f = self.FIELDS[kind](dim)
        report = main_inequality_scan(f, order, grid, sampler)
        assert len(report.params["deltas"]) > 1
        want = rhs_reference.main_rhs(f, order, grid, report)
        assert len(want) == 30
        np.testing.assert_allclose(report.rhs[:30], want, rtol=1e-12, atol=0)


class TestMollifiedRhsOracle:
    """The mollified scan's right side against `rhs_reference`, which
    convolves brute-force rung values with the kernel's taps itself."""

    GRIDS = {1: (GridSpec.cube(-1.0, 1.0, 201, 1), 0.1),
             2: (GridSpec.cube(-1.0, 1.0, 41, 2), 0.2)}

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("kind", sorted(TestMainRhsOracle.FIELDS))
    @pytest.mark.parametrize("dim", [1, 2])
    def test_rhs_matches_the_definition(self, dim, kind, order):
        grid, epsilon = self.GRIDS[dim]
        sampler = PairSampler(_domain(grid), 200, 3 + dim, 0.05, 0.3)
        f = TestMainRhsOracle.FIELDS[kind](dim)
        report = mollified_scan(f, order, epsilon, grid, sampler)
        assert len(report.params["deltas"]) > 1
        master = _rung_config(sampler, grid, None).radii
        want = rhs_reference.mollified_rhs(f, order, grid, report, master)
        assert len(want) == 30
        np.testing.assert_allclose(report.rhs[:30], want, rtol=1e-12, atol=0)
