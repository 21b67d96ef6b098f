"""Ball and lens volumes, and discrete local maximal functions on grids.

The geometric constant attached to a point pair is the ratio between the
volume of a ball of radius r = |x - y| and the volume of the lens cut
out by two such balls centered at x and y, closed-form in any dimension.
Averaging a nonnegative grid field over lattice balls of several radii
and taking the largest average gives a discrete local Hardy-Littlewood
maximal function; scaled by the lens ratio it yields the coefficient
fields used by the inequality scans.
`ball_averages` averages a whole radius ladder in one pass: one
cumulative sum along the last grid axis, and one sum per distinct lattice
ball, each radius on its own node box.  The balls on one node box form a
group that shares a run-sum buffer, refilled once per run half-width
they use.  Each ball's sums are laid out with that buffer's strides, so
adding the runs at one lead-axis offset is one contiguous 1-D slice add.
The geometry of a call (balls, groups, layouts, flat offsets, divisors)
is planned once per grid shape, spacing, radii and boxes, and a ball
that stays inside the grid on its box divides by its exact node count.
`MaximalConfig` is a whole ladder of nested rungs, and
`local_maximal_function` turns it into one (R, *grid) stack of maxima,
folding each group into the rung maxima as soon as it is summed.
Given the box the pairs are drawn in, it builds each rung only on the
nodes its pairs can reach (`_node_boxes`), which under the "reject"
boundary is that box shrunk by the rung's delta, and leaves it NaN
outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import ConfigError
from .fields import GridSpec, SampledField, _grid_cells

__all__ = [
    "ball_volume",
    "lens_volume",
    "segment_ratio_constant",
    "MaximalConfig",
    "ladder_config",
    "ball_averages",
    "local_maximal_function",
]

# Relative slack used when testing whether a lattice offset lies inside a
# ball; keeps radius ties (radius equal to a multiple of the spacing)
# deterministic under float rounding.
_RADIUS_SLACK = 1.0 + 1e-12
# Geometric radii in the master set shared by a ladder's rungs.
_LADDER_RADII = 12


def ball_volume(dim: int, radius: float) -> float:
    """Volume of the Euclidean ball of the given radius in R^dim.

    Dimension 0 is allowed: R^0 is one point, of volume 1, which is what
    the formula gives there too.
    """
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return math.pi ** (dim / 2.0) * radius ** dim / _gamma_half_dim_plus_one(dim)


def _gamma_half_dim_plus_one(dim: int) -> float:
    """Gamma(dim/2 + 1): (dim/2)! for even dim, and for odd dim the
    recurrence Gamma(x + 1) = x Gamma(x) up from Gamma(1/2) = sqrt(pi).

    For dim <= 4 this is scipy.special.gamma bit for bit; math.gamma is
    one ulp off it at dim 1 and 3, which moves C(1) = 2 and C(3) = 16/5.
    """
    if dim % 2 == 0:
        return float(math.factorial(dim // 2))
    out = math.sqrt(math.pi)
    for k in range(1, dim + 1, 2):
        out *= k / 2.0
    return out


def lens_volume(dim: int, radius: float, distance: float) -> float:
    """Volume of the intersection of two balls of equal radius.

    The centers sit `distance` apart; `distance >= 2 * radius` gives 0.
    Closed forms cover dim <= 3, dim 2 while x >= 1/2 (its terms cancel as
    d -> 2r).  Otherwise the lens is V_n(r) I_x((n+1)/2, 1/2)
    with t = d/(2r), x = 1 - t^2 and I the regularized incomplete beta (S. Li,
    Asian J. Math. Stat. 4(1), 2011): from I_x(1, 1/2) = 1 - t (odd n) or
    I_x(1/2, 1/2) = (2/pi) acos t (even n), each step a -> a + 1 subtracts
    x^a t / (a B(a, 1/2)) (DLMF 8.17).  Below x = max(1/2, 1 - 2/a), a = (n+1)/2,
    those steps cancel, so I sums the steps from a up instead.  Within 2.2e-15
    of 50-digit mpmath for n = 4..8, and within 2e-14 up to n = 100.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if not (math.isfinite(radius) and math.isfinite(distance)):
        raise ValueError("radius and center distance must be finite")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if distance < 0:
        raise ValueError("center distance must be nonnegative")
    if distance >= 2.0 * radius:
        return 0.0
    r, d = radius, distance
    t = d / (2.0 * r)
    x = (2.0 * r - d) / (2.0 * r) * (1.0 + t)  # 1 - t^2, with 1 - t rounded once
    if dim == 1:
        return 2.0 * r - d
    if dim == 2 and x >= 0.5:
        return 2.0 * r * r * math.acos(t) - 0.5 * d * math.sqrt(4.0 * r * r - d * d)
    if dim == 3:
        return math.pi * (4.0 * r + d) * (2.0 * r - d) ** 2 / 12.0
    a, value = (1.0, 1.0 - t) if dim % 2 else (0.5, 2.0 * math.acos(t) / math.pi)
    step = (0.5 if dim % 2 else 2.0 / math.pi) * x ** a * t
    while a < (dim + 1) / 2.0:
        value -= step
        step *= x * (a + 0.5) / (a + 1.0)
        a += 1.0
    if x < max(0.5, 1.0 - 2.0 / a):
        value = 0.0
        while value + step != value:
            value += step
            step *= x * (a + 0.5) / (a + 1.0)
            a += 1.0
    return ball_volume(dim, r) * value


@lru_cache(maxsize=None)
def segment_ratio_constant(dim: int) -> float:
    """Ratio ball(r) / lens(r, d=r): the volume factor lost by restricting
    a ball average to the lens between two points at distance r.

    Scale-free, so it is evaluated at radius 1.  Equals 2 on the line,
    about 2.5575 in the plane, and exactly 16/5 in 3-space.
    """
    return ball_volume(dim, 1.0) / lens_volume(dim, 1.0, 1.0)


# ---------------------------------------------------------------------------
# maximal functions on grids


@dataclass(frozen=True)
class MaximalConfig:
    """A ladder of local maximal functions: rung k averages over the radii
    up to deltas[k], so the rungs nest by construction.

    `deltas` and `radii` increase strictly, the first rung holds a
    radius and none exceeds the top delta.  `boundary` says how scans
    treat pairs near the box boundary: "reject" keeps each rung's pairs
    its delta from the walls, "clip" keeps them with balls clipped to
    the grid.
    """

    deltas: tuple[float, ...]
    radii: tuple[float, ...]
    boundary: str = "reject"

    def __post_init__(self):
        deltas = tuple(float(d) for d in self.deltas)
        radii = tuple(float(r) for r in self.radii)
        for name, values in (("deltas", deltas), ("radii", radii)):
            if not values or not all(0 < v < math.inf for v in values):
                raise ConfigError(f"{name} must be given, each a finite number > 0")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ConfigError(f"{name} must increase strictly")
        if self.boundary not in ("reject", "clip"):
            raise ConfigError(f"unknown boundary policy {self.boundary!r}")
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "radii", radii)
        if self.sizes[0] == 0:
            raise ConfigError("the first rung holds no radius: radii[0] exceeds deltas[0]")
        if self.sizes[-1] < len(radii):
            raise ConfigError("radii must not exceed the top delta")

    @property
    def sizes(self) -> list[int]:
        """Number of radii on each rung: rung k takes those up to deltas[k]."""
        return [sum(r <= d * _RADIUS_SLACK for r in self.radii) for d in self.deltas]

    @property
    def margins(self) -> np.ndarray:
        """Each rung's distance from the walls: its delta under "reject", 0 under "clip"."""
        deltas = np.asarray(self.deltas)
        return deltas if self.boundary == "reject" else np.zeros_like(deltas)


def _spread(lo: float, hi: float, count: int) -> list[float]:
    """`count` values spaced geometrically from min(lo, hi) up to hi, the
    top one exactly hi, with repeats dropped."""
    ladder = np.geomspace(min(lo, hi), hi, count)
    ladder[-1] = hi
    out = [float(ladder[0])]
    for v in ladder[1:]:
        if v > out[-1] * (1.0 + 1e-12):
            out.append(float(v))
    return out


def ladder_config(deltas, spacing: float) -> MaximalConfig:
    """The ladder on `deltas` (sorted), with one master radius set:
    geometric radii from twice the grid spacing up to the top delta, plus
    every delta.  A larger delta can only enlarge the maximum; scans rely
    on that when one coefficient field must dominate several pair scales.
    A delta below twice the grid spacing, where the geometric radii
    start, is refused.
    """
    deltas = sorted(float(d) for d in deltas)
    if not deltas or not all(0 < d < math.inf for d in deltas):
        raise ConfigError("need deltas, each a finite number > 0")
    if 2.0 * spacing > deltas[0] * _RADIUS_SLACK:
        raise ConfigError(f"delta {deltas[0]:g} is below twice the grid spacing {spacing:g}; "
                          "refine the grid")
    return MaximalConfig(deltas, sorted({*_spread(2.0 * spacing, deltas[-1], _LADDER_RADII),
                                         *deltas}))


def _ball_offsets(spacings: tuple[float, ...], radius: float):
    """Lattice offsets (leading axes) and last-axis half-widths inside the ball.

    Offsets come in lexicographic order.  Each axis's squares (q sp)^2
    are Python floats, summed axis by axis as a per-offset loop sums
    them, so a radius that is a multiple of the spacing breaks its ties
    the same way.  A 1-D ball is one run, found without numpy.
    """
    lead_spacings = spacings[:-1]
    sp_last = spacings[-1]
    r2 = radius * radius * _RADIUS_SLACK
    if not lead_spacings:
        return [((), int(math.floor(math.sqrt(r2) / sp_last)))]
    cells = [int(math.floor(radius * _RADIUS_SLACK / sp)) for sp in lead_spacings]
    sizes = [2 * c + 1 for c in cells]
    q = np.indices(sizes).reshape(len(cells), math.prod(sizes)).T - np.array(cells, dtype=int)
    partial = np.zeros(len(q))
    for k, (c, sp) in enumerate(zip(cells, lead_spacings)):
        partial = partial + np.array([(qi * sp) ** 2 for qi in range(-c, c + 1)])[q[:, k] + c]
    inside = partial <= r2
    widths = np.floor(np.sqrt(np.maximum(r2 - partial[inside], 0.0)) / sp_last)
    return list(zip(map(tuple, q[inside].tolist()), widths.astype(int).tolist()))


def _ball_counts(shape: tuple[int, ...], pad_cells, offsets,
                 box: tuple[slice, ...] | None = None) -> np.ndarray:
    """Number of grid nodes in each clipped lattice ball, on the node box
    `box` (one slice per axis; the whole grid by default).

    The count at node (i, j) is the sum over offsets (q, w) of the
    lead-axis in-range indicators prod_k 1[0 <= i_k + q_k < n_k] times
    the clipped last-axis run length min(j + w, n - 1) - max(j - w, 0) + 1.
    The run lengths are laid out on the offset lattice; each lead axis
    then sums node i's offset indices k = q + c in [c - i, c + n - 1 - i]
    clipped to [0, 2c], as a difference of two cumulative sums; threaded
    BLAS made a float tensordot here up to 50x slower.  Every term is a
    small integer, so the float counts are exact.
    """
    if box is None:
        box = tuple(slice(0, n) for n in shape)
    n_last = shape[-1]
    j = np.arange(box[-1].start, box[-1].stop)
    counts = np.zeros([2 * c + 1 for c in pad_cells[:-1]] + [len(j)])
    cells = np.array([q for q, _ in offsets]).reshape(len(offsets), -1) + pad_cells[:-1]
    width = np.array([w for _, w in offsets])[:, None]
    counts[tuple(cells.T)] = np.minimum(j + width, n_last - 1) - np.maximum(j - width, 0) + 1
    for axis, (c, n, nodes) in enumerate(zip(pad_cells[:-1], shape[:-1], box)):
        # replaces this axis's offsets by its nodes
        lead_zero = [(int(k == axis), 0) for k in range(counts.ndim)]
        csum = np.cumsum(np.pad(counts, lead_zero), axis=axis)
        i = np.arange(nodes.start, nodes.stop)
        counts = (np.take(csum, np.minimum(c + n - i, 2 * c + 1), axis=axis)
                  - np.take(csum, np.maximum(c - i, 0), axis=axis))
    return counts


def _within(inner: tuple[slice, ...], outer: tuple[slice, ...]) -> tuple[slice, ...]:
    """Node box `inner` as an index into an array laid out on box `outer`."""
    return tuple(slice(i.start - o.start, i.stop - o.start) for i, o in zip(inner, outer))


def _reach(offsets) -> list[int]:
    """Largest |offset| of a lattice ball along each axis, its last-axis
    half-width included."""
    return [max(map(abs, axis)) for axis in zip(*(q + (w,) for q, w in offsets))]


def _union(boxes) -> tuple[slice, ...]:
    """Smallest node box holding every box in `boxes`."""
    return tuple(slice(min(s.start for s in axis), max(s.stop for s in axis))
                 for axis in zip(*boxes))


def _box_key(boxes) -> tuple:
    """Node boxes as hashable (start, stop) pairs."""
    return tuple(tuple((s.start, s.stop) for s in box) for box in boxes)


@dataclass(frozen=True)
class _Group:
    """The lattice balls summed on one node box, and their flat layout.

    The run buffer is the box widened by the balls' largest lead offsets
    W (`run_shape`).  Each ball's sums take the shape `layout`: the box,
    plus the buffer's 2W rows on each lead axis after the first, so that
    sums and buffer share their strides and each (ball, offset) add is
    one contiguous slice of length `span`.  `steps` holds, per run
    half-width in ascending order, the two cumulative-sum slices whose
    difference is the run, and its (member, flat offset) adds.
    `divisors` is a member's exact node count, or None where
    `_ball_counts` counts it; `radii` maps each radius to its member and
    its box within the layout.
    """

    box: tuple[slice, ...]
    members: tuple[int, ...]
    run_shape: tuple[int, ...]
    layout: tuple[int, ...]
    span: int
    steps: tuple
    divisors: tuple
    radii: tuple


@dataclass(frozen=True)
class _Plan:
    """Everything a `ball_averages` call needs but the field's values;
    no array in it is the size of a grid."""

    pad_cells: tuple[int, ...]
    offsets: tuple
    csum_shape: tuple[int, ...]
    grid_rows: tuple[slice, ...]
    csum_rows: tuple[slice, ...]
    groups: tuple[_Group, ...]
    run_size: int


@lru_cache(maxsize=32)
def _ladder_plan(shape, spacings, radii, boxes) -> _Plan:
    """The lattice balls of `radii` on a grid, grouped by node box
    (`boxes` as `_box_key` pairs), with their flat layouts; the ladders
    of one grid and config share it."""
    boxes = [tuple(slice(a, b) for a, b in box) for box in boxes]
    pad_cells = tuple(int(math.floor(max(radii) * _RADIUS_SLACK / sp)) for sp in spacings)
    balls: dict[tuple, int] = {}
    which = [balls.setdefault(tuple(_ball_offsets(spacings, r)), len(balls)) for r in radii]
    offsets_of = tuple(balls)
    ball_boxes = [_union(box for box, b in zip(boxes, which) if b == ball)
                  for ball in range(len(balls))]
    reach = [_reach(offsets) for offsets in offsets_of]
    members_of: dict[tuple, list[int]] = {}
    for b, key in enumerate(_box_key(ball_boxes)):
        members_of.setdefault(key, []).append(b)
    wides = {key: [max(reach[b][k] for b in members) for k in range(len(shape) - 1)] + [0]
             for key, members in members_of.items()}
    # the cumulative sum holds the lead-axis rows some group's runs read:
    # its row t is grid row origin + t, zero outside the grid
    reads = _union([tuple(slice(a - w, b + w) for (a, b), w in zip(key, wides[key]))
                    for key in members_of])
    origin = [s.start for s in reads]
    c_last = pad_cells[-1]
    csum_shape = tuple(s.stop - s.start for s in reads[:-1]) + (shape[-1] + 2 * c_last + 1,)
    grid_rows = tuple(slice(max(s.start, 0), min(s.stop, n)) for s, n in zip(reads[:-1], shape))
    csum_rows = tuple(slice(g.start - o, g.stop - o) for g, o in zip(grid_rows, origin))
    groups = []
    for key, members in members_of.items():
        box, wide = ball_boxes[members[0]], wides[key]
        nodes = [s.stop - s.start for s in box]
        run_shape = tuple(n + 2 * w for n, w in zip(nodes, wide))
        strides = [math.prod(run_shape[k + 1:]) for k in range(len(box))]
        rows = tuple(slice(s.start - w - o, s.stop + w - o)
                     for s, w, o in zip(box[:-1], wide, origin))
        last = box[-1]
        adds: dict[int, list] = {}
        for p, b in enumerate(members):
            for q, width in offsets_of[b]:
                adds.setdefault(width, []).append(
                    (p, sum((qi + w) * s for qi, w, s in zip(q, wide, strides))))
        steps = tuple((rows + (slice(c_last + w + 1 + last.start, c_last + w + 1 + last.stop),),
                       rows + (slice(c_last - w + last.start, c_last - w + last.stop),),
                       tuple(adds[w]))
                      for w in sorted(adds))
        divisors = tuple(sum(2 * w + 1 for _, w in offsets_of[b])
                         if all(s.start >= c and s.stop + c <= n
                                for s, c, n in zip(box, reach[b], shape)) else None
                         for b in members)
        groups.append(_Group(
            box, tuple(members), run_shape, (nodes[0],) + run_shape[1:],
            sum((n - 1) * s for n, s in zip(nodes, strides)) + 1, steps, divisors,
            tuple((i, members.index(b), _within(boxes[i], box))
                  for i, b in enumerate(which) if b in members)))
    return _Plan(pad_cells, offsets_of, csum_shape, grid_rows, csum_rows, tuple(groups),
                 max(math.prod(g.run_shape) for g in groups))


def _box_groups(u: SampledField, radii, boxes, averages: dict):
    """Sum the box groups of a `ball_averages` call one at a time: after
    each, put the averages of its radii into `averages` (by radius
    index) and yield.  The caller's dict, not a yielded one, holds them,
    so a caller that pops an average frees it."""
    values = u.values
    plan = _ladder_plan(values.shape, u.grid.spacing, tuple(radii), _box_key(boxes))
    c_last = plan.pad_cells[-1]
    n_last = values.shape[-1]
    # the in-grid rows, summed straight into a zero border
    csum = np.zeros(plan.csum_shape)
    rows = plan.csum_rows
    np.cumsum(values[plan.grid_rows], axis=-1,
              out=csum[rows + (slice(c_last + 1, c_last + 1 + n_last),)])
    csum[rows + (slice(c_last + 1 + n_last, None),)] = csum[
        rows + (slice(c_last + n_last, c_last + n_last + 1),)]
    buffer = np.empty(plan.run_size)
    for group in plan.groups:
        run = buffer[:math.prod(group.run_shape)]
        # one array per ball, not one per group: a ball that a later rung
        # still needs then keeps only itself alive
        span = group.span
        sums = [np.zeros(math.prod(group.layout)) for _ in group.members]
        heads = [total[:span] for total in sums]
        for hi, lo, adds in group.steps:
            np.subtract(csum[hi], csum[lo], out=run.reshape(group.run_shape))
            for p, off in adds:
                heads[p] += run[off:off + span]
        if group is plan.groups[-1]:
            # the last group divides without the cumulative sum
            del csum, buffer, run
        for p, (b, count) in enumerate(zip(group.members, group.divisors)):
            if count:
                sums[p] /= count
            else:
                sums[p].reshape(group.layout)[_within(group.box, group.box)] /= _ball_counts(
                    values.shape, plan.pad_cells, plan.offsets[b], group.box)
        averages.update((i, sums[p].reshape(group.layout)[index]) for i, p, index in group.radii)
        yield
        del sums, heads


def ball_averages(u: SampledField, radii, boxes=None) -> list[np.ndarray]:
    """Counting-measure averages of u over lattice balls, one per radius,
    each on its node box in `boxes` (a slice per axis; the whole grid by
    default).

    Every grid node within Euclidean distance r of the center
    contributes with equal weight; near the grid boundary the ball is
    clipped to the grid.  The field is summed cumulatively along its
    last axis once, so a ball is a sum of last-axis runs (a summed-area
    table shared by the whole ladder, after Crow 1984).  The sum is
    bordered by zeros: on the last axis as wide as the largest radius,
    on the others as far as some group's runs read.  A lattice ball is
    summed only on the smallest box holding the boxes of all its radii,
    and the balls on one such box form a group.  The group shares one
    run-sum buffer: exactly the box on the last axis, and the box
    widened by its balls' largest lead offsets W on the others.  It is
    filled once per run half-width the group uses.  Each ball's sums
    keep the buffer's strides: a lead axis after the first carries 2W
    junk rows, never read.  Adding the buffer at one lead-axis offset
    is then one contiguous add of a flat slice.  The plan of the call
    (`_ladder_plan`: balls, groups, layouts, flat offsets and divisors)
    is cached by grid shape, spacing, radii and boxes, and holds no
    grid-sized array.  A ball whose reach stays inside the grid on its
    box divides by its node count, the integer sum of its runs 2w + 1;
    any other by `_ball_counts`.  Its additions always go widths
    ascending, then in `_ball_offsets` order, so its average depends
    neither on the other radii of the call nor on the boxes: it is the
    whole-grid average, sliced.  Results are views into their group's
    layout, and radii with the same lattice ball share one: never
    update a result in place.  A box list that is not one box per
    radius, each a nonempty slice within the grid per axis, raises
    `ConfigError`.
    """
    radii = [float(r) for r in radii]
    if not radii or not all(0 < r < math.inf for r in radii):
        raise ConfigError(f"ball radii must be given, finite and positive, got {radii}")
    boxes = _checked_boxes(boxes, u.values.shape, len(radii))
    averages: dict[int, np.ndarray] = {}
    for _ in _box_groups(u, radii, boxes, averages):
        pass
    return [averages[i] for i in range(len(radii))]


def _checked_boxes(boxes, shape, count: int) -> list[tuple[slice, ...]]:
    """`count` node boxes, each one nonempty in-grid slice per axis with
    int bounds, or `ConfigError`."""
    if boxes is None:
        return [tuple(slice(0, n) for n in shape)] * count
    out = []
    for box in boxes:
        if not (isinstance(box, (tuple, list)) and len(box) == len(shape) and all(
                isinstance(s, slice) and s.step in (None, 1)
                and all(isinstance(e, (int, np.integer)) and not isinstance(e, bool)
                        for e in (s.start, s.stop))
                and 0 <= s.start < s.stop <= n for s, n in zip(box, shape))):
            raise ConfigError(f"a node box is one nonempty slice per axis within the "
                              f"grid {shape}, got {box!r}")
        out.append(tuple(slice(int(s.start), int(s.stop)) for s in box))
    if len(out) != count:
        raise ConfigError(f"need one node box per radius: {count} radii, {len(out)} boxes")
    return out


def _node_boxes(grid: GridSpec, outer, margins) -> list[tuple[slice, ...]]:
    """Per rung, the node box (a slice per axis) holding every node that a
    pair drawn for it can touch as a cell corner, or the whole grid
    without `outer`.

    A rung's endpoints lie in the box `outer` (its `lo` and `hi`) shrunk
    by its margin, the same float bounds the pair sampler tests on both
    endpoints.  The sampler draws x inside that shrunk box, but x can
    round out of it, so the box rests on the test, not on the draw.  The
    box runs from the cell of the lower corner to the upper node of the
    cell of the upper corner, both clipped to the grid: a multilinear
    read-back takes every corner of its cell, and NaN * 0 is NaN.  Each
    box also holds the boxes above it, so the boxes nest even where a
    margin leaves no room at all.
    """
    if outer is None:
        return [tuple(slice(0, n) for n in grid.points)] * len(margins)
    margins = np.asarray(margins)[:, None]
    lower, upper = np.sort([np.asarray(outer.lo) + margins, np.asarray(outer.hi) - margins],
                           axis=0)
    first, _ = _grid_cells(grid, np.clip(lower, grid.lo, grid.hi))
    last, _ = _grid_cells(grid, np.clip(upper, grid.lo, grid.hi))
    boxes = [tuple(slice(int(a[r]), int(b[r]) + 2) for a, b in zip(first, last))
             for r in range(len(margins))]
    for r in reversed(range(len(boxes) - 1)):
        boxes[r] = _union((boxes[r], boxes[r + 1]))
    return boxes


def local_maximal_function(u: SampledField, config: MaximalConfig, outer=None) -> np.ndarray:
    """Local maximal functions of a nonnegative grid field on the rungs of
    `config`, each on its node box for pairs drawn in the box `outer`
    (`_node_boxes`; the whole grid without `outer`).

    One pass of `ball_averages`' groups covers every radius, each on the
    box of the first rung holding it.  As soon as the groups of a rung's
    new radii are summed, the rung extends the previous rung's maximum,
    cut to its own box, by them, and the sums no later rung reads are
    freed.  Returns the (R, *grid) stack, NaN outside each rung's box,
    so that a read there fails closed.
    """
    radii = config.radii
    if np.any(u.values < 0):
        raise ValueError("the maximal function expects a nonnegative field")
    if max(radii) < max(u.grid.spacing):
        raise ConfigError(
            "every radius is below the grid spacing; the ladder resolves nothing")
    sizes = config.sizes
    boxes = _node_boxes(u.grid, outer, config.margins)
    # the first rung holding radius i is the count of rungs with at most i radii
    radius_boxes = [boxes[sum(n <= i for n in sizes)] for i in range(len(radii))]
    starts = [0, *sizes[:-1]]
    averages: dict[int, np.ndarray] = {}
    rungs: list[np.ndarray] = []
    for _ in _box_groups(u, radii, radius_boxes, averages):
        # each rung extends the previous rung's maximum, cut to its box,
        # as soon as the groups of its new radii are done
        for k in range(len(rungs), len(sizes)):
            if not all(i in averages for i in range(starts[k], sizes[k])):
                break
            best = rungs[-1][_within(boxes[k], boxes[k - 1])] if k else None
            for i in range(starts[k], sizes[k]):
                avg = averages.pop(i)
                best = avg if best is None else np.maximum(best, avg)
            rungs.append(best)
    # made last, so that no group's sums are alive beside it
    stack = np.full((len(sizes),) + u.values.shape, np.nan)
    for rung, box, best in zip(stack, boxes, rungs):
        rung[box] = best
    return stack
