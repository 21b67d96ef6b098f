"""Ball and lens volumes, and discrete local maximal functions on grids.

The geometric constant attached to a point pair is the ratio between the
volume of a ball of radius r = |x - y| and the volume of the lens cut
out by two such balls centered at x and y, closed-form in any dimension.
Averaging a nonnegative grid field over lattice balls of several radii
and taking the largest average gives a discrete local Hardy-Littlewood
maximal function; scaled by the lens ratio it yields the coefficient
fields used by the inequality scans.
`ball_averages` averages a whole radius ladder in one pass: one
cumulative sum along the last grid axis, one run sum per run half-width,
and one sum per distinct lattice ball, each radius on its own node box.
`local_maximal_function` turns a ladder of nested rungs into one
(R, *grid) stack of maxima.  The two-endpoint scans read a rung only
where its pairs can reach, which under the "reject" boundary is the box
shrunk by the rung's delta, so each rung is built on that box only and
left NaN outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import ConfigError
from .fields import SampledField

__all__ = [
    "ball_volume",
    "lens_volume",
    "segment_ratio_constant",
    "MaximalConfig",
    "default_radii",
    "ladder_configs",
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

    Dimension 0 is allowed (volume 1) so cross-section profiles can
    recurse down to it.
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
    """Radius ladder for a local maximal function capped at scale delta.

    `radii` must increase strictly and stay in (0, delta]; `boundary`
    says how scans treat pairs near the box boundary ("reject" drops
    them, "clip" keeps them with balls clipped to the grid).
    """

    delta: float
    radii: tuple[float, ...]
    boundary: str = "reject"

    def __post_init__(self):
        if self.delta <= 0:
            raise ConfigError("delta must be positive")
        radii = tuple(float(r) for r in self.radii)
        if not radii:
            raise ConfigError("the radius ladder must be nonempty")
        if any(r <= 0 for r in radii):
            raise ConfigError("radii must be positive")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ConfigError("radii must increase strictly")
        if radii[-1] > self.delta * _RADIUS_SLACK:
            raise ConfigError("radii must not exceed delta")
        if self.boundary not in ("reject", "clip"):
            raise ConfigError(f"unknown boundary policy {self.boundary!r}")
        object.__setattr__(self, "radii", radii)


def default_radii(delta: float, spacing: float, count: int = 8) -> tuple[float, ...]:
    """Geometric radius ladder from twice the grid spacing up to delta."""
    if delta <= 0 or spacing <= 0:
        raise ConfigError("delta and spacing must be positive")
    lo = 2.0 * spacing
    if lo > delta * _RADIUS_SLACK:
        raise ConfigError(
            f"delta {delta:g} is below twice the grid spacing {spacing:g}; refine the grid")
    if count < 1:
        raise ConfigError("need at least one radius")
    ladder = np.geomspace(lo, max(delta, lo), count)
    out = []
    for r in ladder:
        if not out or r > out[-1] * (1.0 + 1e-12):
            out.append(float(r))
    return tuple(out)


def ladder_configs(deltas, spacing: float) -> list[MaximalConfig]:
    """One `MaximalConfig` per delta, with radii drawn from a shared master set.

    Because every config's radii are the master radii truncated at its
    delta, the resulting maximal functions are nested: a larger delta
    can only enlarge the maximum.  Scans rely on that monotonicity when
    a single coefficient field must dominate several pair scales.
    """
    deltas = sorted(float(d) for d in deltas)
    if not deltas:
        raise ConfigError("need at least one delta")
    if deltas[0] <= 0:
        raise ConfigError("deltas must be positive")
    master = set(default_radii(deltas[-1], spacing, _LADDER_RADII))
    for d in deltas:
        if 2.0 * spacing > d * _RADIUS_SLACK:
            raise ConfigError(f"delta {d:g} is below twice the grid spacing {spacing:g}")
        master.add(d)
    master_sorted = sorted(master)
    configs = []
    for d in deltas:
        radii = tuple(r for r in master_sorted if r <= d * _RADIUS_SLACK)
        configs.append(MaximalConfig(delta=d, radii=radii))
    return configs


def _ball_offsets(spacings: tuple[float, ...], radius: float):
    """Lattice offsets (leading axes) and last-axis half-widths inside the ball.

    Offsets come in lexicographic order.  Each axis's squares (q sp)^2
    are Python floats, summed axis by axis as a per-offset loop sums
    them, so a radius that is a multiple of the spacing breaks its ties
    the same way.
    """
    lead_spacings = spacings[:-1]
    sp_last = spacings[-1]
    r2 = radius * radius * _RADIUS_SLACK
    cells = [int(math.floor(radius * _RADIUS_SLACK / sp)) for sp in lead_spacings]
    sizes = [2 * c + 1 for c in cells]
    q = np.indices(sizes).reshape(len(cells), math.prod(sizes)).T - np.array(cells, dtype=int)
    partial = np.zeros(len(q))
    for k, (c, sp) in enumerate(zip(cells, lead_spacings)):
        partial = partial + np.array([(qi * sp) ** 2 for qi in range(-c, c + 1)])[q[:, k] + c]
    inside = partial <= r2
    widths = np.floor(np.sqrt(np.maximum(r2 - partial[inside], 0.0)) / sp_last)
    return list(zip(map(tuple, q[inside].tolist()), widths.astype(int).tolist()))


def _ball_counts(shape: tuple[int, ...], pad_cells: list[int], offsets,
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


def _union(boxes) -> tuple[slice, ...]:
    """Smallest node box holding every box in `boxes`."""
    return tuple(slice(min(s.start for s in axis), max(s.stop for s in axis))
                 for axis in zip(*boxes))


def ball_averages(u: SampledField, radii, boxes=None) -> list[np.ndarray]:
    """Counting-measure averages of u over lattice balls, one per radius,
    each on its node box in `boxes` (a slice per axis; the whole grid by
    default).

    Every grid node within Euclidean distance r of the center
    contributes with equal weight; near the grid boundary the ball is
    clipped to the grid.  The field is padded once, at the largest
    radius, and summed cumulatively along its last axis, so a ball is a
    sum of last-axis runs.  Each run half-width's run sum is formed once
    and added, at every lead-axis offset that uses it, into every ball
    holding it (a summed-area table shared by the whole ladder, after
    Crow 1984).  A lattice ball is summed only on the smallest box
    holding the boxes of all its radii.  Its additions always go widths
    ascending, then in `_ball_offsets` order, so its average depends
    neither on the other radii of the call nor on the boxes: it is the
    whole-grid average, sliced.  Radii with the same lattice ball share
    one array: never update a result in place.
    """
    radii = [float(r) for r in radii]
    if not radii or min(radii) <= 0:
        raise ConfigError("ball radii must be given and positive")
    values = u.values
    spacings = u.grid.spacing
    shape = values.shape
    if boxes is None:
        boxes = [tuple(slice(0, n) for n in shape)] * len(radii)
    pad_cells = [int(math.floor(max(radii) * _RADIUS_SLACK / sp)) for sp in spacings]
    balls: dict[tuple, int] = {}
    which = [balls.setdefault(tuple(_ball_offsets(spacings, r)), len(balls)) for r in radii]
    ball_boxes = [_union(box for box, b in zip(boxes, which) if b == ball)
                  for ball in range(len(balls))]
    # run sums are needed on the union of the boxes, widened on the lead
    # axes by the padding the offsets reach; a ball reads a width's run
    # sum on its own box, shifted by its lead-axis offset
    union = _union(ball_boxes)
    uses: dict[int, list] = {}
    for b, (offsets, box) in enumerate(zip(balls, ball_boxes)):
        box = _within(box, union)
        for q, width in offsets:
            uses.setdefault(width, []).append(
                (b, tuple(slice(c + qi + s.start, c + qi + s.stop)
                          for qi, c, s in zip(q, pad_cells, box)) + box[-1:]))
    lead = tuple(slice(s.start, s.stop + 2 * c) for s, c in zip(union[:-1], pad_cells))
    padded = np.pad(values, [(c, c) for c in pad_cells])[lead]
    csum = np.zeros(padded.shape[:-1] + (padded.shape[-1] + 1,))
    np.cumsum(padded, axis=-1, out=csum[..., 1:])
    del padded
    c_last = pad_cells[-1]
    last = union[-1]
    # one reused run-sum buffer: keeping every width's run sum would hold
    # a padded grid per width, several times the balls themselves
    run = np.empty(csum.shape[:-1] + (last.stop - last.start,))
    sums = [np.zeros([s.stop - s.start for s in box]) for box in ball_boxes]
    for width in sorted(uses):
        np.subtract(csum[..., c_last + width + 1 + last.start:c_last + width + 1 + last.stop],
                    csum[..., c_last - width + last.start:c_last - width + last.stop], out=run)
        for b, index in uses[width]:
            sums[b] += run[index]
    del csum, run
    for total, offsets, box in zip(sums, balls, ball_boxes):
        total /= _ball_counts(shape, pad_cells, offsets, box)
    return [sums[b][_within(box, ball_boxes[b])] for b, box in zip(which, boxes)]


def local_maximal_function(u: SampledField, configs, boxes) -> np.ndarray:
    """Local maximal functions of a nonnegative grid field on a ladder of
    rungs: rung r is the largest ball average over configs[r].radii, on
    the node box boxes[r] (a slice per axis).

    Each rung's radii extend the previous rung's radii (as from
    `ladder_configs`), and each box lies in the box before it.  One
    `ball_averages` call covers the top rung's radii, each radius on the
    box of the first rung holding it, and each rung extends the
    previous rung's maximum, cut to its own box, by its new radii.
    Returns the (R, *grid) stack, NaN outside each rung's box, so that
    a read there fails closed.
    """
    radii = configs[-1].radii
    if np.any(u.values < 0):
        raise ValueError("the maximal function expects a nonnegative field")
    if max(radii) < max(u.grid.spacing):
        raise ConfigError(
            "every radius is below the grid spacing; the ladder resolves nothing")
    if any(lower.radii != upper.radii[:len(lower.radii)]
           for lower, upper in zip(configs, configs[1:])):
        raise ConfigError("each rung's radii must extend the previous rung's radii")
    if any(i.start < o.start or i.stop > o.stop
           for outer, inner in zip(boxes, boxes[1:]) for o, i in zip(outer, inner)):
        raise ConfigError("each rung's node box must lie in the box before it")
    first = [min(r for r, cfg in enumerate(configs) if len(cfg.radii) > i)
             for i in range(len(radii))]
    averages = ball_averages(u, radii, [boxes[r] for r in first])
    stack = np.full((len(configs),) + u.values.shape, np.nan)
    best, best_box, done = None, None, 0
    for rung, cfg, box in zip(stack, configs, boxes):
        if best is not None:
            best = best[_within(box, best_box)]
        for avg in averages[done:len(cfg.radii)]:
            best = avg if best is None else np.maximum(best, avg)
        best_box, done = box, len(cfg.radii)
        rung[box] = best
    return stack
