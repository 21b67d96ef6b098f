"""Inequality scans over sampled point pairs, and the exact-identity suite.

A scan draws admissible point pairs from a domain, computes a pointwise
left-hand side (an interpolation remainder or finite difference of the
field, from `differences.lagrange_remainder` or `forward_difference` on
the whole pair batch) and a right-hand side built from maximal-function
coefficient fields, and reports the ratio distribution: any pair with
lhs > (1 + slack) * rhs counts as a violation.  All randomness flows
from one seeded generator, so reports are byte-for-byte reproducible.

The identity suite exercises the algebraic layer instead, through the
same `differences` functions: interpolation remainder versus forward
difference, the telescoping recursion, the iterated-integral
representation, difference annihilation on low-degree polynomials (exact
through `forward_difference` itself), and the exact sign law.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .differences import (
    QuadratureRule,
    _node_sum,
    binomial,
    forward_difference,
    g_integral,
    g_sum,
    lagrange_remainder,
    taylor_remainder,
    telescope_residual,
)
from .exceptions import ConfigError, EmptyScanError
from .fields import (
    AnalyticField,
    GridSpec,
    PolynomialField,
    PowerField,
    SampledField,
    _gather,
    _grid_cells,
    gradient_magnitude_field,
    random_polynomial,
    sample,
    scan_corpus,
)
from .maximal import (
    MaximalConfig,
    _union,
    default_radii,
    ladder_configs,
    local_maximal_function,
    segment_ratio_constant,
)
from .mollify import Mollifier, convolve, lp_norm

__all__ = [
    "Box",
    "Domain",
    "PairBatch",
    "PairSampler",
    "InequalityReport",
    "all_node_coefficient",
    "build_report",
    "lemma1_scan",
    "main_inequality_scan",
    "triebel_scan",
    "node_discard_check",
    "hatl_scan",
    "quasinorm_upper",
    "mollified_scan",
    "identity_suite",
]

_SAMPLE_BATCH = 8192
# Proposals a `PairSampler.draw` makes before it gives up.
_MAX_ATTEMPTS = 1_000_000


# ---------------------------------------------------------------------------
# domains and pair sampling


@dataclass(frozen=True)
class Box:
    """Axis-aligned closed box."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        if len(lo) != len(hi):
            raise ConfigError("box lo/hi must have the same length")
        if any(h <= l for l, h in zip(lo, hi)):
            raise ConfigError("box must have positive extent on every axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return len(self.lo)

    @classmethod
    def of_grid(cls, grid: GridSpec) -> "Box":
        return cls(grid.lo, grid.hi)


@dataclass(frozen=True)
class Domain:
    """A closed box, optionally minus an open box-shaped hole."""

    outer: Box
    hole: Box | None = None

    def __post_init__(self):
        if self.hole is not None:
            if self.hole.dim != self.outer.dim:
                raise ConfigError("hole dimension must match the outer box")
            if any(hl < ol or hh > oh for ol, oh, hl, hh in
                   zip(self.outer.lo, self.outer.hi, self.hole.lo, self.hole.hi)):
                raise ConfigError("the hole must sit inside the outer box")

    @property
    def dim(self) -> int:
        return self.outer.dim

    def contains(self, pts, margin=0.0) -> np.ndarray:
        """Membership mask, shrinking the domain by `margin` on all walls.

        `margin` may be a scalar or a per-point array; the hole, when
        present, is dilated by the same margin.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        margin = np.asarray(margin, dtype=float)
        if margin.ndim == 1:
            margin = margin[:, None]
        lo = np.asarray(self.outer.lo)
        hi = np.asarray(self.outer.hi)
        ok = np.all(pts >= lo + margin, axis=1) & np.all(pts <= hi - margin, axis=1)
        if self.hole is not None:
            hlo = np.asarray(self.hole.lo)
            hhi = np.asarray(self.hole.hi)
            in_hole = (np.all(pts > hlo - margin, axis=1)
                       & np.all(pts < hhi + margin, axis=1))
            ok &= ~in_hole
        return ok

    def contains_segments(self, x, y) -> np.ndarray:
        """Whether each open segment from x[i] to y[i] misses the hole.

        Endpoints are taken to lie in the domain.  The outer box is
        convex, so only the hole can cut a segment; a slab test finds,
        per axis, the parameters t in (0, 1) at which the segment lies
        strictly between the hole's walls, and the segment meets the
        open hole exactly when these intervals overlap.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if self.hole is None:
            return np.ones(len(x), dtype=bool)
        hlo = np.asarray(self.hole.lo)
        hhi = np.asarray(self.hole.hi)
        step = y - x
        moving = step != 0
        with np.errstate(divide="ignore", invalid="ignore"):
            t_lo = (hlo - x) / step
            t_hi = (hhi - x) / step
        # an axis the segment does not move along admits every t or none
        inside = (x > hlo) & (x < hhi)
        enter = np.where(moving, np.minimum(t_lo, t_hi), np.where(inside, -np.inf, np.inf))
        leave = np.where(moving, np.maximum(t_lo, t_hi), np.where(inside, np.inf, -np.inf))
        t_enter = np.maximum(enter.max(axis=1), 0.0)
        t_leave = np.minimum(leave.min(axis=1), 1.0)
        return t_enter >= t_leave

    def to_dict(self) -> dict:
        out = {"outer": {"lo": list(self.outer.lo), "hi": list(self.outer.hi)}}
        if self.hole is not None:
            out["hole"] = {"lo": list(self.hole.lo), "hi": list(self.hole.hi)}
        return out


@dataclass(frozen=True)
class PairBatch:
    """Admissible point pairs in draw order."""

    x: np.ndarray
    y: np.ndarray
    dist: np.ndarray
    attempts: int


@dataclass(frozen=True)
class PairSampler:
    """Seeded sampler for point pairs in a domain.

    Each proposal draws x uniformly in the outer box and sets
    y = x + r u, with u a normalized standard Gaussian (a uniform
    direction) and r of density proportional to r^(n-1) on
    [min_sep, max_sep], drawn by inverse CDF, so that (x, y) is uniform
    on {x in box, min_sep <= |y - x| <= max_sep}.  A pair is kept when
    its computed separation is in that band, both endpoints lie in the
    domain shrunk by a caller-supplied margin that depends only on the
    separation, and the connecting segment misses the hole.  Kept pairs
    thus follow the law of independent uniform endpoints kept by the
    same tests.  `attempts` counts proposals; identical settings always
    reproduce the same pairs.
    """

    domain: Domain
    count: int
    seed: int
    min_sep: float
    max_sep: float

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError("need at least one pair")
        if self.seed < 0:
            raise ConfigError("the seed must be nonnegative")
        if not 0 < self.min_sep <= self.max_sep < math.inf:
            raise ConfigError("separations must be finite and satisfy 0 < min_sep <= max_sep")

    def draw(self, margin_of=None) -> PairBatch:
        rng = np.random.default_rng(self.seed)
        lo = np.asarray(self.domain.outer.lo)
        hi = np.asarray(self.domain.outer.hi)
        dim = self.domain.dim
        band_lo = self.min_sep ** dim
        band_hi = self.max_sep ** dim
        xs, ys, ds = [], [], []
        found = 0
        attempts = 0
        while found < self.count:
            if attempts >= _MAX_ATTEMPTS:
                raise EmptyScanError(
                    f"only {found} of {self.count} admissible pairs found in "
                    f"{attempts} attempts; the margins or separations leave "
                    "too little room")
            x = rng.uniform(lo, hi, size=(_SAMPLE_BATCH, dim))
            u = rng.standard_normal((_SAMPLE_BATCH, dim))
            r = (band_lo + rng.random(_SAMPLE_BATCH) * (band_hi - band_lo)) ** (1.0 / dim)
            attempts += _SAMPLE_BATCH
            norm = np.linalg.norm(u, axis=1)
            keep = norm > 0
            x = x[keep]
            y = x + (r[keep] / norm[keep])[:, None] * u[keep]
            # separation rounding can leave the band at its edges
            d = np.linalg.norm(y - x, axis=1)
            keep = (d >= self.min_sep) & (d <= self.max_sep)
            x, y, d = x[keep], y[keep], d[keep]
            margin = np.zeros(len(d)) if margin_of is None else np.asarray(
                margin_of(d), dtype=float)
            keep = (self.domain.contains(x, margin) & self.domain.contains(y, margin)
                    & self.domain.contains_segments(x, y))
            x, y, d = x[keep], y[keep], d[keep]
            xs.append(x)
            ys.append(y)
            ds.append(d)
            found += len(d)
        x = np.concatenate(xs)[: self.count]
        y = np.concatenate(ys)[: self.count]
        d = np.concatenate(ds)[: self.count]
        return PairBatch(x=x, y=y, dist=d, attempts=attempts)

    def to_dict(self) -> dict:
        return {
            "domain": self.domain.to_dict(),
            "count": self.count,
            "seed": self.seed,
            "min_sep": self.min_sep,
            "max_sep": self.max_sep,
        }


# ---------------------------------------------------------------------------
# reports


@dataclass
class InequalityReport:
    """Ratio statistics of one scan, plus the raw per-pair arrays.

    The JSON form carries parameters, counts, the maximum ratio, the
    50/90/99 percent quantiles, the slack, and one record per violating
    pair.  Per-pair arrays stay on the object for CSV export.
    """

    params: dict
    n_pairs: int
    n_violations: int
    n_nonfinite: int
    max_ratio: float
    quantiles: dict
    slack: float
    violations: list
    x: np.ndarray = field(repr=False, default=None)
    y: np.ndarray = field(repr=False, default=None)
    lhs: np.ndarray = field(repr=False, default=None)
    rhs: np.ndarray = field(repr=False, default=None)
    ratio: np.ndarray = field(repr=False, default=None)

    @property
    def passed(self) -> bool:
        return self.n_violations == 0

    def to_dict(self) -> dict:
        return {
            "params": self.params,
            "n_pairs": self.n_pairs,
            "n_violations": self.n_violations,
            "n_nonfinite": self.n_nonfinite,
            "max_ratio": self.max_ratio,
            "quantiles": self.quantiles,
            "slack": self.slack,
            "violations": self.violations,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def write_json(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())

    def write_csv(self, path) -> None:
        dim = self.x.shape[1]
        cols = ([f"x{i}" for i in range(dim)] + [f"y{i}" for i in range(dim)]
                + ["lhs", "rhs", "ratio", "violation"])
        with open(path, "w") as handle:
            handle.write("index," + ",".join(cols) + "\n")
            for i in range(self.n_pairs):
                row = [str(i)]
                row += [repr(float(v)) for v in self.x[i]]
                row += [repr(float(v)) for v in self.y[i]]
                row += [repr(float(self.lhs[i])), repr(float(self.rhs[i])),
                        repr(float(self.ratio[i]))]
                row.append(str(int(self.ratio[i] > 1.0 + self.slack)))
                handle.write(",".join(row) + "\n")


def _ratios(lhs: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair ratios lhs / rhs that fail closed, and the non-finite mask.

    Ratios: lhs / rhs where rhs > 0; exactly 0 when both sides vanish;
    +inf when rhs vanishes but lhs does not, and +inf when either side
    is not finite, so that a NaN or infinity can never pass.
    """
    nonfinite = ~(np.isfinite(lhs) & np.isfinite(rhs))
    ratio = np.zeros_like(lhs)
    pos = rhs > 0
    with np.errstate(invalid="ignore"):
        ratio[pos] = lhs[pos] / rhs[pos]
    ratio[~pos & (lhs > 0)] = math.inf
    ratio[nonfinite] = math.inf
    return ratio, nonfinite


def _checked_slack(slack: float) -> float:
    """The slack, if a finite number >= 0: a NaN or infinite one passes every ratio."""
    if not (math.isfinite(slack) and slack >= 0):
        raise ConfigError(f"the slack must be a finite number >= 0, got {slack!r}")
    return slack


def build_report(params: dict, x: np.ndarray, y: np.ndarray,
                 lhs: np.ndarray, rhs: np.ndarray, slack: float) -> InequalityReport:
    """Assemble a report from per-pair arrays.

    Ratios follow `_ratios`: an infinite ratio (vanishing right side
    under a nonzero left side, or a non-finite side) is always a
    violation and is reported distinctly in the violation records;
    `n_nonfinite` counts the pairs with a non-finite side.  The slack
    must pass `_checked_slack`.
    """
    _checked_slack(slack)
    if len(x) == 0:
        raise EmptyScanError("no pairs to report on")
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    ratio, nonfinite = _ratios(lhs, rhs)
    mask = ratio > 1.0 + slack
    violations = []
    for i in np.flatnonzero(mask):
        violations.append({
            "x": [float(v) for v in x[i]],
            "y": [float(v) for v in y[i]],
            "lhs": float(lhs[i]),
            "rhs": float(rhs[i]),
            "ratio": float(ratio[i]),
        })
    # order statistics rather than interpolated quantiles: infinities from
    # vanishing right-hand sides then pass through without inf - inf noise
    q50, q90, q99 = np.quantile(ratio, [0.5, 0.9, 0.99], method="lower")
    return InequalityReport(
        params=params,
        n_pairs=int(len(x)),
        n_violations=int(mask.sum()),
        n_nonfinite=int(nonfinite.sum()),
        max_ratio=float(np.max(ratio)),
        quantiles={"p50": float(q50), "p90": float(q90), "p99": float(q99)},
        slack=float(slack),
        violations=violations,
        x=x, y=y, lhs=lhs, rhs=rhs, ratio=ratio,
    )


# ---------------------------------------------------------------------------
# coefficient ladders shared by the scans


class _CoefficientLadder:
    """Maximal coefficient fields on a delta ladder, with their read-back.

    Each rung's radii extend the previous rung's radii (as from
    `_rung_configs`), so the fields are monotone in delta; each pair
    then uses the smallest ladder delta at or above its separation.
    The rungs are `local_maximal_function` of |grad^order f|, scaled in
    place by the lens ratio C(n): one (R, *grid) `stack`, which
    `coefficient_at` gathers from with the rung as leading index.

    Given the sampler's `outer` box, each rung is built only on its node
    box (`_node_boxes`), the nodes its pairs can touch; `stack` is NaN
    outside a rung's box, so a read there fails closed.  Without `outer`
    every rung covers the whole grid.
    """

    def __init__(self, f: AnalyticField, grid: GridSpec, order: int,
                 configs: list[MaximalConfig], outer: Box | None = None):
        self.grid = grid
        self.order = order
        self.configs = configs
        self.boundary = configs[-1].boundary
        self.deltas = np.asarray([c.delta for c in configs])
        self.gradient = gradient_magnitude_field(f, grid, order)
        margins = self.deltas if self.boundary == "reject" else np.zeros_like(self.deltas)
        self.boxes = _node_boxes(grid, outer, margins)
        self.stack = local_maximal_function(self.gradient, configs, self.boxes)
        self.stack *= segment_ratio_constant(grid.dim)

    @property
    def fields(self) -> list[SampledField]:
        """The rungs as sampled fields, for whole-grid ladders only: a
        rung built on a node box is NaN outside it, which `SampledField`
        refuses."""
        return [SampledField(self.grid, rung) for rung in self.stack]

    def all_node(self) -> SampledField:
        """The all-node coefficient order^order * a at the top delta."""
        return SampledField(self.grid, float(self.order) ** self.order * self.stack[-1])

    def delta_index(self, dist: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.deltas, dist, side="left")
        if np.any(dist > self.deltas[-1] * (1.0 + 1e-9)):
            raise ConfigError("pair separation exceeds the largest ladder delta")
        return np.minimum(idx, len(self.deltas) - 1)

    def margin_of(self, dist: np.ndarray) -> np.ndarray:
        if self.boundary == "clip":
            return np.zeros_like(dist)
        return self.deltas[self.delta_index(dist)]

    def coefficient_at(self, idx: np.ndarray, pts: np.ndarray,
                       stack: np.ndarray | None = None) -> np.ndarray:
        """Rung idx[i]'s coefficient at pts[i], read back from `stack`
        (R, *grid), the ladder's own by default, as `SampledField.at` would."""
        stack = self.stack if stack is None else stack
        return _gather(stack, _grid_cells(self.grid, pts), idx)

    def endpoint_rhs(self, pairs: PairBatch, stack: np.ndarray | None = None) -> np.ndarray:
        """Two-endpoint right side |x - y|^order * (a(x) + a(y)) at each pair's rung."""
        idx = self.delta_index(pairs.dist)
        return pairs.dist ** self.order * (self.coefficient_at(idx, pairs.x, stack)
                                           + self.coefficient_at(idx, pairs.y, stack))


def _node_boxes(grid: GridSpec, outer: Box | None, margins) -> list[tuple[slice, ...]]:
    """Per rung, the node box (a slice per axis) holding every node that a
    pair drawn for it can touch as a cell corner, or the whole grid
    without `outer`.

    A rung's endpoints lie in `outer` shrunk by its margin, the same
    float bounds the sampler tests.  The box runs from the cell of the
    lower corner to the upper node of the cell of the upper corner,
    both clipped to the grid: a multilinear read-back takes every
    corner of its cell, and NaN * 0 is NaN.  Each box also holds the
    boxes above it, so the boxes nest even where a margin leaves no
    room at all.
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


def _rung_configs(sampler: PairSampler, grid: GridSpec,
                  config: MaximalConfig | None) -> list[MaximalConfig]:
    """Rungs of the coefficient ladder covering the sampler's separations.

    A given config is the only rung, radii and boundary included.
    Otherwise four deltas spaced geometrically from max(min_sep, twice
    the grid spacing) up to max_sep share one master radius set
    (`ladder_configs`).
    """
    if config is not None:
        if config.delta < sampler.max_sep * (1.0 - 1e-12):
            raise ConfigError(
                "the config delta must cover the largest pair separation")
        return [config]
    spacing = max(grid.spacing)
    lo = max(sampler.min_sep, 2.0 * spacing)
    if lo > sampler.max_sep:
        raise ConfigError("max_sep is below twice the grid spacing; refine the grid")
    deltas = np.geomspace(lo, sampler.max_sep, 4)
    deltas[-1] = sampler.max_sep
    keep = [deltas[0]]
    for d in deltas[1:]:
        if d > keep[-1] * (1.0 + 1e-12):
            keep.append(float(d))
    return ladder_configs(keep, spacing)


def all_node_coefficient(f: AnalyticField, order: int, grid: GridSpec,
                         sampler: PairSampler, config=None) -> SampledField:
    """Coefficient field g = order^order * a for the all-node sum bound.

    `a` is the top field of the coefficient ladder that
    `main_inequality_scan` builds for the same sampler and config, so g
    is the field `node_discard_check` checks against, bit for bit.  A
    `MaximalConfig` is used as given: its delta, radii and boundary.
    """
    ladder = _CoefficientLadder(f, grid, order, _rung_configs(sampler, grid, config))
    return ladder.all_node()


def _ladder_pairs(f: AnalyticField, order: int, grid: GridSpec, sampler: PairSampler,
                  configs: list[MaximalConfig], margin: float = 0.0, boxed: bool = False):
    """Shared start of the ladder scans.

    Builds the coefficient ladder over `configs`, on the sampler's node
    boxes when `boxed` (for scans that read the ladder only at pair
    endpoints), and draws pairs kept their rung delta (under "reject")
    plus `margin` from the walls.  Returns the ladder, the pairs, and
    the report params every ladder scan carries.
    """
    if order < 1:
        raise ConfigError("the scan needs order >= 1")
    ladder = _CoefficientLadder(f, grid, order, configs,
                                sampler.domain.outer if boxed else None)
    pairs = sampler.draw(lambda dist: ladder.margin_of(dist) + margin)
    params = {"deltas": [float(d) for d in ladder.deltas], "boundary": ladder.boundary,
              "attempts": pairs.attempts}
    return ladder, pairs, params


def _main_sides(f: AnalyticField, ladder: _CoefficientLadder,
                pairs: PairBatch) -> tuple[np.ndarray, np.ndarray]:
    """Main-scan sides |f(y) - L(y)| and |x - y|^order * (a(x) + a(y))."""
    lhs = np.abs(lagrange_remainder(f, pairs.x, pairs.y, ladder.order))
    return lhs, ladder.endpoint_rhs(pairs)


def _scan_report(name: str, f: AnalyticField, order: int, grid: GridSpec,
                 sampler: PairSampler, slack: float, x: np.ndarray, y: np.ndarray,
                 lhs: np.ndarray, rhs: np.ndarray, **extra) -> InequalityReport:
    """Report of one scan: the params every scan carries, plus `extra`."""
    params = {
        "scan": name,
        "field": str(f),
        "dim": f.dim,
        "order": order,
        "grid": {"lo": list(grid.lo), "hi": list(grid.hi), "points": list(grid.points)},
        "sampler": sampler.to_dict(),
        "slack": slack,
        **extra,
    }
    return build_report(params, x, y, lhs, rhs, slack)


# ---------------------------------------------------------------------------
# the scans


def main_inequality_scan(f: AnalyticField, order: int, grid: GridSpec,
                         sampler: PairSampler, config=None, *,
                         slack: float = 0.05) -> InequalityReport:
    """Scan |f(y) - L(y)| <= |x - y|^order * (a(x) + a(y)).

    The left side is the order-th interpolation remainder (computed by
    the interpolation route); the coefficient a is the lens-ratio-scaled
    local maximal function of |grad^order f| at the pair's ladder delta,
    read back by multilinear interpolation.  A `MaximalConfig` is the
    ladder's only rung, used as given.
    """
    configs = _rung_configs(sampler, grid, config)
    ladder, pairs, params = _ladder_pairs(f, order, grid, sampler, configs, boxed=True)
    lhs, rhs = _main_sides(f, ladder, pairs)
    name = "lemma1" if order == 1 else "main_inequality"
    return _scan_report(name, f, order, grid, sampler, slack, pairs.x, pairs.y, lhs, rhs,
                        radii_master=[float(r) for r in configs[-1].radii],
                        constant=segment_ratio_constant(grid.dim), **params)


def lemma1_scan(f: AnalyticField, grid: GridSpec, sampler: PairSampler,
                config=None, *, slack: float = 0.05) -> InequalityReport:
    """First-order scan |f(x) - f(y)| <= |x - y| * (a(x) + a(y))."""
    return main_inequality_scan(f, 1, grid, sampler, config, slack=slack)


def triebel_scan(f: AnalyticField, order: int, s: float, g: SampledField,
                 sampler: PairSampler, *, slack: float = 0.05) -> InequalityReport:
    """Scan |diff_h^order f(x)| <= |h|^s * sum_l g(x + l h) with h = (y - x) / order.

    Pairs whose step exceeds one, or whose nodes leave the grid of g,
    are skipped and counted in the params.
    """
    if order < 1:
        raise ConfigError("the scan needs order >= 1")
    if s <= 0:
        raise ConfigError("the exponent s must be positive")
    if np.any(g.values < 0):
        raise ValueError("the coefficient field g must be nonnegative")
    pairs = sampler.draw()
    h = (pairs.y - pairs.x) / order
    hlen = np.linalg.norm(h, axis=1)
    keep = hlen <= 1.0
    skipped_long = int(np.sum(~keep))
    g_box = Domain(Box.of_grid(g.grid))
    inside = np.ones(len(pairs.x), dtype=bool)
    for l in range(order + 1):
        inside &= g_box.contains(pairs.x + l * h)
    skipped_outside = int(np.sum(keep & ~inside))
    keep &= inside
    if not np.any(keep):
        raise EmptyScanError("all pairs were skipped (step too long or nodes outside g)")
    x, y, h, hlen = pairs.x[keep], pairs.y[keep], h[keep], hlen[keep]
    lhs = np.abs(forward_difference(f, x, h, order))
    rhs = hlen ** s * _node_sum(g.at, x, h, [1] * (order + 1))
    return _scan_report("triebel", f, order, g.grid, sampler, slack, x, y, lhs, rhs,
                        s=float(s), skipped_long_step=skipped_long,
                        skipped_outside=skipped_outside, attempts=pairs.attempts)


def node_discard_check(f: AnalyticField, order: int, grid: GridSpec,
                       sampler: PairSampler, *, slack: float = 0.05) -> InequalityReport:
    """Pass from the two-endpoint bound to the all-node sum bound.

    Runs the main scan's geometry once, then re-checks the same pairs
    against |h|^order * sum_l g(x + l h) with the single coefficient
    field g = order^order * a built at the top ladder delta.  Nested
    radii make the top field dominate every per-delta field, so zero
    violations here certify the node-discarding step numerically.
    """
    configs = _rung_configs(sampler, grid, None)
    ladder, pairs, params = _ladder_pairs(f, order, grid, sampler, configs)
    main_ratio, _ = _ratios(*_main_sides(f, ladder, pairs))
    h = (pairs.y - pairs.x) / order
    lhs = np.abs(forward_difference(f, pairs.x, h, order))
    g = ladder.all_node()
    rhs = np.linalg.norm(h, axis=1) ** order * _node_sum(g.at, pairs.x, h, [1] * (order + 1))
    return _scan_report("node_discard", f, order, grid, sampler, slack,
                        pairs.x, pairs.y, lhs, rhs,
                        g_scale=float(order) ** order,
                        main_max_ratio=float(np.max(main_ratio)),
                        main_violations=int(np.sum(main_ratio > 1.0 + slack)), **params)


def hatl_scan(f: AnalyticField, order: int, s: float, g: SampledField,
              sampler: PairSampler, *, slack: float = 0.05) -> InequalityReport:
    """Scan the fractional-exponent class bound
    |remainder| <= |x - y|^s * (g(x) + g(y)) with 0 < s <= order."""
    if order < 1:
        raise ConfigError("the scan needs order >= 1")
    if not 0 < s <= order:
        raise ConfigError("the exponent must satisfy 0 < s <= order")
    if np.any(g.values < 0):
        raise ValueError("the coefficient field g must be nonnegative")
    pairs = sampler.draw()
    lhs = np.abs(lagrange_remainder(f, pairs.x, pairs.y, order))
    rhs = pairs.dist ** s * (g.at(pairs.x) + g.at(pairs.y))
    return _scan_report("hatl", f, order, g.grid, sampler, slack, pairs.x, pairs.y,
                        lhs, rhs, s=float(s), attempts=pairs.attempts)


def quasinorm_upper(f: AnalyticField, order: int, p: float, grid: GridSpec) -> float:
    """Upper bound ||f||_p + ||order^order * a||_p for the class quasinorm.

    `a` is the one-rung coefficient ladder at scale delta = a quarter of
    the smallest box side, on the whole grid.
    """
    delta = min(grid.extent) / 4.0
    config = MaximalConfig(delta=delta, radii=default_radii(delta, max(grid.spacing)))
    coeff = _CoefficientLadder(f, grid, order, [config]).all_node()
    return lp_norm(sample(f, grid), p) + lp_norm(coeff, p)


def mollified_scan(f: AnalyticField, order: int, epsilon: float, grid: GridSpec,
                   sampler: PairSampler, *, slack: float = 0.05,
                   profile: str = "bump") -> InequalityReport:
    """Main scan for the mollified field and mollified coefficients.

    The field and each ladder coefficient field are convolved with the
    same kernel; differences of the smoothed field come from multilinear
    interpolation of the convolved samples.  Pairs keep an extra margin
    of one kernel support from the boundary so no contaminated value is
    ever read.
    """
    if order < 1:
        raise ConfigError("the scan needs order >= 1")
    phi = Mollifier(epsilon, grid.dim, profile=profile)
    margin_len = phi.margin_length(grid.spacing)
    configs = _rung_configs(sampler, grid, None)
    if not phi.leaves_room(grid, configs[-1].delta):
        raise EmptyScanError(
            "the interior eroded by the kernel support and the ladder delta is empty")
    ladder, pairs, params = _ladder_pairs(f, order, grid, sampler, configs, margin_len)
    f_eps = convolve(sample(f, grid), phi)
    stack_eps = np.stack([convolve(fld, phi).values for fld in ladder.fields])
    h = (pairs.y - pairs.x) / order
    lhs = np.abs(forward_difference(f_eps, pairs.x, h, order))
    rhs = ladder.endpoint_rhs(pairs, stack_eps)
    return _scan_report("mollified", f, order, grid, sampler, slack, pairs.x, pairs.y,
                        lhs, rhs, epsilon=float(epsilon), profile=profile,
                        kernel_margin=float(margin_len), **params)


# ---------------------------------------------------------------------------
# the exact-identity suite


def _identity_fields(rng: np.random.Generator, dim: int, index: int):
    """Rotate through random polynomials, the smooth corpus, and radial powers.

    The radial power lives on a positive-orthant box, so segments and
    positive telescoping steps stay clear of its excluded ball.
    """
    if index % 5 == 4:
        alpha = float(rng.uniform(0.5, 3.0))
        return PowerField(alpha, dim=dim), (np.full(dim, 0.3), np.full(dim, 1.3))
    if index % 3 != 0:
        return random_polynomial(rng, dim), _poly_box(dim)
    corpus = scan_corpus(dim)
    f = corpus[index // 3 % len(corpus)]
    return f, _poly_box(dim)


def _poly_box(dim: int):
    return np.full(dim, -1.2), np.full(dim, 1.2)


def _draw_pair(rng, lo, hi, min_sep=0.05):
    for _ in range(100):
        x = rng.uniform(lo, hi)
        y = rng.uniform(lo, hi)
        if np.linalg.norm(y - x) >= min_sep:
            return x, y
    raise EmptyScanError("could not draw a separated pair")


# the telescoping residual's bound in units of roundoff u = 2^-53
_TELESCOPE_C = 16


def _telescope_scale(f: AnalyticField, x, h, order: int) -> float:
    """sum_j C(order, j) (|f(x_j)| + sum_i |x_j,i d_i f(x_j)|), x_j = x + j h.

    The residual's three node sums round off by at most (order + 2) u
    times twice the first part (Higham 2002, chs. 3-4), so order <= 6
    gives c = `_TELESCOPE_C` = 16; the second part covers the shifted
    nodes (x + h) + j h, a few units off x + (j + 1) h per coordinate."""
    nodes = x + np.arange(order + 1)[:, None] * h
    size = np.abs(f.value_batch(nodes)) + np.abs(f.partials_batch(nodes, 1).T * nodes).sum(1)
    return float(sum(binomial(order, j) * size[j] for j in range(order + 1)))


def identity_suite(draws: int = 200, seed: int = 0, *, binom=binomial) -> dict:
    """Battery of exact algebraic identities at machine-precision tolerances.

    Residuals are relative to 1 + the identity's own magnitude, except
    telescoping, relative to `_telescope_scale`, and annihilation, an exact
    polynomial `forward_difference` that must be 0.  The
    `binom` argument is the fault-injection hook: replacing it with a
    corrupted table must break the suite.
    """
    if draws < 1:
        raise ConfigError("the identity suite needs at least one draw")
    if seed < 0:
        raise ConfigError("the seed must be nonnegative")
    rng = np.random.default_rng(seed)
    results = {
        "lagrange_vs_difference": {"tolerance": 1e-10, "max_residual": 0.0},
        "telescoping": {"tolerance": _TELESCOPE_C * 2.0 ** -53, "max_residual": 0.0},
        "integral_representation": {"tolerance": 1e-9, "max_residual": 0.0},
        "quadrature_cross_check": {"tolerance": 1e-9, "max_residual": 0.0},
        "annihilation": {"tolerance": 0.0, "max_residual": 0.0},
        "leading_coefficient": {"tolerance": 1e-12, "max_residual": 0.0},
        "sign_law": {"tolerance": 0.0, "max_residual": 0.0},
        "taylor_annihilation": {"tolerance": 0.0, "max_residual": 0.0},
    }

    def bump(name, residual):
        entry = results[name]
        entry["max_residual"] = max(entry["max_residual"], abs(residual))
        entry["draws"] = entry.get("draws", 0) + 1

    for i in range(draws):
        dim = int(rng.integers(1, 4))
        f, (lo, hi) = _identity_fields(rng, dim, i)
        order = int(rng.integers(1, 7))
        x, y = _draw_pair(rng, lo, hi)
        h = (y - x) / order
        lr = lagrange_remainder(f, x, y, order)
        fd = forward_difference(f, x, h, order, binom=binom)
        bump("lagrange_vs_difference", (lr - fd) / (1.0 + max(abs(lr), abs(fd))))
        gs = g_sum(f, x, h, order, binom=binom)
        bump("sign_law", gs - (fd if order % 2 == 0 else -fd))

        k = int(rng.integers(1, 7))
        if isinstance(f, PowerField):
            # positive steps from a positive-orthant box keep every node
            # clear of the excluded ball
            step = rng.uniform(0.0, 0.15, dim)
        else:
            step = rng.uniform(-0.3, 0.3, dim)
        res = telescope_residual(f, x, step, k, binom=binom)
        scale = _telescope_scale(f, x, step, k)
        bump("telescoping", res / scale if scale else (0.0 if res == 0 else math.inf))

    for i in range(max(draws // 2, 50)):
        dim = int(rng.integers(1, 4))
        poly = random_polynomial(rng, dim)
        order = int(rng.integers(1, 5))
        x = rng.uniform(-1.0, 1.0, dim)
        h = rng.uniform(-0.4, 0.4, dim)
        if not np.any(h):
            h = np.full(dim, 0.1)
        fd = forward_difference(poly, x, h, order, binom=binom)
        den = 1.0 + abs(fd)
        tensor = g_integral(poly, x, h, order, QuadratureRule.gauss_tensor())
        collapsed = g_integral(poly, x, h, order, QuadratureRule.irwin_hall())
        bump("integral_representation", (tensor - fd) / den)
        bump("integral_representation", (collapsed - fd) / den)
        bump("quadrature_cross_check", (tensor - collapsed) / den)

        order = int(rng.integers(1, 7))
        low = random_polynomial(rng, dim, exact_degree=order - 1)
        xa = rng.uniform(-1.0, 1.0, dim)
        ha = rng.uniform(-0.4, 0.4, dim)
        bump("annihilation", forward_difference(low, xa, ha, order, binom=binom))
        ya = rng.uniform(-1.0, 1.0, dim)
        if not np.array_equal(xa, ya):
            bump("taylor_annihilation", taylor_remainder(low, xa, ya, order))

        mono_order = int(rng.integers(1, 7))
        mono = PolynomialField({(mono_order,): 1}, dim=1)
        hx = float(rng.uniform(0.05, 0.5))
        fd = forward_difference(mono, [0.0], [hx], mono_order, binom=binom)
        expected = math.factorial(mono_order) * hx ** mono_order
        bump("leading_coefficient", (fd - expected) / (1.0 + abs(expected)))

    passed = True
    for entry in results.values():
        entry["passed"] = entry["max_residual"] <= entry["tolerance"]
        passed = passed and entry["passed"]
    return {"passed": passed, "seed": seed, "draws": draws, "identities": results}
