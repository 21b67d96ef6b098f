"""Inequality scans over sampled point pairs, and the exact-identity suite.

A scan draws admissible point pairs from a domain as one `PairBatch`
and scores it through one pipeline: `_blockwise` hands each block of
pairs, itself a `PairBatch` of views, to a side function, which returns
the pointwise left-hand side (an interpolation remainder or finite
difference of the field, from `differences.lagrange_remainder` or
`forward_difference`) and the right-hand side.  The ladder scans read
their coefficients only from the stack of their `_CoefficientLadder`,
built from one `MaximalConfig`; the others take a coefficient field g.
`_scan_report` reports the ratio distribution: any pair with
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
    Box,
    GridSpec,
    PolynomialField,
    PowerField,
    SampledField,
    _NODE_BLOCK,
    _checked_order,
    _gather,
    _grid_cells,
    _integer,
    _square_sum,
    gradient_magnitude_field,
    random_polynomial,
    sample,
    scan_corpus,
)
from .maximal import (
    MaximalConfig,
    _spread,
    ladder_config,
    local_maximal_function,
    segment_ratio_constant,
)
from .mollify import Mollifier, convolve, lp_norm

__all__ = [
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
# A `PairSampler.draw` gives up once its proposals have kept 64 pairs fewer
# than this share of them.
_ACCEPTANCE_FLOOR = 1e-4
# A report keeps the records of this many violations, those of the largest ratios.
_VIOLATION_RECORDS = 100


# ---------------------------------------------------------------------------
# domains and pair sampling


@dataclass(frozen=True)
class Domain:
    """A closed box, optionally minus an open box-shaped hole."""

    outer: Box
    hole: Box | None = None

    def __post_init__(self):
        if self.hole is not None:
            if self.hole.dim != self.outer.dim:
                raise ConfigError("hole dimension must match the outer box")
            if not self.outer.holds(self.hole):
                raise ConfigError("the hole must sit inside the outer box")

    @property
    def dim(self) -> int:
        return self.outer.dim

    def _points(self, pts) -> np.ndarray:
        """Points as an (N, dim) array; a single (dim,) point is one row."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"expected points of shape (N, {self.dim}), got {pts.shape}")
        return pts

    def contains(self, pts, margin=0.0) -> np.ndarray:
        """Membership mask, shrinking the domain by `margin` on all walls.

        `margin` may be a scalar or a per-point array; the hole, when
        present, is dilated by the same margin.
        """
        pts = self._points(pts)
        margin = np.asarray(margin, dtype=float)
        ok = np.ones(len(pts), dtype=bool)
        for col, lo, hi in zip(pts.T, self.outer.lo, self.outer.hi):
            ok &= (col >= lo + margin) & (col <= hi - margin)
        if self.hole is not None:
            in_hole = np.ones(len(pts), dtype=bool)
            for col, lo, hi in zip(pts.T, self.hole.lo, self.hole.hi):
                in_hole &= (col > lo - margin) & (col < hi + margin)
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
        x, y = self._points(x), self._points(y)
        if self.hole is None:
            return np.ones(len(x), dtype=bool)
        t_enter = np.zeros(len(x))
        t_leave = np.ones(len(x))
        for xk, yk, lo, hi in zip(x.T, y.T, self.hole.lo, self.hole.hi):
            # an axis the segment does not move along admits every t or none: its
            # t_lo and t_hi are infinite, or NaN on a wall, which fmin and fmax skip
            with np.errstate(divide="ignore", invalid="ignore"):
                t_lo = (lo - xk) / (yk - xk)
                t_hi = (hi - xk) / (yk - xk)
            np.maximum(t_enter, np.fmin(t_lo, t_hi), out=t_enter)
            np.minimum(t_leave, np.fmax(t_lo, t_hi), out=t_leave)
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


def _step(ends: np.ndarray, dist) -> np.ndarray:
    """Piece of each separation under the increasing step ends: the
    first end at or above it, or the last piece above every end; that
    is the count of ends[:-1] below it."""
    idx = np.zeros(np.shape(dist), dtype=np.intp)
    for end in ends[:-1]:
        idx += end < dist
    return idx


def _row_norm(v: np.ndarray) -> np.ndarray:
    """Length of each row of v (N, dim): `_square_sum` of its columns, then
    one square root; below 8 columns, np.linalg.norm(v, axis=1) bit for bit."""
    total = _square_sum(v.T)
    return np.sqrt(total, out=total)


def _piece(cum: np.ndarray, last: int, t: np.ndarray) -> np.ndarray:
    """Piece of each t in [0, cum[-1]) under the cumulative weights `cum`,
    `last` the last piece of positive weight: the count of cum[:last] at
    or below t, so no zero-weight piece is ever picked."""
    j = np.zeros(len(t), dtype=np.intp)
    for c in cum[:last]:
        j += c <= t
    return j


@dataclass(frozen=True)
class PairSampler:
    """Seeded sampler for point pairs in a domain.

    A pair is kept when its computed separation d is in [min_sep,
    max_sep], both endpoints lie in the domain shrunk by a margin m(d),
    and the connecting segment misses the hole.  `draw` takes m as a
    step function: piece j holds the separations in (ends[j-1], ends[j]]
    (the first piece everything up to ends[0], the last everything above
    its start) and has margin margins[j].  Kept pairs follow the law of
    independent uniform endpoints in the outer box kept by the same
    tests.

    Each proposal draws r of density proportional to r^(n-1) vol(B_m(r))
    on [min_sep, max_sep], where B_m is the outer box shrunk by m, by the
    inverse CDF on each piece; x uniform in B_m(r); and y = x + r u, with
    u a normalized standard Gaussian (a uniform direction).  The density
    of (r, x) is then proportional to r^(n-1) 1[x in B_m(r)]: that of
    uniform endpoints on the set that the test on x keeps, so the tests
    above, kept in full (a drawn x can round out of its box, and the
    hole needs no volume formula), leave the law unchanged.  In a box,
    mostly y alone is rejected: with the scans' default rungs on
    [-1, 1]^3, 0.71 of proposals are kept (0.84 in 1-D), where x uniform
    in the whole box kept 0.20 (0.58).

    A piece none of whose separations fits in its shrunk box (empty, or
    with a diagonal below the piece's start) gets no proposals, and a
    draw with no other piece raises `EmptyScanError` at once.  Otherwise
    a draw raises it once its proposals have kept 64 pairs fewer than
    `_ACCEPTANCE_FLOOR` (0.01%) of them: after 79 batches (647,168
    proposals) when nothing is kept, while a request whose acceptance is
    twice the floor or more is stopped with probability below e^-40,
    whatever its count.  That test counts whole batches; `attempts`
    counts the proposals up to the one that gave the last kept pair.
    Identical settings always reproduce the same pairs.
    """

    domain: Domain
    count: int
    seed: int
    min_sep: float
    max_sep: float

    def __post_init__(self):
        object.__setattr__(self, "count", _integer(self.count, "the sampler count", 1))
        object.__setattr__(self, "seed", _integer(self.seed, "the sampler seed", 0))
        if not 0 < self.min_sep <= self.max_sep < math.inf:
            raise ConfigError("separations must be finite and satisfy 0 < min_sep <= max_sep")
        object.__setattr__(self, "min_sep", float(self.min_sep))
        object.__setattr__(self, "max_sep", float(self.max_sep))

    def draw(self, ends=(math.inf,), margins=(0.0,)) -> PairBatch:
        """`count` admissible pairs under the margin step function (ends,
        margins); by default one piece with margin 0.  Each batch of 8192
        proposals is tested whole, axis by axis, into one mask and one copy-out:
        0.6 ms in 1-D and 1.4 ms in 3-D on a 2-vCPU Xeon, over a quarter of it
        drawing random numbers.
        """
        ends = np.asarray(ends, dtype=float)
        margins = np.asarray(margins, dtype=float)
        if (ends.ndim != 1 or ends.shape != margins.shape or not len(ends)
                or np.any(np.diff(ends) <= 0) or not np.all(margins >= 0)):
            raise ConfigError("margin steps need increasing ends and one margin >= 0 per end")
        dim = self.domain.dim
        lo = np.asarray(self.domain.outer.lo)
        shrunk = np.asarray(self.domain.outer.hi) - lo - 2.0 * margins[:, None]
        r_lo = np.clip(np.concatenate([[-math.inf], ends[:-1]]), self.min_sep, self.max_sep)
        r_hi = np.clip(np.concatenate([ends[:-1], [math.inf]]), self.min_sep, self.max_sep)
        band = r_hi ** dim - r_lo ** dim
        # min_sep == max_sep: the one piece holding it takes every r
        mass = band if band.any() else (np.arange(len(ends)) == _step(ends, self.max_sep))
        room = np.maximum(shrunk, 0.0)
        fits = r_lo <= np.linalg.norm(room, axis=1)
        weight = mass * np.prod(room, axis=1) * fits
        if not np.any(weight > 0):
            raise EmptyScanError("no separation in "
                                 f"[{self.min_sep}, {self.max_sep}] fits in the "
                                 "domain shrunk by its margin")
        cum = np.cumsum(weight)
        last = int(np.flatnonzero(weight)[-1])
        rng = np.random.default_rng(self.seed)
        xs, ys = np.empty((self.count, dim)), np.empty((self.count, dim))
        ds = np.empty(self.count)
        found = 0
        attempts = 0
        while found < self.count:
            if attempts * _ACCEPTANCE_FLOOR > found + 64:
                raise EmptyScanError(
                    f"only {found} of {self.count} admissible pairs found in "
                    f"{attempts} attempts; the margins or separations leave "
                    "too little room")
            # one uniform picks the piece and, within it, r by inverse CDF
            t = rng.random(_SAMPLE_BATCH) * cum[-1]
            j = _piece(cum, last, t)
            q = np.clip((t - cum[j] + weight[j]) / weight[j], 0.0, 1.0)
            r = (r_lo[j] ** dim + q * band[j]) ** (1.0 / dim)
            x = lo + margins[j][:, None] + rng.random((_SAMPLE_BATCH, dim)) * shrunk.take(j, axis=0)
            u = rng.standard_normal((_SAMPLE_BATCH, dim))
            attempts += _SAMPLE_BATCH
            # a zero Gaussian gives y = NaN, which every test below rejects
            with np.errstate(divide="ignore", invalid="ignore"):
                y = x + (r / _row_norm(u))[:, None] * u
            # separation rounding can leave the band at its edges
            d = _row_norm(y - x)
            margin = margins[_step(ends, d)]
            keep = (d >= self.min_sep) & (d <= self.max_sep) & self.domain.contains(x, margin)
            keep &= self.domain.contains(y, margin) & self.domain.contains_segments(x, y)
            take = np.flatnonzero(keep)[: self.count - found]
            # every index is in range; "clip" only spares `take` a buffered copy
            for part, out in ((x, xs), (y, ys), (d, ds)):
                np.take(part, take, axis=0, out=out[found:found + len(take)], mode="clip")
            found += len(take)
        return PairBatch(xs, ys, ds, attempts - _SAMPLE_BATCH + int(take[-1]) + 1)

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
    50/90/99 percent quantiles, the slack, and the records of the 100
    worst violations.  Per-pair arrays stay on the object for CSV export.
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
        np.divide(lhs, rhs, out=ratio, where=pos)
    ratio[~pos & (lhs > 0)] = math.inf
    ratio[nonfinite] = math.inf
    return ratio, nonfinite


def _checked_slack(slack: float) -> float:
    """The float slack, if finite and >= 0: a NaN or infinite one passes every ratio."""
    if not (math.isfinite(slack) and slack >= 0):
        raise ConfigError(f"the slack must be a finite number >= 0, got {slack!r}")
    return float(slack)


def _check_scan(f: AnalyticField, order: int, slack: float) -> tuple[int, float]:
    """What every scan checks before any work: an order from 1 up to
    what f supports, and a slack that `_checked_slack` accepts.  Returns
    them as an int and a float, the values the scan runs on and records."""
    checked = _checked_order(order, 0, f.max_order)
    if checked < 1:
        raise ConfigError("the scan needs order >= 1")
    return checked, _checked_slack(slack)


def _check_hatl_exponent(s: float, order: int) -> None:
    """The fractional-exponent class bound needs 0 < s <= order."""
    if not 0 < s <= order:
        raise ConfigError("the exponent must satisfy 0 < s <= order")


def _check_triebel_exponent(s: float) -> None:
    """The all-node-sum bound needs a finite s > 0."""
    if not 0 < s < math.inf:
        raise ConfigError("the exponent s must be a finite number > 0")


def _check_g(g: SampledField, sampler: PairSampler) -> None:
    """Refuse a g that is negative somewhere, or whose grid does not hold the
    sampler's outer box, and with it every node x + l h between two endpoints."""
    if np.any(g.values < 0):
        raise ValueError("the coefficient field g must be nonnegative")
    if not g.grid.holds(sampler.domain.outer):
        raise ConfigError("the grid of g must hold the sampler's outer box")


def build_report(params: dict, x: np.ndarray, y: np.ndarray,
                 lhs: np.ndarray, rhs: np.ndarray, slack: float) -> InequalityReport:
    """Assemble a report from per-pair arrays.

    Ratios follow `_ratios`: an infinite ratio (vanishing right side
    under a nonzero left side, or a non-finite side) is always a
    violation and is reported distinctly in the violation records;
    `n_nonfinite` counts the pairs with a non-finite side.  Records are
    kept for the `_VIOLATION_RECORDS` largest ratios only, ties going to
    the earlier draw, and listed in draw order; `n_violations` counts
    them all.  The slack must pass `_checked_slack`.
    """
    _checked_slack(slack)
    if len(x) == 0:
        raise EmptyScanError("no pairs to report on")
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    ratio, nonfinite = _ratios(lhs, rhs)
    mask = ratio > 1.0 + slack
    bad = np.flatnonzero(mask)
    violations = []
    for i in np.sort(bad[np.argsort(-ratio[bad], kind="stable")[:_VIOLATION_RECORDS]]):
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

    The rungs of the `MaximalConfig` nest, so the fields are monotone in
    delta; each pair then uses the smallest ladder delta at or above its
    separation.  The rungs are `local_maximal_function` of
    |grad^order f|, scaled in place by the lens ratio C(n): one
    (R, *grid) `stack`, the only source of coefficients, which
    `coefficient_at` gathers from with the rung as leading index.  A
    scan may transform the rungs in place (the mollified scan convolves
    them).

    Given the sampler's `outer` box, each rung is built only on the
    nodes its pairs can touch; `stack` is NaN outside a rung's box, so a
    read there fails closed.  Without `outer` every rung covers the
    whole grid.
    """

    def __init__(self, f: AnalyticField, grid: GridSpec, order: int,
                 config: MaximalConfig, outer: Box | None = None):
        self.grid = grid
        self.order = order
        self.deltas = np.asarray(config.deltas)
        self.stack = local_maximal_function(gradient_magnitude_field(f, grid, order), config,
                                            outer)
        self.stack *= segment_ratio_constant(grid.dim)

    def all_node(self) -> SampledField:
        """The all-node coefficient order^order * a at the top delta."""
        return SampledField(self.grid, float(self.order) ** self.order * self.stack[-1])

    def delta_index(self, dist: np.ndarray) -> np.ndarray:
        if np.any(dist > self.deltas[-1] * (1.0 + 1e-9)):
            raise ConfigError("pair separation exceeds the largest ladder delta")
        return _step(self.deltas, dist)

    def coefficient_at(self, idx: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Rung idx[i]'s coefficient at pts[i], read back from `stack` as
        `SampledField.at` would."""
        return _gather(self.stack, _grid_cells(self.grid, pts), idx)

    def endpoint_rhs(self, pairs: PairBatch) -> np.ndarray:
        """Two-endpoint right side |x - y|^order * (a(x) + a(y)) at each pair's rung."""
        idx = self.delta_index(pairs.dist)
        return pairs.dist ** self.order * (self.coefficient_at(idx, pairs.x)
                                           + self.coefficient_at(idx, pairs.y))


def _rung_config(sampler: PairSampler, grid: GridSpec,
                 config: MaximalConfig | None) -> MaximalConfig:
    """The coefficient ladder covering the sampler's separations.

    A given config is used as given, rungs, radii and boundary included.
    Otherwise four deltas spaced geometrically from max(min_sep, twice
    the grid spacing) up to max_sep share one master radius set
    (`ladder_config`).  When min_sep is at least twice the spacing, the
    bottom delta is min_sep itself: its rung could only hold pairs
    exactly min_sep apart, so it is dropped and its radius kept.
    """
    if config is not None:
        if config.deltas[-1] < sampler.max_sep * (1.0 - 1e-12):
            raise ConfigError("the config's top delta must cover the largest pair separation")
        return config
    spacing = max(grid.spacing)
    config = ladder_config(_spread(max(sampler.min_sep, 2.0 * spacing), sampler.max_sep, 4),
                           spacing)
    if sampler.min_sep >= 2.0 * spacing and len(config.deltas) > 1:
        return MaximalConfig(config.deltas[1:], config.radii, config.boundary)
    return config


def all_node_coefficient(f: AnalyticField, order: int, grid: GridSpec,
                         sampler: PairSampler, config=None) -> SampledField:
    """Coefficient field g = order^order * a for the all-node sum bound.

    `a` is the top field of the coefficient ladder that
    `main_inequality_scan` builds for the same sampler and config, so g
    is the field `node_discard_check` checks against, bit for bit.  A
    `MaximalConfig` is used as given: its deltas, radii and boundary.
    Only the top rung is built: a ball average does not depend on the
    other radii of its call, and the maximum over them is exact.
    """
    config = _rung_config(sampler, grid, config)
    top = MaximalConfig(config.deltas[-1:], config.radii, config.boundary)
    return _CoefficientLadder(f, grid, order, top).all_node()


def _ladder_pairs(f: AnalyticField, order: int, grid: GridSpec, sampler: PairSampler,
                  config: MaximalConfig, margin: float = 0.0, boxed: bool = False):
    """Shared start of the ladder scans.

    Refuses a sampler whose outer box the grid does not hold, before any
    work: the ladder is read at the pairs' endpoints.  Builds the
    coefficient ladder of `config`, on the sampler's node boxes when
    `boxed` (for scans that read the ladder only at pair endpoints), and
    draws pairs kept their rung's margin plus `margin` from the walls.
    Returns the ladder, the pairs, and the report params every ladder
    scan carries.
    """
    if not grid.holds(sampler.domain.outer):
        raise ConfigError("the grid must hold the sampler's outer box")
    ladder = _CoefficientLadder(f, grid, order, config,
                                sampler.domain.outer if boxed else None)
    pairs = sampler.draw(config.deltas, config.margins + margin)
    return ladder, pairs, {"deltas": list(config.deltas), "boundary": config.boundary}


def _blockwise(pairs: PairBatch, side, *args) -> tuple[np.ndarray, ...]:
    """Row-local sides of `pairs` (at least one), scored on consecutive
    blocks of `_NODE_BLOCK` pairs.

    `side(*args, block)` scores `block`, a `PairBatch` of views on the
    block's pairs, and returns a tuple of arrays with one entry per
    pair; each goes into one preallocated array over all pairs.  Every
    per-pair operation is row-local, so the blocks give the bits of one
    whole batch, with temporaries the size of a block.
    """
    n = len(pairs.dist)
    outs = None
    for start in range(0, n, _NODE_BLOCK):
        rows = slice(start, start + _NODE_BLOCK)
        parts = side(*args, PairBatch(pairs.x[rows], pairs.y[rows], pairs.dist[rows],
                                      pairs.attempts))
        if outs is None:
            outs = tuple(np.empty(n, dtype=part.dtype) for part in parts)
        for out, part in zip(outs, parts):
            out[rows] = part
    return outs


def _main_sides(f: AnalyticField, ladder: _CoefficientLadder,
                pairs: PairBatch) -> tuple[np.ndarray, np.ndarray]:
    """Main-scan sides |f(y) - L(y)| and |x - y|^order * (a(x) + a(y))."""
    lhs = np.abs(lagrange_remainder(f, pairs.x, pairs.y, ladder.order))
    return lhs, ladder.endpoint_rhs(pairs)


def _all_node_sides(f: AnalyticField, order: int, s: float, g: SampledField,
                    pairs: PairBatch) -> tuple[np.ndarray, np.ndarray]:
    """All-node sides |diff_h^order f(x)| and |h|^s * sum_l g(x + l h),
    h = (y - x) / order."""
    h = (pairs.y - pairs.x) / order
    lhs = np.abs(forward_difference(f, pairs.x, h, order))
    return lhs, _row_norm(h) ** s * _node_sum(g.at, pairs.x, h, [1] * (order + 1))


def _hatl_sides(f: AnalyticField, order: int, s: float, g: SampledField,
                pairs: PairBatch) -> tuple[np.ndarray, np.ndarray]:
    """Class-bound sides |f(y) - L(y)| and |x - y|^s * (g(x) + g(y))."""
    lhs = np.abs(lagrange_remainder(f, pairs.x, pairs.y, order))
    return lhs, pairs.dist ** s * (g.at(pairs.x) + g.at(pairs.y))


def _mollified_sides(f_eps: SampledField, ladder: _CoefficientLadder,
                     pairs: PairBatch) -> tuple[np.ndarray, np.ndarray]:
    """Mollified sides |diff_h^order f_eps(x)|, h = (y - x) / order, and
    |x - y|^order * (a(x) + a(y)) on the convolved ladder."""
    h = (pairs.y - pairs.x) / ladder.order
    lhs = np.abs(forward_difference(f_eps, pairs.x, h, ladder.order))
    return lhs, ladder.endpoint_rhs(pairs)


def _scan_report(name: str, f: AnalyticField, order: int, grid: GridSpec,
                 sampler: PairSampler, slack: float, pairs: PairBatch,
                 lhs: np.ndarray, rhs: np.ndarray, **extra) -> InequalityReport:
    """Report of one scan on `pairs`: the params every scan carries, plus `extra`."""
    params = {
        "scan": name,
        "field": str(f),
        "dim": f.dim,
        "order": order,
        "grid": {"lo": list(grid.lo), "hi": list(grid.hi), "points": list(grid.points)},
        "sampler": sampler.to_dict(),
        "slack": slack,
        "attempts": pairs.attempts,
        **extra,
    }
    return build_report(params, pairs.x, pairs.y, lhs, rhs, slack)


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
    ladder, used as given.
    """
    order, slack = _check_scan(f, order, slack)
    config = _rung_config(sampler, grid, config)
    ladder, pairs, params = _ladder_pairs(f, order, grid, sampler, config, boxed=True)
    lhs, rhs = _blockwise(pairs, _main_sides, f, ladder)
    name = "lemma1" if order == 1 else "main_inequality"
    return _scan_report(name, f, order, grid, sampler, slack, pairs, lhs, rhs,
                        radii_master=list(config.radii),
                        constant=segment_ratio_constant(grid.dim), **params)


def lemma1_scan(f: AnalyticField, grid: GridSpec, sampler: PairSampler,
                config=None, *, slack: float = 0.05) -> InequalityReport:
    """First-order scan |f(x) - f(y)| <= |x - y| * (a(x) + a(y))."""
    return main_inequality_scan(f, 1, grid, sampler, config, slack=slack)


def triebel_scan(f: AnalyticField, order: int, s: float, g: SampledField,
                 sampler: PairSampler, *, slack: float = 0.05) -> InequalityReport:
    """Scan |diff_h^order f(x)| <= |h|^s * sum_l g(x + l h) with h = (y - x) / order.

    The grid of g must hold the sampler's outer box, and so every node;
    pairs whose step exceeds one are skipped and counted in the params.
    """
    order, slack = _check_scan(f, order, slack)
    _check_triebel_exponent(s)
    _check_g(g, sampler)
    pairs = sampler.draw()
    keep = _row_norm((pairs.y - pairs.x) / order) <= 1.0
    if not np.any(keep):
        raise EmptyScanError("all pairs were skipped (step longer than one)")
    pairs = PairBatch(pairs.x[keep], pairs.y[keep], pairs.dist[keep], pairs.attempts)
    lhs, rhs = _blockwise(pairs, _all_node_sides, f, order, s, g)
    return _scan_report("triebel", f, order, g.grid, sampler, slack, pairs, lhs, rhs,
                        s=float(s), skipped_long_step=int(np.sum(~keep)))


def node_discard_check(f: AnalyticField, order: int, grid: GridSpec,
                       sampler: PairSampler, *, slack: float = 0.05) -> InequalityReport:
    """Pass from the two-endpoint bound to the all-node sum bound.

    Runs the main scan's geometry once, then re-checks the same pairs
    against |h|^order * sum_l g(x + l h) with the single coefficient
    field g = order^order * a built at the top ladder delta.  Nested
    radii make the top field dominate every per-delta field, so zero
    violations here certify the node-discarding step numerically.
    """
    order, slack = _check_scan(f, order, slack)
    config = _rung_config(sampler, grid, None)
    ladder, pairs, params = _ladder_pairs(f, order, grid, sampler, config)
    main_ratio, _ = _ratios(*_blockwise(pairs, _main_sides, f, ladder))
    lhs, rhs = _blockwise(pairs, _all_node_sides, f, order, order, ladder.all_node())
    return _scan_report("node_discard", f, order, grid, sampler, slack, pairs, lhs, rhs,
                        g_scale=float(order) ** order,
                        main_max_ratio=float(np.max(main_ratio)),
                        main_violations=int(np.sum(main_ratio > 1.0 + slack)), **params)


def hatl_scan(f: AnalyticField, order: int, s: float, g: SampledField,
              sampler: PairSampler, *, slack: float = 0.05) -> InequalityReport:
    """Scan the fractional-exponent class bound
    |remainder| <= |x - y|^s * (g(x) + g(y)) with 0 < s <= order.

    The grid of g must hold the sampler's outer box, where the endpoints lie.
    """
    order, slack = _check_scan(f, order, slack)
    _check_hatl_exponent(s, order)
    _check_g(g, sampler)
    pairs = sampler.draw()
    lhs, rhs = _blockwise(pairs, _hatl_sides, f, order, s, g)
    return _scan_report("hatl", f, order, g.grid, sampler, slack, pairs, lhs, rhs,
                        s=float(s))


def quasinorm_upper(f: AnalyticField, order: int, p: float, grid: GridSpec) -> float:
    """Upper bound ||f||_p + ||order^order * a||_p for the class quasinorm.

    `a` is the one-rung coefficient ladder at scale delta = a quarter of
    the smallest box side, on the whole grid.
    """
    delta = min(grid.extent) / 4.0
    config = ladder_config((delta,), max(grid.spacing))
    coeff = _CoefficientLadder(f, grid, order, config).all_node()
    return lp_norm(sample(f, grid), p) + lp_norm(coeff, p)


def mollified_scan(f: AnalyticField, order: int, epsilon: float, grid: GridSpec,
                   sampler: PairSampler, *, slack: float = 0.05,
                   profile: str = "bump") -> InequalityReport:
    """Main scan for the mollified field and mollified coefficients.

    The field and each rung of a whole-grid coefficient ladder are
    convolved with the same kernel, the rungs in place in the ladder's
    `stack`; differences of the smoothed field come from multilinear
    interpolation of the convolved samples.  Pairs keep an extra margin
    of one kernel support from the boundary so no contaminated value is
    ever read.
    """
    order, slack = _check_scan(f, order, slack)
    phi = Mollifier(epsilon, grid.dim, profile=profile)
    margin_len = phi.margin_length(grid.spacing)
    config = _rung_config(sampler, grid, None)
    if not phi.leaves_room(grid, config.deltas[-1]):
        raise EmptyScanError(
            "the interior eroded by the kernel support and the ladder delta is empty")
    ladder, pairs, params = _ladder_pairs(f, order, grid, sampler, config, margin_len)
    for rung in ladder.stack:
        rung[...] = convolve(SampledField(grid, rung), phi).values
    lhs, rhs = _blockwise(pairs, _mollified_sides, convolve(sample(f, grid), phi), ladder)
    return _scan_report("mollified", f, order, grid, sampler, slack, pairs, lhs, rhs,
                        epsilon=float(epsilon), profile=profile,
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
    draws = _integer(draws, "the draw count", 1)
    seed = _integer(seed, "the seed", 0)
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
