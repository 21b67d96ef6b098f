"""The pair draw as three boolean-index filters, and the domain tests as
reductions along the point axis.

`PairSampler.draw` runs every test of a proposal batch on the whole
batch and compacts once, and `Domain` tests one axis at a time.  These
are the loop and the formulas they replaced, kept as the reference the
package must match bit for bit: the same kept pairs in the same order.
"""

import math

import numpy as np

from sobolev_pointwise.exceptions import ConfigError, EmptyScanError
from sobolev_pointwise.verify import (
    _ACCEPTANCE_FLOOR,
    _SAMPLE_BATCH,
    Domain,
    PairSampler,
    _piece,
    _step,
)


def contains(domain: Domain, pts, margin=0.0) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    margin = np.asarray(margin, dtype=float)
    if margin.ndim == 1:
        margin = margin[:, None]
    lo = np.asarray(domain.outer.lo)
    hi = np.asarray(domain.outer.hi)
    ok = np.all(pts >= lo + margin, axis=1) & np.all(pts <= hi - margin, axis=1)
    if domain.hole is not None:
        hlo = np.asarray(domain.hole.lo)
        hhi = np.asarray(domain.hole.hi)
        in_hole = (np.all(pts > hlo - margin, axis=1)
                   & np.all(pts < hhi + margin, axis=1))
        ok &= ~in_hole
    return ok


def contains_segments(domain: Domain, x, y) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if domain.hole is None:
        return np.ones(len(x), dtype=bool)
    hlo = np.asarray(domain.hole.lo)
    hhi = np.asarray(domain.hole.hi)
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


def draw(self: PairSampler, ends=(math.inf,), margins=(0.0,)):
    """x, y, dist and the whole-batch proposal count of `self.draw(ends, margins)`."""
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
        x = lo + margins[j][:, None] + rng.random((_SAMPLE_BATCH, dim)) * shrunk[j]
        u = rng.standard_normal((_SAMPLE_BATCH, dim))
        attempts += _SAMPLE_BATCH
        norm = np.linalg.norm(u, axis=1)
        keep = norm > 0
        x = x[keep]
        y = x + (r[keep] / norm[keep])[:, None] * u[keep]
        # separation rounding can leave the band at its edges
        d = np.linalg.norm(y - x, axis=1)
        keep = (d >= self.min_sep) & (d <= self.max_sep)
        x, y, d = x[keep], y[keep], d[keep]
        margin = margins[_step(ends, d)]
        keep = (contains(self.domain, x, margin) & contains(self.domain, y, margin)
                & contains_segments(self.domain, x, y))
        take = np.flatnonzero(keep)[: self.count - found]
        xs[found:found + len(take)] = x[take]
        ys[found:found + len(take)] = y[take]
        ds[found:found + len(take)] = d[take]
        found += len(take)
    return xs, ys, ds, attempts
