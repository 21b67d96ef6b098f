"""The main, mollified and hatl scans' right sides, recomputed from their definitions.

A pair at separation d belongs to the smallest ladder delta at or above
d, and that rung's radii are the master radii up to its delta.  At a
grid node, the rung's coefficient is C(n) times the largest, over those
radii, of the plain mean of |grad^m f| over the grid nodes whose squared
distance from the node is at most r^2 (1 + 1e-12), the package's tie
rule; a ball near the wall keeps only its grid nodes.  An endpoint's
coefficient blends its cell's corner nodes with multilinear weights, and
the right side is |y - x|^m (a(x) + a(y)).

The mollified scan's rung values are those node means convolved with
the kernel's lattice taps, with zero off the grid, before the blend.
The hatl scan has no rungs: its coefficient is the supplied g, blended
from g's node values the same way, and the right side is
|y - x|^s (g(x) + g(y)).

Every node set is enumerated here directly: nothing is taken from the
package's ladder (its ball sums and counts, node boxes or gather) or
from its convolution.
"""

import itertools
import math

import numpy as np

from sobolev_pointwise import Mollifier, segment_ratio_constant
from sobolev_pointwise.fields import gradient_magnitude_field

TIE = 1.0 + 1e-12


def _node_means(values, spacing, node, radii):
    """Mean of `values` over the grid nodes within each radius of `node`."""
    reach = [int(max(radii) * TIE / sp) + 1 for sp in spacing]
    window = [np.arange(max(i - c, 0), min(i + c, n - 1) + 1)
              for i, c, n in zip(node, reach, values.shape)]
    dist2 = sum(d ** 2 for d in np.ix_(*[(idx - i) * sp
                                         for idx, i, sp in zip(window, node, spacing)]))
    near = values[np.ix_(*window)]
    return [near[dist2 <= r * r * TIE].mean() for r in radii]


def _cell(axis, p):
    """Index of the cell [axis[i], axis[i+1]] holding p (the last cell
    holds the last node) and p's offset in it."""
    i = min(int(np.searchsorted(axis, p, side="right")) - 1, len(axis) - 2)
    return i, (p - axis[i]) / (axis[i + 1] - axis[i])


def _smallest_delta_at_or_above(deltas):
    """The ladder's rung rule: a pair at separation d reads the rung of
    the smallest delta at or above d."""
    return lambda d: min(k for k, delta in enumerate(deltas) if delta >= d)


def _endpoint_rhs(s, grid, report, coefficient, rung_of, count):
    """|y - x|^s (a(x) + a(y)) for the report's first `count` pairs, with
    a(p) the multilinear blend of `coefficient(node, rung)` over the
    corners of p's cell, at the rung `rung_of(d)` of the pair's
    separation d."""

    def at(point, rung):
        cells = [_cell(axis, p) for axis, p in zip(grid.axes, point)]
        total = 0.0
        for corner in itertools.product((0, 1), repeat=grid.dim):
            weight = math.prod(t if c else 1.0 - t for c, (_, t) in zip(corner, cells))
            total += weight * coefficient(tuple(i + c for c, (i, _) in zip(corner, cells)), rung)
        return total

    out = []
    for x, y in zip(report.x[:count], report.y[:count]):
        d = float(np.linalg.norm(y - x))
        rung = rung_of(d)
        out.append(d ** s * (at(x, rung) + at(y, rung)))
    return np.array(out)


def _rung_means(f, order, grid, deltas, master):
    """coefficient(node, rung): C(n) times the largest node mean of
    |grad^m f| over the rung's radii, cached."""
    values = gradient_magnitude_field(f, grid, order).values
    constant = segment_ratio_constant(grid.dim)
    cache = {}

    def coefficient(node, rung):
        if (node, rung) not in cache:
            radii = [r for r in master if r <= deltas[rung] * TIE]
            cache[node, rung] = constant * max(_node_means(values, grid.spacing, node, radii))
        return cache[node, rung]

    return coefficient


def main_rhs(f, order, grid, report, count=30):
    """The right sides of the main scan report's first `count` pairs."""
    coefficient = _rung_means(f, order, grid, report.params["deltas"],
                              report.params["radii_master"])
    return _endpoint_rhs(order, grid, report, coefficient,
                         _smallest_delta_at_or_above(report.params["deltas"]), count)


def mollified_rhs(f, order, grid, report, master, count=30):
    """The right sides of the mollified scan report's first `count`
    pairs; `master` is the ladder's master radius set."""
    raw = _rung_means(f, order, grid, report.params["deltas"], master)
    phi = Mollifier(report.params["epsilon"], grid.dim, report.params["profile"])
    taps = phi.taps(grid.spacing)
    half = [(n - 1) // 2 for n in taps.shape]
    cache = {}

    def coefficient(node, rung):
        # (u * phi)(node) = sum over grid nodes q of phi(node - q) u(q); tap k is offset k - half
        if (node, rung) not in cache:
            total = 0.0
            for k in itertools.product(*[range(n) for n in taps.shape]):
                q = tuple(i - j + c for i, j, c in zip(node, k, half))
                if taps[k] and all(0 <= i < n for i, n in zip(q, grid.points)):
                    total += taps[k] * raw(q, rung)
            cache[node, rung] = total
        return cache[node, rung]

    return _endpoint_rhs(order, grid, report, coefficient,
                         _smallest_delta_at_or_above(report.params["deltas"]), count)


def hatl_rhs(report, g, s, count=30):
    """The right sides of the hatl scan report's first `count` pairs:
    |y - x|^s (g(x) + g(y)), with g read from its node values."""
    return _endpoint_rhs(s, g.grid, report, lambda node, rung: float(g.values[node]),
                         lambda d: 0, count)
