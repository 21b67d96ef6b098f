"""The main scan's right side, recomputed from its definition.

A pair at separation d belongs to the smallest ladder delta at or above
d, and that rung's radii are the master radii up to its delta.  At a
grid node, the rung's coefficient is C(n) times the largest, over those
radii, of the plain mean of |grad^m f| over the grid nodes whose squared
distance from the node is at most r^2 (1 + 1e-12), the package's tie
rule; a ball near the wall keeps only its grid nodes.  An endpoint's
coefficient blends its cell's corner nodes with multilinear weights, and
the right side is |y - x|^m (a(x) + a(y)).

Every node set is enumerated here directly: nothing is taken from the
package's ladder (its ball sums and counts, node boxes or gather).
"""

import itertools
import math

import numpy as np

from sobolev_pointwise import segment_ratio_constant
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


def main_rhs(f, order, grid, report, count=30):
    """The right sides of the report's first `count` pairs."""
    values = gradient_magnitude_field(f, grid, order).values
    deltas = report.params["deltas"]
    master = report.params["radii_master"]
    constant = segment_ratio_constant(grid.dim)
    cache = {}

    def coefficient(node, rung):
        if (node, rung) not in cache:
            radii = [r for r in master if r <= deltas[rung] * TIE]
            cache[node, rung] = constant * max(_node_means(values, grid.spacing, node, radii))
        return cache[node, rung]

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
        rung = min(k for k, delta in enumerate(deltas) if delta >= d)
        out.append(d ** order * (at(x, rung) + at(y, rung)))
    return np.array(out)
