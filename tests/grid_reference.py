"""The nodes of a grid as rows, built from its axes, for tests that compare
a grid route with the same field read at points."""

import numpy as np


def grid_nodes(grid) -> np.ndarray:
    """Every node of `grid` as a row (N, dim), lexicographic in the axes."""
    mesh = np.meshgrid(*grid.axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)
