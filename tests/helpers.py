"""Small test helpers shared by several test modules."""

from __future__ import annotations

import numpy as np


class _FixedDraw:
    """A generator stand-in whose uniform draw returns the given points."""

    def __init__(self, points: np.ndarray):
        self.points = np.asarray(points, dtype=np.float64).reshape(-1, 3)

    def uniform(self, low, high, size):
        assert size == self.points.shape
        return self.points


def occupy(grid, points: np.ndarray, density: float = 1.0) -> None:
    """Mark the occupancy-grid cells holding ``points`` occupied.

    Runs one public ``OccupancyGrid.update`` whose probe draw is exactly
    ``points`` and whose density is ``density`` everywhere, so on a fresh
    grid those cells, and only those, hold ``density``.  The update decays
    what the grid held before, counts as one refresh and leaves the grid's
    own probe generator untouched.
    """
    draw = _FixedDraw(points)
    grid.update(lambda probes: np.full(probes.shape[0], density),
                n_samples=draw.points.shape[0], rng=draw)
