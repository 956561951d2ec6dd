"""Tests for the occupancy-grid sample-pruning substrate."""

import numpy as np
import pytest

from repro.nerf import OccupancyGrid
from repro.utils.seeding import new_rng


def _ball_density(points_unit: np.ndarray) -> np.ndarray:
    """A synthetic density field: occupied inside a ball around the cube centre."""
    distance = np.linalg.norm(points_unit - 0.5, axis=1)
    return np.where(distance < 0.25, 10.0, 0.0)


class TestOccupancyGridBasics:
    def test_initial_state_keeps_everything(self):
        grid = OccupancyGrid(resolution=16, decay=0.95)
        points = new_rng(0).uniform(size=(50, 3))
        assert np.all(grid.filter_samples(points))
        assert grid.occupancy_fraction == 0.0

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            OccupancyGrid(resolution=1)
        with pytest.raises(ValueError):
            OccupancyGrid(decay=1.5)
        with pytest.raises(ValueError):
            OccupancyGrid(occupancy_threshold=-1.0)

    def test_default_shape_and_refresh_schedule(self):
        grid = OccupancyGrid()
        assert (grid.resolution, grid.decay, grid.occupancy_threshold) == (
            16, 0.6, 0.01)
        due = [i for i in range(41) if grid.refresh_due(i)]
        assert due == [16, 24, 32, 40]
        assert grid.refresh_samples == 4096

    def test_cell_indices_in_range(self):
        grid = OccupancyGrid(resolution=8, decay=0.95)
        points = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.2, 0.9]])
        ix, iy, iz = grid.cell_indices(points)
        for idx in (ix, iy, iz):
            assert np.all((idx >= 0) & (idx < 8))


class TestOccupancyGridUpdates:
    def test_update_marks_occupied_region(self):
        grid = OccupancyGrid(resolution=16, decay=0.95,
                             occupancy_threshold=0.5)
        grid.update(_ball_density, n_samples=8192, rng=new_rng(1))
        inside = np.full((20, 3), 0.5)
        outside = np.full((20, 3), 0.05)
        assert np.all(grid.is_occupied(inside))
        assert not np.any(grid.is_occupied(outside))
        assert 0.0 < grid.occupancy_fraction < 0.5

    def test_filter_samples_prunes_empty_space(self):
        grid = OccupancyGrid(resolution=16, decay=0.95,
                             occupancy_threshold=0.5)
        grid.update(_ball_density, n_samples=8192, rng=new_rng(2))
        rng = new_rng(3)
        points = rng.uniform(size=(2000, 3))
        keep = grid.filter_samples(points)
        # Much of the cube is empty, so a large fraction is pruned, and the
        # kept samples all lie near the occupied ball.
        assert keep.mean() < 0.5
        assert np.all(np.linalg.norm(points[keep] - 0.5, axis=1) < 0.45)

    def test_decay_clears_stale_occupancy(self):
        grid = OccupancyGrid(resolution=8, decay=0.5, occupancy_threshold=0.5)
        grid.update(_ball_density, n_samples=4096, rng=new_rng(4))
        assert grid.occupancy_fraction > 0.0
        for step in range(8):
            grid.update(lambda p: np.zeros(p.shape[0]), n_samples=1024,
                        rng=new_rng(10 + step))
        assert grid.occupancy_fraction == 0.0

    def test_mark_occupied(self):
        grid = OccupancyGrid(resolution=8, decay=0.95, occupancy_threshold=0.5)
        grid.mark_occupied(np.array([[0.9, 0.9, 0.9]]), density=2.0)
        assert grid.is_occupied(np.array([[0.9, 0.9, 0.9]]))[0]

    def test_mark_occupied_alone_enables_culling(self):
        """Regression: a grid seeded *only* via mark_occupied must cull.

        Previously only ``update()`` bumped the grid's data counter, so
        ``filter_samples`` treated a marked-but-never-updated grid as empty
        and kept everything — the forced occupancy silently never culled.
        """
        grid = OccupancyGrid(resolution=8, decay=0.95, occupancy_threshold=0.5)
        assert not grid.has_data
        grid.mark_occupied(np.array([[0.9, 0.9, 0.9]]), density=2.0)
        assert grid.has_data and grid.n_updates == 0
        points = np.array([[0.9, 0.9, 0.9], [0.1, 0.1, 0.1], [0.5, 0.5, 0.5]])
        keep = grid.filter_samples(points)
        np.testing.assert_array_equal(keep, [True, False, False])
        pruned = grid.expected_queries_per_iteration(n_rays=100, n_samples=10)
        assert pruned < 100 * 10

    def test_occupancy_view_is_cached_and_invalidated(self):
        """Perf fix: the binary view is computed once per density change."""
        grid = OccupancyGrid(resolution=8, decay=0.95, occupancy_threshold=0.5)
        first = grid.occupancy
        assert grid.occupancy is first                 # cached between reads
        grid.mark_occupied(np.array([[0.9, 0.9, 0.9]]), density=2.0)
        marked = grid.occupancy
        assert marked is not first                     # invalidated by mark
        assert marked.sum() == 1
        grid.update(lambda p: np.zeros(p.shape[0]), n_samples=64,
                    rng=new_rng(0))
        assert grid.occupancy is not marked            # invalidated by update

    def test_update_shape_mismatch_raises(self):
        grid = OccupancyGrid(resolution=8, decay=0.95)
        with pytest.raises(ValueError):
            grid.update(lambda p: np.zeros(3), n_samples=16)

    def test_expected_queries_shrink_after_update(self):
        grid = OccupancyGrid(resolution=16, decay=0.95,
                             occupancy_threshold=0.5)
        dense = grid.expected_queries_per_iteration(n_rays=4096, n_samples=48)
        assert dense == 4096 * 48
        grid.update(_ball_density, n_samples=8192, rng=new_rng(5))
        pruned = grid.expected_queries_per_iteration(n_rays=4096, n_samples=48)
        assert pruned < dense


class TestOccupancyWithModel:
    def test_model_driven_update(self, tiny_model):
        """The grid can be refreshed directly from a radiance field's density branch."""
        grid = OccupancyGrid(resolution=8, decay=0.95,
                             occupancy_threshold=1e-3)

        def query_fn(points_unit):
            dirs = np.tile(np.array([0.0, 0.0, 1.0]), (points_unit.shape[0], 1))
            sigma, _rgb = tiny_model.query(points_unit, dirs)
            return sigma

        grid.update(query_fn, n_samples=512, rng=new_rng(6))
        points = new_rng(7).uniform(size=(64, 3))
        keep = grid.filter_samples(points)
        assert keep.dtype == bool and keep.shape == (64,)
