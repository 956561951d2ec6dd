"""Tests for locality-aware ray scheduling (repro.nerf.scheduling).

Three contracts anchor the scheduler seam:

(a) ``ray_schedule="uniform"`` (the default) is *bit-identical* to the
    pre-scheduler trainer in every configuration — dense and culled,
    float64 and float32 — because the uniform scheduler consumes the pixel
    RNG stream exactly as the old inline ``sample_pixel_batch`` call did;
(b) the tiled schedules draw real pixels (targets match the images, rays
    match the cameras) and only reorder *within* the drawn batch, so
    training remains correct — just with a locality-friendly batch layout;
(c) on a fixed culled + sparse training trace, the occupancy schedule with
    ``address_sort`` lifts the modeled BUM merge rate above the uniform
    draw's and to >= 0.95 (the tiles alone do not).
"""

import dataclasses

import numpy as np
import pytest

from repro.accelerator.bum import replay_trace
from repro.core.model import DecoupledRadianceField
from repro.datasets import nerf_synthetic_like
from repro.nerf.cameras import sample_pixel_batch
from repro.nerf.occupancy import OccupancyGrid
from repro.nerf.sampling import ray_probe_points
from repro.nerf.scheduling import (
    MortonTileScheduler,
    OccupancyTileScheduler,
    UniformScheduler,
    make_scheduler,
)
from repro.training.trainer import Trainer
from repro.utils.morton import (
    morton_decode_2d,
    morton_encode_2d,
    morton_encode_3d,
)
from repro.utils.seeding import new_rng


def _params_equal(model_a, model_b) -> bool:
    return all(np.array_equal(a.data, b.data)
               for a, b in zip(model_a.parameters(), model_b.parameters()))


class _InlineUniformOracle:
    """The pre-scheduler Step ❶, verbatim: an inline sample_pixel_batch call.

    Swapped into a trainer in place of its scheduler, this reproduces the
    seed trainer's pixel draw exactly — the oracle the uniform schedule is
    differentially pinned against.
    """

    def __init__(self, cameras, images, batch_pixels):
        self.cameras = cameras
        self.images = images
        self.batch_pixels = batch_pixels

    def sample_batch(self, rng):
        return sample_pixel_batch(self.cameras, self.images,
                                  self.batch_pixels, rng)


class TestMortonCodes:
    def test_2d_roundtrip(self):
        rng = new_rng(0)
        x = rng.integers(0, 1 << 16, size=256)
        y = rng.integers(0, 1 << 16, size=256)
        dx, dy = morton_decode_2d(morton_encode_2d(x, y))
        assert np.array_equal(dx, x)
        assert np.array_equal(dy, y)

    def test_2d_bit_interleave(self):
        # x occupies the even bits, y the odd bits.
        assert int(morton_encode_2d(np.array([1]), np.array([0]))[0]) == 1
        assert int(morton_encode_2d(np.array([0]), np.array([1]))[0]) == 2
        assert int(morton_encode_2d(np.array([3]), np.array([3]))[0]) == 15

    def test_3d_bit_interleave(self):
        one, zero = np.array([1]), np.array([0])
        assert int(morton_encode_3d(one, zero, zero)[0]) == 1
        assert int(morton_encode_3d(zero, one, zero)[0]) == 2
        assert int(morton_encode_3d(zero, zero, one)[0]) == 4
        assert int(morton_encode_3d(one, one, one)[0]) == 7

    def test_3d_unit_cube_traversal(self):
        # The eight corners of a 2^3 block enumerate 0..7 along the Z curve.
        z, y, x = np.meshgrid(np.arange(2), np.arange(2), np.arange(2),
                              indexing="ij")
        codes = morton_encode_3d(x.reshape(-1), y.reshape(-1), z.reshape(-1))
        assert sorted(codes.tolist()) == list(range(8))

    def test_codes_are_unique_at_scale(self):
        rng = new_rng(1)
        x = rng.integers(0, 1 << 12, size=4096)
        y = rng.integers(0, 1 << 12, size=4096)
        z = rng.integers(0, 1 << 12, size=4096)
        coords = set(zip(x.tolist(), y.tolist(), z.tolist()))
        codes = morton_encode_3d(x, y, z)
        assert len(set(codes.tolist())) == len(coords)


class TestConfigValidation:
    def test_unknown_schedule_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="ray_schedule"):
            dataclasses.replace(tiny_config, ray_schedule="hilbert")

    def test_invalid_tile_size_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="tile_size"):
            dataclasses.replace(tiny_config, tile_size=0)

    def test_factory_rejects_unknown_name(self, tiny_dataset):
        with pytest.raises(ValueError, match="unknown ray schedule"):
            make_scheduler("hilbert", tiny_dataset.train_cameras,
                           tiny_dataset.train_images, 8)


class TestUniformBitIdentity:
    """(a) The default schedule is bit-identical to the pre-scheduler trainer."""

    @pytest.mark.parametrize("culling", [False, True],
                             ids=["dense", "culled"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_uniform_matches_inline_draw_over_20_steps(
            self, tiny_config, tiny_dataset, culling, dtype):
        config = dataclasses.replace(tiny_config, culling_enabled=culling,
                                     compute_dtype=dtype)

        oracle_model = DecoupledRadianceField(config, seed=0)
        oracle = Trainer(oracle_model, tiny_dataset, seed=0)
        assert isinstance(oracle.scheduler, UniformScheduler)
        oracle.scheduler = _InlineUniformOracle(
            tiny_dataset.train_cameras, tiny_dataset.train_images,
            config.batch_pixels)

        model = DecoupledRadianceField(config, seed=0)
        trainer = Trainer(model, tiny_dataset, seed=0)

        oracle_losses = [oracle.train_step()["loss"] for _ in range(20)]
        losses = [trainer.train_step()["loss"] for _ in range(20)]
        assert losses == oracle_losses
        assert _params_equal(model, oracle_model)

    def test_uniform_is_the_default(self, tiny_config):
        assert tiny_config.ray_schedule == "uniform"
        assert tiny_config.address_sort is False


class TestMortonTileScheduler:
    def test_targets_and_rays_match_drawn_pixels(self, tiny_dataset):
        sched = MortonTileScheduler(tiny_dataset.train_cameras,
                                    tiny_dataset.train_images,
                                    batch_pixels=48, tile_size=4)
        bundle, targets = sched.sample_batch(new_rng(7))
        views, cols, rows = sched.last_pixels
        assert bundle.n_rays == 48 == targets.shape[0] == cols.shape[0]
        for view in np.unique(views):
            mask = views == view
            cam = tiny_dataset.train_cameras[view]
            image = np.asarray(tiny_dataset.train_images[view])
            expected = cam.rays_for_pixels(cols[mask], rows[mask])
            assert np.array_equal(bundle.origins[mask], expected.origins)
            assert np.array_equal(bundle.directions[mask], expected.directions)
            assert np.array_equal(targets[mask], image[rows[mask], cols[mask]])

    def test_tiles_are_contiguous_blocks(self, tiny_dataset):
        t = 4
        sched = MortonTileScheduler(tiny_dataset.train_cameras,
                                    tiny_dataset.train_images,
                                    batch_pixels=t * t * 3, tile_size=t)
        sched.sample_batch(new_rng(3))
        views, cols, rows = sched.last_pixels
        for start in range(0, views.size, t * t):
            sl = slice(start, start + t * t)
            assert np.unique(views[sl]).size == 1
            assert cols[sl].max() - cols[sl].min() == t - 1
            assert rows[sl].max() - rows[sl].min() == t - 1
            # Within a tile the pixels follow the 2-D Z curve.
            local = morton_encode_2d(cols[sl] - cols[sl].min(),
                                     rows[sl] - rows[sl].min())
            assert np.all(np.diff(local) > 0)

    def test_partial_tile_truncates_to_batch_pixels(self, tiny_dataset):
        sched = MortonTileScheduler(tiny_dataset.train_cameras,
                                    tiny_dataset.train_images,
                                    batch_pixels=10, tile_size=4)
        bundle, targets = sched.sample_batch(new_rng(0))
        assert bundle.n_rays == 10 == targets.shape[0]

    def test_tile_clamped_to_image(self, tiny_dataset):
        # tiny_dataset images are 20x20; a 64-wide tile must shrink to fit.
        sched = MortonTileScheduler(tiny_dataset.train_cameras,
                                    tiny_dataset.train_images,
                                    batch_pixels=16, tile_size=64)
        assert sched.tile_size == 20
        bundle, _ = sched.sample_batch(new_rng(0))
        assert bundle.n_rays == 16

    def test_same_seed_same_draw(self, tiny_dataset):
        make = lambda: MortonTileScheduler(tiny_dataset.train_cameras,
                                           tiny_dataset.train_images,
                                           batch_pixels=32, tile_size=4)
        a, _ = make().sample_batch(new_rng(11))
        b, _ = make().sample_batch(new_rng(11))
        assert np.array_equal(a.origins, b.origins)
        assert np.array_equal(a.directions, b.directions)


class TestOccupancyTileScheduler:
    def _schedulers(self, dataset, occupancy, seed=5, batch=32, tile=4):
        morton = MortonTileScheduler(dataset.train_cameras,
                                     dataset.train_images, batch, tile)
        occ = OccupancyTileScheduler(dataset.train_cameras,
                                     dataset.train_images, batch, tile,
                                     occupancy=occupancy,
                                     scene_bound=dataset.scene_bound)
        return (morton.sample_batch(new_rng(seed)), morton,
                occ.sample_batch(new_rng(seed)), occ)

    def test_no_grid_degrades_to_morton(self, tiny_dataset):
        (m_bundle, m_targets), _, (o_bundle, o_targets), occ = \
            self._schedulers(tiny_dataset, occupancy=None)
        assert occ.last_keys is None
        assert np.array_equal(m_bundle.origins, o_bundle.origins)
        assert np.array_equal(m_targets, o_targets)

    def test_empty_grid_degrades_to_morton(self, tiny_dataset):
        grid = OccupancyGrid(resolution=8, decay=0.95)
        assert not grid.has_data
        (m_bundle, _), _, (o_bundle, _), occ = \
            self._schedulers(tiny_dataset, occupancy=grid)
        assert occ.last_keys is None
        assert np.array_equal(m_bundle.origins, o_bundle.origins)

    def test_reorder_is_a_permutation_with_sorted_keys(self, tiny_dataset):
        grid = OccupancyGrid(resolution=8, decay=0.95)
        rng = new_rng(2)
        grid.mark_occupied(rng.uniform(0.2, 0.8, size=(64, 3)))
        (m_bundle, m_targets), _, (o_bundle, o_targets), occ = \
            self._schedulers(tiny_dataset, occupancy=grid)
        keys = occ.last_keys
        assert keys is not None and np.all(np.diff(keys) >= 0)
        # Same rays, same targets — only the order differs.
        m_rows = {tuple(r) for r in np.hstack([m_bundle.origins,
                                               m_bundle.directions, m_targets])}
        o_rows = {tuple(r) for r in np.hstack([o_bundle.origins,
                                               o_bundle.directions, o_targets])}
        assert m_rows == o_rows

    def test_reorder_consumes_no_extra_rng(self, tiny_dataset):
        grid = OccupancyGrid(resolution=8, decay=0.95)
        grid.mark_occupied(np.full((4, 3), 0.5))
        rng_a, rng_b = new_rng(9), new_rng(9)
        morton = MortonTileScheduler(tiny_dataset.train_cameras,
                                     tiny_dataset.train_images, 32, 4)
        occ = OccupancyTileScheduler(tiny_dataset.train_cameras,
                                     tiny_dataset.train_images, 32, 4,
                                     occupancy=grid,
                                     scene_bound=tiny_dataset.scene_bound)
        morton.sample_batch(rng_a)
        occ.sample_batch(rng_b)
        # Both generators must sit at the same point in their streams.
        assert rng_a.integers(0, 1 << 30) == rng_b.integers(0, 1 << 30)


class TestRayProbing:
    def test_probe_points_march_between_near_and_far(self):
        from repro.nerf.cameras import RayBundle
        bundle = RayBundle(origins=np.zeros((2, 3)),
                           directions=np.eye(3)[:2],
                           near=1.0, far=3.0)
        points = ray_probe_points(bundle, n_probes=4)
        assert points.shape == (8, 3)
        # First ray marches along +x at the probe midpoints.
        assert np.allclose(points[:4, 0], [1.25, 1.75, 2.25, 2.75])
        assert np.allclose(points[:4, 1:], 0.0)

    def test_probe_count_validated(self):
        from repro.nerf.cameras import RayBundle
        bundle = RayBundle(origins=np.zeros((1, 3)),
                           directions=np.ones((1, 3)),
                           near=0.1, far=1.0)
        with pytest.raises(ValueError):
            ray_probe_points(bundle, n_probes=0)

    def test_first_occupied_cells_finds_first_hit(self):
        grid = OccupancyGrid(resolution=4, decay=0.95)
        grid.mark_occupied(np.array([[0.6, 0.6, 0.6]]))
        # Ray A: probes through the occupied cell on its third probe.
        # Ray B: never enters it.
        probes = np.array([
            [0.1, 0.1, 0.1], [0.3, 0.3, 0.3], [0.6, 0.6, 0.6],
            [0.1, 0.9, 0.1], [0.3, 0.9, 0.3], [0.9, 0.9, 0.9],
        ])
        found, ix, iy, iz = grid.first_occupied_cells(probes, n_rays=2,
                                                      n_probes=3)
        assert found.tolist() == [True, False]
        assert (int(ix[0]), int(iy[0]), int(iz[0])) == (2, 2, 2)

    def test_first_occupied_cells_validates_shape(self):
        grid = OccupancyGrid(resolution=4, decay=0.95)
        grid.mark_occupied(np.full((1, 3), 0.5))
        with pytest.raises(ValueError):
            grid.first_occupied_cells(np.zeros((5, 3)), n_rays=2, n_probes=3)


class TestScheduledTraining:
    """Non-uniform schedules train correctly end to end."""

    @pytest.mark.parametrize("schedule", ["morton", "occupancy"])
    def test_scheduled_training_reduces_loss(self, tiny_config, tiny_dataset,
                                             schedule):
        config = dataclasses.replace(tiny_config, culling_enabled=True,
                                     ray_schedule=schedule, tile_size=4)
        model = DecoupledRadianceField(config, seed=0)
        trainer = Trainer(model, tiny_dataset, seed=0)
        losses = [trainer.train_step()["loss"] for _ in range(30)]
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_address_sort_preserves_touched_rows(self, tiny_config,
                                                 tiny_dataset):
        base = dataclasses.replace(tiny_config, culling_enabled=True,
                                   ray_schedule="morton", tile_size=4)
        plain = Trainer(DecoupledRadianceField(base, seed=0), tiny_dataset,
                        seed=0)
        srt = dataclasses.replace(base, address_sort=True)
        sorted_ = Trainer(DecoupledRadianceField(srt, seed=0), tiny_dataset,
                          seed=0)
        # The sort permutes the compacted batch; scatter targets the same
        # rows, and the losses agree to reduction-order (ulp-level) noise.
        for _ in range(5):
            a = plain.train_step()
            b = sorted_.train_step()
            assert a["grid_rows_touched"] == b["grid_rows_touched"]
            assert np.isclose(a["loss"], b["loss"], rtol=1e-9, atol=0.0)


class TestBumMergeRate:
    """(c) The scheduled draw plus ``address_sort`` raises the
    back-propagation update merger's (BUM's) merge rate on a deterministic
    training trace; neither does it alone (tiles without the sort stay
    near the uniform draw's ~0.90).

    The workload is fixed: benchmark-scale lego (32 px, 8 views), culled +
    sparse, 96 samples/ray so neighbouring rays overlap in the fine levels,
    16x16 tiles, seed 0, 48 steps.  The density grid's write trace of each
    of the last 4 steps is replayed through the modeled 16-entry merger
    (first 40,000 updates) and the merge rates averaged.  No wall clock is
    involved, so the floor is absolute.
    """

    N_STEPS, TRACE_STEPS, TRACE_CAP = 48, 4, 40000

    def _mean_merge_rate(self, config, dataset):
        model = DecoupledRadianceField(config, seed=0)
        trainer = Trainer(model, dataset, config=config, seed=0)
        rates = []
        for step in range(self.N_STEPS):
            trainer.train_step()
            if step >= self.N_STEPS - self.TRACE_STEPS:
                trace = model.encoder.density_grid.last_access.flat_addresses()
                rates.append(replay_trace(trace, cap=self.TRACE_CAP)["merge_rate"])
        return float(np.mean(rates))

    def test_occupancy_schedule_beats_uniform_and_clears_floor(
            self, bench_scale_config):
        dataset = nerf_synthetic_like(["lego"], n_train_views=8,
                                      n_test_views=2, image_size=32)[0]
        base = dataclasses.replace(
            bench_scale_config, culling_enabled=True, sparse_updates=True,
            n_samples_per_ray=96, batch_pixels=192, tile_size=16)
        uniform = self._mean_merge_rate(base, dataset)
        scheduled = self._mean_merge_rate(
            dataclasses.replace(base, ray_schedule="occupancy",
                                address_sort=True), dataset)
        assert scheduled > uniform
        assert scheduled >= 0.95
