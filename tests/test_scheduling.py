"""Tests for locality-aware ray scheduling (repro.nerf.scheduling).

Three contracts anchor the scheduler seam:

(a) ``ray_schedule="uniform"`` (the default) is *bit-identical* to the
    pre-scheduler trainer in every configuration — dense and culled,
    float64 and float32 — because the uniform scheduler consumes the pixel
    RNG stream exactly as the old inline ``sample_pixel_batch`` call did;
(b) the tiled schedules draw real pixels (targets match the images, rays
    match the cameras) and only reorder *within* the drawn batch, so
    training remains correct — just with a locality-friendly batch layout;
(c) on a fixed culled + sparse training trace, Morton-ordered where the
    hardware model reads it (``morton_order_record``), the occupancy
    schedule lifts the modeled BUM merge rate above the uniform draw's and
    to >= 0.95 (the tiles alone do not).
"""

import dataclasses

import numpy as np
import pytest

from repro.accelerator.bum import replay_trace
from repro.accelerator.trace import morton_order_record
from repro.core.model import DecoupledRadianceField
from repro.datasets import nerf_synthetic_like
from repro.nerf.cameras import PinholeCamera, RayTable, sample_pixel_batch
from repro.nerf.occupancy import OccupancyGrid
from repro.nerf.sampling import (
    normalize_points_to_unit_cube,
    ray_probe_points,
)
from repro.nerf.scheduling import (
    MortonTileScheduler,
    OccupancyTileScheduler,
    UniformScheduler,
    make_scheduler,
)
from repro.training.trainer import Trainer
from repro.utils.morton import morton_encode_2d, morton_encode_3d
from repro.utils.math3d import look_at_pose
from repro.utils.seeding import new_rng

from helpers import occupy
from oracles import (
    per_view_pixel_draw,
    per_view_tile_draw,
    pipeline_address_sort,
)


def _params_equal(model_a, model_b) -> bool:
    return all(np.array_equal(a.data, b.data)
               for a, b in zip(model_a.parameters(), model_b.parameters()))


class _InlineUniformOracle:
    """The pre-scheduler Step ❶, verbatim: the frozen per-view pixel draw.

    Swapped into a trainer in place of its scheduler, this reproduces the
    seed trainer's pixel draw exactly — the oracle the uniform schedule is
    differentially pinned against.
    """

    def __init__(self, cameras, images, batch_pixels):
        self.cameras = cameras
        self.images = images
        self.batch_pixels = batch_pixels

    def sample_batch(self, rng):
        return per_view_pixel_draw(self.cameras, self.images,
                                   self.batch_pixels, rng)


def _compact_1by1(x: np.ndarray) -> np.ndarray:
    """Gather the even bit positions of ``x`` into its low 32 bits."""
    x = x.astype(np.uint64) & np.uint64(0x5555555555555555)
    x = (x | (x >> np.uint64(1))) & np.uint64(0x3333333333333333)
    x = (x | (x >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x | (x >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
    x = (x | (x >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
    return x


def morton_decode_2d(code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert ``morton_encode_2d``; returns ``(x, y)`` as ``int64``."""
    code = np.asarray(code).astype(np.uint64)
    x = _compact_1by1(code)
    y = _compact_1by1(code >> np.uint64(1))
    return x.astype(np.int64), y.astype(np.int64)


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
            make_scheduler("hilbert", tiny_dataset.ray_table, 8)


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


def _assert_draws_equal(got, expected):
    (bundle, targets), (ref_bundle, ref_targets) = got, expected
    assert np.array_equal(bundle.origins, ref_bundle.origins)
    assert np.array_equal(bundle.directions, ref_bundle.directions)
    assert np.array_equal(targets, ref_targets)
    assert (bundle.near, bundle.far) == (ref_bundle.near, ref_bundle.far)


def _occupancy_reorder(scheduler, bundle, targets, pixels):
    """The occupancy schedule's documented reorder of a tile draw."""
    probes = ray_probe_points(bundle, scheduler.n_probes)
    found, ix, iy, iz = scheduler.occupancy.first_occupied_cells(
        normalize_points_to_unit_cube(probes, scheduler.scene_bound),
        bundle.n_rays, scheduler.n_probes)
    keys = morton_encode_3d(ix, iy, iz)
    keys[~found] = np.int64(1) << np.int64(62)
    order = np.argsort(keys, kind="stable")
    return ((bundle.origins[order], bundle.directions[order]),
            targets[order], tuple(p[order] for p in pixels), keys[order])


class TestRayTableDraws:
    """Every scheduler equals the frozen per-view draws bit for bit (views
    drawn at least twice per batch), including the generator state."""

    @pytest.mark.parametrize("batch", [64, 256, 1000])
    def test_uniform_matches_per_view_oracle(self, tiny_dataset, batch):
        cams, images = tiny_dataset.train_cameras, tiny_dataset.train_images
        sched = UniformScheduler(RayTable(cams, images), batch)
        rng, ref_rng = new_rng(3), new_rng(3)
        for _ in range(50):
            got = sched.sample_batch(rng)
            _assert_draws_equal(got, per_view_pixel_draw(cams, images, batch,
                                                         ref_rng))
            _assert_draws_equal(
                sample_pixel_batch(cams, images, batch, new_rng(4)),
                per_view_pixel_draw(cams, images, batch, new_rng(4)))
            assert sched.last_pixels is None
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("batch,tile", [(48, 4), (40, 4), (64, 8),
                                            (30, 3)])
    def test_morton_matches_per_view_oracle(self, tiny_dataset, batch, tile):
        cams, images = tiny_dataset.train_cameras, tiny_dataset.train_images
        sched = MortonTileScheduler(RayTable(cams, images), batch, tile)
        rng, ref_rng = new_rng(5), new_rng(5)
        for _ in range(50):
            got = sched.sample_batch(rng)
            bundle, targets, pixels = per_view_tile_draw(
                cams, images, batch, sched._tile_dx, sched._tile_dy, ref_rng)
            _assert_draws_equal(got, (bundle, targets))
            for a, b in zip(sched.last_pixels, pixels):
                assert np.array_equal(a, b)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_occupancy_matches_per_view_oracle(self, tiny_dataset):
        cams, images = tiny_dataset.train_cameras, tiny_dataset.train_images
        grid = OccupancyGrid(resolution=8, decay=0.95)
        occupy(grid, new_rng(2).uniform(0.2, 0.8, size=(64, 3)))
        sched = OccupancyTileScheduler(RayTable(cams, images), 48, 4,
                                       occupancy=grid,
                                       scene_bound=tiny_dataset.scene_bound)
        rng, ref_rng = new_rng(6), new_rng(6)
        for _ in range(50):
            bundle, targets = sched.sample_batch(rng)
            ref = per_view_tile_draw(cams, images, 48, sched._tile_dx,
                                     sched._tile_dy, ref_rng)
            (origins, directions), ref_targets, pixels, keys = \
                _occupancy_reorder(sched, *ref)
            assert np.array_equal(bundle.origins, origins)
            assert np.array_equal(bundle.directions, directions)
            assert np.array_equal(targets, ref_targets)
            assert np.array_equal(sched.last_keys, keys)
            for a, b in zip(sched.last_pixels, pixels):
                assert np.array_equal(a, b)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_one_pixel_view_reads_its_all_rays_row(self, tiny_dataset):
        """A view drawn once gets its ``all_rays()`` row, whatever else the
        batch holds.  The per-view draw generated that ray with a one-row
        matrix product, which may differ from the row in the last bit."""
        cams, images = tiny_dataset.train_cameras, tiny_dataset.train_images
        sched = MortonTileScheduler(RayTable(cams, images), batch_pixels=1,
                                    tile_size=1)
        for seed in range(20):
            bundle, targets = sched.sample_batch(new_rng(seed))
            (view,), (col,), (row,) = sched.last_pixels
            cam = cams[view]
            flat = row * cam.width + col
            assert np.array_equal(bundle.directions[0],
                                  cam.all_rays().directions[flat])
            assert np.array_equal(targets[0], images[view][row, col])
            one_row = cam.rays_for_pixels(np.array([col]), np.array([row]))
            np.testing.assert_allclose(bundle.directions[0],
                                       one_row.directions[0],
                                       rtol=0, atol=1e-15)

    def test_table_is_built_on_first_draw(self, tiny_dataset):
        table = RayTable(tiny_dataset.train_cameras, tiny_dataset.train_images)
        assert table._directions is None
        table.sample_pixels(8, new_rng(0))
        assert table._directions.shape == (4 * 20 * 20, 3)


def _two_views(near1=0.5, far1=3.0, shape1=None):
    pose = look_at_pose(eye=[0.0, -2.0, 0.0], target=[0.0, 0.0, 0.0])
    cams = [PinholeCamera(width=8, height=6, focal=10.0, pose=pose,
                          near=0.5, far=3.0),
            PinholeCamera(width=8, height=6, focal=10.0, pose=pose,
                          near=near1, far=far1)]
    images = [np.zeros((6, 8, 3)), np.ones(shape1 or (6, 8, 3))]
    return cams, images


_DRAWS = {
    "sample_pixel_batch": lambda c, i: sample_pixel_batch(c, i, 64,
                                                          new_rng(0)),
    "uniform": lambda c, i: make_scheduler("uniform", RayTable(c, i), 64),
    "morton": lambda c, i: make_scheduler("morton", RayTable(c, i), 64,
                                          tile_size=4),
    "occupancy": lambda c, i: make_scheduler("occupancy", RayTable(c, i), 64,
                                             tile_size=4),
}


class TestRayTableValidation:
    """A batch carries one near/far interval and (H, W, 3) colours."""

    @pytest.mark.parametrize("draw", sorted(_DRAWS))
    @pytest.mark.parametrize("near,far", [(1.0, 5.0), (0.5, 5.0), (1.0, 3.0)])
    def test_rejects_a_view_with_another_interval(self, draw, near, far):
        cams, images = _two_views(near1=near, far1=far)
        with pytest.raises(ValueError, match="view 1 has near/far"):
            _DRAWS[draw](cams, images)

    @pytest.mark.parametrize("draw", sorted(_DRAWS))
    @pytest.mark.parametrize("shape", [(8, 6, 3), (6, 8, 4), (6, 8)])
    def test_rejects_an_image_of_another_shape(self, draw, shape):
        cams, images = _two_views(shape1=shape)
        with pytest.raises(ValueError, match="view 1 has image shape"):
            _DRAWS[draw](cams, images)

    def test_shared_interval_is_the_bundle_interval(self):
        cams, images = _two_views()
        bundle, _ = sample_pixel_batch(cams, images, 64, new_rng(0))
        assert (bundle.near, bundle.far) == (0.5, 3.0)


class TestMortonTileScheduler:
    def test_targets_and_rays_match_drawn_pixels(self, tiny_dataset):
        sched = MortonTileScheduler(tiny_dataset.ray_table, batch_pixels=48,
                                    tile_size=4)
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
        sched = MortonTileScheduler(tiny_dataset.ray_table,
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
        sched = MortonTileScheduler(tiny_dataset.ray_table, batch_pixels=10,
                                    tile_size=4)
        bundle, targets = sched.sample_batch(new_rng(0))
        assert bundle.n_rays == 10 == targets.shape[0]

    def test_tile_clamped_to_image(self, tiny_dataset):
        # tiny_dataset images are 20x20; a 64-wide tile must shrink to fit.
        sched = MortonTileScheduler(tiny_dataset.ray_table, batch_pixels=16,
                                    tile_size=64)
        assert sched.tile_size == 20
        bundle, _ = sched.sample_batch(new_rng(0))
        assert bundle.n_rays == 16

    def test_same_seed_same_draw(self, tiny_dataset):
        make = lambda: MortonTileScheduler(tiny_dataset.ray_table,
                                           batch_pixels=32, tile_size=4)
        a, _ = make().sample_batch(new_rng(11))
        b, _ = make().sample_batch(new_rng(11))
        assert np.array_equal(a.origins, b.origins)
        assert np.array_equal(a.directions, b.directions)


class TestOccupancyTileScheduler:
    def _schedulers(self, dataset, occupancy, seed=5, batch=32, tile=4):
        morton = MortonTileScheduler(dataset.ray_table, batch, tile)
        occ = OccupancyTileScheduler(dataset.ray_table, batch, tile,
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
        occupy(grid, rng.uniform(0.2, 0.8, size=(64, 3)))
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
        occupy(grid, np.full((4, 3), 0.5))
        rng_a, rng_b = new_rng(9), new_rng(9)
        morton = MortonTileScheduler(tiny_dataset.ray_table, 32, 4)
        occ = OccupancyTileScheduler(tiny_dataset.ray_table, 32, 4,
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
        occupy(grid, np.array([[0.6, 0.6, 0.6]]))
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
        occupy(grid, np.full((1, 3), 0.5))
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

    def test_trace_order_preserves_touched_rows(self, tiny_config,
                                                tiny_dataset):
        config = dataclasses.replace(tiny_config, culling_enabled=True,
                                     ray_schedule="morton", tile_size=4)
        model = DecoupledRadianceField(config, seed=0)
        trainer = Trainer(model, tiny_dataset, seed=0)
        grid = model.encoder.density_grid
        # Ordering the recorded trace moves whole points: every level
        # addresses the same rows, each as often as the training step did.
        for _ in range(5):
            trainer.train_step()
            record = grid.last_access
            ordered = morton_order_record(record, grid.levels[-1].resolution)
            for level in range(record.n_levels):
                assert np.array_equal(
                    np.sort(ordered.flat_addresses(level)),
                    np.sort(record.flat_addresses(level)))


class TestTraceOrder:
    """The hardware model's Morton order equals the sort the training
    pipeline once applied to a culled batch before its field query."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_matches_pipeline_sort_oracle(self, tiny_config, tiny_dataset,
                                          occupancy_schedule, dtype):
        config = dataclasses.replace(tiny_config, culling_enabled=True,
                                     compute_dtype=dtype)
        model = DecoupledRadianceField(config, seed=0)
        trainer = Trainer(model, tiny_dataset, config=config, seed=0)
        with occupancy_schedule(warmup=4, every=2):
            for _ in range(12):
                trainer.train_step()
        pipeline, grid = trainer.pipeline, model.encoder.density_grid
        bundle, _ = trainer.scheduler.sample_batch(new_rng(1))
        plan = pipeline.stage_cull(pipeline.stage_samples(bundle, new_rng(2)))
        assert 0 < plan.n_queried < plan.sample.n_total    # a culled batch
        points = plan.sample.points_unit

        # What the pipeline's sort made the grid record ...
        sorted_idx = pipeline_address_sort(grid, points, plan.idx)
        grid.forward(points[sorted_idx])
        expected = grid.last_access
        expected_addr = expected.address_planes.copy()
        expected_weights = expected.weight_planes.copy()
        # ... equals the unsorted batch's record, ordered trace-side.
        grid.forward(points[plan.idx])
        ordered = morton_order_record(grid.last_access,
                                      grid.levels[-1].resolution)
        assert not np.array_equal(sorted_idx, plan.idx)
        assert np.array_equal(ordered.address_planes, expected_addr)
        assert np.array_equal(ordered.weight_planes, expected_weights)
        assert np.array_equal(ordered.points, points[sorted_idx])


class TestBumMergeRate:
    """(c) The scheduled draw raises the back-propagation update merger's
    (BUM's) merge rate on a deterministic training trace once the hardware
    model Morton-orders it (:func:`morton_order_record`); neither does it
    alone (the unordered tiled trace stays near the uniform draw's ~0.90).

    The workload is fixed: benchmark-scale lego (32 px, 8 views), culled +
    sparse, 96 samples/ray so neighbouring rays overlap in the fine levels,
    16x16 tiles, seed 0, 48 steps.  The density grid's write trace of each
    of the last 4 steps is replayed through the modeled 16-entry merger
    (first 40,000 updates) and the merge rates averaged: the uniform
    draw's as recorded, the occupancy schedule's Morton-ordered.  No wall
    clock is involved, so the floor is absolute.
    """

    N_STEPS, TRACE_STEPS, TRACE_CAP = 48, 4, 40000

    def _mean_merge_rate(self, config, dataset, ordered):
        model = DecoupledRadianceField(config, seed=0)
        trainer = Trainer(model, dataset, config=config, seed=0)
        grid = model.encoder.density_grid
        rates = []
        for step in range(self.N_STEPS):
            trainer.train_step()
            if step >= self.N_STEPS - self.TRACE_STEPS:
                record = grid.last_access
                if ordered:
                    record = morton_order_record(record,
                                                 grid.levels[-1].resolution)
                rates.append(replay_trace(record.flat_addresses(),
                                          cap=self.TRACE_CAP)["merge_rate"])
        return float(np.mean(rates))

    def test_occupancy_schedule_beats_uniform_and_clears_floor(
            self, bench_scale_config):
        dataset = nerf_synthetic_like(["lego"], n_train_views=8,
                                      n_test_views=2, image_size=32)[0]
        base = dataclasses.replace(
            bench_scale_config, culling_enabled=True, sparse_updates=True,
            n_samples_per_ray=96, batch_pixels=192, tile_size=16)
        uniform = self._mean_merge_rate(base, dataset, ordered=False)
        scheduled = self._mean_merge_rate(
            dataclasses.replace(base, ray_schedule="occupancy"), dataset,
            ordered=True)
        assert scheduled > uniform
        assert scheduled >= 0.95
