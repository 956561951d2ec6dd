"""Differential tests for the occupancy-culled render pipeline.

Three contracts anchor the refactor:

(a) ``culling_enabled=False`` (the default) is *bit-identical* to the
    pre-pipeline trainer — same losses, same parameters — so every existing
    experiment is unaffected;
(b) with culling on but a fully-occupied grid, compaction is a no-op:
    losses and gradients reproduce the dense run exactly;
(c) a partial mask scatters exactly like a dense forward with the culled
    samples zeroed, and backward only reaches the kept samples.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import Instant3DConfig
from repro.core.model import DecoupledRadianceField
from repro.core.schedule import BranchSchedules
from repro.nerf.cameras import sample_pixel_batch
from repro.nerf.losses import mse_loss
from repro.nerf.occupancy import OccupancyGrid
from repro.nerf.pipeline import RenderPipeline
from repro.nerf.sampling import normalize_points_to_unit_cube, ray_points, stratified_samples
from repro.nerf.volume_rendering import VolumeRenderer
from repro.nn.optim import Adam
from repro.training.metrics import render_view
from repro.training.profiler import build_iteration_workload, profile_iteration
from repro.training.trainer import Trainer, TrainingHistory
from repro.utils.seeding import derive_rng, new_rng


def _reference_dense_run(dataset, config, seed, n_steps):
    """The pre-pipeline six-step training loop, kept verbatim as the oracle.

    The precision, scheduling and serving differentials reuse it; it should
    never change.
    """
    model = DecoupledRadianceField(config, seed=seed)
    schedules = BranchSchedules.from_frequencies(
        config.density_update_freq, config.color_update_freq)
    renderer = VolumeRenderer(white_background=config.white_background)
    density_opt = Adam(model.density_parameters(), lr=config.learning_rate)
    color_opt = Adam(model.color_parameters(), lr=config.learning_rate)
    pixel_rng = derive_rng(seed, f"{dataset.name}:pixels")
    sample_rng = derive_rng(seed, f"{dataset.name}:samples")
    losses = []
    for iteration in range(n_steps):
        update_density, update_color = schedules.updates_at(iteration)
        bundle, targets = sample_pixel_batch(
            dataset.train_cameras, dataset.train_images,
            config.batch_pixels, pixel_rng)
        t_vals, deltas = stratified_samples(bundle, config.n_samples_per_ray,
                                            rng=sample_rng)
        points, dirs = ray_points(bundle, t_vals)
        points_unit = normalize_points_to_unit_cube(points, dataset.scene_bound)
        sigma, rgb = model.query(points_unit, dirs)
        n_rays, n_samples = bundle.n_rays, config.n_samples_per_ray
        render = renderer.forward(sigma.reshape(n_rays, n_samples),
                                  rgb.reshape(n_rays, n_samples, 3),
                                  deltas, t_vals)
        loss, grad_colors = mse_loss(render.colors, targets)
        grad_sigmas, grad_rgbs = renderer.backward(grad_colors)
        model.zero_grad()
        model.backward(grad_sigmas.reshape(-1), grad_rgbs.reshape(-1, 3),
                       update_density=update_density, update_color=update_color)
        if update_density:
            density_opt.step()
        if update_color:
            color_opt.step()
        losses.append(loss)
    return model, losses


def _params_equal(model_a, model_b) -> bool:
    return all(np.array_equal(a.data, b.data)
               for a, b in zip(model_a.parameters(), model_b.parameters()))


def _force_fully_occupied(grid: OccupancyGrid) -> None:
    """Make every cell occupied and the mask path active (updates > 0)."""
    grid.density.fill(1.0)
    grid._updates = 1


class TestDensePathBitIdentity:
    def test_trainer_matches_reference_over_20_steps(self, tiny_config, tiny_dataset):
        """(a) The dense pipeline path is bit-identical to the old trainer."""
        ref_model, ref_losses = _reference_dense_run(tiny_dataset, tiny_config,
                                                     seed=0, n_steps=20)
        model = DecoupledRadianceField(tiny_config, seed=0)
        trainer = Trainer(model, tiny_dataset, seed=0)
        losses = [trainer.train_step()["loss"] for _ in range(20)]
        assert losses == ref_losses
        assert _params_equal(model, ref_model)

    def test_dense_render_view_unchanged(self, tiny_model, tiny_dataset):
        """render_view without occupancy equals the manual render."""
        camera = tiny_dataset.test_views[0].camera
        n_samples = 8
        rgb, depth = render_view(tiny_model, camera, tiny_dataset.scene_bound,
                                 n_samples=n_samples)
        bundle = camera.all_rays()
        renderer = VolumeRenderer(white_background=True)
        t_vals, deltas = stratified_samples(bundle, n_samples, rng=None)
        points, dirs = ray_points(bundle, t_vals)
        points_unit = normalize_points_to_unit_cube(points, tiny_dataset.scene_bound)
        sigma, rgb_pts = tiny_model.query(points_unit, dirs)
        out = renderer.forward(sigma.reshape(bundle.n_rays, n_samples),
                               rgb_pts.reshape(bundle.n_rays, n_samples, 3),
                               deltas, t_vals)
        expected = np.clip(out.colors, 0.0, 1.0).reshape(rgb.shape)
        assert np.array_equal(rgb, expected)
        assert np.array_equal(depth, out.depth.reshape(depth.shape))


class TestFullyOccupiedCulling:
    def test_fully_occupied_grid_reproduces_dense_run(self, tiny_config, tiny_dataset,
                                                      occupancy_schedule):
        """(b) Compaction through an all-occupied grid is an exact no-op."""
        dense_model = DecoupledRadianceField(tiny_config, seed=0)
        dense_trainer = Trainer(dense_model, tiny_dataset, seed=0)
        dense_losses = [dense_trainer.train_step()["loss"] for _ in range(10)]

        culled_config = dataclasses.replace(tiny_config, culling_enabled=True)
        culled_model = DecoupledRadianceField(culled_config, seed=0)
        culled_trainer = Trainer(culled_model, tiny_dataset,
                                 config=culled_config, seed=0)
        _force_fully_occupied(culled_trainer.occupancy)
        with occupancy_schedule(warmup=10**6):  # no refresh during the test
            culled_losses = [culled_trainer.train_step()["loss"]
                             for _ in range(10)]

        assert culled_losses == dense_losses
        assert _params_equal(culled_model, dense_model)

    def test_partial_mask_matches_zeroed_dense_forward(self, tiny_model, tiny_dataset):
        """Compacting K samples equals querying densely and zeroing the rest."""
        camera = tiny_dataset.test_views[0].camera
        bundle = camera.all_rays()
        n_samples = 8
        grid = OccupancyGrid(resolution=8, decay=0.95,
                             occupancy_threshold=0.5, seed=3)
        # A half-occupied grid: occupy a slab of cells.
        grid.density[:4].fill(1.0)
        grid._updates = 1

        pipeline = RenderPipeline(tiny_model, tiny_dataset.scene_bound,
                                  n_samples=n_samples, occupancy=grid)
        out = pipeline.render_rays(bundle, rng=None)
        assert 0 < out.n_queried < out.n_total

        t_vals, deltas = stratified_samples(bundle, n_samples, rng=None)
        points, dirs = ray_points(bundle, t_vals)
        points_unit = normalize_points_to_unit_cube(points, tiny_dataset.scene_bound)
        keep = grid.filter_samples(points_unit)
        sigma, rgb = tiny_model.query(points_unit, dirs)
        sigma = np.where(keep, sigma, 0.0)
        rgb = np.where(keep[:, None], rgb, 0.0)
        renderer = VolumeRenderer(white_background=True)
        expected = renderer.forward(sigma.reshape(bundle.n_rays, n_samples),
                                    rgb.reshape(bundle.n_rays, n_samples, 3),
                                    deltas, t_vals)
        np.testing.assert_allclose(out.render.colors, expected.colors, atol=1e-12)

    def test_backward_only_touches_kept_samples(self, tiny_config, tiny_dataset):
        """Gradient gather returns exactly one row per queried sample."""
        model = DecoupledRadianceField(tiny_config, seed=0)
        camera = tiny_dataset.test_views[0].camera
        bundle = camera.all_rays()
        grid = OccupancyGrid(resolution=8, decay=0.95,
                             occupancy_threshold=0.5, seed=3)
        grid.density[4:].fill(1.0)
        grid._updates = 1
        pipeline = RenderPipeline(model, tiny_dataset.scene_bound,
                                  n_samples=8, occupancy=grid)
        out = pipeline.render_rays(bundle, rng=None)
        grad_colors = np.ones((bundle.n_rays, 3))
        grad_sigma, grad_rgb = pipeline.backward_to_points(grad_colors)
        assert grad_sigma.shape == (out.n_queried,)
        assert grad_rgb.shape == (out.n_queried, 3)
        model.backward(grad_sigma, grad_rgb)      # shapes accepted by the field

    def test_backward_before_render_raises(self, tiny_model, tiny_dataset):
        pipeline = RenderPipeline(tiny_model, tiny_dataset.scene_bound,
                                  n_samples=8)
        with pytest.raises(RuntimeError, match="preceding render_rays"):
            pipeline.backward_to_points(np.ones((4, 3)))


class TestCulledTrainingRun:
    def test_culling_reduces_queries_and_records_history(self, tiny_config, tiny_dataset,
                                                         occupancy_schedule):
        config = dataclasses.replace(tiny_config, culling_enabled=True)
        model = DecoupledRadianceField(config, seed=0)
        trainer = Trainer(model, tiny_dataset, config=config, seed=0)
        history = TrainingHistory()
        with occupancy_schedule(warmup=8, every=4):
            trainer.run_steps(80, history)
        assert len(history.queries_total) == 80
        assert len(history.queries_kept) == 80
        assert len(history.occupancy_fractions) == 80
        # Before the first refresh everything is kept (and the accounting
        # says so — no bogus "0% occupied" during warm-up)...
        assert history.queries_kept[0] == history.queries_total[0]
        assert history.occupancy_fractions[0] == 1.0
        # ...and after warm-up the occupancy grid prunes a real share.
        assert history.queries_kept[-1] < history.queries_total[-1]
        assert history.mean_keep_fraction(10) < 1.0
        assert 0.0 < trainer.occupancy.occupancy_fraction < 1.0

        result = trainer.finalize(history)
        assert result.final_occupancy_fraction == trainer.occupancy.occupancy_fraction
        assert result.queries_kept < result.queries_total
        # The culling ledger also charges the refreshes' density probes.
        assert result.occupancy_refresh_points == (
            OccupancyGrid.refresh_samples * trainer.occupancy.n_updates)
        assert np.isfinite(result.rgb_psnr)

    def test_net_query_reduction_at_bench_scale(self, bench_scale_config,
                                                bench_lego_20px):
        """Over the last quarter of a 120-step run, culling cuts field
        queries per iteration even after charging every occupancy refresh's
        density probes to the iterations they serve."""
        config = dataclasses.replace(bench_scale_config, culling_enabled=True)
        n_steps, tail = 120, 30
        trainer = Trainer(DecoupledRadianceField(config, seed=0),
                          bench_lego_20px, config=config, seed=0)
        history = TrainingHistory()
        trainer.run_steps(n_steps, history)
        dense_per_iter = config.batch_pixels * config.n_samples_per_ray
        assert history.queries_total[-tail:] == [dense_per_iter] * tail
        culled_per_iter = (np.mean(history.queries_kept[-tail:])
                           + trainer.occupancy_refresh_points / n_steps)
        assert dense_per_iter / culled_per_iter > 1.0

    def test_all_empty_grid_never_freezes_training(self, tiny_dataset):
        """An all-empty grid keeps every sample instead of deadlocking."""
        grid = OccupancyGrid(resolution=8, decay=0.95,
                             occupancy_threshold=0.5, seed=0)
        grid.update(lambda p: np.zeros(p.shape[0]))     # refresh finds nothing
        assert grid.occupancy_fraction == 0.0
        points = new_rng(0).uniform(size=(50, 3))
        assert np.all(grid.filter_samples(points))
        assert grid.expected_queries_per_iteration(10, 5) == 50

    def test_pipeline_validation(self, tiny_model):
        with pytest.raises(ValueError):
            RenderPipeline(tiny_model, 1.0, n_samples=0)

    def test_config_validation(self):
        # The grid owns its shape, decay and threshold.  A NaN threshold
        # would mark no cell occupied (culling silently off) and make the
        # grid reject its own checkpoint (NaN != NaN).
        for kwargs in ({"resolution": 1}, {"decay": 1.0},
                       {"occupancy_threshold": -0.1},
                       {"occupancy_threshold": float("nan")},
                       {"occupancy_threshold": float("inf")}):
            with pytest.raises(ValueError):
                OccupancyGrid(**kwargs)


class TestOccupancySeeding:
    @staticmethod
    def _recorded_updates(seed: int, n_updates: int):
        """Run updates with the grid's own generator, recording probe points."""
        grid = OccupancyGrid(resolution=8, decay=0.95, seed=seed)
        probes = []

        def query_fn(points):
            probes.append(np.array(points))
            return np.zeros(points.shape[0])

        for _ in range(n_updates):
            grid.update(query_fn, n_samples=64)
        return probes

    def test_successive_updates_probe_fresh_points(self):
        first, second = self._recorded_updates(seed=0, n_updates=2)
        assert not np.array_equal(first, second)

    def test_same_seed_reproduces_probe_sequence(self):
        a = self._recorded_updates(seed=7, n_updates=3)
        b = self._recorded_updates(seed=7, n_updates=3)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)

    def test_different_seeds_decorrelate(self):
        a = self._recorded_updates(seed=0, n_updates=1)
        b = self._recorded_updates(seed=1, n_updates=1)
        assert not np.array_equal(a[0], b[0])

    def test_explicit_rng_still_wins(self):
        grid = OccupancyGrid(resolution=8, decay=0.95, seed=0)
        probes = []

        def query_fn(points):
            probes.append(np.array(points))
            return np.zeros(points.shape[0])

        grid.update(query_fn, n_samples=32, rng=new_rng(5))
        expected = new_rng(5).uniform(0.0, 1.0, size=(32, 3))
        assert np.array_equal(probes[0], expected)


class TestProfilerCulling:
    def test_keep_fraction_scales_point_steps(self):
        config = Instant3DConfig.paper_scale_baseline()
        dense = build_iteration_workload(config)
        culled = build_iteration_workload(config, keep_fraction=0.25)
        for step_name in ("grid_forward", "grid_backward", "mlp_forward",
                          "mlp_backward"):
            dense_total = dense.total("flops", [step_name])
            culled_total = culled.total("flops", [step_name])
            assert culled_total == pytest.approx(0.25 * dense_total)
        # Host-side steps are unaffected (dense compositing planes).
        assert (culled.total("flops", ["volume_render"])
                == dense.total("flops", ["volume_render"]))
        assert culled.keep_fraction == 0.25
        assert culled.culled_points_per_iteration == dense.points_per_iteration // 4
        assert culled.points_per_iteration == dense.points_per_iteration

    def test_occupancy_grid_supplies_keep_fraction(self):
        grid = OccupancyGrid(resolution=8, decay=0.95,
                             occupancy_threshold=0.5, seed=0)
        grid.density[:2].fill(1.0)            # 1/4 of the cells occupied
        grid._updates = 1
        config = Instant3DConfig.paper_scale_baseline()
        workload = build_iteration_workload(config, occupancy=grid)
        assert workload.keep_fraction == pytest.approx(grid.occupancy_fraction)
        assert workload.culled_points_per_iteration < workload.points_per_iteration

    def test_occupancy_and_keep_fraction_are_exclusive(self):
        grid = OccupancyGrid(resolution=8, decay=0.95, seed=0)
        with pytest.raises(ValueError):
            build_iteration_workload(Instant3DConfig.paper_scale_baseline(),
                                     occupancy=grid, keep_fraction=0.5)
        with pytest.raises(ValueError):
            build_iteration_workload(Instant3DConfig.paper_scale_baseline(),
                                     keep_fraction=1.5)

    def test_profile_iteration_alias(self):
        assert profile_iteration is build_iteration_workload

    def test_devices_price_culled_workload_cheaper(self):
        from repro.accelerator.devices import baseline_devices

        config = Instant3DConfig.paper_scale_baseline()
        dense = build_iteration_workload(config)
        culled = build_iteration_workload(config, keep_fraction=0.3)
        device = next(iter(baseline_devices().values()))
        assert (device.estimate_training(culled).per_iteration_s
                < device.estimate_training(dense).per_iteration_s)

    def test_breakdown_surfaces_culled_counts(self):
        from repro.accelerator.devices import baseline_devices
        from repro.analysis.breakdown import runtime_breakdown

        config = Instant3DConfig.paper_scale_baseline()
        workload = build_iteration_workload(config, keep_fraction=0.5)
        device = next(iter(baseline_devices().values()))
        estimate = device.estimate_training(workload)
        breakdown = runtime_breakdown(estimate, workload=workload)
        assert breakdown.keep_fraction == 0.5
        assert breakdown.points_per_iteration == workload.points_per_iteration
        assert (breakdown.culled_points_per_iteration
                == workload.culled_points_per_iteration)
        # Default call keeps the dense accounting.
        assert runtime_breakdown(estimate).keep_fraction == 1.0
