"""Tests for the training pipeline: profiler, trainer, metrics."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import Instant3DConfig
from repro.core.model import DecoupledRadianceField
from repro.training import (
    PipelineStep,
    Trainer,
    WorkloadScale,
    build_iteration_workload,
    evaluate_model,
    train_scene,
)
from repro.training.metrics import render_view
from repro.training.profiler import mlp_head_widths


class TestWorkloadScale:
    def test_paper_scale_matches_paper_statement(self):
        scale = WorkloadScale.paper_scale()
        # The paper reports >200,000 embedding interpolations per iteration.
        assert scale.points_per_iteration > 150_000

    def test_from_config(self, tiny_config):
        scale = WorkloadScale.from_config(tiny_config, n_iterations=10)
        assert scale.points_per_iteration == tiny_config.points_per_iteration
        assert scale.n_iterations == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadScale(batch_pixels=0, samples_per_ray=1, n_iterations=1)


def _table_rows(grid_config):
    return sum(level.size for level in grid_config.layout)


class TestGridAccounting:
    def test_table_entries_respect_cap(self, tiny_grid_config):
        entries = _table_rows(tiny_grid_config)
        assert entries <= tiny_grid_config.n_levels * tiny_grid_config.max_table_entries
        assert entries > 0

    def test_storage_scales_with_size_scale(self, tiny_grid_config):
        small = _table_rows(tiny_grid_config.scaled(0.25))
        full = _table_rows(tiny_grid_config)
        assert small < full


class TestIterationWorkload:
    def test_all_pipeline_steps_present(self):
        workload = build_iteration_workload(Instant3DConfig.paper_scale_baseline())
        steps = {s.step for s in workload.steps}
        assert steps == set(PipelineStep.ORDER)

    def test_grid_steps_have_one_entry_per_branch(self):
        workload = build_iteration_workload(Instant3DConfig.paper_scale_instant3d())
        forward = [s for s in workload.steps if s.step == PipelineStep.GRID_FORWARD]
        backward = [s for s in workload.steps if s.step == PipelineStep.GRID_BACKWARD]
        assert len(forward) == 2
        assert len(backward) == 2
        assert {s.branch for s in forward} == {"density", "color"}

    def test_grid_accesses_match_config(self):
        config = Instant3DConfig.paper_scale_baseline()
        workload = build_iteration_workload(config)
        forward = [s for s in workload.steps if s.step == PipelineStep.GRID_FORWARD]
        points = workload.points_per_iteration
        for step in forward:
            assert step.grid_accesses == points * 8 * config.grid.n_levels

    def test_update_fraction_propagates_to_backward(self):
        config = Instant3DConfig.paper_scale_instant3d()
        workload = build_iteration_workload(config)
        backward = {s.branch: s for s in workload.steps
                    if s.step == PipelineStep.GRID_BACKWARD}
        assert backward["color"].update_fraction == 0.5
        assert backward["density"].update_fraction == 1.0

    def test_mlp_head_widths(self):
        """Each branch carries half the baseline's 2 features per level, and
        the color head also reads the 9 spherical-harmonics coefficients."""
        config = Instant3DConfig.paper_scale_instant3d()
        assert mlp_head_widths(config) == ((16, 64, 64, 1), (16 + 9, 64, 64, 3))

    def test_instant3d_reduces_effective_grid_work(self):
        base = build_iteration_workload(Instant3DConfig.paper_scale_baseline())
        i3d = build_iteration_workload(
            Instant3DConfig.paper_scale_baseline().with_ratios(
                color_size_ratio=0.25, color_update_freq=0.5)
        )
        base_bytes = base.total("grid_bytes", list(PipelineStep.GRID_STEPS))
        i3d_bytes = i3d.total("grid_bytes", list(PipelineStep.GRID_STEPS))
        assert i3d_bytes < base_bytes

    def test_grid_table_bytes_reflect_size_ratio(self):
        workload = build_iteration_workload(Instant3DConfig.paper_scale_instant3d())
        bytes_ = workload.grid_table_bytes
        assert bytes_["color"] < bytes_["density"]
        # The accelerator design targets a ~1 MB density table and ~256 KB color table.
        assert 0.5e6 < bytes_["density"] < 1.3e6
        assert 0.1e6 < bytes_["color"] < 0.4e6


class TestTrainer:
    def test_single_step_outputs(self, tiny_config, tiny_dataset):
        model = DecoupledRadianceField(tiny_config, seed=0)
        trainer = Trainer(model, tiny_dataset, seed=0)
        metrics = trainer.train_step()
        assert metrics["loss"] >= 0.0
        assert metrics["iteration"] == 1.0
        assert metrics["updated_density"] == 1.0 or metrics["updated_density"] == 0.0

    def test_loss_decreases_over_training(self, tiny_config, tiny_dataset):
        model = DecoupledRadianceField(tiny_config, seed=0)
        trainer = Trainer(model, tiny_dataset, seed=0)
        losses = [trainer.train_step()["loss"] for _ in range(40)]
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_update_frequency_respected(self, tiny_config, tiny_dataset):
        model = DecoupledRadianceField(tiny_config, seed=0)
        trainer = Trainer(model, tiny_dataset, seed=0)
        result = trainer.train(12)
        assert result.density_updates == 12
        assert result.color_updates == 6           # F_C = 0.5

    def test_train_scene_improves_over_untrained(self, tiny_config, tiny_dataset):
        untrained = DecoupledRadianceField(tiny_config, seed=0)
        untrained_eval = evaluate_model(untrained, tiny_dataset, n_views=1, n_samples=16)
        result = train_scene(tiny_dataset, tiny_config, n_iterations=40, seed=0)
        assert result.rgb_psnr > untrained_eval.rgb_psnr

    def test_history_and_intermediate_evals(self, tiny_config, tiny_dataset):
        result = train_scene(tiny_dataset, tiny_config, n_iterations=10, seed=0,
                             eval_every=5)
        history = result.history
        assert len(history.losses) == 10
        assert history.eval_iterations == [5, 10]
        assert len(history.eval_rgb_psnrs) == 2

    def test_invalid_iteration_count(self, tiny_config, tiny_dataset):
        model = DecoupledRadianceField(tiny_config, seed=0)
        trainer = Trainer(model, tiny_dataset, seed=0)
        with pytest.raises(ValueError):
            trainer.train(0)

    @pytest.mark.parametrize("name,value", [
        ("grid", dataclasses.replace(Instant3DConfig().grid, n_levels=3)),
        ("color_size_ratio", 1.0),
        ("mlp_hidden_width", 8),
        ("mlp_hidden_layers", 2),
        ("compute_dtype", "float32"),
        ("sparse_updates", True),
    ])
    def test_config_disagreeing_with_model_rejected(self, tiny_config,
                                                    tiny_dataset, name, value):
        # Such a trainer would record, say, sparse_updates=True in its
        # checkpoints while stepping the model's dense grids.
        model = DecoupledRadianceField(tiny_config, seed=0)
        config = dataclasses.replace(tiny_config, **{name: value})
        assert getattr(config, name) != getattr(tiny_config, name)
        with pytest.raises(ValueError, match=f"config.{name}="):
            Trainer(model, tiny_dataset, config=config, seed=0)

    def test_run_level_config_fields_may_differ(self, tiny_config,
                                                tiny_dataset):
        model = DecoupledRadianceField(tiny_config, seed=0)
        config = dataclasses.replace(
            tiny_config, culling_enabled=True, batch_pixels=16,
            learning_rate=5e-3, color_update_freq=1.0, ray_schedule="morton")
        trainer = Trainer(model, tiny_dataset, config=config, seed=0)
        assert trainer.train_step()["loss"] >= 0.0


class TestMetrics:
    def test_render_view_shapes(self, tiny_model, tiny_dataset):
        camera = tiny_dataset.test_views[0].camera
        rgb, depth = render_view(tiny_model, camera, tiny_dataset.scene_bound,
                                 n_samples=8)
        assert rgb.shape == (camera.height, camera.width, 3)
        assert depth.shape == (camera.height, camera.width)
        assert np.all((rgb >= 0.0) & (rgb <= 1.0))

    def test_evaluate_model_result_structure(self, tiny_model, tiny_dataset):
        result = evaluate_model(tiny_model, tiny_dataset, n_samples=8)
        assert result.n_views == tiny_dataset.n_test_views
        assert len(result.per_view_rgb) == result.n_views
        assert np.isfinite(result.rgb_psnr) and np.isfinite(result.depth_psnr)

    def test_evaluate_model_requires_test_views(self, tiny_model, tiny_dataset):
        import dataclasses

        empty = dataclasses.replace(tiny_dataset, test_views=[])
        with pytest.raises(ValueError):
            evaluate_model(tiny_model, empty)
