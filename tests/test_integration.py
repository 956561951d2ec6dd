"""End-to-end integration tests spanning datasets, training, and the accelerator."""

import numpy as np
import pytest

from repro import Instant3DConfig, build_iteration_workload, train_scene
from repro.accelerator import (
    AcceleratorConfig,
    Instant3DAccelerator,
    XAVIER_NX,
    extract_training_trace,
)
from repro.accelerator.devices import EdgeGPUModel
from repro.core.model import DecoupledRadianceField
from repro.training.profiler import WorkloadScale


class TestEndToEndTraining:
    def test_instant3d_and_baseline_reach_similar_quality(self, tiny_dataset,
                                                          tiny_config,
                                                          baseline_tiny_config):
        """The decomposition maintains reconstruction quality (Tab. 4): the
        Instant-3D configuration stays within a small margin of the baseline
        while doing strictly less grid-update work."""
        baseline = train_scene(tiny_dataset, baseline_tiny_config, n_iterations=60, seed=0)
        instant3d = train_scene(tiny_dataset, tiny_config, n_iterations=60, seed=0)
        assert instant3d.color_updates < baseline.color_updates
        assert instant3d.rgb_psnr > baseline.rgb_psnr - 3.0
        # Both must have actually learned something.
        assert baseline.rgb_psnr > 10.0
        assert instant3d.rgb_psnr > 10.0

    def test_density_compression_hurts_more_than_color_compression(self, tiny_dataset,
                                                                    tiny_grid_config):
        """The paper's core sensitivity claim (Tab. 1): shrinking the *color*
        grid is safer than shrinking the density grid.  We verify the ordering
        of grid-update work here and quality in the benchmark harness (the
        tiny test budget is too noisy for a strict PSNR ordering)."""
        color_small = Instant3DConfig(
            grid=tiny_grid_config, color_size_ratio=0.25,
            batch_pixels=64, n_samples_per_ray=16,
            mlp_hidden_width=16, mlp_hidden_layers=1)
        density_small = Instant3DConfig(
            grid=tiny_grid_config.scaled(0.25), color_size_ratio=4.0 if False else 1.0,
            batch_pixels=64, n_samples_per_ray=16,
            mlp_hidden_width=16, mlp_hidden_layers=1)
        model_color_small = DecoupledRadianceField(color_small, seed=0)
        model_density_small = DecoupledRadianceField(density_small, seed=0)
        def rows(model, branch):
            return getattr(model.encoder, f"{branch}_grid").table.data.shape[0]

        assert rows(model_color_small, "color") < rows(model_color_small, "density")
        assert (rows(model_density_small, "density")
                < rows(model_color_small, "density"))


class TestEndToEndCoDesign:
    def test_full_codesign_pipeline(self, tiny_dataset, tiny_config):
        """Replicates the Tab. 5 structure end to end at miniature scale:
        Instant-NGP on a GPU model, the Instant-3D algorithm on the same GPU
        model, and the Instant-3D algorithm on the accelerator simulator."""
        scale = WorkloadScale.paper_scale(n_iterations=256)
        gpu_baseline_wl = build_iteration_workload(
            Instant3DConfig.paper_scale_baseline(), scale)
        gpu_i3d_wl = build_iteration_workload(
            Instant3DConfig.paper_scale_baseline().with_ratios(
                color_size_ratio=0.25, color_update_freq=0.5), scale)
        acc_wl = build_iteration_workload(Instant3DConfig.paper_scale_instant3d(), scale)

        xavier = EdgeGPUModel(XAVIER_NX)
        t_ngp_gpu = xavier.estimate_training(gpu_baseline_wl).total_s
        t_i3d_gpu = xavier.estimate_training(gpu_i3d_wl).total_s

        model = DecoupledRadianceField(tiny_config, seed=0)
        trace = extract_training_trace(model, tiny_dataset, batch_pixels=32,
                                       samples_per_ray=8)
        accelerator = Instant3DAccelerator(AcceleratorConfig())
        t_i3d_acc = accelerator.estimate_training(acc_wl, trace=trace).total_s

        # Normalised-runtime ordering of Table 5.
        assert t_i3d_gpu < t_ngp_gpu
        assert t_i3d_acc < 0.5 * t_i3d_gpu
        normalized = [100.0, 100.0 * t_i3d_gpu / t_ngp_gpu, 100.0 * t_i3d_acc / t_ngp_gpu]
        assert normalized[0] > normalized[1] > normalized[2]

    def test_trace_extraction_consistent_with_training_config(self, tiny_dataset,
                                                              tiny_config):
        model = DecoupledRadianceField(tiny_config, seed=0)
        trace = extract_training_trace(model, tiny_dataset, batch_pixels=16,
                                       samples_per_ray=4)
        assert trace.n_points == 16 * 4
        expected = trace.n_points * 8 * tiny_config.grid.n_levels
        assert trace.branch("density").read_addresses.size == expected

    def test_public_api_quickstart_path(self, tiny_dataset):
        """The README quickstart path: default configs, train, inspect PSNR."""
        config = Instant3DConfig.instant_3d(batch_pixels=32, n_samples_per_ray=8,
                                            mlp_hidden_width=16, mlp_hidden_layers=1)
        result = train_scene(tiny_dataset, config, n_iterations=5, seed=0)
        assert result.n_iterations == 5
        assert np.isfinite(result.rgb_psnr)
