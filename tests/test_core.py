"""Tests for the Instant-3D core: config, schedules, decoupled grids, model, search."""

import numpy as np
import pytest

from repro.core import (
    BranchSchedules,
    DecoupledGridEncoder,
    DecoupledRadianceField,
    Instant3DConfig,
    UpdateSchedule,
    grid_ratio_search,
)
from repro.utils.seeding import new_rng


class TestInstant3DConfig:
    def test_named_configs(self):
        baseline = Instant3DConfig.instant_ngp_baseline()
        proposed = Instant3DConfig.instant_3d()
        assert baseline.is_baseline
        assert not proposed.is_baseline
        assert proposed.color_size_ratio == 0.25
        assert proposed.color_update_freq == 0.5
        assert proposed.density_update_freq == 1.0

    def test_color_grid_config_is_scaled(self):
        config = Instant3DConfig.instant_3d()
        assert (config.color_grid_config.max_table_entries
                < config.density_grid_config.max_table_entries)
        assert config.color_grid_config.n_levels == config.density_grid_config.n_levels

    def test_with_ratios(self):
        config = Instant3DConfig.instant_ngp_baseline().with_ratios(
            color_size_ratio=0.5, color_update_freq=0.25)
        assert config.color_size_ratio == 0.5
        assert config.color_update_freq == 0.25
        assert config.density_update_freq == 1.0

    def test_labels(self):
        config = Instant3DConfig.instant_3d()
        assert config.size_ratio_label == "1:0.25"
        assert config.freq_ratio_label == "1:0.5"

    def test_validation(self):
        with pytest.raises(ValueError):
            Instant3DConfig(color_size_ratio=0.0)
        with pytest.raises(ValueError):
            Instant3DConfig(color_update_freq=1.5)
        with pytest.raises(ValueError):
            Instant3DConfig(batch_pixels=0)

    def test_paper_scale_configs(self):
        gpu = Instant3DConfig.paper_scale_baseline()
        acc = Instant3DConfig.paper_scale_instant3d()
        # The GPU workload queries >200k points per iteration (paper Sec. 1).
        assert gpu.points_per_iteration > 150_000
        assert acc.color_size_ratio == 0.25 and acc.color_update_freq == 0.5
        assert gpu.grid.log2_hashmap_size > acc.grid.log2_hashmap_size

    def test_points_per_iteration(self):
        config = Instant3DConfig(batch_pixels=128, n_samples_per_ray=32)
        assert config.points_per_iteration == 128 * 32


class TestUpdateSchedule:
    def test_full_frequency_always_updates(self):
        schedule = UpdateSchedule(1.0)
        assert all(schedule.should_update(i) for i in range(20))

    def test_half_frequency_updates_every_other(self):
        schedule = UpdateSchedule(0.5)
        updates = [schedule.should_update(i) for i in range(10)]
        assert sum(updates) == 5
        assert updates == [False, True] * 5

    @pytest.mark.parametrize("freq", [0.25, 0.4, 0.5, 0.75, 1.0])
    def test_update_fraction_converges_to_frequency(self, freq):
        schedule = UpdateSchedule(freq)
        assert schedule.update_fraction(400) == pytest.approx(freq, abs=0.01)

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            UpdateSchedule(0.0)
        with pytest.raises(ValueError):
            UpdateSchedule(1.5)

    def test_branch_schedules(self):
        schedules = BranchSchedules.from_frequencies(1.0, 0.5)
        density_updates = sum(schedules.updates_at(i)[0] for i in range(8))
        color_updates = sum(schedules.updates_at(i)[1] for i in range(8))
        assert density_updates == 8
        assert color_updates == 4


class TestDecoupledGridEncoder:
    def test_color_grid_smaller_than_density(self, tiny_config):
        encoder = DecoupledGridEncoder(tiny_config, seed=0)
        storage = encoder.branch_storage_bytes()
        assert storage["color"] < storage["density"]
        assert encoder.total_storage_bytes() == storage["color"] + storage["density"]

    def test_baseline_grids_equal_size(self, baseline_tiny_config):
        encoder = DecoupledGridEncoder(baseline_tiny_config, seed=0)
        storage = encoder.branch_storage_bytes()
        assert storage["color"] == storage["density"]

    def test_encode_and_backward_roundtrip(self, tiny_config):
        encoder = DecoupledGridEncoder(tiny_config, seed=0)
        points = new_rng(0).uniform(size=(13, 3))
        demb = encoder.encode_density(points)
        cemb = encoder.encode_color(points)
        assert demb.shape[0] == cemb.shape[0] == 13
        encoder.zero_grad()
        encoder.backward_density(np.ones_like(demb))
        encoder.backward_color(np.ones_like(cemb))
        assert any(np.any(p.grad != 0) for p in encoder.density_parameters())
        assert any(np.any(p.grad != 0) for p in encoder.color_parameters())

    def test_access_records_available(self, tiny_config):
        encoder = DecoupledGridEncoder(tiny_config, seed=0)
        points = new_rng(1).uniform(size=(5, 3))
        encoder.encode_density(points)
        encoder.encode_color(points)
        records = encoder.last_access_records()
        assert records["density"].n_points == 5
        assert records["color"].n_points == 5


class TestDecoupledRadianceField:
    def test_query_shapes_and_ranges(self, tiny_model):
        points = new_rng(0).uniform(size=(21, 3))
        dirs = new_rng(1).normal(size=(21, 3))
        sigma, rgb = tiny_model.query(points, dirs)
        assert sigma.shape == (21,)
        assert rgb.shape == (21, 3)
        assert np.all(sigma >= 0.0)
        assert np.all((rgb >= 0.0) & (rgb <= 1.0))

    def test_backward_updates_both_branches_when_enabled(self, tiny_config):
        model = DecoupledRadianceField(tiny_config, seed=1)
        points = new_rng(2).uniform(size=(9, 3))
        dirs = new_rng(3).normal(size=(9, 3))
        sigma, rgb = model.query(points, dirs)
        model.zero_grad()
        model.backward(np.ones_like(sigma), np.ones_like(rgb))
        assert any(np.any(p.grad != 0) for p in model.density_parameters())
        assert any(np.any(p.grad != 0) for p in model.color_parameters())

    def test_backward_skips_color_branch_when_disabled(self, tiny_config):
        model = DecoupledRadianceField(tiny_config, seed=1)
        points = new_rng(2).uniform(size=(9, 3))
        dirs = new_rng(3).normal(size=(9, 3))
        sigma, rgb = model.query(points, dirs)
        model.zero_grad()
        model.backward(np.ones_like(sigma), np.ones_like(rgb), update_color=False)
        assert all(np.all(p.grad == 0) for p in model.color_parameters())
        assert any(np.any(p.grad != 0) for p in model.density_parameters())

    def test_backward_before_query_raises(self, tiny_config):
        model = DecoupledRadianceField(tiny_config, seed=2)
        with pytest.raises(RuntimeError):
            model.backward(np.zeros(3), np.zeros((3, 3)))

    def test_workload_accounting(self, tiny_model, tiny_config):
        accesses = tiny_model.encoder.accesses_per_point()
        mlp_flops_per_point = (tiny_model.density_mlp.flops_per_sample
                               + tiny_model.color_mlp.flops_per_sample)
        n_parameters = sum(p.size for p in tiny_model.parameters())
        assert accesses["density"] == 8 * tiny_config.grid.n_levels
        assert accesses["color"] == 8 * tiny_config.grid.n_levels
        assert mlp_flops_per_point > 0
        assert n_parameters > 0

    def test_mismatched_inputs_raise(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.query(np.zeros((4, 3)), np.zeros((5, 3)))


class TestGridRatioSearch:
    def test_selects_fastest_quality_preserving_config(self):
        base = Instant3DConfig.instant_ngp_baseline()

        def fake_psnr(config):
            # Aggressive color compression hurts slightly; mild compression does not.
            penalty = 0.0
            if config.color_size_ratio < 0.25:
                penalty += 0.5
            if config.color_update_freq < 0.5:
                penalty += 0.5
            return 26.0 - penalty

        def fake_runtime(config):
            return 72.0 * (0.6 + 0.25 * config.color_size_ratio
                           + 0.15 * config.color_update_freq)

        result = grid_ratio_search(base, fake_psnr, fake_runtime,
                                   size_ratios=(0.125, 0.25, 0.5, 1.0),
                                   update_ratios=(0.5, 1.0))
        assert result.selected.color_size_ratio == 0.25
        assert result.selected.color_update_freq == 0.5
        assert result.selected_runtime < 72.0
        assert result.selected_psnr >= result.baseline_psnr - 0.15

    def test_falls_back_to_baseline_when_nothing_preserves_quality(self):
        base = Instant3DConfig.instant_ngp_baseline()
        result = grid_ratio_search(
            base,
            evaluate_psnr=lambda c: 26.0 if c.is_baseline else 20.0,
            evaluate_runtime=lambda c: 10.0 if not c.is_baseline else 72.0,
            size_ratios=(0.25,),
            update_ratios=(0.5,),
        )
        assert result.selected.is_baseline
