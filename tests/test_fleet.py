"""Tests for the multi-scene training orchestrator."""

import numpy as np
import pytest

from repro.core.config import Instant3DConfig
from repro.datasets import NERF_SYNTHETIC_SCENES, nerf_synthetic_like
from repro.grid.hash_encoding import HashGridConfig
from repro.serving import residency
from repro.training import SceneFleet, train_fleet, train_scene


@pytest.fixture(scope="module")
def fleet_config():
    grid = HashGridConfig(n_levels=3, n_features_per_level=2,
                          log2_hashmap_size=9, base_resolution=4,
                          finest_resolution=16)
    return Instant3DConfig.instant_3d(
        grid=grid, batch_pixels=24, n_samples_per_ray=8,
        mlp_hidden_width=8, mlp_hidden_layers=1,
    )


@pytest.fixture(scope="module")
def fleet_datasets():
    return nerf_synthetic_like(["lego", "ficus"], n_train_views=3,
                               n_test_views=1, image_size=14)


class TestSceneFleet:
    def test_round_robin_matches_per_scene_training(self, fleet_datasets,
                                                    fleet_config):
        """Interleaved scheduling must not change any scene's trajectory:
        every trainer owns independent models and RNG streams."""
        fleet = SceneFleet(fleet_datasets, fleet_config, seed=0,
                           slice_iterations=3)
        result = fleet.train(8, eval_views=1, eval_samples=48)
        for dataset, fleet_scene in zip(fleet_datasets, result.results):
            solo = train_scene(dataset, fleet_config, n_iterations=8, seed=0,
                               eval_views=1)
            np.testing.assert_array_equal(fleet_scene.history.losses,
                                          solo.history.losses)
            assert fleet_scene.rgb_psnr == solo.rgb_psnr
            assert fleet_scene.density_updates == solo.density_updates
            assert fleet_scene.color_updates == solo.color_updates

    def test_result_aggregation(self, fleet_datasets, fleet_config):
        result = train_fleet(fleet_datasets, fleet_config, n_iterations=4, seed=0)
        assert result.n_scenes == len(fleet_datasets)
        assert result.scene_names == [d.name for d in fleet_datasets]
        assert result.mean_rgb_psnr == pytest.approx(
            np.mean([r.rgb_psnr for r in result.results]))
        assert result.wall_clock_s > 0
        assert result.scenes_per_hour > 0

    def test_eval_every_records_intermediate_evals(self, fleet_datasets,
                                                   fleet_config):
        fleet = SceneFleet(fleet_datasets[:1], fleet_config, seed=0)
        result = fleet.train(4, eval_every=2, eval_views=1, eval_samples=16)
        history = result.results[0].history
        assert history.eval_iterations == [2, 4]
        assert len(history.eval_rgb_psnrs) == 2

    def test_duplicate_scene_names_rejected(self, fleet_datasets, fleet_config):
        """Regression: per-scene RNG streams derive from the scene *name*,
        so duplicate names would silently train on identical pixel/sample
        streams."""
        with pytest.raises(ValueError, match="duplicate scene names"):
            SceneFleet([fleet_datasets[0], fleet_datasets[0]], fleet_config)

    def test_path_hostile_scene_names_rejected(self, fleet_datasets,
                                               fleet_config):
        """Scene names become checkpoint file names — separators must not
        let a checkpoint escape (or collide outside) checkpoint_dir."""
        import dataclasses as _dc
        hostile = _dc.replace(fleet_datasets[0], name="../escape")
        with pytest.raises(ValueError, match="checkpoint file name"):
            SceneFleet([hostile], fleet_config)

    def test_invalid_arguments(self, fleet_datasets, fleet_config):
        with pytest.raises(ValueError):
            SceneFleet([], fleet_config)
        with pytest.raises(ValueError):
            SceneFleet(fleet_datasets, fleet_config, slice_iterations=0)
        with pytest.raises(ValueError):
            SceneFleet(fleet_datasets, fleet_config).train(0)


class TestVictimPolicy:
    """The fleet evicts the scene whose next round-robin turn is farthest
    away (finished scenes first).  On a cyclic schedule that beats the
    residency manager's default LRU, which evicts exactly the scene needed
    soonest: LRU would take 15 evictions at cap 2 and 14 at cap 3."""

    @pytest.fixture(scope="class")
    def four_scenes(self):
        return nerf_synthetic_like(list(NERF_SYNTHETIC_SCENES[:4]),
                                   n_train_views=3, n_test_views=1,
                                   image_size=12)

    @pytest.mark.parametrize("cap, evictions, saves, loads",
                             [(1, 16, 16, 16), (2, 11, 12, 11), (3, 6, 8, 6)])
    def test_farthest_next_turn_eviction_counts(self, tmp_path, monkeypatch,
                                                four_scenes, fleet_config,
                                                cap, evictions, saves, loads):
        io = {"saves": 0, "loads": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                io[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(residency, "save_trainer_checkpoint",
                            counting("saves", residency.save_trainer_checkpoint))
        monkeypatch.setattr(residency, "load_trainer_checkpoint",
                            counting("loads", residency.load_trainer_checkpoint))
        fleet = SceneFleet(four_scenes, fleet_config, seed=0,
                           slice_iterations=3, checkpoint_dir=tmp_path,
                           max_resident_scenes=cap)
        result = fleet.train(10, eval_views=1, eval_samples=16)
        assert result.evictions == evictions
        assert result.peak_resident_scenes == cap
        assert io == {"saves": saves, "loads": loads}
