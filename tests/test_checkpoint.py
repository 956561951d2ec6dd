"""Tests for the checkpoint/resume subsystem (`repro.io`).

Two layers of guarantees:

* **round-trip exactness** — every `state_dict()` component (parameters,
  MLPs, hash grids, optimisers, occupancy grid, RNG streams, histories)
  restores bit-identically through the single-file checkpoint format (a
  signed JSON manifest plus an aligned data region);
* **differential resume** — interrupting a trainer or a fleet at an
  arbitrary iteration, restoring from the checkpoint (optionally in a
  "fresh process" with nothing but the file) and finishing produces
  bit-identical losses, parameters and PSNRs to an uninterrupted run, for
  both the dense and the occupancy-culled pipelines, with scene eviction
  exercised.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import Instant3DConfig
from repro.core.model import DecoupledRadianceField
from repro.datasets import nerf_synthetic_like
from repro.grid.hash_encoding import HashGridConfig, MultiResHashGrid
from repro.io import (
    CHECKPOINT_VERSION,
    CheckpointCorruptError,
    CheckpointError,
    generation_path,
    load_checkpoint,
    load_trainer_checkpoint,
    save_checkpoint,
    save_trainer_checkpoint,
)
from repro.nerf.occupancy import OccupancyGrid
from repro.nn.mlp import MLP
from repro.nn.optim import Adam
from repro.nn.parameter import Parameter
from repro.serving import ResidencyManager
from repro.training import SceneFleet
from repro.training.trainer import Trainer, TrainingHistory
from repro.utils.seeding import new_rng

from helpers import occupy, write_checkpoint_file


@pytest.fixture(scope="module", autouse=True)
def _ckpt_occupancy(occupancy_schedule):
    """An 8^3 occupancy grid whose schedule fires within short runs."""
    with occupancy_schedule(warmup=3, every=2, samples=256, resolution=8):
        yield


@pytest.fixture(scope="module")
def ckpt_config():
    """Tiny culled config (see ``_ckpt_occupancy`` for its grid)."""
    grid = HashGridConfig(n_levels=3, n_features_per_level=2,
                          log2_hashmap_size=9, base_resolution=4,
                          finest_resolution=16)
    return Instant3DConfig.instant_3d(
        grid=grid, batch_pixels=24, n_samples_per_ray=8,
        mlp_hidden_width=8, mlp_hidden_layers=1,
        culling_enabled=True,
    )


@pytest.fixture(scope="module")
def ckpt_datasets():
    return nerf_synthetic_like(["lego", "ficus"], n_train_views=3,
                               n_test_views=1, image_size=14)


class TestCheckpointFile:
    """The generic single-file container: header, manifest, data region."""

    def test_round_trip_preserves_types_and_values(self, tmp_path):
        payload = {
            "weights": np.arange(6, dtype=np.float32).reshape(2, 3),
            "mask": np.array([True, False]),
            "nested": {"count": 7, "rate": 0.1, "label": "x",
                       "none": None, "big": 2 ** 100},
            "series": [1.5, {"inner": np.zeros(3, dtype=np.float64)}, "s"],
        }
        path = save_checkpoint(tmp_path / "state.npz", payload, kind="test",
                               metadata={"note": "hello"})
        loaded = load_checkpoint(path, expected_kind="test")
        assert loaded.version == CHECKPOINT_VERSION
        assert loaded.metadata == {"note": "hello"}
        np.testing.assert_array_equal(loaded.payload["weights"],
                                      payload["weights"])
        assert loaded.payload["weights"].dtype == np.float32
        np.testing.assert_array_equal(loaded.payload["mask"], payload["mask"])
        assert loaded.payload["nested"] == payload["nested"]
        assert loaded.payload["series"][0] == 1.5
        np.testing.assert_array_equal(loaded.payload["series"][1]["inner"],
                                      np.zeros(3))

    def test_kind_mismatch_and_missing_file(self, tmp_path):
        path = save_checkpoint(tmp_path / "a.npz", {"x": 1}, kind="trainer")
        with pytest.raises(CheckpointError):
            load_checkpoint(path, expected_kind="fleet")
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "missing.npz")

    def test_non_checkpoint_npz_rejected(self, tmp_path):
        # A plain npz is a zip (refused like an old checkpoint); a plain
        # npy file lacks the checkpoint magic.
        path = tmp_path / "plain.npz"
        np.savez(path, x=np.zeros(3))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        path = tmp_path / "plain.npy"
        np.save(path, np.zeros(3))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_1_files_rejected_with_clear_error(self, tmp_path):
        # Version-1 checkpoints predate the master-table grid layout (one
        # Parameter per level), so their optimiser state cannot be mapped
        # onto today's parameters; the version gate must say so up front
        # instead of failing deep inside the moment-shape validation.
        manifest = {"format": "repro-checkpoint", "version": 1,
                    "kind": "state", "metadata": {}, "payload": {"x": 1}}
        path = tmp_path / "old.npz"
        write_checkpoint_file(path, manifest)
        with pytest.raises(CheckpointError, match="version 1"):
            load_checkpoint(path)

    def test_unsupported_payloads_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            save_checkpoint(tmp_path / "bad.npz", {"f": lambda: None})
        with pytest.raises(CheckpointError):
            save_checkpoint(tmp_path / "bad.npz", {1: "non-string key"})
        with pytest.raises(CheckpointError):
            save_checkpoint(tmp_path / "bad.npz", {"__npz__": "reserved"})
        # Object arrays would be pickled on save but rejected on load —
        # an unrestorable checkpoint — so refuse them up front.
        with pytest.raises(CheckpointError):
            save_checkpoint(tmp_path / "bad.npz",
                            {"o": np.array([1, "a"], dtype=object)})
        assert not (tmp_path / "bad.npz").exists()

    def test_save_replaces_existing_file_atomically(self, tmp_path):
        """A failed re-save must leave the previous checkpoint intact."""
        path = tmp_path / "state.npz"
        save_checkpoint(path, {"x": 1}, kind="test")
        with pytest.raises(CheckpointError):
            save_checkpoint(path, {"bad": lambda: None}, kind="test")
        assert load_checkpoint(path).payload == {"x": 1}
        save_checkpoint(path, {"x": 2}, kind="test")
        assert load_checkpoint(path).payload == {"x": 2}
        assert list(tmp_path.iterdir()) == [path]   # no temp files left

    def test_bit_flip_is_caught_by_digest_verification(self, tmp_path):
        # Flip one byte in the middle of the file (inside the array): the
        # array's CRC32 must refuse to return silently wrong values.
        path = save_checkpoint(tmp_path / "s.npz",
                               {"w": np.arange(256, dtype=np.float64)},
                               kind="test")
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path, expected_kind="test")

    def test_generation_rotation_and_validation(self, tmp_path):
        path = tmp_path / "s.npz"
        save_checkpoint(path, {"v": 1}, kind="test", keep_generations=2)
        save_checkpoint(path, {"v": 2}, kind="test", keep_generations=2)
        save_checkpoint(path, {"v": 3}, kind="test", keep_generations=2)
        assert load_checkpoint(path).payload["v"] == 3
        assert load_checkpoint(generation_path(path, 1)).payload["v"] == 2
        assert not generation_path(path, 2).exists()
        with pytest.raises(ValueError):
            save_checkpoint(path, {"v": 4}, kind="test", keep_generations=0)


class TestComponentStateDicts:
    def test_parameter_round_trip(self):
        source = Parameter(np.arange(4, dtype=np.float32), name="p")
        target = Parameter(np.zeros(4), name="p")
        target.grad += 1.0
        target.load_state_dict(source.state_dict())
        np.testing.assert_array_equal(target.data, source.data)
        np.testing.assert_array_equal(target.grad, np.zeros(4))
        with pytest.raises(ValueError):
            Parameter(np.zeros(3), name="p").load_state_dict(source.state_dict())
        with pytest.raises(ValueError):
            Parameter(np.zeros(4), name="q").load_state_dict(source.state_dict())

    def test_mlp_round_trip(self):
        source = MLP(4, [8], 2, rng=new_rng(0))
        target = MLP(4, [8], 2, rng=new_rng(9))
        target.load_state_dict(source.state_dict())
        x = new_rng(1).uniform(size=(5, 4))
        np.testing.assert_array_equal(source.forward(x), target.forward(x))

    def test_hash_grid_round_trip(self, tiny_grid_config):
        source = MultiResHashGrid(tiny_grid_config, rng=new_rng(0))
        target = MultiResHashGrid(tiny_grid_config, rng=new_rng(5))
        target.load_state_dict(source.state_dict())
        points = new_rng(2).uniform(size=(32, 3))
        np.testing.assert_array_equal(source.forward(points),
                                      target.forward(points))

    def test_model_round_trip(self, tiny_config):
        source = DecoupledRadianceField(tiny_config, seed=3)
        target = DecoupledRadianceField(tiny_config, seed=4)
        target.load_state_dict(source.state_dict())
        points = new_rng(0).uniform(size=(16, 3))
        dirs = np.tile([0.0, 0.0, 1.0], (16, 1))
        src_sigma, src_rgb = source.query(points, dirs)
        dst_sigma, dst_rgb = target.query(points, dirs)
        np.testing.assert_array_equal(src_sigma, dst_sigma)
        np.testing.assert_array_equal(src_rgb, dst_rgb)

    @pytest.mark.parametrize("make_optimizer", [
        lambda params: Adam(params, lr=1e-2),
    ])
    def test_optimizer_state_keyed_by_index_and_round_trips(self, tmp_path,
                                                            make_optimizer):
        def build():
            rng = new_rng(0)
            return [Parameter(rng.uniform(size=(3, 2)), name=f"p{i}")
                    for i in range(2)]

        def apply(params, optimizer, grads):
            for p, grad in zip(params, grads):
                p.zero_grad()
                p.accumulate_grad(grad)
            optimizer.step()

        params_a, params_b = build(), build()
        opt_a, opt_b = make_optimizer(params_a), make_optimizer(params_b)
        grad_rng = new_rng(7)
        grads = [[grad_rng.uniform(size=p.shape) for p in params_a]
                 for _ in range(6)]
        for step in range(3):
            apply(params_a, opt_a, grads[step])

        # State is keyed by parameter index (id() keys cannot round-trip and
        # can alias after id reuse).
        assert set(opt_a._m.keys()) == {0, 1}

        path = save_checkpoint(tmp_path / "opt.npz",
                               {"opt": opt_a.state_dict(),
                                "params": [p.state_dict() for p in params_a]})
        loaded = load_checkpoint(path).payload
        for p, entry in zip(params_b, loaded["params"]):
            p.load_state_dict(entry)
        opt_b.load_state_dict(loaded["opt"])
        # Replaying the same gradients from the restored state must match an
        # uninterrupted run exactly.
        for step in range(3, 6):
            apply(params_a, opt_a, grads[step])
            apply(params_b, opt_b, grads[step])
        for pa, pb in zip(params_a, params_b):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_optimizer_rejects_bad_state(self):
        params = [Parameter(np.zeros((2, 2)), name="p0")]
        opt = Adam(params, lr=1e-2)
        with pytest.raises(ValueError):
            opt.load_state_dict({"step_count": 1,
                                 "m": {"5": np.zeros((2, 2))}, "v": {}})
        with pytest.raises(ValueError):
            opt.load_state_dict({"step_count": 1,
                                 "m": {"0": np.zeros(3)}, "v": {}})

    def test_occupancy_grid_round_trip_including_rng_stream(self):
        def ball(points):
            return np.where(np.linalg.norm(points - 0.5, axis=1) < 0.25,
                            10.0, 0.0)

        source = OccupancyGrid(resolution=8, decay=0.95,
                               occupancy_threshold=0.5, seed=3)
        source.update(ball, n_samples=512)
        occupy(source, np.array([[0.05, 0.05, 0.05]]), density=2.0)
        target = OccupancyGrid(resolution=8, decay=0.95,
                               occupancy_threshold=0.5, seed=3)
        target.load_state_dict(source.state_dict())
        np.testing.assert_array_equal(source.density, target.density)
        assert target.n_updates == source.n_updates
        points = new_rng(1).uniform(size=(64, 3))
        np.testing.assert_array_equal(source.filter_samples(points),
                                      target.filter_samples(points))
        # The probe RNG stream continues identically: the next update draws
        # the same point set on both grids.
        source.update(ball, n_samples=256)
        target.update(ball, n_samples=256)
        np.testing.assert_array_equal(source.density, target.density)

    def test_occupancy_grid_rejects_mismatched_config(self):
        source = OccupancyGrid(resolution=8, decay=0.95)
        other = OccupancyGrid(resolution=16, decay=0.95)
        with pytest.raises(ValueError):
            other.load_state_dict(source.state_dict())
        different_decay = OccupancyGrid(resolution=8, decay=0.5)
        with pytest.raises(ValueError):
            different_decay.load_state_dict(source.state_dict())

    def test_history_round_trip(self):
        source = TrainingHistory()
        source.record_step(1, 0.25, 12.0, queries_kept=10, queries_total=20,
                           occupancy_fraction=0.5)
        source.record_step(2, 0.125, 15.0, queries_kept=20, queries_total=20)
        target = TrainingHistory()
        target.load_state_dict(source.state_dict())
        assert target.iterations == source.iterations
        assert target.losses == source.losses
        assert target.queries_kept == source.queries_kept
        assert target.occupancy_fractions == source.occupancy_fractions


class TestTrainerCheckpoint:
    @pytest.mark.parametrize("culled", [False, True])
    def test_interrupt_resume_is_bit_identical(self, tmp_path, ckpt_config,
                                               ckpt_datasets, culled):
        """Interrupt at iteration k, restore into a fresh trainer, finish:
        losses and every parameter must match an uninterrupted run."""
        config = (ckpt_config if culled else
                  dataclasses.replace(ckpt_config, culling_enabled=False))
        dataset = ckpt_datasets[0]
        total, interrupt_at = 10, 4

        reference = Trainer(DecoupledRadianceField(config, seed=0), dataset,
                            config=config, seed=0)
        ref_history = TrainingHistory()
        reference.run_steps(total, ref_history)

        interrupted = Trainer(DecoupledRadianceField(config, seed=0), dataset,
                              config=config, seed=0)
        part_history = TrainingHistory()
        interrupted.run_steps(interrupt_at, part_history)
        path = save_trainer_checkpoint(tmp_path / "scene.ckpt.npz",
                                       interrupted, history=part_history)

        resumed = Trainer(DecoupledRadianceField(config, seed=0), dataset,
                          config=config, seed=0)
        resumed_history = TrainingHistory()
        metadata = load_trainer_checkpoint(path, resumed,
                                           history=resumed_history)
        assert metadata["scene"] == dataset.name
        assert metadata["iteration"] == interrupt_at
        assert resumed.iteration == interrupt_at
        resumed.run_steps(total - interrupt_at, resumed_history)

        assert resumed_history.losses == ref_history.losses
        assert resumed_history.batch_psnrs == ref_history.batch_psnrs
        assert resumed_history.queries_kept == ref_history.queries_kept
        assert resumed.density_updates == reference.density_updates
        assert resumed.color_updates == reference.color_updates
        for ref_param, res_param in zip(reference.model.parameters(),
                                        resumed.model.parameters()):
            np.testing.assert_array_equal(ref_param.data, res_param.data)
        if culled:
            np.testing.assert_array_equal(reference.occupancy.density,
                                          resumed.occupancy.density)

    def test_culling_config_mismatch_raises(self, tmp_path, ckpt_config,
                                            ckpt_datasets):
        dataset = ckpt_datasets[0]
        culled = Trainer(DecoupledRadianceField(ckpt_config, seed=0), dataset,
                         config=ckpt_config, seed=0)
        path = save_trainer_checkpoint(tmp_path / "c.ckpt.npz", culled)
        dense_config = dataclasses.replace(ckpt_config, culling_enabled=False)
        dense = Trainer(DecoupledRadianceField(dense_config, seed=0), dataset,
                        config=dense_config, seed=0)
        with pytest.raises(CheckpointError):
            load_trainer_checkpoint(path, dense)

    def test_payload_leaves_are_host_arrays(self, tmp_path, ckpt_config,
                                            ckpt_datasets):
        trainer = Trainer(DecoupledRadianceField(ckpt_config, seed=0),
                          ckpt_datasets[0], config=ckpt_config, seed=0)
        trainer.run_steps(2, TrainingHistory())
        path = save_trainer_checkpoint(tmp_path / "host.ckpt.npz", trainer)
        checkpoint = load_checkpoint(path, expected_kind="trainer")

        def assert_host(node):
            if isinstance(node, dict):
                for value in node.values():
                    assert_host(value)
            elif isinstance(node, list):
                for value in node:
                    assert_host(value)
            elif node is not None and not isinstance(node, (bool, int, float, str)):
                assert isinstance(node, np.ndarray)
        assert_host(checkpoint.payload)

    def test_legacy_backend_metadata_still_loads(self, tmp_path, ckpt_config,
                                                 ckpt_datasets):
        """Files written while trainers recorded an array-backend name in
        the manifest metadata restore like any other checkpoint."""
        dataset = ckpt_datasets[0]
        source = Trainer(DecoupledRadianceField(ckpt_config, seed=0), dataset,
                         config=ckpt_config, seed=0)
        source.run_steps(3, TrainingHistory())
        path = save_trainer_checkpoint(tmp_path / "legacy.ckpt.npz", source,
                                       metadata={"backend": "numpy"})
        restored = Trainer(DecoupledRadianceField(ckpt_config, seed=0),
                           dataset, config=ckpt_config, seed=0)
        metadata = load_trainer_checkpoint(path, restored)
        assert metadata["backend"] == "numpy"
        assert restored.iteration == source.iteration
        for src_param, res_param in zip(source.model.parameters(),
                                        restored.model.parameters()):
            np.testing.assert_array_equal(src_param.data, res_param.data)

    def test_stored_occupancy_marks_entry_is_ignored(self, tmp_path,
                                                     ckpt_config,
                                                     ckpt_datasets):
        """Version-4 files from before forced occupancy marks were removed
        carry an occupancy ``"marks"`` counter; they restore and resume
        like any other checkpoint."""
        dataset = ckpt_datasets[0]
        source = Trainer(DecoupledRadianceField(ckpt_config, seed=0), dataset,
                         config=ckpt_config, seed=0)
        source.run_steps(5, TrainingHistory())
        assert source.occupancy.has_data
        state = source.state_dict()
        state["occupancy"]["marks"] = 0
        path = save_checkpoint(tmp_path / "marks.ckpt.npz", {"trainer": state},
                               kind="trainer")
        restored = Trainer(DecoupledRadianceField(ckpt_config, seed=0),
                           dataset, config=ckpt_config, seed=0)
        load_trainer_checkpoint(path, restored)
        assert restored.iteration == source.iteration
        assert restored.occupancy.n_updates == source.occupancy.n_updates
        np.testing.assert_array_equal(restored.occupancy.density,
                                      source.occupancy.density)
        assert "marks" not in restored.occupancy.state_dict()
        for _ in range(4):
            assert (restored.train_step()["loss"]
                    == source.train_step()["loss"])

    @pytest.mark.parametrize("key", ["compute_dtype", "sparse_updates"])
    def test_state_without_mode_key_is_rejected(self, tmp_path, ckpt_config,
                                                ckpt_datasets, key):
        """Every loadable trainer checkpoint records its precision policy
        and update mode (both entered the state with format version 2), so
        a state missing either is malformed, not a dense float64 run."""
        dataset = ckpt_datasets[0]
        source = Trainer(DecoupledRadianceField(ckpt_config, seed=0), dataset,
                         config=ckpt_config, seed=0)
        source.run_steps(2, TrainingHistory())
        state = source.state_dict()
        del state[key]
        path = save_checkpoint(tmp_path / "nokey.ckpt.npz", {"trainer": state},
                               kind="trainer")
        target = Trainer(DecoupledRadianceField(ckpt_config, seed=0), dataset,
                         config=ckpt_config, seed=0)
        with pytest.raises(CheckpointError, match=key):
            load_trainer_checkpoint(path, target)
        assert target.iteration == 0

    def test_history_requested_but_not_saved_raises(self, tmp_path,
                                                    ckpt_config, ckpt_datasets):
        trainer = Trainer(DecoupledRadianceField(ckpt_config, seed=0),
                          ckpt_datasets[0], config=ckpt_config, seed=0)
        path = save_trainer_checkpoint(tmp_path / "nohist.ckpt.npz", trainer)
        with pytest.raises(CheckpointError):
            load_trainer_checkpoint(path, trainer, history=TrainingHistory())


class TestFleetCheckpointResume:
    def _fleet(self, datasets, config, tmp_path, **kwargs):
        return SceneFleet(datasets, config, seed=0, slice_iterations=3,
                          checkpoint_dir=tmp_path / "ckpts", **kwargs)

    @pytest.mark.parametrize("culled", [False, True])
    def test_fleet_interrupt_resume_matches_uninterrupted(self, tmp_path,
                                                          ckpt_config,
                                                          ckpt_datasets,
                                                          culled):
        config = (ckpt_config if culled else
                  dataclasses.replace(ckpt_config, culling_enabled=False))
        total, interrupt_at = 10, 5
        uninterrupted = SceneFleet(ckpt_datasets, config, seed=0,
                                   slice_iterations=3).train(
            total, eval_every=5, eval_views=1, eval_samples=16)

        self._fleet(ckpt_datasets, config, tmp_path,
                    checkpoint_every=3).train(interrupt_at, eval_every=5,
                                              eval_views=1, eval_samples=16)
        # Resume in a *new* fleet object — nothing carries over but the files.
        resumed = self._fleet(ckpt_datasets, config, tmp_path).resume(
            total, eval_every=5, eval_views=1, eval_samples=16)

        assert resumed.scene_names == uninterrupted.scene_names
        for ref, res in zip(uninterrupted.results, resumed.results):
            assert res.history.losses == ref.history.losses
            assert res.history.eval_rgb_psnrs == ref.history.eval_rgb_psnrs
            assert res.rgb_psnr == ref.rgb_psnr
            assert res.depth_psnr == ref.depth_psnr
            assert res.density_updates == ref.density_updates
            assert res.color_updates == ref.color_updates
            assert res.final_occupancy_fraction == ref.final_occupancy_fraction

    def test_eviction_bounds_residency_and_preserves_results(self, tmp_path,
                                                             monkeypatch,
                                                             ckpt_config,
                                                             ckpt_datasets):
        reference = SceneFleet(ckpt_datasets, ckpt_config, seed=0,
                               slice_iterations=3).train(8, eval_views=1,
                                                         eval_samples=16)
        fleet = self._fleet(ckpt_datasets, ckpt_config, tmp_path,
                            max_resident_scenes=1)
        # Spy on acquire/release to measure peak trainer residency: the cap
        # must hold even transiently (room is made *before* acquiring).
        live = {"now": 0, "peak": 0}
        orig_acquire = ResidencyManager.acquire
        orig_release = ResidencyManager.release

        def acquire(manager, slot, arena):
            was_resident = slot.trainer is not None
            trainer = orig_acquire(manager, slot, arena)
            if not was_resident:
                live["now"] += 1
                live["peak"] = max(live["peak"], live["now"])
            return trainer

        def release(manager, slot):
            was_resident = slot.trainer is not None
            orig_release(manager, slot)
            if was_resident:
                live["now"] -= 1

        monkeypatch.setattr(ResidencyManager, "acquire", acquire)
        monkeypatch.setattr(ResidencyManager, "release", release)
        evicted = fleet.train(8, eval_views=1, eval_samples=16)
        # With 2 scenes and a 1-trainer cap, every slice boundary evicts.
        assert evicted.evictions > 0
        assert live["peak"] <= 1
        assert live["now"] == 0           # every trainer was released
        assert fleet.evictions == evicted.evictions
        for name in fleet.scene_names:
            assert fleet.checkpoint_path(name).exists()
        for ref, res in zip(reference.results, evicted.results):
            assert res.history.losses == ref.history.losses
            assert res.rgb_psnr == ref.rgb_psnr

    def test_resume_of_partial_coverage_starts_missing_scenes_fresh(
            self, tmp_path, ckpt_config, ckpt_datasets):
        """A fleet resumed with an extra scene trains that scene from 0."""
        reference = SceneFleet(ckpt_datasets, ckpt_config, seed=0,
                               slice_iterations=3).train(6, eval_views=1,
                                                         eval_samples=16)
        self._fleet(ckpt_datasets[:1], ckpt_config, tmp_path).train(
            6, eval_views=1, eval_samples=16)
        resumed = self._fleet(ckpt_datasets, ckpt_config, tmp_path).resume(
            6, eval_views=1, eval_samples=16)
        for ref, res in zip(reference.results, resumed.results):
            assert res.history.losses == ref.history.losses
            assert res.rgb_psnr == ref.rgb_psnr

    def test_resume_beyond_target_raises(self, tmp_path, ckpt_config,
                                         ckpt_datasets):
        self._fleet(ckpt_datasets[:1], ckpt_config, tmp_path).train(
            6, eval_views=1, eval_samples=16)
        with pytest.raises(CheckpointError):
            self._fleet(ckpt_datasets[:1], ckpt_config, tmp_path).resume(
                4, eval_views=1, eval_samples=16)

    def test_checkpoint_knob_validation(self, ckpt_datasets, ckpt_config,
                                        tmp_path):
        with pytest.raises(ValueError):
            SceneFleet(ckpt_datasets, ckpt_config, checkpoint_every=4)
        with pytest.raises(ValueError):
            SceneFleet(ckpt_datasets, ckpt_config, max_resident_scenes=1)
        with pytest.raises(ValueError):
            SceneFleet(ckpt_datasets, ckpt_config,
                       checkpoint_dir=tmp_path, checkpoint_every=0)
        with pytest.raises(ValueError):
            SceneFleet(ckpt_datasets, ckpt_config,
                       checkpoint_dir=tmp_path, max_resident_scenes=0)
        with pytest.raises(ValueError):
            SceneFleet(ckpt_datasets, ckpt_config).resume(4)
