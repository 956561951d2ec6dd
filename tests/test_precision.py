"""Differential tests for the unified compute-precision policy + workspace arena.

Four contracts anchor the tentpole:

(a) the ``float64`` policy (the default) is *bit-identical* to the
    pre-policy trainer — the frozen reference loop reproduces the same
    losses and parameters, dense and culled — so every existing experiment
    and checkpoint is unaffected;
(b) the ``float32`` fast path consumes the **same RNG draws** and tracks the
    float64 trajectory within float-precision tolerance (and its grid
    engine still matches the frozen per-level loop oracle);
(c) the workspace arena is allocation-bookkeeping only: steady-state train
    steps serve every buffer from the arena (zero misses, no transient
    allocation of 1 MiB or more) and no step reads a buffer it did not
    write, so results match the arena-free reference loop bit for bit;
(d) checkpoints record the policy dtype, refuse to resume across policies,
    and resume bit-identically within one.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from oracles import per_level_loop, updates_in_loop
from test_pipeline import _force_fully_occupied, _params_equal, _reference_dense_run

from repro.core.config import Instant3DConfig
from repro.core.model import DecoupledRadianceField
from repro.core.schedule import UpdateSchedule
from repro.grid.hash_encoding import HashGridConfig, MultiResHashGrid
from repro.io import CheckpointError, load_trainer_checkpoint, save_trainer_checkpoint
from repro.nn.layers import Linear
from repro.training import trainer as trainer_module
from repro.training.metrics import render_view
from repro.training.trainer import Trainer, TrainingHistory
from repro.utils.precision import FLOAT32, FLOAT64, PrecisionPolicy, resolve_policy
from repro.utils.seeding import new_rng
from repro.utils.workspace import WorkspaceArena
from repro.nn.activations import _Activation

#: A "large" transient allocation: several times the dense float64 sample
#: plane of a benchmark-scale step.
LARGE_ALLOC_THRESHOLD = 1 << 20


class TestPrecisionPolicy:
    def test_resolve(self):
        assert resolve_policy(None) is FLOAT64
        assert resolve_policy("float32") is FLOAT32
        assert resolve_policy(np.float64) is FLOAT64
        assert resolve_policy(FLOAT32) is FLOAT32
        assert resolve_policy(np.dtype("float32")) is FLOAT32

    def test_dtypes(self):
        assert FLOAT32.dtype == np.float32
        assert FLOAT32.complex_dtype == np.complex64
        assert FLOAT64.dtype == np.float64
        assert FLOAT64.complex_dtype == np.complex128
        assert FLOAT64.is_reference and not FLOAT32.is_reference

    def test_invalid(self):
        with pytest.raises(ValueError):
            resolve_policy("float16")
        with pytest.raises(ValueError):
            PrecisionPolicy("int8")
        with pytest.raises(ValueError):
            Instant3DConfig(compute_dtype="half")

    def test_config_policy(self, tiny_config):
        assert tiny_config.precision_policy is FLOAT64
        f32 = dataclasses.replace(tiny_config, compute_dtype="float32")
        assert f32.precision_policy is FLOAT32


class TestWorkspaceArena:
    def test_reuse_and_growth(self):
        arena = WorkspaceArena()
        a = arena.buffer("x", (4, 3), np.float32)
        assert a.shape == (4, 3) and a.dtype == np.float32
        b = arena.buffer("x", (2, 3), np.float32)      # smaller: same backing
        assert np.shares_memory(a, b)
        c = arena.buffer("x", (64, 3), np.float32)     # larger: regrown
        assert c.shape == (64, 3)
        assert arena.misses == 2 and arena.hits == 1

    def test_zeros_and_stats(self):
        arena = WorkspaceArena()
        z = arena.zeros("z", 8, np.float64)
        assert np.all(z == 0.0)
        z[:] = 5.0
        assert np.all(arena.zeros("z", 8, np.float64) == 0.0)
        assert arena.total_bytes >= 64
        hits, misses = arena.hits, arena.misses
        arena.buffer("z", 8, np.float64)
        assert (arena.hits, arena.misses) == (hits + 1, misses)

    def test_distinct_names_and_dtypes_do_not_alias(self):
        arena = WorkspaceArena()
        a = arena.buffer("a", 16, np.float32)
        b = arena.buffer("b", 16, np.float32)
        c = arena.buffer("a", 16, np.float64)
        assert not np.shares_memory(a, b)
        assert not np.shares_memory(a, c)

    def test_dtype_spellings_and_shape_forms_share_one_buffer(self):
        arena = WorkspaceArena()
        a = arena.buffer("a", (2, 8), np.float64)
        for dtype in (np.float64, "f8", np.dtype("<f8"), float):
            for shape in ((2, 8), [2, 8], (np.int64(2), 8), 16):
                b = arena.buffer("a", shape, dtype)
                assert b.dtype == np.float64
                assert b.shape == ((16,) if shape == 16 else (2, 8))
                assert np.shares_memory(a, b)
        assert arena.misses == 1 and arena.hits == 16


class _PoisonedArena(WorkspaceArena):
    """Arena that overwrites every buffer it hands out with garbage."""

    def buffer(self, name, shape, dtype):
        out = super().buffer(name, shape, dtype)
        if out.dtype.kind in "fc":
            out.fill(np.nan)
        elif out.dtype.kind in "iu":
            out.fill(np.iinfo(out.dtype).max)
        else:
            out.fill(1)
        return out


class TestFloat64ReferenceBitIdentity:
    def test_explicit_float64_matches_frozen_reference(self, tiny_config,
                                                       tiny_dataset):
        """(a) compute_dtype='float64' reproduces the pre-policy trainer."""
        config = dataclasses.replace(tiny_config, compute_dtype="float64")
        ref_model, ref_losses = _reference_dense_run(tiny_dataset, config,
                                                     seed=0, n_steps=20)
        model = DecoupledRadianceField(config, seed=0)
        trainer = Trainer(model, tiny_dataset, config=config, seed=0)
        losses = [trainer.train_step()["loss"] for _ in range(20)]
        assert losses == ref_losses
        assert _params_equal(model, ref_model)

    def test_arena_is_value_neutral(self, tiny_config, tiny_dataset,
                                    monkeypatch):
        """(c) A trainer whose arena poisons every buffer it hands out still
        reproduces the arena-free reference loop: no site reads scratch it
        did not write in the same step."""
        monkeypatch.setattr(trainer_module, "WorkspaceArena", _PoisonedArena)
        ref_model, ref_losses = _reference_dense_run(tiny_dataset, tiny_config,
                                                     seed=0, n_steps=12)
        model = DecoupledRadianceField(tiny_config, seed=0)
        trainer = Trainer(model, tiny_dataset, config=tiny_config, seed=0)
        assert isinstance(trainer.arena, _PoisonedArena)
        losses = [trainer.train_step()["loss"] for _ in range(12)]
        assert trainer.arena.hits > 0
        assert losses == ref_losses
        assert _params_equal(model, ref_model)

    def test_culled_float64_fully_occupied_matches_dense(self, tiny_config,
                                                         tiny_dataset,
                                                         occupancy_schedule):
        """(a) the culled float64 path is unchanged too."""
        dense = dataclasses.replace(tiny_config, compute_dtype="float64")
        dense_model = DecoupledRadianceField(dense, seed=0)
        dense_trainer = Trainer(dense_model, tiny_dataset, config=dense, seed=0)
        dense_losses = [dense_trainer.train_step()["loss"] for _ in range(10)]

        culled = dataclasses.replace(dense, culling_enabled=True)
        culled_model = DecoupledRadianceField(culled, seed=0)
        culled_trainer = Trainer(culled_model, tiny_dataset, config=culled,
                                 seed=0)
        _force_fully_occupied(culled_trainer.occupancy)
        with occupancy_schedule(warmup=10 ** 6):
            culled_losses = [culled_trainer.train_step()["loss"]
                             for _ in range(10)]
        assert culled_losses == dense_losses
        assert _params_equal(culled_model, dense_model)


class TestFloat32FastPath:
    @staticmethod
    def _losses(config, dataset, n_steps, seed=0):
        model = DecoupledRadianceField(config, seed=seed)
        trainer = Trainer(model, dataset, config=config, seed=seed)
        return [trainer.train_step()["loss"] for _ in range(n_steps)], trainer

    def test_tracks_float64_within_tolerance(self, tiny_config, tiny_dataset):
        """(b) same RNG draws, float-precision-only divergence."""
        f64 = dataclasses.replace(tiny_config, compute_dtype="float64")
        f32 = dataclasses.replace(tiny_config, compute_dtype="float32")
        l64, t64 = self._losses(f64, tiny_dataset, 20)
        l32, t32 = self._losses(f32, tiny_dataset, 20)
        np.testing.assert_allclose(l32, l64, rtol=1e-3)
        # Equal-step quality: float32 loses less than 0.5 dB of test PSNR.
        psnr64 = t64.finalize(TrainingHistory(), eval_samples=24).rgb_psnr
        psnr32 = t32.finalize(TrainingHistory(), eval_samples=24).rgb_psnr
        assert psnr64 - psnr32 < 0.5

    def test_culled_float32_trains(self, tiny_config, tiny_dataset,
                                   occupancy_schedule):
        config = dataclasses.replace(
            tiny_config, compute_dtype="float32", culling_enabled=True)
        model = DecoupledRadianceField(config, seed=0)
        trainer = Trainer(model, tiny_dataset, config=config, seed=0)
        history = TrainingHistory()
        with occupancy_schedule(warmup=8, every=4):
            trainer.run_steps(80, history)
        assert history.queries_kept[-1] < history.queries_total[-1]
        assert history.losses[-1] < history.losses[0]
        result = trainer.finalize(history, eval_samples=16)
        assert np.isfinite(result.rgb_psnr)

    def test_fused_engine_matches_per_level_loop(self, tiny_grid_config):
        grid32 = MultiResHashGrid(tiny_grid_config, rng=new_rng(0),
                                  policy=FLOAT32)
        points = new_rng(3).uniform(size=(512, 3)).astype(np.float32)
        grad = np.ones((512, tiny_grid_config.n_output_features),
                       dtype=np.float32)
        out_fused = grid32.forward(points)
        out_loop, record_loop, grad_loop = per_level_loop(grid32, points, grad)
        assert out_fused.dtype == np.float32
        np.testing.assert_allclose(out_fused, out_loop, atol=1e-5)
        assert np.array_equal(grid32.last_access.flat_addresses(),
                              record_loop.flat_addresses())
        grid32.zero_grad(); grid32.backward(grad)
        np.testing.assert_allclose(grid32.table.grad, grad_loop, atol=1e-4)


class TestDtypeDiscipline:
    def test_no_silent_linear_conversions_under_float32(self, tiny_config,
                                                        tiny_dataset):
        """Satellite: the float32 policy feeds every Linear float32 arrays —
        zero silent copies across forward and backward of a train step."""
        config = dataclasses.replace(tiny_config, compute_dtype="float32")
        model = DecoupledRadianceField(config, seed=0)
        trainer = Trainer(model, tiny_dataset, config=config, seed=0)
        for _ in range(3):
            trainer.train_step()
        layers = [l for mlp in (model.density_mlp, model.color_mlp)
                  for l in mlp.layers if isinstance(l, Linear)]
        assert layers
        assert sum(l.conversions for l in layers) == 0

    def test_conversion_counter_detects_copies(self, rng):
        layer = Linear(4, 2, rng=rng)
        layer.forward(np.ones((3, 4), dtype=np.float64))
        assert layer.conversions == 1
        layer.forward(np.ones((3, 4), dtype=np.float32))
        assert layer.conversions == 1

    def test_float32_planes_end_to_end(self, tiny_config, tiny_dataset):
        config = dataclasses.replace(tiny_config, compute_dtype="float32")
        model = DecoupledRadianceField(config, seed=0)
        trainer = Trainer(model, tiny_dataset, config=config, seed=0)
        trainer.train_step()
        renderer = trainer.pipeline.renderer
        assert renderer._cache["sigmas"].dtype == np.float32
        assert renderer._cache["weights"].dtype == np.float32
        assert model.encoder.density_grid.last_access.weight_planes.dtype == np.float32


class TestArenaSteadyState:
    def test_zero_misses_after_warmup(self, tiny_config, tiny_dataset):
        """The zero-allocation contract: after shapes stabilise, every
        per-iteration buffer is an arena hit."""
        config = dataclasses.replace(tiny_config, compute_dtype="float32")
        model = DecoupledRadianceField(config, seed=0)
        trainer = Trainer(model, tiny_dataset, config=config, seed=0)
        for _ in range(3):
            trainer.train_step()
        hits, misses = trainer.arena.hits, trainer.arena.misses
        for _ in range(5):
            trainer.train_step()
        assert trainer.arena.misses == misses
        assert trainer.arena.hits > hits

    def test_no_large_transient_allocations(self, bench_scale_config,
                                            bench_lego_20px):
        """At a paper-shaped batch (512 rays x 32 samples), no steady-state
        float32 step allocates a transient of 1 MiB or more: tracemalloc's
        per-step peak above the step's starting footprint stays below it."""
        config = dataclasses.replace(bench_scale_config, batch_pixels=512,
                                     n_samples_per_ray=32,
                                     compute_dtype="float32")
        trainer = Trainer(DecoupledRadianceField(config, seed=0),
                          bench_lego_20px, config=config, seed=0)
        for _ in range(3):
            trainer.train_step()
        misses = trainer.arena.misses
        peaks = []
        tracemalloc.start()
        try:
            trainer.train_step()                        # tracer warm-up
            for _ in range(5):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                trainer.train_step()
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert trainer.arena.misses == misses
        assert max(peaks) < LARGE_ALLOC_THRESHOLD

    def test_components_propagate_arena(self, tiny_config, tiny_dataset):
        model = DecoupledRadianceField(tiny_config, seed=0)
        trainer = Trainer(model, tiny_dataset, config=tiny_config, seed=0)

        def assert_bound(arena):
            assert trainer.arena is arena
            assert model.arena is arena
            assert model.encoder.density_grid.arena is arena
            assert model.encoder.color_grid.arena is arena
            assert trainer.pipeline.arena is arena
            assert trainer.pipeline.renderer.arena is arena
            assert trainer.density_optimizer.arena is arena
            assert trainer.color_optimizer.arena is arena
            assert trainer.density_optimizer.arena_prefix == "density_adam"
            assert trainer.color_optimizer.arena_prefix == "color_adam"
            for mlp in (model.density_mlp, model.color_mlp):
                for layer in mlp.layers:
                    assert layer.arena is arena
                    if isinstance(layer, _Activation):
                        assert layer.name is not None

        assert isinstance(trainer.arena, WorkspaceArena)
        assert_bound(trainer.arena)
        shared = WorkspaceArena()
        trainer.set_arena(shared)
        assert_bound(shared)
        trainer.train_step()
        assert shared.misses > 0


class TestSharedArena:
    """Trainers that never step at the same time may share one arena, as
    the trainers a serving worker or a fleet checks out do."""

    @pytest.mark.parametrize("overrides", [
        dict(compute_dtype="float64"),
        dict(compute_dtype="float32", sparse_updates=True,
             culling_enabled=True),
    ], ids=["float64-dense", "float32-sparse"])
    def test_interleaved_trainers_match_solo_runs(self, tiny_config,
                                                  tiny_dataset, overrides,
                                                  occupancy_schedule):
        """Steps of two trainers alternate on one poisoning arena, with a
        held-out render between them; each trainer's losses and parameter
        bytes equal its solo run's, so no buffer outlives its step."""
        config = dataclasses.replace(tiny_config, **overrides)
        seeds, n_steps = (0, 1), 12
        camera = tiny_dataset.test_views[0].camera

        def build(seed):
            return Trainer(DecoupledRadianceField(config, seed=seed),
                           tiny_dataset, config=config, seed=seed)

        with occupancy_schedule(warmup=4, every=2):
            solo = [build(seed) for seed in seeds]
            solo_losses = [[trainer.train_step()["loss"]
                            for _ in range(n_steps)] for trainer in solo]
            arena = _PoisonedArena()
            shared = [build(seed) for seed in seeds]
            for trainer in shared:
                trainer.set_arena(arena)
            shared_losses = [[] for _ in seeds]
            for _ in range(n_steps):
                for losses, trainer in zip(shared_losses, shared):
                    losses.append(trainer.train_step()["loss"])
                    rgb, _ = render_view(
                        trainer.model, camera, tiny_dataset.scene_bound,
                        n_samples=config.n_samples_per_ray,
                        occupancy=trainer.occupancy, policy=trainer.policy)
                    assert np.all(np.isfinite(rgb))
        assert arena.hits > 0
        assert shared_losses == solo_losses
        for ours, theirs in zip(shared, solo):
            for a, b in zip(ours.model.parameters(),
                            theirs.model.parameters()):
                assert a.data.tobytes() == b.data.tobytes()


class TestCheckpointPrecision:
    def test_roundtrip_preserves_dtype_and_resumes_bit_identically(
            self, tiny_config, tiny_dataset, tmp_path):
        config = dataclasses.replace(tiny_config, compute_dtype="float32")
        model = DecoupledRadianceField(config, seed=0)
        trainer = Trainer(model, tiny_dataset, config=config, seed=0)
        history = TrainingHistory()
        trainer.run_steps(8, history)
        path = tmp_path / "f32.ckpt.npz"
        save_trainer_checkpoint(path, trainer, history=history)

        restored = Trainer(DecoupledRadianceField(config, seed=0),
                           tiny_dataset, config=config, seed=0)
        restored_history = TrainingHistory()
        load_trainer_checkpoint(path, restored, history=restored_history)
        assert restored.iteration == trainer.iteration
        continued = [trainer.train_step()["loss"] for _ in range(6)]
        resumed = [restored.train_step()["loss"] for _ in range(6)]
        assert continued == resumed

    def test_state_dict_records_policy(self, tiny_config, tiny_dataset):
        config = dataclasses.replace(tiny_config, compute_dtype="float32")
        trainer = Trainer(DecoupledRadianceField(config, seed=0),
                          tiny_dataset, config=config, seed=0)
        assert trainer.state_dict()["compute_dtype"] == "float32"

    def test_cross_policy_resume_rejected(self, tiny_config, tiny_dataset,
                                          tmp_path):
        f32 = dataclasses.replace(tiny_config, compute_dtype="float32")
        trainer = Trainer(DecoupledRadianceField(f32, seed=0), tiny_dataset,
                          config=f32, seed=0)
        trainer.train_step()
        path = tmp_path / "f32.ckpt.npz"
        save_trainer_checkpoint(path, trainer)

        f64 = dataclasses.replace(tiny_config, compute_dtype="float64")
        other = Trainer(DecoupledRadianceField(f64, seed=0), tiny_dataset,
                        config=f64, seed=0)
        with pytest.raises(CheckpointError, match="compute_dtype"):
            load_trainer_checkpoint(path, other)


class TestScheduleClosedForm:
    """``should_update`` fires when ``floor((i + 1) * F)`` increases, so over
    ``[0, n)`` it fires ``floor(n * F)`` times."""

    @pytest.mark.parametrize("frequency", [1.0, 0.5, 0.25, 0.75, 1 / 3, 0.9,
                                           0.123, 2 / 7])
    @pytest.mark.parametrize("n", [0, 1, 7, 64, 257])
    def test_matches_loop_oracle(self, frequency, n):
        schedule = UpdateSchedule(frequency)
        assert updates_in_loop(schedule, n) == math.floor(n * frequency)

    def test_property_random_frequencies(self):
        rng = new_rng(7)
        for _ in range(50):
            frequency = float(rng.uniform(0.01, 1.0))
            n = int(rng.integers(0, 200))
            schedule = UpdateSchedule(frequency)
            assert updates_in_loop(schedule, n) == math.floor(n * frequency)
