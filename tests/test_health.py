"""Numerical-health guardrails: detection, rollback recovery, quarantine.

Two invariants anchor this suite, mirroring the fault-injection discipline
of ``test_reliability.py``:

* **No-trip bit-identity** — a guarded trainer that never trips produces
  the bit-identical trajectory of an unguarded one (the monitor is
  read-only; snapshots are host-side copies).  Pinned as differentials
  over dense/culled x float64/float32.
* **Deterministic recovery** — under a fixed fault seed, a recovered run
  is replayable end to end: two runs see the same guard trips, the same
  rollback schedule, the same remediation and the same final parameters.
"""

from __future__ import annotations

import ast
import dataclasses
import math
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import Instant3DConfig
from repro.core.model import DecoupledRadianceField
from repro.datasets import make_synthetic_scene, nerf_synthetic_like
from repro.datasets.dataset import build_dataset
from repro.io import CheckpointError, NonFiniteCheckpointError, save_checkpoint
from repro.io.checkpoint import load_trainer_checkpoint, save_trainer_checkpoint
from repro.reliability import (
    FaultInjector,
    GuardTrip,
    HealthMonitor,
    HealthPolicy,
    NumericalFault,
    SnapshotRing,
    copy_state_tree,
    fault_injection,
    get_injector,
)
from repro.reliability.faults import FAULT_SITES
from repro.serving import JobPoisoned, SceneService
from repro.training.trainer import Trainer, TrainingHistory

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

#: Fast watchdog for tests: snapshot often so recovery rewinds little.
FAST_POLICY = HealthPolicy(snapshot_every=5, snapshot_ring=2)


def _make_dataset(name="lego", image_size=8):
    return build_dataset(make_synthetic_scene(name), n_train_views=2,
                         n_test_views=1, image_size=image_size, seed=0,
                         suite="nerf_synthetic", gt_samples=16)


@pytest.fixture(scope="module")
def health_dataset():
    return _make_dataset()


def _trainer(config, dataset, seed=0):
    return Trainer(DecoupledRadianceField(config, seed=seed), dataset,
                   config=config, seed=seed)


def _params(trainer):
    return [np.array(p.data, copy=True) for p in trainer.model.parameters()]


# ---------------------------------------------------------------------------
# Policy / config validation
# ---------------------------------------------------------------------------

class TestHealthPolicyValidation:
    def test_defaults_are_valid(self):
        HealthPolicy()

    @pytest.mark.parametrize("kwargs", [
        {"check_every": 0},
        {"loss_window": 1},
        {"loss_window_min": 1},
        {"loss_window": 4, "loss_window_min": 8},
        {"loss_spike_factor": 1.0},
        {"loss_spike_factor": float("nan")},
        {"param_limit": 0.0},
        {"param_limit": float("inf")},
        {"snapshot_every": 0},
        {"snapshot_ring": 0},
        {"max_rollbacks": 0},
        {"lr_backoff": 0.0},
        {"lr_backoff": 1.5},
        {"lr_backoff": float("nan")},
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HealthPolicy(**kwargs)

    def test_spike_guard_can_be_disabled(self):
        assert HealthPolicy(loss_spike_factor=None).loss_spike_factor is None


class TestConfigNumericValidation:
    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": 0.0},
        {"learning_rate": -1e-2},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"density_update_freq": float("nan")},
        {"color_size_ratio": -0.5},
    ])
    def test_non_finite_or_out_of_range_rejected(self, tiny_config, kwargs):
        with pytest.raises(ValueError):
            dataclasses.replace(tiny_config, **kwargs)

    def test_health_policy_rides_on_config(self, tiny_config):
        config = dataclasses.replace(tiny_config, health=FAST_POLICY)
        assert config.health.snapshot_every == 5


# ---------------------------------------------------------------------------
# HealthMonitor unit tests (fake parameters, no trainer)
# ---------------------------------------------------------------------------

def _fake_param(data=None, grad=None, sparse_values=None):
    sparse = None
    if sparse_values is not None:
        sparse = SimpleNamespace(values=np.asarray(sparse_values))
    return SimpleNamespace(
        data=np.asarray(data if data is not None else np.ones(4)),
        grad=None if grad is None else np.asarray(grad),
        sparse_grad=sparse)


@pytest.mark.nonfinite
class TestHealthMonitor:
    def test_healthy_check_feeds_loss_window(self):
        monitor = HealthMonitor(HealthPolicy())
        for i in range(5):
            assert monitor.check(i, 0.5, [_fake_param()]) is None
        assert monitor.guard_trips == 0
        assert list(monitor._losses) == [0.5] * 5

    def test_nonfinite_loss_trips(self):
        monitor = HealthMonitor(HealthPolicy())
        trip = monitor.check(3, float("nan"), [_fake_param()])
        assert isinstance(trip, GuardTrip)
        assert trip.reason == "loss-nonfinite" and trip.iteration == 3
        assert monitor.guard_trips == 1 and monitor.trips == [trip]
        # A tripped loss never joins the window.
        assert len(monitor._losses) == 0

    def test_loss_spike_trips_after_window_fills(self):
        policy = HealthPolicy(loss_window=8, loss_window_min=4,
                              loss_spike_factor=10.0)
        monitor = HealthMonitor(policy)
        for i in range(3):
            monitor.check(i, 1.0, [])
        # Window below loss_window_min: even a huge loss passes.
        assert monitor.check(3, 1e6, []) is None
        monitor._losses.clear()
        for i in range(4):
            monitor.check(i, 1.0, [])
        assert monitor.check(4, 9.9, []) is None        # below 10x median
        trip = monitor.check(5, 11.0, [])
        assert trip is not None and trip.reason == "loss-spike"

    def test_grad_nonfinite_trips_dense_and_sparse(self):
        monitor = HealthMonitor(HealthPolicy())
        bad_dense = _fake_param(grad=[1.0, float("nan")])
        trip = monitor.check(0, 0.1, [bad_dense])
        assert trip.reason == "grad-nonfinite" and "dense" in trip.detail
        bad_sparse = _fake_param(sparse_values=[float("inf")])
        trip = monitor.check(1, 0.1, [bad_sparse])
        assert trip.reason == "grad-nonfinite" and "sparse" in trip.detail

    def test_param_nonfinite_and_explosion_trip(self):
        monitor = HealthMonitor(HealthPolicy(param_limit=100.0))
        trip = monitor.check(0, 0.1, [_fake_param(data=[float("nan")])])
        assert trip.reason == "param-nonfinite"
        trip = monitor.check(1, 0.1, [_fake_param(data=[101.0])])
        assert trip.reason == "param-explosion"
        assert monitor.check(2, 0.1, [_fake_param(data=[99.0])]) is None

    def test_guards_can_be_disabled(self):
        policy = HealthPolicy(check_grads=False, check_params=False,
                              loss_spike_factor=None)
        monitor = HealthMonitor(policy)
        bad = _fake_param(data=[float("nan")], grad=[float("nan")])
        assert monitor.check(0, 0.1, [bad]) is None     # only loss guarded
        assert monitor.check(1, float("inf"), [bad]).reason == "loss-nonfinite"

    def test_check_due_gating(self):
        monitor = HealthMonitor(HealthPolicy(check_every=4))
        assert [i for i in range(1, 13) if monitor.check_due(i)] == [4, 8, 12]

    def test_progress_past_trip_resets_rollback_budget(self):
        monitor = HealthMonitor(HealthPolicy(max_rollbacks=2))
        monitor.check(10, float("nan"), [])
        monitor.last_trip_iteration = 10
        monitor.rollback_attempts = 2
        assert not monitor.budget_exhausted()
        monitor.check(10, 0.1, [])          # replay of the trip iteration
        assert monitor.rollback_attempts == 2   # not past the trip yet
        monitor.check(11, 0.1, [])          # forward progress
        assert monitor.rollback_attempts == 0
        monitor.rollback_attempts = 3
        assert monitor.budget_exhausted()

    def test_state_dict_roundtrip(self):
        monitor = HealthMonitor(HealthPolicy())
        for i in range(4):
            monitor.check(i, float(i + 1), [])
        monitor.check(4, float("nan"), [])
        monitor.rollbacks = 2
        monitor.lr_backoffs = 1
        monitor.batch_skips = 3
        monitor.last_trip_iteration = 4
        clone = HealthMonitor(HealthPolicy())
        clone.load_state_dict(monitor.state_dict())
        assert clone.state_dict() == monitor.state_dict()


# ---------------------------------------------------------------------------
# Snapshot ring
# ---------------------------------------------------------------------------

class TestSnapshotRing:
    def test_capacity_evicts_oldest(self):
        ring = SnapshotRing(2)
        for i in range(4):
            ring.push(i, {"x": np.full(2, float(i))})
        assert ring.iterations() == [2, 3]
        assert len(ring) == 2
        assert ring.newest()["iteration"] == 3

    def test_push_copies_the_state(self):
        ring = SnapshotRing(1)
        live = {"w": np.zeros(3), "nested": [np.ones(2)]}
        ring.push(0, live)
        live["w"][:] = 99.0
        live["nested"][0][:] = 99.0
        restored = ring.restore_newest()
        np.testing.assert_array_equal(restored["state"]["w"], np.zeros(3))
        np.testing.assert_array_equal(restored["state"]["nested"][0],
                                      np.ones(2))

    def test_restore_copies_again(self):
        # Mutating a restored state must not poison the ring's copy.
        ring = SnapshotRing(1)
        ring.push(5, {"w": np.zeros(3)})
        first = ring.restore_newest()
        first["state"]["w"][:] = float("nan")
        second = ring.restore_newest()
        np.testing.assert_array_equal(second["state"]["w"], np.zeros(3))

    def test_empty_ring(self):
        ring = SnapshotRing(2)
        assert ring.newest() is None and ring.restore_newest() is None
        assert ring.iterations() == [] and len(ring) == 0

    def test_copy_state_tree_handles_scalars_and_tuples(self):
        tree = {"a": (np.arange(3), 2.5), "b": [1, "s"], "c": None}
        copy = copy_state_tree(tree)
        tree["a"][0][:] = 0
        np.testing.assert_array_equal(copy["a"][0], np.arange(3))
        assert copy["a"][1] == 2.5 and copy["b"] == [1, "s"]
        assert copy["c"] is None


# ---------------------------------------------------------------------------
# Fault-injection surface (satellite: site registry + array corruption)
# ---------------------------------------------------------------------------

class TestFaultSites:
    def test_unknown_site_rejected(self):
        injector = FaultInjector(seed=FAULT_SEED)
        with pytest.raises(ValueError, match="unknown fault site"):
            injector.add("no.such.site", "raise-transient")

    def test_registry_names_every_fault_point_in_src(self):
        """FAULT_SITES equals the set of sites the source passes to
        fault_point(), each as a string literal (scanned, not imported)."""
        src = Path(__file__).resolve().parents[1] / "src"
        sites = set()
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(
                    func, "attr", None)
                if name != "fault_point":
                    continue
                site = node.args[0] if node.args else None
                assert (isinstance(site, ast.Constant)
                        and isinstance(site.value, str)), (
                    f"{path}:{node.lineno}: fault_point site is not a literal")
                sites.add(site.value)
        assert sites == set(FAULT_SITES)

    @pytest.mark.nonfinite
    def test_corrupt_array_is_seeded_and_in_place(self):
        def poisoned_positions():
            injector = FaultInjector(seed=FAULT_SEED)
            injector.add("train.backward", "corrupt-grad", times=1)
            arrays = [np.zeros(16), np.zeros((4, 4))[::2]]   # non-contiguous
            with fault_injection(injector):
                from repro.reliability import fault_point
                fault_point("train.backward", arrays=arrays)
            return [tuple(np.argwhere(~np.isfinite(a))[0]) for a in arrays]

        first = poisoned_positions()
        second = poisoned_positions()
        assert first == second          # same seed => same poisoned element
        assert len(first) == 2          # every array in the batch is hit


# ---------------------------------------------------------------------------
# No-trip bit-identity differentials
# ---------------------------------------------------------------------------

class TestNoTripBitIdentity:
    @pytest.mark.parametrize("culled", [False, True],
                             ids=["dense", "culled"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_guarded_run_matches_unguarded(self, tiny_config, health_dataset,
                                           occupancy_schedule, culled, dtype):
        base = dataclasses.replace(
            tiny_config, compute_dtype=dtype, culling_enabled=culled)
        guarded_config = dataclasses.replace(base, health=FAST_POLICY)

        with occupancy_schedule(warmup=4, every=2):
            plain = _trainer(base, health_dataset)
            plain_history = TrainingHistory()
            plain.run_steps(20, plain_history)

            guarded = _trainer(guarded_config, health_dataset)
            guarded_history = TrainingHistory()
            guarded.run_steps(20, guarded_history)

        assert guarded.health.guard_trips == 0
        assert guarded_history.guard_trips == 0
        assert list(guarded_history.losses) == list(plain_history.losses)
        for theirs, ours in zip(_params(plain), _params(guarded)):
            np.testing.assert_array_equal(theirs, ours)


# ---------------------------------------------------------------------------
# Deterministic rollback recovery
# ---------------------------------------------------------------------------

def _recovered_run(config, dataset, n_steps=20, fault_after=10, times=1,
                   site="train.backward", kind="corrupt-grad"):
    trainer = _trainer(config, dataset)
    history = TrainingHistory()
    injector = FaultInjector(seed=FAULT_SEED)
    injector.add(site, kind, after=fault_after, times=times)
    with fault_injection(injector):
        trainer.run_steps(n_steps, history)
    return trainer, history


@pytest.mark.nonfinite
class TestDeterministicRecovery:
    @pytest.fixture(scope="class")
    def health_config(self, tiny_config):
        return dataclasses.replace(tiny_config, health=FAST_POLICY)

    def test_guards_off_fault_poisons_params(self, tiny_config,
                                             health_dataset):
        trainer, _ = _recovered_run(tiny_config, health_dataset)
        assert not all(np.isfinite(p).all() for p in _params(trainer))

    @pytest.mark.parametrize("site,kind", [
        ("train.backward", "corrupt-grad"),
        ("optimizer.step", "corrupt-param"),
    ])
    def test_guards_on_recovers_to_finite_state(self, health_config,
                                                health_dataset, site, kind):
        trainer, history = _recovered_run(health_config, health_dataset,
                                          site=site, kind=kind)
        assert trainer.iteration == 20
        assert len(history.losses) == 20
        assert all(np.isfinite(p).all() for p in _params(trainer))
        assert all(math.isfinite(v) for v in history.losses)
        assert trainer.health.guard_trips == 1
        assert trainer.health.rollbacks == 1
        assert trainer.health.lr_backoffs == 1
        assert trainer.health.batch_skips == 1
        assert history.guard_trips == 1 and history.rollbacks == 1

    def test_recovery_is_replayable(self, health_config, health_dataset):
        first_trainer, first_history = _recovered_run(health_config,
                                                      health_dataset)
        second_trainer, second_history = _recovered_run(health_config,
                                                        health_dataset)
        assert list(first_history.losses) == list(second_history.losses)
        assert first_trainer.health.counters() == \
            second_trainer.health.counters()
        assert [t.reason for t in first_trainer.health.trips] == \
            [t.reason for t in second_trainer.health.trips]
        for theirs, ours in zip(_params(first_trainer),
                                _params(second_trainer)):
            np.testing.assert_array_equal(theirs, ours)

    def test_lr_backoff_survives_rollback(self, health_config,
                                          health_dataset):
        base_lr = health_config.learning_rate
        trainer, _ = _recovered_run(health_config, health_dataset)
        # Snapshot restore must NOT undo the remediation: lr stays backed off.
        backoff = health_config.health.lr_backoff
        assert trainer.density_optimizer.lr == pytest.approx(base_lr * backoff)
        assert trainer.color_optimizer.lr == pytest.approx(base_lr * backoff)

    def test_persistent_fault_exhausts_budget(self, tiny_config,
                                              health_dataset):
        config = dataclasses.replace(
            tiny_config,
            health=HealthPolicy(snapshot_every=5, max_rollbacks=2))
        trainer = _trainer(config, health_dataset)
        history = TrainingHistory()
        injector = FaultInjector(seed=FAULT_SEED)
        injector.add("train.backward", "corrupt-grad", after=10)  # every step
        with fault_injection(injector):
            with pytest.raises(NumericalFault, match="budget exhausted"):
                trainer.run_steps(20, history)
        # The failed trainer was rolled back before raising: its state is
        # finite, so a post-mortem flush of the scene still checkpoints.
        assert all(np.isfinite(p).all() for p in _params(trainer))
        assert trainer.health.guard_trips == 3      # initial + 2 replays
        assert history.guard_trips == 3             # synced in the finally

    def test_counters_flow_into_training_result(self, health_config,
                                                health_dataset):
        trainer, history = _recovered_run(health_config, health_dataset)
        result = trainer.finalize(history, eval_views=1, eval_samples=16)
        assert result.guard_trips == 1
        assert result.rollbacks == 1
        assert result.lr_backoffs == 1
        assert result.batch_skips == 1

    @pytest.mark.parametrize("fault_seed", [0, 1])
    def test_recovered_psnr_close_to_fault_free(self, bench_scale_config,
                                                fault_seed):
        """At benchmark scale (lego 12 px, 40 steps, one corrupt gradient at
        step 31), tight snapshots and a mild LR backoff land the recovered
        run within 0.5 dB of the fault-free, unguarded run."""
        dataset = nerf_synthetic_like(["lego"], n_train_views=3,
                                      n_test_views=1, image_size=12)[0]
        guarded = dataclasses.replace(
            bench_scale_config,
            health=HealthPolicy(snapshot_every=2, snapshot_ring=2,
                                lr_backoff=0.75))

        clean = _trainer(bench_scale_config, dataset)
        clean_history = TrainingHistory()
        clean.run_steps(40, clean_history)
        recovered = _trainer(guarded, dataset)
        history = TrainingHistory()
        injector = FaultInjector(seed=fault_seed)
        injector.add("train.backward", "corrupt-grad", after=30, times=1)
        with fault_injection(injector):
            recovered.run_steps(40, history)
        assert recovered.health.rollbacks == 1
        gap = (clean.finalize(clean_history, eval_samples=24).rgb_psnr
               - recovered.finalize(history, eval_samples=24).rgb_psnr)
        assert gap < 0.5


# ---------------------------------------------------------------------------
# Checkpoint integration
# ---------------------------------------------------------------------------

@pytest.mark.nonfinite
class TestCheckpointIntegration:
    def test_save_refuses_non_finite_arrays(self, tmp_path):
        payload = {"model": {"w": np.array([1.0, float("nan")])}}
        with pytest.raises(NonFiniteCheckpointError, match="model.w"):
            save_checkpoint(tmp_path / "bad.ckpt.npz", payload, kind="t")

    def test_save_override_for_post_mortem(self, tmp_path):
        payload = {"w": np.array([float("inf")])}
        save_checkpoint(tmp_path / "dump.ckpt.npz", payload, kind="t",
                        allow_non_finite=True)

    def test_health_state_roundtrips_through_checkpoint(self, tiny_config,
                                                        health_dataset,
                                                        tmp_path):
        config = dataclasses.replace(tiny_config, health=FAST_POLICY)
        trainer, history = _recovered_run(config, health_dataset)
        path = tmp_path / "healthy.ckpt.npz"
        save_trainer_checkpoint(path, trainer, history=history)

        clone = _trainer(config, health_dataset, seed=1)
        clone_history = TrainingHistory()
        load_trainer_checkpoint(path, clone, history=clone_history)
        assert clone.health.state_dict() == trainer.health.state_dict()
        assert clone.density_optimizer.lr == trainer.density_optimizer.lr
        assert clone.color_optimizer.lr == trainer.color_optimizer.lr
        assert clone_history.guard_trips == history.guard_trips

    def test_health_checkpoint_needs_health_trainer(self, tiny_config,
                                                    health_dataset,
                                                    tmp_path):
        config = dataclasses.replace(tiny_config, health=FAST_POLICY)
        trainer = _trainer(config, health_dataset)
        history = TrainingHistory()
        trainer.run_steps(4, history)
        path = tmp_path / "guarded.ckpt.npz"
        save_trainer_checkpoint(path, trainer, history=history)

        plain = _trainer(tiny_config, health_dataset)
        with pytest.raises(CheckpointError, match="no HealthPolicy"):
            load_trainer_checkpoint(path, plain)


# ---------------------------------------------------------------------------
# Service quarantine
# ---------------------------------------------------------------------------

@pytest.mark.nonfinite
class TestServiceQuarantine:
    def test_numerical_fault_poisons_only_that_scene(self, tiny_config):
        datasets = [_make_dataset("lego"), _make_dataset("chair")]
        config = dataclasses.replace(
            tiny_config,
            health=HealthPolicy(snapshot_every=2, max_rollbacks=1))
        injector = FaultInjector(seed=FAULT_SEED)
        # Fires on the first corrupted step and again on its single replay
        # (max_rollbacks=1), exhausting the budget; the later healthy
        # tenant's job sees an exhausted spec.
        injector.add("train.backward", "corrupt-grad", after=2, times=2)
        with fault_injection(injector):
            with SceneService(datasets, config, seed=0,
                              n_workers=1) as service:
                handle = service.train("lego", n_steps=8)
                with pytest.raises(JobPoisoned) as err:
                    handle.result(60)
                assert isinstance(err.value.__cause__, NumericalFault)
                stats = service.stats()
                assert stats["poisoned"] == 1
                assert stats["poisoned_scenes"] == 1
                assert stats["guard_trips"] >= 1
                # Quarantine: further jobs for the scene are shed at submit.
                with pytest.raises(JobPoisoned, match="quarantined"):
                    service.train("lego", n_steps=1)
                # The fleet survives; other tenants keep training.
                result = service.train("chair", n_steps=2).result(60)
                assert result.iteration == 2
