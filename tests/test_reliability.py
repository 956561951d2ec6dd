"""Fault injection, checkpoint integrity, and serving fault tolerance.

Chaos discipline: every fault here is injected deterministically by the
seeded :class:`~repro.reliability.FaultInjector` (seed taken from
``REPRO_FAULT_SEED``, default 0 — CI runs a small seed matrix), so failures
reproduce exactly.  The load-bearing property, inherited from the
differential-test discipline of the rest of the suite, is that *faults must
not change answers*: a retried job completes with the bit-identical result
of a fault-free run.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
import warnings

import numpy as np
import pytest

from repro.core.config import Instant3DConfig
from repro.core.model import DecoupledRadianceField
from repro.datasets import make_synthetic_scene
from repro.datasets.dataset import build_dataset
from repro.io import (
    CheckpointCorruptError,
    CheckpointError,
    generation_path,
    io_stats,
    load_checkpoint,
    save_checkpoint,
)
from repro.reliability import (
    FaultInjector,
    PermanentFault,
    RetryPolicy,
    TransientFault,
    fault_injection,
    fault_point,
    get_injector,
    install_injector,
    uninstall_injector,
)
from repro.serving import (
    DeadlineExceeded,
    JobCancelled,
    JobPoisoned,
    QueueFull,
    ResidencyManager,
    SceneService,
)
from repro.training.trainer import Trainer, TrainingHistory
from repro.utils.workspace import WorkspaceArena

from helpers import (CHECKPOINT_HEADER, read_checkpoint_file,
                     write_checkpoint_file)

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

#: Fast backoff so retry tests do not sleep for real.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.005,
                         backoff_max_s=0.05)


def _make_dataset(name, image_size=8, n_train=2, n_test=1):
    return build_dataset(make_synthetic_scene(name), n_train_views=n_train,
                         n_test_views=n_test, image_size=image_size,
                         seed=0, gt_samples=16)


@pytest.fixture(scope="module")
def rel_datasets():
    return [_make_dataset(name) for name in ("lego", "chair")]


@pytest.fixture(scope="module", autouse=True)
def _fast_occupancy(occupancy_schedule):
    """Occupancy refreshes that fire within a few train-job steps."""
    with occupancy_schedule(warmup=4, every=2):
        yield


@pytest.fixture(scope="module")
def rel_config(tiny_config):
    return dataclasses.replace(tiny_config, culling_enabled=True)


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    """Every test must leave the process-global injector uninstalled."""
    assert get_injector() is None
    yield
    assert get_injector() is None


class TestFaultInjector:
    def test_fault_point_is_noop_when_disabled(self, tmp_path):
        # No injector installed: must not raise, must not touch files.
        probe = tmp_path / "probe.bin"
        probe.write_bytes(b"x" * 64)
        fault_point("checkpoint.save", probe)
        assert probe.read_bytes() == b"x" * 64

    def test_raise_kinds_and_counters(self):
        injector = FaultInjector(seed=FAULT_SEED)
        injector.add("worker.execute", "raise-transient", times=1)
        injector.add("residency.checkout", "raise-permanent", times=1)
        with fault_injection(injector):
            with pytest.raises(TransientFault):
                fault_point("worker.execute")
            fault_point("worker.execute")      # times=1 exhausted: no-op
            with pytest.raises(PermanentFault):
                fault_point("residency.checkout")
        counts = injector.counts()
        assert counts["total"] == 2
        assert counts["worker.execute"] == 1
        assert counts["residency.checkout"] == 1

    def test_transient_fault_is_an_oserror(self):
        # RetryPolicy (and generic I/O handling) keys off OSError.
        assert issubclass(TransientFault, OSError)

    def test_after_skips_early_calls(self):
        injector = FaultInjector(seed=FAULT_SEED)
        spec = injector.add("worker.execute", "raise-transient",
                            after=2, times=1)
        with fault_injection(injector):
            fault_point("worker.execute")
            fault_point("worker.execute")
            with pytest.raises(TransientFault):
                fault_point("worker.execute")
        assert spec.calls == 3 and spec.triggered == 1

    def test_rate_schedule_is_deterministic_in_the_seed(self):
        def schedule(seed):
            injector = FaultInjector(seed=seed)
            spec = injector.add("checkpoint.load", "raise-transient", rate=0.5)
            fired = []
            with fault_injection(injector):
                for _ in range(64):
                    try:
                        fault_point("checkpoint.load")
                        fired.append(False)
                    except TransientFault:
                        fired.append(True)
            assert spec.calls == 64
            return fired

        first = schedule(FAULT_SEED)
        assert schedule(FAULT_SEED) == first
        assert any(first) and not all(first)   # rate=0.5 actually samples

    def test_delay_kind_sleeps(self):
        injector = FaultInjector(seed=FAULT_SEED)
        injector.add("worker.execute", "delay", delay_s=0.05, times=1)
        with fault_injection(injector):
            start = time.perf_counter()
            fault_point("worker.execute")
            assert time.perf_counter() - start >= 0.05

    def test_truncate_and_corrupt_mutate_the_file(self, tmp_path):
        target = tmp_path / "data.bin"
        payload = bytes(range(256)) * 4
        target.write_bytes(payload)
        injector = FaultInjector(seed=FAULT_SEED)
        injector.add("checkpoint.save", "truncate-file", times=1)
        with fault_injection(injector):
            fault_point("checkpoint.save", target)
        assert target.stat().st_size == len(payload) // 2

        target.write_bytes(payload)
        injector = FaultInjector(seed=FAULT_SEED)
        injector.add("checkpoint.save", "corrupt-bytes", times=1)
        with fault_injection(injector):
            fault_point("checkpoint.save", target)
        mutated = target.read_bytes()
        assert len(mutated) == len(payload) and mutated != payload

    def test_install_is_exclusive_and_context_managed(self):
        injector = FaultInjector(seed=FAULT_SEED)
        with fault_injection(injector):
            assert get_injector() is injector
            with pytest.raises(RuntimeError, match="already installed"):
                install_injector(FaultInjector(seed=1))
        assert get_injector() is None
        uninstall_injector()                   # idempotent

    def test_unknown_kind_and_bad_rate_rejected(self):
        injector = FaultInjector(seed=FAULT_SEED)
        with pytest.raises(ValueError, match="unknown fault kind"):
            injector.add("x", "raise-sometimes")
        with pytest.raises(ValueError, match="rate"):
            injector.add("x", rate=1.5)


class TestRetryPolicy:
    def test_classification(self):
        policy = RetryPolicy()
        assert policy.classify(TransientFault("io")) == "transient"
        assert policy.classify(OSError("eio")) == "transient"
        assert policy.classify(TimeoutError()) == "transient"
        assert policy.classify(PermanentFault("bad")) == "permanent"
        assert policy.classify(ValueError("bad arg")) == "permanent"
        assert policy.classify(CheckpointCorruptError("crc")) == "permanent"

    def test_backoff_is_deterministic_exponential_and_capped(self):
        policy = RetryPolicy(backoff_base_s=0.01, backoff_factor=2.0,
                             backoff_max_s=0.05)
        assert policy.backoff_s(1) == pytest.approx(0.01)
        assert policy.backoff_s(2) == pytest.approx(0.02)
        assert policy.backoff_s(3) == pytest.approx(0.04)
        assert policy.backoff_s(4) == pytest.approx(0.05)   # capped
        assert policy.backoff_s(10) == pytest.approx(0.05)

    def test_should_retry_counts_attempts(self):
        policy = RetryPolicy(max_attempts=2)
        error = TransientFault("io")
        assert policy.should_retry(error, 1)
        assert not policy.should_retry(error, 2)
        assert not policy.should_retry(PermanentFault("bad"), 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class TestCheckpointIntegrity:
    def _payload(self):
        return {"weights": np.arange(12.0).reshape(3, 4),
                "steps": 7,
                "moments": {"m": np.full(5, 0.25, dtype=np.float32)}}

    def test_digests_recorded_and_roundtrip(self, tmp_path):
        path = save_checkpoint(tmp_path / "s.npz", self._payload(), kind="t")
        # Header, signed manifest, zero padding, then the data region.
        manifest, blob = read_checkpoint_file(path)
        assert set(manifest["digests"]) == {"a0", "a1"}
        # One flat data region; each array at a 64-byte-aligned offset.
        assert len(blob) == 128 + 5 * 4
        layout = manifest["layout"]
        assert [layout[key]["offset"] for key in ("a0", "a1")] == [0, 128]
        assert layout["a0"]["shape"] == [3, 4]
        loaded = load_checkpoint(path, expected_kind="t")
        assert loaded.fallback_generation == 0
        np.testing.assert_array_equal(loaded.payload["weights"],
                                      self._payload()["weights"])
        np.testing.assert_array_equal(loaded.payload["moments"]["m"],
                                      self._payload()["moments"]["m"])
        assert loaded.payload["moments"]["m"].dtype == np.float32

    def test_digest_mismatch_raises_corrupt_error(self, tmp_path):
        path = save_checkpoint(tmp_path / "s.npz", self._payload(), kind="t")
        # Rewrite the file with one array's bytes silently altered inside
        # the data region but the old digests kept — header, manifest CRC
        # and padding stay valid, only the per-array CRC32 can tell.
        manifest, blob = read_checkpoint_file(path)
        blob[manifest["layout"]["a0"]["offset"]] ^= 0x01
        write_checkpoint_file(path, manifest, blob)
        with pytest.raises(CheckpointCorruptError,
                           match="CRC32 mismatch on array 'a0'"):
            load_checkpoint(path, expected_kind="t")
        assert path.exists()                   # no generations: no quarantine

    def test_truncated_file_without_generations_raises_in_place(self, tmp_path):
        path = save_checkpoint(tmp_path / "s.npz", self._payload(), kind="t")
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size // 2)
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)
        assert path.exists() and not list(tmp_path.glob("*.corrupt*"))

    def test_generation_fallback_quarantines_and_restores(self, tmp_path):
        path = tmp_path / "s.npz"
        save_checkpoint(path, {"x": np.arange(4.0), "v": 1}, kind="t",
                        keep_generations=3)
        save_checkpoint(path, {"x": np.arange(4.0) * 2, "v": 2}, kind="t",
                        keep_generations=3)
        assert generation_path(path, 1).exists()
        before = io_stats()
        with open(path, "r+b") as handle:      # torn write of the primary
            handle.truncate(path.stat().st_size // 2)
        loaded = load_checkpoint(path, expected_kind="t")
        assert loaded.fallback_generation == 1
        assert loaded.payload["v"] == 1
        np.testing.assert_array_equal(loaded.payload["x"], np.arange(4.0))
        assert (tmp_path / "s.npz.corrupt").exists()
        after = io_stats()
        assert after.fallback_loads == before.fallback_loads + 1
        assert after.quarantined_files == before.quarantined_files + 1

    def test_manifest_bit_flip_falls_back_to_generation(self, tmp_path):
        # One flipped byte inside the manifest fails the manifest's CRC32;
        # that must count as corruption (quarantine + fall back), not
        # escape as a JSON decode error.
        path = tmp_path / "s.npz"
        save_checkpoint(path, {"v": 1}, kind="t", keep_generations=2)
        save_checkpoint(path, {"v": 2}, kind="t", keep_generations=2)
        raw = bytearray(path.read_bytes())
        manifest_size = CHECKPOINT_HEADER.unpack_from(raw)[1]
        raw[CHECKPOINT_HEADER.size + manifest_size // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        loaded = load_checkpoint(path, expected_kind="t")
        assert loaded.payload["v"] == 1 and loaded.fallback_generation == 1
        assert (tmp_path / "s.npz.corrupt").exists()

    def test_missing_primary_falls_back_to_generation(self, tmp_path):
        # Models a crash between the rotation and the final replace.
        path = tmp_path / "s.npz"
        save_checkpoint(path, {"v": 1}, kind="t", keep_generations=2)
        save_checkpoint(path, {"v": 2}, kind="t", keep_generations=2)
        path.unlink()
        loaded = load_checkpoint(path, expected_kind="t")
        assert loaded.payload["v"] == 1 and loaded.fallback_generation == 1

    def test_all_generations_corrupt_raises(self, tmp_path):
        path = tmp_path / "s.npz"
        save_checkpoint(path, {"v": 1}, kind="t", keep_generations=2)
        save_checkpoint(path, {"v": 2}, kind="t", keep_generations=2)
        for target in (path, generation_path(path, 1)):
            with open(target, "r+b") as handle:
                handle.truncate(8)
        with pytest.raises(CheckpointCorruptError, match="none of its"):
            load_checkpoint(path)

    def test_structural_errors_do_not_trigger_fallback(self, tmp_path):
        path = tmp_path / "s.npz"
        save_checkpoint(path, {"v": 1}, kind="alpha", keep_generations=2)
        save_checkpoint(path, {"v": 2}, kind="alpha", keep_generations=2)
        with pytest.raises(CheckpointError, match="holds a 'alpha'"):
            load_checkpoint(path, expected_kind="beta")
        assert not list(tmp_path.glob("*.corrupt*"))

    def test_rotation_keeps_exactly_n_generations(self, tmp_path):
        path = tmp_path / "s.npz"
        for v in range(6):
            save_checkpoint(path, {"v": v}, kind="t", keep_generations=3)
        assert load_checkpoint(path).payload["v"] == 5
        assert load_checkpoint(generation_path(path, 1),
                               fallback_generations=False).payload["v"] == 4
        assert load_checkpoint(generation_path(path, 2),
                               fallback_generations=False).payload["v"] == 3
        assert not generation_path(path, 3).exists()

    @staticmethod
    def _rewrite_manifest(path, edit):
        """Apply ``edit`` to the manifest and re-sign its CRC32."""
        manifest, blob = read_checkpoint_file(path)
        edit(manifest)
        write_checkpoint_file(path, manifest, blob)

    def test_version_2_checkpoint_is_structural_error(self, tmp_path):
        """A version-2 file may predate digests or health counters, so it
        is refused as unsupported: no quarantine, no generation fallback."""
        path = tmp_path / "s.npz"
        save_checkpoint(path, self._payload(), kind="t", keep_generations=2)
        save_checkpoint(path, self._payload(), kind="t", keep_generations=2)
        self._rewrite_manifest(path, lambda m: m.update(version=2))
        before = io_stats().fallback_loads
        with pytest.raises(CheckpointError, match="version 2") as info:
            load_checkpoint(path, expected_kind="t")
        assert not isinstance(info.value, CheckpointCorruptError)
        assert io_stats().fallback_loads == before
        assert not list(tmp_path.glob("*.corrupt*"))

    @pytest.mark.parametrize("version", [3, 4, 5])
    def test_old_version_checkpoint_is_structural_error(self, tmp_path,
                                                         version):
        """A version-3 file keeps one npz member per array, a version-4
        file one table per grid level and a version-5 file is an npz zip;
        each is refused as unsupported: no quarantine, no generation
        fallback."""
        path = tmp_path / "s.npz"
        save_checkpoint(path, self._payload(), kind="t", keep_generations=2)
        save_checkpoint(path, self._payload(), kind="t", keep_generations=2)
        self._rewrite_manifest(path, lambda m: m.update(version=version))
        before = io_stats().fallback_loads
        with pytest.raises(CheckpointError,
                           match=f"version {version}") as info:
            load_checkpoint(path, expected_kind="t")
        assert not isinstance(info.value, CheckpointCorruptError)
        assert io_stats().fallback_loads == before
        assert not list(tmp_path.glob("*.corrupt*"))

    def test_npz_checkpoint_is_structural_error(self, tmp_path):
        """An npz file (the layout of every version <= 5) is refused as
        unsupported, not as corruption: an upgrade must not quarantine a
        scene's old files or fall back through them."""
        path = tmp_path / "s.npz"
        save_checkpoint(path, self._payload(), kind="t", keep_generations=2)
        save_checkpoint(path, self._payload(), kind="t", keep_generations=2)
        np.savez(path, __manifest__=np.array("{}"),
                 __data__=np.zeros(8, dtype=np.uint8))
        assert path.read_bytes()[:4] == b"PK\x03\x04"
        before = io_stats().fallback_loads
        with pytest.raises(CheckpointError, match="versions <= 5") as info:
            load_checkpoint(path, expected_kind="t")
        assert not isinstance(info.value, CheckpointCorruptError)
        assert io_stats().fallback_loads == before
        assert not list(tmp_path.glob("*.corrupt*"))

    def test_every_single_byte_flip_is_caught(self, tmp_path):
        """Every byte of the file is covered by a check: flipping any one
        of them (header, manifest, its padding, an array or the padding
        between arrays) raises ``CheckpointCorruptError``, and with a
        ``.g1`` present the load falls back to it."""
        path = tmp_path / "s.npz"
        save_checkpoint(path, {"v": 1, "x": np.arange(2.0)}, kind="t",
                        keep_generations=2)
        payload = {"v": 2, "w": np.arange(5, dtype=np.float32),
                   "m": np.arange(3.0)}
        save_checkpoint(path, payload, kind="t", keep_generations=2)
        raw = path.read_bytes()
        manifest, blob = read_checkpoint_file(path)
        # The file has padding after the manifest and between the arrays.
        assert manifest["layout"]["a1"]["offset"] == 64 and len(blob) == 88
        assert (CHECKPOINT_HEADER.size + CHECKPOINT_HEADER.unpack_from(
            raw)[1]) % 64 != 0
        for pos in range(len(raw)):
            flipped = bytearray(raw)
            flipped[pos] ^= 0xFF
            path.write_bytes(bytes(flipped))
            with pytest.raises(CheckpointCorruptError):
                load_checkpoint(path, expected_kind="t",
                                fallback_generations=False)
            loaded = load_checkpoint(path, expected_kind="t")
            assert loaded.fallback_generation == 1
            assert loaded.payload["v"] == 1
            (tmp_path / "s.npz.corrupt").unlink()
        path.write_bytes(raw)
        np.testing.assert_array_equal(load_checkpoint(path).payload["w"],
                                      payload["w"])

    def test_manifest_without_digests_is_corrupt(self, tmp_path):
        path = save_checkpoint(tmp_path / "s.npz", self._payload(), kind="t")
        self._rewrite_manifest(path, lambda m: m.pop("digests"))
        with pytest.raises(CheckpointCorruptError, match="no digests"):
            load_checkpoint(path, expected_kind="t")

    @pytest.mark.parametrize("field, value", [
        ("offset", 10 ** 6), ("offset", -64), ("shape", [3, 400]),
        ("shape", [-1, 4]), ("dtype", "<f16x")])
    def test_layout_tamper_falls_back_to_generation(self, tmp_path, field,
                                                    value):
        """A manifest layout that places an array outside the data member,
        or names no dtype, is corruption like a digest mismatch: the file
        is quarantined and the previous generation is restored."""
        path = tmp_path / "s.npz"
        save_checkpoint(path, {"x": np.arange(4.0), "v": 1}, kind="t",
                        keep_generations=2)
        save_checkpoint(path, self._payload(), kind="t", keep_generations=2)
        self._rewrite_manifest(
            path, lambda m: m["layout"]["a0"].update({field: value}))
        with pytest.raises(CheckpointCorruptError, match="'a0'"):
            load_checkpoint(path, expected_kind="t",
                            fallback_generations=False)
        loaded = load_checkpoint(path, expected_kind="t")
        assert loaded.fallback_generation == 1 and loaded.payload["v"] == 1
        np.testing.assert_array_equal(loaded.payload["x"], np.arange(4.0))
        assert (tmp_path / "s.npz.corrupt").exists()

    def test_concurrent_same_path_saves_do_not_collide(self, tmp_path):
        # Satellite regression: the temp name used to be pid-only, so two
        # threads saving one scene raced on the same temp file.
        path = tmp_path / "shared.npz"
        errors = []

        def hammer(value):
            try:
                for _ in range(10):
                    save_checkpoint(path, {"v": value,
                                           "x": np.full(64, value, float)},
                                    kind="t")
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        loaded = load_checkpoint(path, expected_kind="t")   # valid + verified
        assert float(loaded.payload["x"][0]) == loaded.payload["v"]
        assert not list(tmp_path.glob(".*tmp*"))            # no temp litter


class TestServiceRetries:
    def test_transient_execute_fault_retries_bit_exactly(self, rel_datasets,
                                                         rel_config):
        dataset = rel_datasets[0]
        reference = Trainer(DecoupledRadianceField(rel_config, seed=0),
                            dataset, config=rel_config, seed=0)
        history = TrainingHistory()
        reference.run_steps(6, history)

        injector = FaultInjector(seed=FAULT_SEED)
        injector.add("worker.execute", "raise-transient", times=1)
        with fault_injection(injector):
            with SceneService([dataset], rel_config, seed=0, n_workers=1,
                              retry_policy=FAST_RETRY) as service:
                first = service.train(dataset.name, n_steps=3)
                second = service.train(dataset.name, n_steps=3)
                losses = first.result(60).losses + second.result(60).losses
                stats = service.stats()
        assert stats["retries"] == 1
        assert stats["faults_injected"] == 1
        assert losses == list(history.losses)

    def test_transient_fault_exhaustion_poisons_the_job(self, rel_datasets,
                                                        rel_config):
        injector = FaultInjector(seed=FAULT_SEED)
        # Exactly max_attempts firings: every attempt of the first job
        # fails, and the probe render afterwards runs clean.
        injector.add("worker.execute", "raise-transient",
                     times=FAST_RETRY.max_attempts)
        with fault_injection(injector):
            with SceneService(rel_datasets[:1], rel_config, seed=0,
                              n_workers=1,
                              retry_policy=FAST_RETRY) as service:
                handle = service.train(rel_datasets[0].name, n_steps=1)
                with pytest.raises(JobPoisoned) as err:
                    handle.result(60)
                assert isinstance(err.value.__cause__, TransientFault)
                assert service.stats()["poisoned"] == 1
                # The service is still healthy afterwards.
                service.render(rel_datasets[0].name).result(60)

    def test_permanent_fault_fails_immediately(self, rel_datasets, rel_config):
        injector = FaultInjector(seed=FAULT_SEED)
        injector.add("worker.execute", "raise-permanent", times=1)
        with fault_injection(injector):
            with SceneService(rel_datasets[:1], rel_config, seed=0,
                              n_workers=1,
                              retry_policy=FAST_RETRY) as service:
                handle = service.train(rel_datasets[0].name, n_steps=1)
                with pytest.raises(PermanentFault):
                    handle.result(60)
                assert service.stats()["retries"] == 0

    def test_checkout_fault_retries_through_residency(self, rel_datasets,
                                                      rel_config, tmp_path):
        injector = FaultInjector(seed=FAULT_SEED)
        injector.add("residency.checkout", "raise-transient", times=1)
        with fault_injection(injector):
            with SceneService(rel_datasets, rel_config, seed=0, n_workers=1,
                              checkpoint_dir=tmp_path / "ckpts",
                              max_resident_scenes=1,
                              retry_policy=FAST_RETRY) as service:
                results = [service.train(ds.name, n_steps=2).result(60)
                           for ds in rel_datasets]
                stats = service.stats()
        assert stats["retries"] == 1
        assert [r.iteration for r in results] == [2, 2]

    def test_coalesced_batch_mates_requeue_individually(self, rel_datasets,
                                                        rel_config):
        dataset = rel_datasets[0]
        other = rel_datasets[1]
        injector = FaultInjector(seed=FAULT_SEED)
        # after=1 skips the blocker train's execute; the coalesced render
        # batch that formed behind it takes the (single) fault.
        injector.add("worker.execute", "raise-transient", after=1, times=1)
        with fault_injection(injector):
            with SceneService(rel_datasets, rel_config, seed=0, n_workers=1,
                              retry_policy=FAST_RETRY) as service:
                blocker = service.train(other.name, n_steps=20)
                lead = service.render(dataset.name)
                mate = service.render(dataset.name)
                blocker.result(60)
                lead_result = lead.result(60)
                mate_result = mate.result(60)
                stats = service.stats()
        assert stats["retries"] == 1           # the lead, charged one attempt
        assert stats["requeues"] == 1          # the innocent mate
        # Both completed, re-dispatched individually (solo, never re-coalesced).
        assert lead_result.batch_size == 1 and mate_result.batch_size == 1
        np.testing.assert_array_equal(lead_result.colors, mate_result.colors)

    def test_worker_crash_respawns_and_requeues(self, rel_datasets,
                                                rel_config):
        injector = FaultInjector(seed=FAULT_SEED)
        injector.add("worker.crash", "raise-transient", times=1)
        with fault_injection(injector):
            with SceneService(rel_datasets[:1], rel_config, seed=0,
                              n_workers=1,
                              retry_policy=FAST_RETRY) as service:
                handle = service.train(rel_datasets[0].name, n_steps=2)
                result = handle.result(60)
                assert result.iteration == 2
                # The respawned worker keeps serving.
                service.render(rel_datasets[0].name).result(60)
                stats = service.stats()
        assert stats["workers_respawned"] == 1
        assert stats["retries"] == 1


class TestServiceLimits:
    def test_queue_full_admission_control(self, rel_datasets, rel_config):
        injector = FaultInjector(seed=FAULT_SEED)
        # Deterministically pin the single worker inside its first job.
        injector.add("worker.execute", "delay", delay_s=0.4, times=1)
        with fault_injection(injector):
            with SceneService(rel_datasets[:1], rel_config, seed=0,
                              n_workers=1, max_queue_depth=1) as service:
                blocker = service.train(rel_datasets[0].name, n_steps=1)
                deadline = time.perf_counter() + 30.0
                while service._pending and time.perf_counter() < deadline:
                    time.sleep(0.001)          # until the worker claims it
                queued = service.render(rel_datasets[0].name)
                with pytest.raises(QueueFull):
                    service.render(rel_datasets[0].name)
                blocker.result(60)
                queued.result(60)

    def test_deadline_shed_before_execution(self, rel_datasets, rel_config):
        injector = FaultInjector(seed=FAULT_SEED)
        injector.add("worker.execute", "delay", delay_s=0.2, times=1)
        with fault_injection(injector):
            with SceneService(rel_datasets[:1], rel_config, seed=0,
                              n_workers=1) as service:
                blocker = service.train(rel_datasets[0].name, n_steps=1)
                deadline = time.perf_counter() + 30.0
                while service._pending and time.perf_counter() < deadline:
                    time.sleep(0.001)          # deadline jobs rank first:
                doomed = service.render(rel_datasets[0].name,  # submit after
                                        deadline_s=0.01)       # the claim
                blocker.result(60)
                with pytest.raises(DeadlineExceeded):
                    doomed.result(60)
                assert service.stats()["shed"] >= 1

    def test_cancel_pending_and_inflight_semantics(self, rel_datasets,
                                                   rel_config):
        injector = FaultInjector(seed=FAULT_SEED)
        injector.add("worker.execute", "delay", delay_s=0.3, times=1)
        with fault_injection(injector):
            with SceneService(rel_datasets[:1], rel_config, seed=0,
                              n_workers=1) as service:
                inflight = service.train(rel_datasets[0].name, n_steps=1)
                deadline = time.perf_counter() + 30.0
                while service._pending and time.perf_counter() < deadline:
                    time.sleep(0.001)
                pending = service.render(rel_datasets[0].name)
                assert inflight.cancel() is False    # claimed: no-op
                assert pending.cancel() is True
                assert pending.cancel() is False     # already done
                with pytest.raises(JobCancelled):
                    pending.result(1)
                assert inflight.result(60).iteration == 1
                assert service.stats()["cancelled"] == 1

    def test_concurrent_submit_vs_close_never_hangs(self, rel_datasets,
                                                    rel_config):
        service = SceneService(rel_datasets[:1], rel_config, seed=0,
                               n_workers=2)
        handles, rejected = [], []
        lock = threading.Lock()

        def client():
            for _ in range(8):
                try:
                    handle = service.render(rel_datasets[0].name)
                except RuntimeError:
                    with lock:
                        rejected.append(1)
                    return
                with lock:
                    handles.append(handle)

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.02)
        service.close()
        for thread in threads:
            thread.join()
        # Accepted-before-close handles either completed or were cancelled
        # at shutdown; nothing hangs or is left unset.
        outcomes = {"done": 0, "cancelled": 0}
        for handle in handles:
            try:
                handle.result(60)
                outcomes["done"] += 1
            except JobCancelled:
                outcomes["cancelled"] += 1
        assert outcomes["done"] + outcomes["cancelled"] == len(handles)

    def test_stats_under_contention(self, rel_datasets, rel_config):
        with SceneService(rel_datasets, rel_config, seed=0,
                          n_workers=2) as service:
            handles = [service.render(ds.name)
                       for ds in rel_datasets for _ in range(3)]
            errors = []

            def poll():
                try:
                    for _ in range(50):
                        snapshot = service.stats()
                        assert {"render_jobs", "retries", "shed",
                                "faults_injected"} <= set(snapshot)
                except BaseException as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            pollers = [threading.Thread(target=poll) for _ in range(3)]
            for thread in pollers:
                thread.start()
            for handle in handles:
                handle.result(60)
            for thread in pollers:
                thread.join()
            assert not errors


class TestGenerationFallbackInService:
    def test_truncated_checkpoint_falls_back_not_lost(self, rel_datasets,
                                                      rel_config, tmp_path):
        manager = ResidencyManager(rel_config, seed=0,
                                   checkpoint_dir=tmp_path / "ckpts",
                                   max_resident_scenes=1, keep_generations=2)
        for dataset in rel_datasets:
            manager.add_scene(dataset)
        lego, chair = rel_datasets[0].name, rel_datasets[1].name
        arena = WorkspaceArena()
        slot = manager.checkout(lego, arena)
        slot.trainer.run_steps(4, slot.history)
        manager.save(slot)
        slot.trainer.run_steps(4, slot.history)
        manager.save(slot)                      # rotates iter-4 file to .g1
        manager.checkout(chair, arena)          # evicts lego
        path = manager.checkpoint_path(lego)
        with open(path, "r+b") as handle:       # torn write of the newest
            handle.truncate(path.stat().st_size // 2)
        slot = manager.checkout(lego, arena)    # falls back, scene survives
        assert slot.trainer.iteration == 4
        assert manager.fallback_loads == 1
        assert manager.stats()["fallback_loads"] == 1.0
        assert path.with_name(path.name + ".corrupt").exists()
        # The recovered scene keeps training and re-checkpoints cleanly.
        slot.trainer.run_steps(2, slot.history)
        manager.save(slot)
        assert load_checkpoint(path, expected_kind="trainer",
                               fallback_generations=False).metadata[
                                   "iteration"] == 6


class TestCrossProcessRestore:
    """A new manager restores an on-disk scene's history with its trainer,
    even when the first attempt fails."""

    def _checkpointed(self, rel_datasets, rel_config, directory):
        manager = ResidencyManager(rel_config, seed=0,
                                   checkpoint_dir=directory)
        for dataset in rel_datasets:
            manager.add_scene(dataset)
        slot = manager.checkout(rel_datasets[0].name, WorkspaceArena())
        slot.trainer.run_steps(5, slot.history)
        manager.save(slot)
        return list(slot.history.losses)

    def test_failed_load_keeps_the_history_for_the_retry(
            self, rel_datasets, rel_config, tmp_path):
        losses = self._checkpointed(rel_datasets, rel_config, tmp_path)
        manager = ResidencyManager(rel_config, seed=0,
                                   checkpoint_dir=tmp_path)
        for dataset in rel_datasets:
            manager.add_scene(dataset)
        name = rel_datasets[0].name
        injector = FaultInjector(seed=0)
        injector.add("checkpoint.load", "raise-transient", times=1)
        with fault_injection(injector):
            with pytest.raises(TransientFault):
                manager.checkout(name, WorkspaceArena())
            assert manager.slot(name).history is None
            slot = manager.checkout(name, WorkspaceArena())    # the retry
        assert slot.trainer.iteration == 5
        assert slot.history.losses == losses

    def test_mismatched_checkpoint_leaves_no_history(self, rel_datasets,
                                                     rel_config, tmp_path):
        self._checkpointed(rel_datasets, rel_config, tmp_path)
        manager = ResidencyManager(rel_config, seed=1,
                                   checkpoint_dir=tmp_path)
        for dataset in rel_datasets:
            manager.add_scene(dataset)
        name = rel_datasets[0].name
        with pytest.raises(CheckpointError, match="seed"):
            manager.checkout(name, WorkspaceArena())
        assert manager.slot(name).history is None
        assert not manager.slot(name).resident


class TestChaosMixedLoad:
    """The acceptance scenario at test scale: p=0.05 faults, bit-equal results."""

    def _run(self, datasets, config, tmp_path, inject):
        if inject:
            injector = FaultInjector(seed=FAULT_SEED)
            for site in ("checkpoint.save", "checkpoint.load",
                         "worker.execute"):
                injector.add(site, "raise-transient", rate=0.05)
            install_injector(injector)
        try:
            policy = RetryPolicy(max_attempts=6, backoff_base_s=0.002,
                                 backoff_max_s=0.02)
            with SceneService(datasets, config, seed=0, n_workers=1,
                              checkpoint_dir=tmp_path, max_resident_scenes=1,
                              coalesce=False, keep_generations=2,
                              retry_policy=policy) as service:
                handles = []
                for round_index in range(4):
                    for dataset in datasets:
                        handles.append(service.train(dataset.name, n_steps=2))
                        handles.append(service.render(dataset.name))
                results = [handle.result(120) for handle in handles]
                stats = service.stats()
        finally:
            if inject:
                uninstall_injector()
        return results, stats

    def test_availability_and_bit_equality_under_faults(self, rel_datasets,
                                                        rel_config, tmp_path):
        reference, _ = self._run(rel_datasets, rel_config,
                                 tmp_path / "ref", inject=False)
        chaos, stats = self._run(rel_datasets, rel_config,
                                 tmp_path / "chaos", inject=True)
        assert stats["faults_injected"] > 0, \
            "chaos run injected nothing — rate/seed produce a vacuous test"
        assert stats["retries"] > 0
        assert stats["poisoned"] == 0          # availability 1.0
        assert len(chaos) == len(reference)
        for got, want in zip(chaos, reference):
            if hasattr(want, "losses"):
                assert got.losses == want.losses
                assert got.iteration == want.iteration
            else:
                np.testing.assert_array_equal(got.colors, want.colors)
                np.testing.assert_array_equal(got.depth, want.depth)
