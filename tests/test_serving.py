"""Serving-layer tests: staged pipeline differentials, residency, service.

The load-bearing guarantees:

* the stage-split :class:`~repro.nerf.pipeline.RenderPipeline` is
  **bit-identical** to the PR 7 monolithic forward/backward (dense and
  culled, float64 and float32) — enforced against a frozen in-test copy of
  the monolith;
* cross-request coalescing computes the same renders as per-request
  dispatch (to BLAS-reduction tolerance);
* the :class:`~repro.serving.residency.ResidencyManager` evicts in LRU
  order by default, respects pins, and a scene evicted mid-training resumes
  bit-identically, drawing from the ray table its scene already built;
* the :class:`~repro.serving.service.SceneService` preserves solo training
  trajectories under interleaved render+train jobs across more scenes than
  the residency cap, evicts the scene whose next queued job is farthest
  away, coalesces same-scene renders, honours priorities and propagates
  worker errors.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from test_pipeline import _reference_dense_run

from repro.core.model import DecoupledRadianceField
from repro.datasets import make_synthetic_scene
from repro.datasets.dataset import build_dataset
from repro.io import load_trainer_checkpoint
from repro.nerf.cameras import PinholeCamera, RayBundle, RayTable
from repro.nerf.pipeline import RenderPipeline, render_coalesced
from repro.nerf.sampling import (
    normalize_points_to_unit_cube,
    ray_points,
    stratified_samples,
)
from repro.nerf.volume_rendering import VolumeRenderer
from repro.serving import (
    JobCancelled,
    RenderJob,
    ResidencyManager,
    SceneService,
    TrainJob,
)
from repro.training.fleet import SceneFleet
from repro.training.trainer import Trainer, TrainingHistory, train_scene
from repro.utils.workspace import WorkspaceArena


# ---------------------------------------------------------------------------
# Frozen PR 7 oracle: the monolithic render_rays forward and backward gather
# exactly as they were before the stage split.  Deliberately arena-free (the
# arena only changes where buffers live, not their values).
# ---------------------------------------------------------------------------

def _monolithic_forward(pipeline, bundle, rng=None):
    """The pre-stage-split forward; returns (render, n_queried, keep_idx,
    renderer) so the matching backward can be replayed."""
    dtype = pipeline.policy.dtype
    n_rays, n_samples = bundle.n_rays, pipeline.n_samples
    t_vals, deltas = stratified_samples(bundle, n_samples, rng=rng,
                                        dtype=dtype)
    points, dirs = ray_points(bundle, t_vals, dtype=dtype)
    points_unit = normalize_points_to_unit_cube(points, pipeline.scene_bound,
                                                dtype=dtype)
    renderer = VolumeRenderer(
        white_background=pipeline.renderer.white_background,
        policy=pipeline.policy)
    keep_idx = None
    if pipeline.culling_active:
        keep = pipeline.occupancy.filter_samples(points_unit)
        if keep.all():
            sigma, rgb = pipeline.model.query(points_unit, dirs)
            render = renderer.forward(sigma.reshape(n_rays, n_samples),
                                      rgb.reshape(n_rays, n_samples, 3),
                                      deltas, t_vals)
            return render, int(keep.size), None, renderer
        sigma_plane = np.zeros(n_rays * n_samples, dtype=dtype)
        rgb_plane = np.zeros((n_rays * n_samples, 3), dtype=dtype)
        idx = np.flatnonzero(keep)
        n_queried = int(idx.size)
        keep_idx = idx
        if n_queried:
            kept_points = points_unit[idx]
            kept_dirs = dirs[idx]
            sigma, rgb = pipeline.model.query(kept_points, kept_dirs)
            sigma_plane[idx] = sigma
            rgb_plane[idx] = rgb
        render = renderer.forward(sigma_plane.reshape(n_rays, n_samples),
                                  rgb_plane.reshape(n_rays, n_samples, 3),
                                  deltas, t_vals)
        return render, n_queried, keep_idx, renderer
    sigma, rgb = pipeline.model.query(points_unit, dirs)
    render = renderer.forward(sigma.reshape(n_rays, n_samples),
                              rgb.reshape(n_rays, n_samples, 3),
                              deltas, t_vals)
    return render, n_rays * n_samples, None, renderer


def _monolithic_backward(renderer, grad_colors, keep_idx):
    grad_sigmas, grad_rgbs = renderer.backward(grad_colors)
    if keep_idx is None:
        return grad_sigmas.reshape(-1), grad_rgbs.reshape(-1, 3)
    return grad_sigmas.reshape(-1)[keep_idx], grad_rgbs.reshape(-1, 3)[keep_idx]


class _RaylessCamera(PinholeCamera):
    """A camera whose ray generation fails inside the service's worker."""

    def all_rays(self):
        raise ValueError("camera cannot generate rays")


def _resident(manager):
    """Sorted names of the manager's resident scenes."""
    return sorted(name for name in manager.scene_names
                  if manager.slot(name).resident)


def _make_dataset(name, image_size=10, n_train=3, n_test=1, seed=0):
    return build_dataset(make_synthetic_scene(name), n_train_views=n_train,
                         n_test_views=n_test, image_size=image_size,
                         seed=seed, gt_samples=16)


@pytest.fixture(scope="module")
def serving_datasets():
    return [_make_dataset(name) for name in ("lego", "chair", "drums")]


@pytest.fixture(scope="module", autouse=True)
def _fast_occupancy(occupancy_schedule):
    """Occupancy refreshes that fire within a few train-job steps."""
    with occupancy_schedule(warmup=4, every=2):
        yield


@pytest.fixture(scope="module")
def serving_config(request):
    config = request.getfixturevalue("tiny_config")
    return dataclasses.replace(config, culling_enabled=True)


class TestStagedPipelineDifferential:
    """The recomposed stages are the PR 7 monolith, bit for bit."""

    @pytest.fixture(scope="class", params=["float64", "float32"])
    def trained(self, request, tiny_config, tiny_dataset,
                occupancy_schedule):
        config = dataclasses.replace(
            tiny_config, culling_enabled=True, compute_dtype=request.param)
        model = DecoupledRadianceField(config, seed=0)
        trainer = Trainer(model, tiny_dataset, config=config, seed=0)
        with occupancy_schedule(warmup=8, every=4):
            for _ in range(60):
                trainer.train_step()
        # The grid must genuinely cull for the compacted path to be exercised.
        assert 0.0 < trainer.occupancy.occupancy_fraction < 1.0
        return trainer

    @pytest.mark.parametrize("culled", [False, True],
                             ids=["dense", "culled"])
    def test_forward_and_backward_match_monolith(self, trained, tiny_dataset,
                                                 culled):
        trainer = trained
        pipeline = RenderPipeline(
            trainer.model, tiny_dataset.scene_bound,
            n_samples=trainer.config.n_samples_per_ray,
            occupancy=trainer.occupancy if culled else None,
            policy=trainer.policy,
            arena=trainer.arena)
        bundle = tiny_dataset.test_views[0].camera.all_rays()
        grad_colors = np.random.default_rng(7).standard_normal(
            (bundle.n_rays, 3))

        # Staged path first; copy everything out of the arena buffers.
        out = pipeline.render_rays(bundle, rng=np.random.default_rng(5))
        staged_colors = np.array(out.render.colors, copy=True)
        staged_depth = np.array(out.render.depth, copy=True)
        gs, gr = pipeline.backward_to_points(grad_colors)
        staged_gs, staged_gr = np.array(gs, copy=True), np.array(gr, copy=True)

        render, n_queried, keep_idx, renderer = _monolithic_forward(
            pipeline, bundle, rng=np.random.default_rng(5))
        mono_gs, mono_gr = _monolithic_backward(renderer, grad_colors,
                                                keep_idx)

        assert out.n_queried == n_queried
        if culled:
            assert n_queried < out.n_total       # compaction actually ran
        np.testing.assert_array_equal(staged_colors, render.colors)
        np.testing.assert_array_equal(staged_depth, render.depth)
        np.testing.assert_array_equal(staged_gs, mono_gs)
        np.testing.assert_array_equal(staged_gr, mono_gr)


class TestCoalescedRendering:
    @pytest.fixture(scope="class")
    def trained(self, tiny_config, tiny_dataset, occupancy_schedule):
        config = dataclasses.replace(tiny_config, culling_enabled=True)
        model = DecoupledRadianceField(config, seed=0)
        trainer = Trainer(model, tiny_dataset, config=config, seed=0)
        with occupancy_schedule(warmup=8, every=4):
            for _ in range(60):
                trainer.train_step()
        return trainer

    def _pipeline(self, trainer, dataset):
        return RenderPipeline(
            trainer.model, dataset.scene_bound,
            n_samples=trainer.config.n_samples_per_ray,
            occupancy=trainer.occupancy, policy=trainer.policy,
            arena=trainer.arena)

    def test_matches_per_request(self, trained, tiny_dataset):
        pipeline = self._pipeline(trained, tiny_dataset)
        bundles = [view.camera.all_rays() for view in tiny_dataset.test_views]
        bundles = bundles * 2                       # repeated requests too
        views = render_coalesced(pipeline, bundles, arena=trained.arena)
        assert len(views) == len(bundles)
        for bundle, view in zip(bundles, views):
            solo = pipeline.render_rays(bundle, rng=None)
            assert view.n_queried == solo.n_queried
            assert view.n_total == solo.n_total
            np.testing.assert_allclose(view.colors, solo.render.colors,
                                       rtol=0, atol=1e-8)
            np.testing.assert_allclose(view.depth, solo.render.depth,
                                       rtol=0, atol=1e-8)

    def test_empty_and_single(self, trained, tiny_dataset):
        pipeline = self._pipeline(trained, tiny_dataset)
        assert render_coalesced(pipeline, [], arena=trained.arena) == []
        bundle = tiny_dataset.test_views[0].camera.all_rays()
        [view] = render_coalesced(pipeline, [bundle], arena=trained.arena)
        solo = pipeline.render_rays(bundle, rng=None)
        np.testing.assert_allclose(view.colors, solo.render.colors,
                                   rtol=0, atol=1e-8)

    def test_all_culled_requests_render_background(self, trained, tiny_dataset):
        """A bundle whose samples are all in empty cells still composites."""
        pipeline = self._pipeline(trained, tiny_dataset)
        camera = tiny_dataset.test_views[0].camera
        bundle = camera.all_rays()
        # Aim every ray at a far corner of empty space.
        corner = RayBundle(
            origins=np.full_like(bundle.origins, -40.0),
            directions=bundle.directions,
            near=bundle.near, far=bundle.far)
        sample = pipeline.stage_samples(corner, rng=None)
        if pipeline.stage_cull(sample).n_queried:
            pytest.skip("trained grid keeps boundary cells; no empty bundle")
        views = render_coalesced(pipeline, [corner, bundle],
                                 arena=trained.arena)
        assert views[0].n_queried == 0
        np.testing.assert_array_equal(views[0].colors,
                                      np.ones_like(views[0].colors))
        solo = pipeline.render_rays(bundle, rng=None)
        np.testing.assert_allclose(views[1].colors, solo.render.colors,
                                   rtol=0, atol=1e-8)


class TestResidencyManager:
    def test_lru_eviction_order(self, serving_datasets, serving_config,
                                tmp_path):
        manager = ResidencyManager(serving_config, seed=0,
                                   checkpoint_dir=tmp_path,
                                   max_resident_scenes=2)
        for dataset in serving_datasets:
            manager.add_scene(dataset)
        lego, chair, drums = [d.name for d in serving_datasets]
        arena = WorkspaceArena()
        manager.checkout(lego, arena)
        manager.checkout(chair, arena)
        manager.checkout(lego, arena)     # touch: chair is now the LRU scene
        manager.checkout(drums, arena)    # over cap -> evict chair, not lego
        assert _resident(manager) == sorted([lego, drums])
        assert manager.slot(chair).on_disk
        assert manager.evictions == 1
        manager.checkout(chair, arena)    # LRU is now lego
        assert _resident(manager) == sorted([chair, drums])
        assert manager.evictions == 2
        assert manager.peak_resident == 2

    def test_make_room_respects_pins(self, serving_datasets, serving_config,
                                     tmp_path):
        manager = ResidencyManager(serving_config, seed=0,
                                   checkpoint_dir=tmp_path,
                                   max_resident_scenes=1)
        for dataset in serving_datasets[:2]:
            manager.add_scene(dataset)
        lego, chair = [d.name for d in serving_datasets[:2]]
        arena = WorkspaceArena()
        manager.checkout(lego, arena)
        # A pinned scene is never evicted even over cap: the bound stretches.
        manager.checkout(chair, arena, pinned={lego})
        assert _resident(manager) == sorted([lego, chair])
        assert manager.evictions == 0
        assert manager.peak_resident == 2

    def test_victim_key_never_picks_a_pinned_scene(
            self, serving_datasets, serving_config, tmp_path):
        manager = ResidencyManager(serving_config, seed=0,
                                   checkpoint_dir=tmp_path,
                                   max_resident_scenes=2)
        for dataset in serving_datasets:
            manager.add_scene(dataset)
        lego, chair, drums = [d.name for d in serving_datasets]
        arena = WorkspaceArena()
        manager.checkout(lego, arena)
        manager.checkout(chair, arena)
        # The key ranks lego first, but lego is pinned: chair goes.
        manager.checkout(drums, arena, pinned={lego},
                         victim_key=lambda slot: slot.name != lego)
        assert _resident(manager) == sorted([lego, drums])
        assert manager.evictions == 1

    def test_restored_trainer_reuses_the_scene_ray_table(
            self, serving_datasets, serving_config, tmp_path, monkeypatch):
        """A trainer restored after eviction draws from the table its
        scene built for the evicted trainer, and its first batch is a
        fresh trainer's at the same iteration, bit for bit."""
        builds = []
        build = RayTable._build
        monkeypatch.setattr(RayTable, "_build",
                            lambda table: (builds.append(table), build(table)))
        lego = dataclasses.replace(serving_datasets[0])   # table not built yet
        manager = ResidencyManager(serving_config, seed=0,
                                   checkpoint_dir=tmp_path,
                                   max_resident_scenes=1)
        slot = manager.add_scene(lego)
        manager.add_scene(serving_datasets[1])
        arena = WorkspaceArena()
        manager.checkout(lego.name, arena)
        slot.trainer.run_steps(3, slot.history)
        manager.checkout(serving_datasets[1].name, arena)     # evicts lego
        manager.checkout(lego.name, arena)                    # restores it
        restored = slot.trainer
        assert manager.checkpoint_loads == 1
        assert restored.scheduler.table is lego.ray_table
        solo = Trainer(DecoupledRadianceField(serving_config, seed=0),
                       dataclasses.replace(serving_datasets[0]),
                       config=serving_config, seed=0)
        solo.run_steps(3, TrainingHistory())
        got = restored.scheduler.sample_batch(
            copy.deepcopy(restored._pixel_rng))
        want = solo.scheduler.sample_batch(copy.deepcopy(solo._pixel_rng))
        assert [table is lego.ray_table for table in builds].count(True) == 1
        for a, b in ((got[0].origins, want[0].origins),
                     (got[0].directions, want[0].directions),
                     (got[1], want[1])):
            assert np.array_equal(a, b)

    def test_registry_validation(self, serving_datasets, serving_config):
        manager = ResidencyManager(serving_config, seed=0)
        manager.add_scene(serving_datasets[0])
        with pytest.raises(ValueError, match="duplicate scene name"):
            manager.add_scene(serving_datasets[0])
        with pytest.raises(ValueError, match="unknown scene"):
            manager.slot("no-such-scene")
        with pytest.raises(ValueError, match="requires a checkpoint_dir"):
            ResidencyManager(serving_config, max_resident_scenes=1)

    @pytest.mark.parametrize("keep", [0, 65])
    def test_keep_generations_validated_at_construction(
            self, serving_datasets, serving_config, tmp_path, keep):
        """An out-of-range generation count fails at construction in both
        front ends, not at the first eviction or at close()."""
        with pytest.raises(ValueError, match="keep_generations"):
            SceneService(serving_datasets, serving_config,
                         checkpoint_dir=tmp_path, max_resident_scenes=1,
                         keep_generations=keep)
        with pytest.raises(ValueError, match="keep_generations"):
            SceneFleet(serving_datasets, serving_config,
                       checkpoint_dir=tmp_path, max_resident_scenes=1,
                       keep_generations=keep)

    def test_resume_after_evict_bit_identity(self, serving_datasets,
                                             serving_config, tmp_path):
        """Evict mid-training, continue elsewhere on the same arena, come
        back: the trajectory is the uninterrupted one, bit for bit."""
        lego, chair = serving_datasets[0], serving_datasets[1]
        manager = ResidencyManager(serving_config, seed=0,
                                   checkpoint_dir=tmp_path,
                                   max_resident_scenes=1)
        slot_a = manager.add_scene(lego)
        slot_b = manager.add_scene(chair)
        arena = WorkspaceArena()
        manager.checkout(lego.name, arena)
        slot_a.trainer.run_steps(5, slot_a.history)
        manager.checkout(chair.name, arena)        # evicts lego mid-run
        assert not slot_a.resident and slot_a.on_disk
        slot_b.trainer.run_steps(5, slot_b.history)
        manager.checkout(lego.name, arena)         # evicts chair, restores lego
        slot_a.trainer.run_steps(5, slot_a.history)
        assert manager.evictions == 2

        reference = train_scene(lego, serving_config, 10, seed=0,
                                eval_views=1, eval_samples=8)
        assert slot_a.history.losses == reference.history.losses
        assert slot_a.trainer.iteration == 10


class TestSceneService:
    def test_interleaved_jobs_keep_solo_trajectories_across_cap(
            self, serving_datasets, serving_config, tmp_path):
        """> cap scenes, render+train interleaved: every scene's losses match
        solo training exactly (evict/restore cycles included)."""
        with SceneService(serving_datasets, serving_config, seed=0,
                          n_workers=1, checkpoint_dir=tmp_path,
                          max_resident_scenes=1) as service:
            handles = {d.name: [] for d in serving_datasets}
            for dataset in serving_datasets:
                handles[dataset.name].append(
                    service.train(dataset.name, n_steps=4))
            renders = [service.render(d.name) for d in serving_datasets]
            for dataset in serving_datasets:
                handles[dataset.name].append(
                    service.train(dataset.name, n_steps=4))
            losses = {name: [loss for handle in hs
                             for loss in handle.result(60).losses]
                      for name, hs in handles.items()}
            for handle in renders:
                result = handle.result(60)
                assert result.colors.shape == (10, 10, 3)
                assert np.all(result.colors >= 0) and np.all(result.colors <= 1)
            stats = service.stats()
        assert stats["evictions"] > 0
        assert stats["peak_resident_scenes"] <= 1
        for dataset in serving_datasets:
            reference = train_scene(dataset, serving_config, 8, seed=0,
                                    eval_views=1, eval_samples=8)
            assert losses[dataset.name] == reference.history.losses

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_queued_rounds_evict_the_scene_needed_last(
            self, serving_datasets, serving_config, tmp_path, n_workers):
        """Three scenes, cap 2, rounds of one train job per scene queued
        together: with the queue in view a round costs at most two
        evictions (LRU costs three), and every scene's parameters equal a
        solo trainer's bit for bit."""
        rounds, steps = 4, 2
        names = [d.name for d in serving_datasets]
        with SceneService(serving_datasets, serving_config, seed=0,
                          n_workers=n_workers, checkpoint_dir=tmp_path,
                          max_resident_scenes=2) as service:
            for _ in range(rounds):
                with service._cv:      # the workers see the whole round
                    handles = [service.train(name, n_steps=steps)
                               for name in names]
                for handle in handles:
                    handle.result(60)
            evictions = service.stats()["evictions"]
        if n_workers == 1:
            assert evictions <= 2 * rounds
        probe = ResidencyManager(serving_config, seed=0,
                                 checkpoint_dir=tmp_path)
        for dataset in serving_datasets:
            solo = Trainer(DecoupledRadianceField(serving_config, seed=0),
                           dataset, config=serving_config, seed=0)
            solo.run_steps(rounds * steps, TrainingHistory())
            served = Trainer(DecoupledRadianceField(serving_config, seed=0),
                             dataset, config=serving_config, seed=0)
            load_trainer_checkpoint(probe.checkpoint_path(dataset.name),
                                    served)
            assert served.iteration == rounds * steps
            for a, b in zip(served.model.density_parameters()
                            + served.model.color_parameters(),
                            solo.model.density_parameters()
                            + solo.model.color_parameters()):
                assert np.array_equal(a.data, b.data)

    def test_single_client_train_matches_frozen_reference(
            self, serving_datasets, tiny_config):
        """Training through the job queue (submit -> worker thread ->
        residency checkout), split across two jobs, reproduces the frozen
        pre-pipeline loop bit for bit."""
        lego = serving_datasets[0]
        _, ref_losses = _reference_dense_run(lego, tiny_config,
                                             seed=0, n_steps=10)
        with SceneService([lego], tiny_config, seed=0, n_workers=1,
                          coalesce=False) as service:
            first = service.train(lego.name, n_steps=5)
            second = service.train(lego.name, n_steps=5)
            losses = first.result(60).losses + second.result(60).losses
        assert losses == ref_losses

    def test_worker_arena_serves_every_checked_out_trainer(
            self, serving_datasets, serving_config, tmp_path):
        """The worker's arena is the one its trainers step in: every
        resident trainer holds the same arena, and a TrainJob on a scene
        just restored from its checkpoint does not grow it."""
        with SceneService(serving_datasets, serving_config, seed=0,
                          n_workers=1, checkpoint_dir=tmp_path,
                          max_resident_scenes=2) as service:
            # Warm-up past the first occupancy refreshes, with renders.
            for _ in range(2):
                for dataset in serving_datasets:
                    service.train(dataset.name, n_steps=4).result(60)
                    service.render(dataset.name).result(60)
            residency = service._residency
            slots = [residency.slot(name) for name in residency.scene_names]
            resident = [slot for slot in slots if slot.resident]
            assert len(resident) == 2
            arena = resident[0].trainer.arena
            assert all(slot.trainer.arena is arena for slot in resident)
            [evicted] = [slot for slot in slots if not slot.resident]
            loads, misses = residency.checkpoint_loads, arena.misses
            service.train(evicted.name, n_steps=4).result(60)
            assert residency.checkpoint_loads == loads + 1
            assert evicted.trainer.arena is arena
            assert arena.misses == misses

    def test_coalesces_same_scene_renders(self, serving_datasets,
                                          serving_config):
        lego, chair = serving_datasets[0], serving_datasets[1]
        with SceneService([lego, chair], serving_config, seed=0,
                          n_workers=1, coalesce=True) as service:
            # Occupy the single worker so the renders queue up behind it.
            blocker = service.train(chair.name, n_steps=30)
            same = [service.render(lego.name, n_samples=8) for _ in range(3)]
            other = service.render(lego.name, n_samples=4)
            blocker.result(60)
            batch_sizes = sorted(h.result(60).batch_size for h in same)
            assert batch_sizes == [3, 3, 3]
            assert other.result(60).batch_size == 1
            stats = service.stats()
        assert stats["max_batch_size"] == 3
        assert stats["batches"] == 2

    def test_per_request_mode_never_batches(self, serving_datasets,
                                            serving_config):
        lego, chair = serving_datasets[0], serving_datasets[1]
        with SceneService([lego, chair], serving_config, seed=0,
                          n_workers=1, coalesce=False) as service:
            blocker = service.train(chair.name, n_steps=30)
            handles = [service.render(lego.name) for _ in range(3)]
            assert all(h.result(60).batch_size == 1 for h in handles)
            blocker.result(60)

    def test_priority_orders_queued_jobs(self, serving_datasets,
                                         serving_config):
        with SceneService(serving_datasets, serving_config, seed=0,
                          n_workers=1) as service:
            blocker = service.train(serving_datasets[0].name, n_steps=30)
            low = service.render(serving_datasets[1].name, priority=5)
            high = service.render(serving_datasets[2].name, priority=0)
            blocker.result(60)
            # The single worker must run the priority-0 job first even though
            # it was submitted later; the later-run job's latency includes
            # the earlier one's execution.
            assert high.result(60).service_ms < low.result(60).service_ms

    def test_expired_deadline_is_shed_by_default(self, serving_datasets,
                                                 serving_config):
        from repro.serving import DeadlineExceeded

        with SceneService(serving_datasets[:1], serving_config, seed=0,
                          n_workers=1) as service:
            blocker = service.train(serving_datasets[0].name, n_steps=30)
            late = service.render(serving_datasets[0].name, deadline_s=1e-9)
            blocker.result(60)
            with pytest.raises(DeadlineExceeded):
                late.result(60)
            assert service.stats()["shed"] >= 1

    def test_deadline_miss_is_counted_when_shedding_disabled(
            self, serving_datasets, serving_config):
        with SceneService(serving_datasets[:1], serving_config, seed=0,
                          n_workers=1, shed_expired=False) as service:
            blocker = service.train(serving_datasets[0].name, n_steps=30)
            late = service.render(serving_datasets[0].name, deadline_s=1e-9)
            blocker.result(60)
            assert late.result(60).deadline_missed
            assert service.stats()["deadline_misses"] >= 1

    def test_submit_validation_and_close(self, serving_datasets,
                                         serving_config):
        service = SceneService(serving_datasets[:1], serving_config, seed=0,
                               n_workers=1)
        with pytest.raises(ValueError, match="unknown scene"):
            service.render("no-such-scene")
        with pytest.raises(ValueError, match="n_steps"):
            service.train(serving_datasets[0].name, n_steps=0)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.render(serving_datasets[0].name)
        service.close()                       # idempotent

    def test_submit_rejects_non_positive_train_steps(self, serving_datasets,
                                                     serving_config):
        """``submit`` is the one check site: a raw TrainJob that would train
        nothing is refused like ``service.train(scene, 0)``."""
        scene = serving_datasets[0].name
        with SceneService(serving_datasets[:1], serving_config, seed=0,
                          n_workers=1) as service:
            for n_steps in (0, -3):
                with pytest.raises(ValueError, match="n_steps"):
                    service.submit(TrainJob(scene=scene, n_steps=n_steps))
            assert service.stats()["train_jobs"] == 0

    def test_submit_rejects_non_positive_render_samples(self, serving_datasets,
                                                        serving_config):
        """An invalid render is refused before it reaches a worker, so it
        cannot evict a resident scene or load a checkpoint for nothing."""
        scene = serving_datasets[0].name
        service = SceneService(serving_datasets[:1], serving_config, seed=0,
                               n_workers=1)
        for n_samples in (0, -2):
            with pytest.raises(ValueError, match="n_samples"):
                service.submit(RenderJob(scene=scene, n_samples=n_samples))
        service.close()
        stats = service.stats()
        assert stats["batches"] == 0
        assert stats["peak_resident_scenes"] == 0

    def test_submit_rejects_nan_deadline(self, serving_datasets,
                                         serving_config):
        """NaN compares false both ways, so one NaN deadline would break the
        earliest-deadline order of every other pending job."""
        scene = serving_datasets[0].name
        with SceneService(serving_datasets[:1], serving_config, seed=0,
                          n_workers=1) as service:
            for job in (RenderJob(scene=scene, deadline_s=float("nan")),
                        TrainJob(scene=scene, deadline_s=float("nan"))):
                with pytest.raises(ValueError, match="deadline_s"):
                    service.submit(job)
            assert service.stats()["batches"] == 0

    def test_zero_and_negative_deadlines_are_shed(self, serving_datasets,
                                                  serving_config):
        """Non-positive deadlines are valid and already expired."""
        from repro.serving import DeadlineExceeded

        scene = serving_datasets[0].name
        with SceneService(serving_datasets[:1], serving_config, seed=0,
                          n_workers=1) as service:
            for deadline in (0.0, -1.0):
                with pytest.raises(DeadlineExceeded):
                    service.render(scene, deadline_s=deadline).result(60)

    def test_worker_error_propagates_to_client(self, serving_datasets,
                                               serving_config):
        view = serving_datasets[0].test_views[0].camera
        broken = _RaylessCamera(width=view.width, height=view.height,
                                focal=view.focal, pose=view.pose)
        with SceneService(serving_datasets[:1], serving_config, seed=0,
                          n_workers=1) as service:
            handle = service.submit(RenderJob(scene=serving_datasets[0].name,
                                              camera=broken))
            with pytest.raises(ValueError, match="cannot generate rays"):
                handle.result(60)
            # The service survives the failed job.
            ok = service.render(serving_datasets[0].name)
            assert ok.result(60).n_rays == 100


class TestFleetResidencyStats:
    def test_summary_reports_residency(self, serving_datasets, serving_config,
                                       tmp_path):
        fleet = SceneFleet(serving_datasets, serving_config, seed=0,
                           slice_iterations=2, checkpoint_dir=tmp_path,
                           max_resident_scenes=1)
        result = fleet.train(4, eval_views=1, eval_samples=8)
        assert result.evictions > 0
        assert result.peak_resident_scenes == 1
        assert result.checkpoint_save_ms > 0
        assert result.checkpoint_load_ms > 0
