"""The multi-tenant scene service: a job queue over shared trainers.

:class:`SceneService` is the front end of the serving layer.  Clients
submit :class:`~repro.serving.jobs.RenderJob` / fine-tune
:class:`~repro.serving.jobs.TrainJob` requests and get back
:class:`~repro.serving.jobs.JobHandle` futures; worker threads drain a
``(priority, deadline, arrival)``-ordered queue, keeping each scene's
trainer resident under the :class:`~repro.serving.residency.ResidencyManager`'s
``max_resident_scenes`` checkpoint-eviction cap.

Two engine-utilization levers from the training stack carry over:

* **cross-request ray batching** — when a worker dequeues a render job it
  also grabs every other pending render job for the *same scene* (same
  sample count, within ``max_coalesced_rays``) and runs them as one
  coalesced field query (:func:`~repro.serving.batching.render_coalesced`)
  instead of per-request calls;
* **per-worker workspace arenas** — each worker owns one
  :class:`~repro.utils.workspace.WorkspaceArena` for its pipeline and
  coalescer temporaries, so steady-state serving performs no large
  allocations (buffer names are bounded: pipeline sites plus
  ``serve/<slot>/...`` retention sites).

Determinism: renders are jitter-free and consume no training RNG, so any
mix of render and train jobs leaves every scene's training trajectory
bit-identical to solo :class:`~repro.training.trainer.Trainer` runs — train
jobs for one scene execute under that scene's lock in submission order
(they never coalesce and never run concurrently with that scene's renders).

Fault tolerance (see ``docs/reliability.md``): a failed job is classified
by the service's :class:`~repro.reliability.retry.RetryPolicy` — transient
errors requeue the job with deterministic exponential backoff (implemented
as a ``not_before`` timestamp, so workers keep draining other jobs instead
of sleeping), permanent errors fail the handle immediately, and a job that
exhausts its attempts is quarantined with
:class:`~repro.serving.jobs.JobPoisoned`.  Innocent batch-mates of a failed
coalesced render are requeued individually (``solo``), never failed with
the lead.  A worker thread that dies outside the per-batch handler is
respawned and its claimed jobs requeued.  Deadlines are enforced (expired
jobs shed with :class:`~repro.serving.jobs.DeadlineExceeded` before
execution) and ``max_queue_depth`` bounds the queue via
:class:`~repro.serving.jobs.QueueFull` admission control.

Retried train jobs stay bit-exact: the first attempt records the target
iteration, and a retry runs only the remaining steps — fault sites sit at
step boundaries, so the trajectory is the solo trainer's exactly.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.config import Instant3DConfig
from repro.datasets.dataset import SceneDataset
from repro.nerf.cameras import PinholeCamera
from repro.nerf.pipeline import RenderPipeline
from repro.reliability.faults import fault_point, get_injector
from repro.reliability.health import NumericalFault
from repro.reliability.retry import RetryPolicy
from repro.serving.batching import DEFAULT_CHUNK_POINTS, render_coalesced
from repro.serving.jobs import (
    DeadlineExceeded,
    JobCancelled,
    JobHandle,
    JobPoisoned,
    QueueFull,
    RenderJob,
    RenderResult,
    TrainJob,
    TrainResult,
)
from repro.serving.residency import ResidencyManager
from repro.utils.workspace import WorkspaceArena

__all__ = ["SceneService"]


class SceneService:
    """Queue-scheduled rendering and fine-tuning over a set of scenes.

    Parameters
    ----------
    datasets:
        Scenes this service can serve (unique names; one trainer each,
        built lazily on first use with the shared ``config``/``seed`` so
        trajectories match solo training).
    config / seed:
        Shared training configuration and base seed.
    n_workers:
        Worker threads draining the queue.  One worker already benefits
        from coalescing (queued same-scene renders merge); more workers add
        scene-level parallelism.
    checkpoint_dir / max_resident_scenes:
        Residency cap plumbing, exactly as on
        :class:`~repro.training.fleet.SceneFleet`: over-cap scenes are
        checkpointed and restored on demand (LRU victims).  Note workers
        pin the scenes they are executing, so with more workers than the
        cap the bound stretches to the number of busy scenes.
    coalesce:
        Merge pending same-scene render jobs into one engine stream
        (``False`` = per-request dispatch).
    max_coalesced_rays:
        Ray budget of one coalesced batch (the lead job always runs, even
        if it alone exceeds the budget).
    retry_policy:
        Transient-failure retry/backoff policy (default:
        :class:`~repro.reliability.retry.RetryPolicy` with 3 attempts;
        pass ``RetryPolicy(max_attempts=1)`` to disable retries).
    max_queue_depth:
        Admission-control bound on queued jobs; ``submit`` raises
        :class:`~repro.serving.jobs.QueueFull` beyond it.  ``None`` =
        unbounded.  Internal requeues (retries, batch-mates) are exempt so
        backpressure never cancels accepted work.
    shed_expired:
        Enforce deadlines: fail jobs whose deadline passed while queued
        with :class:`~repro.serving.jobs.DeadlineExceeded` instead of
        running them (``False`` restores the soft, accounting-only
        contract).
    keep_generations:
        Checkpoint generations retained per scene (forwarded to the
        :class:`~repro.serving.residency.ResidencyManager`; ``N > 1``
        enables corruption fallback to older snapshots).
    """

    def __init__(self, datasets: Sequence[SceneDataset], config: Instant3DConfig,
                 seed: int = 0, n_workers: int = 1,
                 checkpoint_dir: Optional[Union[str, Path]] = None,
                 max_resident_scenes: Optional[int] = None,
                 coalesce: bool = True, max_coalesced_rays: int = 65536,
                 retry_policy: Optional[RetryPolicy] = None,
                 max_queue_depth: Optional[int] = None,
                 shed_expired: bool = True,
                 keep_generations: int = 1):
        if not datasets:
            raise ValueError("SceneService needs at least one dataset")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if max_coalesced_rays < 1:
            raise ValueError("max_coalesced_rays must be >= 1")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 or None")
        self.config = config
        self.seed = int(seed)
        self.coalesce = bool(coalesce)
        self.max_coalesced_rays = int(max_coalesced_rays)
        self.shed_expired = bool(shed_expired)
        self.max_queue_depth = max_queue_depth
        self._retry_policy = (retry_policy if retry_policy is not None
                              else RetryPolicy())
        self._residency = ResidencyManager(
            config, seed=seed, checkpoint_dir=checkpoint_dir,
            max_resident_scenes=max_resident_scenes,
            keep_generations=keep_generations)
        for dataset in datasets:
            self._residency.add_scene(dataset)
        self._residency_lock = threading.Lock()
        self._scene_locks: Dict[str, threading.Lock] = {
            dataset.name: threading.Lock() for dataset in datasets}
        self._cv = threading.Condition()
        self._pending: List[JobHandle] = []
        self._busy: set = set()            # scene names a worker is executing
        self._claimed: Dict[int, List[JobHandle]] = {}   # worker -> its batch
        self._closed = False
        self._seq = 0
        self._stats = {
            "render_jobs": 0, "train_jobs": 0, "batches": 0,
            "coalesced_jobs": 0, "max_batch_size": 0, "deadline_misses": 0,
            "retries": 0, "requeues": 0, "shed": 0, "poisoned": 0,
            "cancelled": 0, "workers_respawned": 0,
        }
        #: Scenes quarantined by a NumericalFault: training diverged past
        #: the rollback budget.  Submissions for them are rejected up
        #: front — the divergence is deterministic, so re-running the job
        #: would poison the scene identically.
        self._poisoned_scenes: set = set()
        self._workers = [
            threading.Thread(target=self._worker_main, args=(index,),
                             name=f"scene-service-{index}", daemon=True)
            for index in range(n_workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- client API -----------------------------------------------------------
    @property
    def scene_names(self) -> List[str]:
        return self._residency.scene_names

    def submit(self, job) -> JobHandle:
        """Enqueue a job and return its handle (raises if the service is
        closed, the scene unknown, or the queue full)."""
        with self._cv:
            if job.scene in self._poisoned_scenes:
                raise JobPoisoned(
                    f"scene {job.scene!r} is quarantined: its training "
                    f"diverged past the rollback budget (NumericalFault); "
                    f"further jobs would replay the same divergence")
        with self._residency_lock:
            # Workers mutate residency state in checkout(); even the
            # read-only slot lookup must serialise behind the same lock.
            slot = self._residency.slot(job.scene)   # validates the scene name
        camera = None
        n_rays = 0
        if job.kind == "render":
            camera = job.camera
            if camera is None:
                if not slot.dataset.test_views:
                    raise ValueError(
                        f"scene {job.scene!r} has no test views; pass an "
                        "explicit camera on the RenderJob")
                camera = slot.dataset.test_views[0].camera
            n_rays = camera.n_pixels
        elif job.kind != "train":
            raise TypeError(f"unknown job kind {getattr(job, 'kind', None)!r}")
        with self._cv:
            if self._closed:
                raise RuntimeError("cannot submit to a closed SceneService")
            if (self.max_queue_depth is not None
                    and len(self._pending) >= self.max_queue_depth):
                raise QueueFull(
                    f"queue depth {len(self._pending)} at the "
                    f"max_queue_depth={self.max_queue_depth} bound; "
                    f"retry after the backlog drains")
            self._seq += 1
            handle = JobHandle(job=job, seq=self._seq,
                               submitted_at=time.perf_counter(),
                               camera=camera, n_rays=n_rays)
            handle._canceller = self._cancel_pending
            self._pending.append(handle)
            self._cv.notify_all()
        return handle

    def _cancel_pending(self, handle: JobHandle) -> bool:
        """Back end of :meth:`JobHandle.cancel`: withdraw a queued job."""
        with self._cv:
            if handle not in self._pending:
                return False            # running, retired, or already done
            self._pending.remove(handle)
            self._stats["cancelled"] += 1
            handle._fail(JobCancelled(
                f"job {handle.seq} cancelled by the client before execution"))
            return True

    def render(self, scene: str, camera: Optional[PinholeCamera] = None,
               n_samples: Optional[int] = None, priority: int = 0,
               deadline_s: Optional[float] = None) -> JobHandle:
        """Convenience wrapper: submit a :class:`RenderJob`."""
        return self.submit(RenderJob(scene=scene, camera=camera,
                                     n_samples=n_samples, priority=priority,
                                     deadline_s=deadline_s))

    def train(self, scene: str, n_steps: int = 1, priority: int = 0,
              deadline_s: Optional[float] = None) -> JobHandle:
        """Convenience wrapper: submit a :class:`TrainJob`."""
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        return self.submit(TrainJob(scene=scene, n_steps=n_steps,
                                    priority=priority, deadline_s=deadline_s))

    def stats(self) -> Dict[str, float]:
        """Service counters plus the residency manager's eviction stats."""
        with self._cv:
            counters = dict(self._stats)
            poisoned_scenes = len(self._poisoned_scenes)
        batches = max(counters["batches"], 1)
        out = {key: float(value) for key, value in counters.items()}
        out["mean_batch_size"] = counters["coalesced_jobs"] / batches
        out["poisoned_scenes"] = float(poisoned_scenes)
        injector = get_injector()
        out["faults_injected"] = (float(injector.faults_injected)
                                  if injector is not None else 0.0)
        with self._residency_lock:
            out.update(self._residency.stats())
            out.update(self._residency.health_stats())
        return out

    def close(self, save: Optional[bool] = None) -> None:
        """Drain the queue, stop the workers and release every trainer.

        Already-submitted jobs complete; new submissions raise.  ``save``
        is forwarded to :meth:`ResidencyManager.flush` (default: checkpoint
        exactly when a ``checkpoint_dir`` is configured).
        """
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._cv.notify_all()
        # A crashing worker may respawn a replacement mid-join, so join
        # until the worker list is stable and fully dead.
        while True:
            with self._cv:
                threads = list(self._workers)
            for thread in threads:
                thread.join()
            with self._cv:
                if all(not thread.is_alive() for thread in self._workers):
                    break
        # Workers are gone; fail anything that slipped through unclaimed.
        with self._cv:
            leftovers = list(self._pending)
            self._pending.clear()
        for handle in leftovers:
            handle._fail(JobCancelled("service closed before the job ran"))
        with self._residency_lock:
            self._residency.flush(save=save)

    def __enter__(self) -> "SceneService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- worker side ----------------------------------------------------------
    def _shed_expired(self, now: float) -> None:
        """Fail queued jobs whose deadline already passed; ``_cv`` held."""
        expired = [handle for handle in self._pending if handle.expired(now)]
        for handle in expired:
            self._pending.remove(handle)
            self._stats["shed"] += 1
            handle._fail(DeadlineExceeded(
                f"job {handle.seq} ({handle.job.kind} of scene "
                f"{handle.job.scene!r}) expired its {handle.job.deadline_s}s "
                f"deadline while queued; shed without executing"))

    def _take_batch(self, now: float) -> Optional[List[JobHandle]]:
        """Pick the best runnable job (+ coalescable friends); lock held.

        Per-scene submission order is preserved: only the best-ranked
        pending job of a scene may lead a batch, so a scene whose best job
        is deferred (retry backoff) yields no work this round rather than
        running a later job out of order — the property that keeps retried
        trajectories bit-exact.
        """
        if self.shed_expired:
            self._shed_expired(now)
        candidates = sorted(self._pending, key=JobHandle.sort_key)
        seen_scenes: set = set()
        for lead in candidates:
            scene = lead.job.scene
            if scene in seen_scenes:
                continue
            seen_scenes.add(scene)
            if scene in self._busy or lead.not_before > now:
                continue
            batch = [lead]
            if self.coalesce and lead.job.kind == "render" and not lead.solo:
                rays = lead.n_rays
                for other in candidates:
                    if other is lead or other.job.kind != "render":
                        continue
                    if other.solo or other.not_before > now:
                        continue
                    if (other.job.scene != scene
                            or other.job.n_samples != lead.job.n_samples
                            or rays + other.n_rays > self.max_coalesced_rays):
                        continue
                    batch.append(other)
                    rays += other.n_rays
            for handle in batch:
                self._pending.remove(handle)
            self._busy.add(scene)
            return batch
        return None

    def _wait_timeout(self, now: float) -> Optional[float]:
        """How long a worker may sleep before a deferred job becomes ready."""
        deferred = [handle.not_before for handle in self._pending
                    if handle.not_before > now]
        if not deferred:
            return None
        return max(1e-4, min(deferred) - now)

    def _worker_main(self, index: int) -> None:
        """Thread target: run the loop, survive crashes via the supervisor."""
        try:
            self._worker_loop(index)
        except BaseException as exc:  # noqa: BLE001 - worker supervision
            self._supervise_crash(index, exc)

    def _worker_loop(self, index: int) -> None:
        arena = WorkspaceArena()
        while True:
            with self._cv:
                batch = None
                while batch is None:
                    now = time.perf_counter()
                    if self._pending:
                        batch = self._take_batch(now)
                        if batch is not None:
                            break
                    if self._closed and not self._pending:
                        return
                    self._cv.wait(self._wait_timeout(now))
                self._claimed[index] = batch
            scene = batch[0].job.scene
            # Outside the per-batch handler: an injected crash here kills
            # the whole worker thread and exercises the supervisor.
            fault_point("worker.crash")
            try:
                self._execute(batch, arena)
            finally:
                with self._cv:
                    self._claimed.pop(index, None)
                    self._busy.discard(scene)
                    self._cv.notify_all()

    def _supervise_crash(self, index: int, error: BaseException) -> None:
        """A worker thread died: requeue its claimed batch and respawn it."""
        with self._cv:
            self._stats["workers_respawned"] += 1
            batch = self._claimed.pop(index, None)
            if batch:
                self._busy.discard(batch[0].job.scene)
                for handle in batch:
                    handle.attempts += 1
                    if handle.attempts >= self._retry_policy.max_attempts:
                        self._stats["poisoned"] += 1
                        poisoned = JobPoisoned(
                            f"job {handle.seq} crashed its worker on all "
                            f"{handle.attempts} permitted attempts; "
                            f"quarantined")
                        poisoned.__cause__ = error
                        handle._fail(poisoned)
                    else:
                        handle.not_before = (
                            time.perf_counter()
                            + self._retry_policy.backoff_s(handle.attempts))
                        self._stats["retries"] += 1
                        self._pending.append(handle)
            if not self._closed:
                replacement = threading.Thread(
                    target=self._worker_main, args=(index,),
                    name=f"scene-service-{index}", daemon=True)
                self._workers.append(replacement)
                replacement.start()
            self._cv.notify_all()

    def _execute(self, batch: List[JobHandle], arena) -> None:
        lead = batch[0]
        scene = lead.job.scene
        dequeued_at = time.perf_counter()
        try:
            with self._scene_locks[scene]:
                with self._cv:
                    pinned = set(self._busy)
                with self._residency_lock:
                    slot = self._residency.checkout(scene, pinned=pinned)
                fault_point("worker.execute")
                if lead.job.kind == "train":
                    self._run_train(lead, slot, dequeued_at)
                else:
                    self._run_renders(batch, slot, arena, dequeued_at)
        except BaseException as exc:  # noqa: BLE001 - retried or delivered
            self._handle_failure(batch, exc)

    def _handle_failure(self, batch: List[JobHandle], error: BaseException
                        ) -> None:
        """Classify a batch failure: retry the lead, requeue the mates.

        Only the lead's attempt counter is charged — batch-mates were
        passengers.  They requeue as ``solo`` so a poisoned lead cannot
        repeatedly drag fresh batches down with it.
        """
        lead = batch[0]
        policy = self._retry_policy
        now = time.perf_counter()
        with self._cv:
            lead.attempts += 1
            if isinstance(error, NumericalFault):
                # Training diverged past the rollback budget.  The fault is
                # deterministic (same seed => same divergence), so the
                # *scene* is quarantined, not just the job: map it to
                # JobPoisoned here and reject future submissions up front.
                self._poisoned_scenes.add(lead.job.scene)
                self._stats["poisoned"] += 1
                poisoned = JobPoisoned(
                    f"scene {lead.job.scene!r} poisoned: {error}")
                poisoned.__cause__ = error
                lead._fail(poisoned)
            elif policy.should_retry(error, lead.attempts):
                lead.not_before = now + policy.backoff_s(lead.attempts)
                self._stats["retries"] += 1
                self._pending.append(lead)
            elif policy.classify(error) == "transient":
                self._stats["poisoned"] += 1
                poisoned = JobPoisoned(
                    f"job {lead.seq} failed all {lead.attempts} permitted "
                    f"attempts; quarantined")
                poisoned.__cause__ = error
                lead._fail(poisoned)
            else:
                lead._fail(error)
            for mate in batch[1:]:
                mate.solo = True
                self._stats["requeues"] += 1
                self._pending.append(mate)
            self._cv.notify_all()

    def _finish_timing(self, handle: JobHandle, dequeued_at: float):
        now = time.perf_counter()
        queued_ms = 1e3 * (dequeued_at - handle.submitted_at)
        service_ms = 1e3 * (now - handle.submitted_at)
        deadline = getattr(handle.job, "deadline_s", None)
        missed = deadline is not None and service_ms > 1e3 * deadline
        if missed:
            with self._cv:
                self._stats["deadline_misses"] += 1
        return queued_ms, service_ms, missed

    def _run_train(self, handle: JobHandle, slot, dequeued_at: float) -> None:
        job = handle.job
        trainer = slot.trainer
        if handle.target_iteration is None:
            # First attempt: pin the job to an absolute iteration span so a
            # retry runs exactly the remaining steps (fault sites sit at
            # step boundaries, so the trajectory stays the solo trainer's).
            handle.target_iteration = trainer.iteration + job.n_steps
            handle.history_before = len(slot.history.losses)
        before = handle.history_before
        remaining = handle.target_iteration - trainer.iteration
        if remaining > 0:
            trainer.run_steps(remaining, slot.history)
        queued_ms, service_ms, missed = self._finish_timing(handle, dequeued_at)
        with self._cv:
            self._stats["train_jobs"] += 1
        handle._finish(TrainResult(
            scene=job.scene,
            iteration=trainer.iteration,
            losses=list(slot.history.losses[before:]),
            queued_ms=queued_ms,
            service_ms=service_ms,
            deadline_missed=missed,
        ))

    def _run_renders(self, batch: List[JobHandle], slot, arena,
                     dequeued_at: float) -> None:
        trainer = slot.trainer
        n_samples = (batch[0].job.n_samples
                     if batch[0].job.n_samples is not None
                     else self.config.n_samples_per_ray)
        # A fresh pipeline per batch is cheap (no allocations): all heavy
        # buffers come from the worker's arena, keyed by stable site names.
        pipeline = RenderPipeline(
            trainer.model, slot.dataset.scene_bound, n_samples=n_samples,
            white_background=self.config.white_background,
            occupancy=trainer.occupancy,
            culling_enabled=trainer.occupancy is not None,
            policy=trainer.policy, arena=arena,
        )
        bundles = [handle.camera.all_rays() for handle in batch]
        views = render_coalesced(
            pipeline, bundles, arena=arena,
            chunk_points=self.config.max_chunk_points or DEFAULT_CHUNK_POINTS)
        with self._cv:
            self._stats["render_jobs"] += len(batch)
            self._stats["batches"] += 1
            self._stats["coalesced_jobs"] += len(batch)
            self._stats["max_batch_size"] = max(self._stats["max_batch_size"],
                                                len(batch))
        for handle, view in zip(batch, views):
            camera = handle.camera
            queued_ms, service_ms, missed = self._finish_timing(handle,
                                                                dequeued_at)
            handle._finish(RenderResult(
                scene=handle.job.scene,
                colors=np.clip(view.colors, 0.0, 1.0).reshape(
                    camera.height, camera.width, 3),
                depth=view.depth.reshape(camera.height, camera.width),
                n_rays=view.n_rays,
                n_queried=view.n_queried,
                batch_size=len(batch),
                queued_ms=queued_ms,
                service_ms=service_ms,
                deadline_missed=missed,
            ))
