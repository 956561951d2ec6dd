"""Multi-scene training orchestration with preemptible scheduling.

The paper evaluates per-scene training, but the production north star is a
service that keeps many scenes in flight at once (think one reconstruction
job per connected AR/VR user).  :class:`SceneFleet` trains and evaluates a
set of scenes under one shared configuration:

* **round-robin scheduling** (in-process): every scene owns an independent
  trainer and the fleet interleaves fixed-size slices of iterations across
  scenes, so progress is balanced and any scene's intermediate state can be
  inspected mid-run;
* **optional multiprocessing workers**: with ``n_workers > 1`` whole scenes
  are dispatched to a process pool instead.  Both schedules produce
  bit-identical :class:`~repro.training.trainer.TrainingResult`s to running
  :func:`~repro.training.trainer.train_scene` per scene with the same seed:
  the trainer's pixel/sample streams are derived from the scene name (so
  distinctly named scenes never share them — duplicate names are rejected),
  while model *initialisation* depends on the seed alone and is therefore
  common to all scenes of a fleet — exactly as it would be across solo
  ``train_scene(seed=s)`` calls.  If a pool cannot be spawned the fleet
  falls back to in-process execution.
* **preemption and resume**: with ``checkpoint_dir`` set, every scene's
  trainer is checkpointed to one ``.npz`` file (every ``checkpoint_every``
  iterations, on eviction, and at the end of the run).  A *new* fleet built
  over the same datasets/config/seed can then :meth:`resume` — restoring
  models, optimiser moments, occupancy grids, RNG streams and histories —
  and the finished run is **bit-identical** to one that was never
  interrupted (enforced by differential tests, the same discipline as the
  grid-engine and culled-pipeline reference oracles in the test suite).
* **scene eviction**: ``max_resident_scenes`` bounds how many trainers are
  resident in memory at once; idle scenes are checkpointed to disk and
  transparently reloaded when the round-robin scheduler returns to them.
  Eviction is most-recently-run-first, which for a cyclic schedule evicts
  the scene whose next slice is farthest away.

Results are aggregated into a :class:`FleetResult` with mean PSNRs and a
scenes-per-hour throughput figure.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.core.config import Instant3DConfig
from repro.datasets.dataset import SceneDataset
from repro.io import CheckpointError
from repro.serving.residency import ResidencyManager, SceneSlot, validate_scene_name
from repro.training.trainer import TrainingResult, train_scene


@dataclass
class FleetResult:
    """Aggregated outcome of one fleet run."""

    scene_names: List[str]
    results: List[TrainingResult]
    wall_clock_s: float
    n_workers: int
    n_iterations: int
    schedule: str = "round_robin"           # "round_robin" or "process_pool"
    #: Trainers checkpointed to disk and dropped from memory during the run
    #: (0 unless ``max_resident_scenes`` forced evictions).
    evictions: int = 0
    #: High-water mark of simultaneously resident trainers during the run
    #: (0 for the process-pool schedule, which holds no in-process trainers).
    peak_resident_scenes: int = 0
    #: Wall time spent writing / reading scene checkpoints during the run.
    checkpoint_save_ms: float = 0.0
    checkpoint_load_ms: float = 0.0

    @property
    def n_scenes(self) -> int:
        return len(self.results)

    @property
    def mean_rgb_psnr(self) -> float:
        return sum(r.rgb_psnr for r in self.results) / max(self.n_scenes, 1)

    @property
    def mean_depth_psnr(self) -> float:
        return sum(r.depth_psnr for r in self.results) / max(self.n_scenes, 1)

    @property
    def scenes_per_hour(self) -> float:
        """End-to-end fleet throughput (train + eval), scenes per hour."""
        if self.wall_clock_s <= 0:
            return float("inf")
        return self.n_scenes * 3600.0 / self.wall_clock_s

    @property
    def mean_occupancy_fraction(self) -> float:
        """Mean end-of-run occupied-cell fraction across scenes (1.0 dense)."""
        return (sum(r.final_occupancy_fraction for r in self.results)
                / max(self.n_scenes, 1))

    @property
    def mean_keep_fraction(self) -> float:
        """Fleet-wide fraction of the dense sample product actually queried."""
        total = sum(r.queries_total for r in self.results)
        kept = sum(r.queries_kept for r in self.results)
        if total == 0:
            return 1.0
        return kept / total

    def result_for(self, scene_name: str) -> TrainingResult:
        return self.results[self.scene_names.index(scene_name)]

    # -- numerical-health ledger (zeros when guards were disabled) ---------
    @property
    def guard_trips(self) -> int:
        """Divergence-guard trips summed over every scene's run."""
        return int(sum(r.guard_trips for r in self.results))

    @property
    def rollbacks(self) -> int:
        """Snapshot rollbacks performed fleet-wide."""
        return int(sum(r.rollbacks for r in self.results))

    @property
    def lr_backoffs(self) -> int:
        """LR backoffs applied while recovering, fleet-wide."""
        return int(sum(r.lr_backoffs for r in self.results))

    def summary(self) -> Dict[str, float]:
        """Scalar summary used by benchmark reports."""
        return {
            "n_scenes": float(self.n_scenes),
            "n_iterations": float(self.n_iterations),
            "mean_rgb_psnr": self.mean_rgb_psnr,
            "mean_depth_psnr": self.mean_depth_psnr,
            "wall_clock_s": self.wall_clock_s,
            "scenes_per_hour": self.scenes_per_hour,
            "mean_occupancy_fraction": self.mean_occupancy_fraction,
            "mean_keep_fraction": self.mean_keep_fraction,
            "evictions": float(self.evictions),
            "peak_resident_scenes": float(self.peak_resident_scenes),
            "checkpoint_save_ms": self.checkpoint_save_ms,
            "checkpoint_load_ms": self.checkpoint_load_ms,
            "guard_trips": float(self.guard_trips),
            "rollbacks": float(self.rollbacks),
            "lr_backoffs": float(self.lr_backoffs),
        }


@dataclass
class _SceneJob:
    """Picklable description of one scene's training run."""

    dataset: SceneDataset
    config: Instant3DConfig
    n_iterations: int
    seed: int
    eval_every: Optional[int]
    eval_views: int
    eval_samples: int


def _run_scene_job(job: _SceneJob) -> TrainingResult:
    """Train one scene to completion (used by the process-pool path)."""
    return train_scene(job.dataset, job.config, job.n_iterations, seed=job.seed,
                       eval_every=job.eval_every, eval_views=job.eval_views,
                       eval_samples=job.eval_samples)


@dataclass(eq=False)
class _SceneSlot(SceneSlot):
    """Round-robin bookkeeping for one scene.

    Extends the shared :class:`~repro.serving.residency.SceneSlot` (which
    carries the residency state — trainer, history, checkpoint bookkeeping)
    with the fleet scheduler's per-run progress fields.
    """

    remaining: Optional[int] = None
    done: bool = False


class SceneFleet:
    """Trains and evaluates many scenes under one shared configuration.

    Parameters
    ----------
    datasets:
        Scene datasets to train on (one independent model per scene).
        Scene names must be unique: per-scene RNG streams are derived from
        the name, so duplicates would silently train on identical
        pixel/sample streams (and ``FleetResult.result_for`` could only
        ever find the first).
    config:
        Shared training configuration.
    seed:
        Base seed.  Training RNG streams are derived per scene name (model
        initialisation is seed-only, shared across scenes), so results match
        :func:`~repro.training.trainer.train_scene` run per scene with this
        seed.
    n_workers:
        0 or 1 trains in-process with round-robin scheduling; larger values
        dispatch whole scenes to a ``multiprocessing`` pool of that size.
        Checkpointing and eviction are round-robin features: when
        ``checkpoint_dir`` is set the fleet always schedules in-process.
    slice_iterations:
        Round-robin slice width: how many consecutive iterations one scene
        runs before the scheduler moves to the next scene.
    checkpoint_every:
        Checkpoint each scene whenever it has accumulated this many
        iterations since its last checkpoint (requires ``checkpoint_dir``).
        Regardless of this knob, every scene is checkpointed at the end of
        the run and when evicted, so an interrupted ``train()`` can always
        be :meth:`resume`-d from its last completed run.
    checkpoint_dir:
        Directory for per-scene checkpoint files (``<scene>.ckpt.npz``),
        created on demand.  Enables :meth:`resume` and eviction.
    max_resident_scenes:
        Upper bound on simultaneously resident trainers (requires
        ``checkpoint_dir``).  Over-cap scenes are checkpointed to disk and
        reloaded on their next slice, bounding memory to
        ``max_resident_scenes`` models regardless of fleet size.
    keep_generations:
        Checkpoint generations retained per scene (``N > 1`` rotates the
        previous file to ``<scene>.ckpt.npz.g1`` etc., so a torn write can
        fall back to an older verified snapshot — see
        ``docs/reliability.md``).
    """

    def __init__(self, datasets: Sequence[SceneDataset], config: Instant3DConfig,
                 seed: int = 0, n_workers: int = 0, slice_iterations: int = 25,
                 checkpoint_every: Optional[int] = None,
                 checkpoint_dir: Optional[Union[str, Path]] = None,
                 max_resident_scenes: Optional[int] = None,
                 keep_generations: int = 1):
        if not datasets:
            raise ValueError("SceneFleet needs at least one dataset")
        if slice_iterations < 1:
            raise ValueError("slice_iterations must be >= 1")
        if n_workers < 0:
            raise ValueError("n_workers must be >= 0")
        names = [dataset.name for dataset in datasets]
        duplicates = sorted(name for name, count in Counter(names).items()
                            if count > 1)
        if duplicates:
            raise ValueError(
                f"duplicate scene names in fleet: {duplicates} — per-scene "
                "RNG streams are derived from the scene name, so duplicates "
                "would train on identical pixel/sample streams")
        for name in names:
            validate_scene_name(name)
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1 or None")
        if max_resident_scenes is not None and max_resident_scenes < 1:
            raise ValueError("max_resident_scenes must be >= 1 or None")
        if checkpoint_dir is None and (checkpoint_every is not None
                                       or max_resident_scenes is not None):
            raise ValueError(
                "checkpoint_every/max_resident_scenes require a checkpoint_dir")
        self.datasets = list(datasets)
        self.config = config
        self.seed = seed
        self.n_workers = n_workers
        self.slice_iterations = slice_iterations
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = (Path(checkpoint_dir)
                               if checkpoint_dir is not None else None)
        self.max_resident_scenes = max_resident_scenes
        # The residency mechanics (trainer build/restore, staleness-aware
        # checkpoint saves, eviction accounting) are shared with the serving
        # layer; the fleet keeps only its cyclic victim policy on top.
        self._residency = ResidencyManager(
            config, seed=seed, checkpoint_dir=self.checkpoint_dir,
            max_resident_scenes=max_resident_scenes,
            keep_generations=keep_generations)

    @property
    def evictions(self) -> int:
        """Cumulative trainer evictions across this fleet's runs."""
        return self._residency.evictions

    @property
    def scene_names(self) -> List[str]:
        return [dataset.name for dataset in self.datasets]

    # -- checkpoint plumbing -------------------------------------------------
    def checkpoint_path(self, scene_name: str) -> Path:
        """Checkpoint file for one scene (requires ``checkpoint_dir``)."""
        if self.checkpoint_dir is None:
            raise ValueError("this fleet has no checkpoint_dir")
        return self.checkpoint_dir / f"{scene_name}.ckpt.npz"

    def _save_scene(self, slot: _SceneSlot) -> None:
        self._residency.save(slot)

    def _acquire(self, slot: _SceneSlot) -> None:
        """Make the slot's trainer resident (build fresh or restore)."""
        self._residency.acquire(slot)

    def _release(self, slot: _SceneSlot) -> None:
        """Drop a resident trainer whose state is already safe (or final)."""
        self._residency.release(slot)

    def _evict(self, slot: _SceneSlot) -> None:
        """Checkpoint a resident trainer to disk and drop it from memory.

        Routed through ``self._release`` so residency instrumentation that
        wraps acquire/release observes eviction drops too.
        """
        self._residency.evict(slot, release=self._release)

    def _make_room(self, slots: List[_SceneSlot], incoming: int) -> None:
        """Evict residents so acquiring ``incoming`` stays within the cap.

        Runs *before* the incoming trainer is built, so peak residency never
        exceeds ``max_resident_scenes`` — not even transiently during a
        slice.  Victims are chosen by distance to their next round-robin
        turn, farthest first (finished scenes count as farthest of all) —
        the cyclic-access analogue of the manager's default LRU policy.
        """
        n = len(slots)
        order = {id(slot): index for index, slot in enumerate(slots)}

        def turns_until_needed(slot: _SceneSlot) -> int:
            if slot.done:
                return n + 1
            return (order[id(slot)] - incoming) % n

        self._residency.make_room(
            slots[incoming], candidates=slots,
            victim_key=lambda slot: -turns_until_needed(slot),
            evict=self._evict)

    # -- scheduling strategies ----------------------------------------------
    def _jobs(self, n_iterations: int, eval_every: Optional[int],
              eval_views: int, eval_samples: int) -> List[_SceneJob]:
        return [
            _SceneJob(dataset=dataset, config=self.config,
                      n_iterations=n_iterations, seed=self.seed,
                      eval_every=eval_every, eval_views=eval_views,
                      eval_samples=eval_samples)
            for dataset in self.datasets
        ]

    def _train_round_robin(self, n_iterations: int, eval_every: Optional[int],
                           eval_views: int, eval_samples: int,
                           resume: bool = False) -> List[TrainingResult]:
        """Interleave slices of iterations across all scenes' trainers.

        With ``resume=True`` every scene whose checkpoint file exists is
        restored from it and trains only its remaining
        ``n_iterations - iteration`` iterations; the rest start fresh.
        """
        slots = [_SceneSlot(dataset=dataset) for dataset in self.datasets]
        if resume:
            for slot in slots:
                slot.on_disk = self.checkpoint_path(slot.dataset.name).exists()
        while not all(slot.done for slot in slots):
            for idx, slot in enumerate(slots):
                if slot.done:
                    continue
                self._make_room(slots, idx)
                self._acquire(slot)
                if slot.remaining is None:
                    completed = slot.trainer.iteration
                    if completed > n_iterations:
                        raise CheckpointError(
                            f"scene {slot.dataset.name!r} was checkpointed at "
                            f"iteration {completed}, beyond the requested "
                            f"{n_iterations}")
                    slot.remaining = n_iterations - completed
                if slot.remaining > 0:
                    steps = min(self.slice_iterations, slot.remaining)
                    slot.trainer.run_steps(steps, slot.history,
                                           eval_every=eval_every,
                                           eval_views=eval_views,
                                           eval_samples=eval_samples)
                    slot.remaining -= steps
                    if (self.checkpoint_every is not None
                            and slot.trainer.iteration - slot.last_checkpoint_iteration
                            >= self.checkpoint_every):
                        self._save_scene(slot)
                slot.done = slot.remaining == 0
        results = []
        for idx, slot in enumerate(slots):
            self._make_room(slots, idx)
            self._acquire(slot)
            if self.checkpoint_dir is not None and (
                    not slot.on_disk
                    or slot.trainer.iteration != slot.last_checkpoint_iteration):
                self._save_scene(slot)
            results.append(slot.trainer.finalize(slot.history,
                                                 eval_views=eval_views,
                                                 eval_samples=eval_samples))
            if self.max_resident_scenes is not None:
                # The result is captured; free the model without re-saving
                # (the final checkpoint above already holds this state).
                self._release(slot)
        return results

    def _train_process_pool(self, jobs: List[_SceneJob]) -> Optional[List[TrainingResult]]:
        """Run whole scenes in a worker pool; None if the pool is unavailable."""
        import multiprocessing

        try:
            pool = multiprocessing.Pool(processes=self.n_workers)
        except (OSError, PermissionError, ImportError):
            # Restricted environments (sandboxes, some CI runners) may not
            # allow semaphores/forking; the caller falls back to in-process.
            # Only pool *construction* is guarded — errors raised by the
            # training jobs themselves must propagate, not trigger a silent
            # retrain.
            return None
        with pool:
            return pool.map(_run_scene_job, jobs)

    # -- entry points --------------------------------------------------------
    def _run(self, n_iterations: int, eval_every: Optional[int],
             eval_views: int, eval_samples: int, resume: bool) -> FleetResult:
        if n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        start = time.perf_counter()
        residency = self._residency
        evictions_before = residency.evictions
        save_s_before = residency.checkpoint_save_s
        load_s_before = residency.checkpoint_load_s
        # Each run builds a fresh slot list (and discards the previous one),
        # so the residency window — live count and peak — restarts at zero.
        residency.reset_window()
        schedule = "round_robin"
        results: Optional[List[TrainingResult]] = None
        if (not resume and self.checkpoint_dir is None
                and self.n_workers > 1 and len(self.datasets) > 1):
            results = self._train_process_pool(
                self._jobs(n_iterations, eval_every, eval_views, eval_samples))
            if results is not None:
                schedule = "process_pool"
        if results is None:
            results = self._train_round_robin(n_iterations, eval_every,
                                              eval_views, eval_samples,
                                              resume=resume)
        wall = time.perf_counter() - start
        return FleetResult(
            scene_names=self.scene_names,
            results=results,
            wall_clock_s=wall,
            n_workers=self.n_workers if schedule == "process_pool" else 0,
            n_iterations=n_iterations,
            schedule=schedule,
            evictions=residency.evictions - evictions_before,
            peak_resident_scenes=residency.peak_resident,
            checkpoint_save_ms=1e3 * (residency.checkpoint_save_s - save_s_before),
            checkpoint_load_ms=1e3 * (residency.checkpoint_load_s - load_s_before),
        )

    def train(self, n_iterations: int, eval_every: Optional[int] = None,
              eval_views: int = 1, eval_samples: int = 48) -> FleetResult:
        """Train every scene for ``n_iterations`` and aggregate the results.

        With a ``checkpoint_dir``, every scene's final state is on disk when
        this returns, so a later :meth:`resume` (possibly from a different
        process) can extend the run bit-identically.
        """
        return self._run(n_iterations, eval_every, eval_views, eval_samples,
                         resume=False)

    def resume(self, n_iterations: int, eval_every: Optional[int] = None,
               eval_views: int = 1, eval_samples: int = 48) -> FleetResult:
        """Restore the fleet from ``checkpoint_dir`` and train *to*
        ``n_iterations`` total per scene.

        Scenes with a checkpoint continue from their saved iteration; scenes
        without one start fresh.  The completed run is bit-identical (same
        losses, parameters and PSNRs) to an uninterrupted
        ``train(n_iterations)`` over the same fleet.
        """
        if self.checkpoint_dir is None:
            raise ValueError("resume() requires a fleet with a checkpoint_dir")
        return self._run(n_iterations, eval_every, eval_views, eval_samples,
                         resume=True)


def train_fleet(datasets: Sequence[SceneDataset], config: Instant3DConfig,
                n_iterations: int, seed: int = 0, n_workers: int = 0,
                eval_every: Optional[int] = None, eval_views: int = 1,
                eval_samples: int = 48) -> FleetResult:
    """Convenience helper mirroring :func:`~repro.training.trainer.train_scene`."""
    fleet = SceneFleet(datasets, config, seed=seed, n_workers=n_workers)
    return fleet.train(n_iterations, eval_every=eval_every,
                       eval_views=eval_views, eval_samples=eval_samples)
