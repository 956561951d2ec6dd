"""Multi-scene training orchestration with preemptible scheduling.

The paper evaluates per-scene training, but the production north star is a
service that keeps many scenes in flight at once (think one reconstruction
job per connected AR/VR user).  :class:`SceneFleet` trains and evaluates a
set of scenes under one shared configuration:

* **round-robin scheduling**: every scene owns an independent trainer and
  the fleet interleaves fixed-size slices of iterations across scenes, so
  progress is balanced and any scene's intermediate state can be inspected
  mid-run.  Results are bit-identical to
  :func:`~repro.training.trainer.train_scene` per scene with the same seed:
  the trainer's pixel/sample streams are derived from the scene name (so
  distinctly named scenes never share them — duplicate names are rejected),
  while model *initialisation* depends on the seed alone and is therefore
  common to all scenes of a fleet — exactly as it would be across solo
  ``train_scene(seed=s)`` calls.
* **preemption and resume**: with ``checkpoint_dir`` set, every scene's
  trainer is checkpointed to one flat file (every ``checkpoint_every``
  iterations, on eviction, and at the end of the run).  A *new* fleet built
  over the same datasets/config/seed can then :meth:`resume` — restoring
  models, optimiser moments, occupancy grids, RNG streams and histories —
  and the finished run is **bit-identical** to one that was never
  interrupted (enforced by differential tests, the same discipline as the
  grid-engine and culled-pipeline reference oracles in the test suite).
* **scene eviction**: ``max_resident_scenes`` bounds how many trainers are
  resident in memory at once; idle scenes are checkpointed to disk and
  transparently reloaded when the round-robin scheduler returns to them.
  Each run registers its scenes with a fresh
  :class:`~repro.serving.residency.ResidencyManager`, which owns the
  mechanics; the fleet only supplies the victim policy: evict the scene
  whose next turn is farthest away (finished scenes first), which on a
  cyclic schedule beats the manager's default LRU.

Results are aggregated into a :class:`FleetResult` with mean PSNRs and a
scenes-per-hour throughput figure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.core.config import Instant3DConfig
from repro.datasets.dataset import SceneDataset
from repro.io import CheckpointError
from repro.serving.residency import ResidencyManager
from repro.training.trainer import TrainingResult
from repro.utils.workspace import WorkspaceArena


@dataclass
class FleetResult:
    """Aggregated outcome of one fleet run."""

    scene_names: List[str]
    results: List[TrainingResult]
    wall_clock_s: float
    n_iterations: int
    #: Trainers checkpointed to disk and dropped from memory during the run
    #: (0 unless ``max_resident_scenes`` forced evictions).
    evictions: int = 0
    #: High-water mark of simultaneously resident trainers during the run.
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


class SceneFleet:
    """Trains and evaluates many scenes under one shared configuration.

    Parameters
    ----------
    datasets:
        Scene datasets to train on (one independent model per scene).
        Scene names must be unique: per-scene RNG streams are derived from
        the name, so duplicates would silently train on identical
        pixel/sample streams.
    config:
        Shared training configuration.
    seed:
        Base seed.  Training RNG streams are derived per scene name (model
        initialisation is seed-only, shared across scenes), so results match
        :func:`~repro.training.trainer.train_scene` run per scene with this
        seed.
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
        Directory for per-scene checkpoint files (``<scene>.ckpt.npz``,
        a name kept from the npz format), created on demand.  Enables
        :meth:`resume` and eviction.
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
                 seed: int = 0, slice_iterations: int = 25,
                 checkpoint_every: Optional[int] = None,
                 checkpoint_dir: Optional[Union[str, Path]] = None,
                 max_resident_scenes: Optional[int] = None,
                 keep_generations: int = 1):
        if not datasets:
            raise ValueError("SceneFleet needs at least one dataset")
        if slice_iterations < 1:
            raise ValueError("slice_iterations must be >= 1")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1 or None")
        if checkpoint_dir is None and checkpoint_every is not None:
            raise ValueError("checkpoint_every requires a checkpoint_dir")
        self.datasets = list(datasets)
        self.config = config
        self.seed = seed
        self.slice_iterations = slice_iterations
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = (Path(checkpoint_dir)
                               if checkpoint_dir is not None else None)
        self.max_resident_scenes = max_resident_scenes
        self.keep_generations = keep_generations
        #: Cumulative trainer evictions across this fleet's runs.
        self.evictions = 0
        # Fail at construction, not mid-run: the manager validates the
        # residency knobs and the scene names (unique, usable as file names).
        # It also owns the checkpoint file names.
        self._manager = self._new_residency()

    @property
    def scene_names(self) -> List[str]:
        return [dataset.name for dataset in self.datasets]

    def checkpoint_path(self, scene_name: str) -> Path:
        """Checkpoint file for one scene (requires ``checkpoint_dir``)."""
        return self._manager.checkpoint_path(scene_name)

    def _new_residency(self) -> ResidencyManager:
        residency = ResidencyManager(
            self.config, seed=self.seed, checkpoint_dir=self.checkpoint_dir,
            max_resident_scenes=self.max_resident_scenes,
            keep_generations=self.keep_generations)
        for dataset in self.datasets:
            residency.add_scene(dataset)
        return residency

    def _run(self, n_iterations: int, eval_every: Optional[int],
             eval_views: int, eval_samples: int, resume: bool) -> FleetResult:
        """Interleave slices of iterations across all scenes' trainers.

        With ``resume=True`` every scene whose checkpoint file exists is
        restored from it and trains only its remaining
        ``n_iterations - iteration`` iterations; the rest start fresh.
        """
        if n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        start = time.perf_counter()
        residency = self._new_residency()
        arena = WorkspaceArena()   # one step's scratch, shared by every scene
        slots = [residency.slot(name) for name in self.scene_names]
        if not resume:
            for slot in slots:
                slot.on_disk = False      # train() ignores existing files
        n = len(slots)
        order = {slot.name: index for index, slot in enumerate(slots)}
        remaining: List[Optional[int]] = [None] * n   # None: not started

        def checkout(index: int):
            """Make ``slots[index]`` resident, evicting residents whose next
            turn is farthest away first (finished scenes farthest of all)."""
            def turns_until_needed(slot) -> int:
                if remaining[order[slot.name]] == 0:
                    return n + 1
                return (order[slot.name] - index) % n

            residency.make_room(slots[index],
                                victim_key=lambda slot: -turns_until_needed(slot))
            residency.acquire(slots[index], arena)
            return slots[index]

        while any(left != 0 for left in remaining):
            for index in range(n):
                if remaining[index] == 0:
                    continue
                slot = checkout(index)
                if remaining[index] is None:
                    completed = slot.trainer.iteration
                    if completed > n_iterations:
                        raise CheckpointError(
                            f"scene {slot.name!r} was checkpointed at "
                            f"iteration {completed}, beyond the requested "
                            f"{n_iterations}")
                    remaining[index] = n_iterations - completed
                if remaining[index] > 0:
                    steps = min(self.slice_iterations, remaining[index])
                    slot.trainer.run_steps(steps, slot.history,
                                           eval_every=eval_every,
                                           eval_views=eval_views,
                                           eval_samples=eval_samples)
                    remaining[index] -= steps
                    if (self.checkpoint_every is not None
                            and slot.trainer.iteration - slot.last_checkpoint_iteration
                            >= self.checkpoint_every):
                        residency.save(slot)
        results = []
        for index in range(n):
            slot = checkout(index)
            if self.checkpoint_dir is not None:
                residency.save_if_stale(slot)
            results.append(slot.trainer.finalize(slot.history,
                                                 eval_views=eval_views,
                                                 eval_samples=eval_samples))
            if self.max_resident_scenes is not None:
                # The result is captured; free the model without re-saving
                # (the final checkpoint above already holds this state).
                residency.release(slot)
        self.evictions += residency.evictions
        return FleetResult(
            scene_names=self.scene_names,
            results=results,
            wall_clock_s=time.perf_counter() - start,
            n_iterations=n_iterations,
            evictions=residency.evictions,
            peak_resident_scenes=residency.peak_resident,
            checkpoint_save_ms=1e3 * residency.checkpoint_save_s,
            checkpoint_load_ms=1e3 * residency.checkpoint_load_s,
        )

    def train(self, n_iterations: int, eval_every: Optional[int] = None,
              eval_views: int = 1, eval_samples: int = 48) -> FleetResult:
        """Train every scene for ``n_iterations`` and aggregate the results.

        Existing checkpoint files are ignored (and overwritten): every scene
        starts fresh.  With a ``checkpoint_dir``, every scene's final state
        is on disk when this returns, so a later :meth:`resume` (possibly
        from a different process) can extend the run bit-identically.
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
                n_iterations: int, seed: int = 0,
                eval_every: Optional[int] = None, eval_views: int = 1,
                eval_samples: int = 48) -> FleetResult:
    """Convenience helper mirroring :func:`~repro.training.trainer.train_scene`."""
    fleet = SceneFleet(datasets, config, seed=seed)
    return fleet.train(n_iterations, eval_every=eval_every,
                       eval_views=eval_views, eval_samples=eval_samples)
