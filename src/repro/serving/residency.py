"""Scene residency: checkpoint-backed trainer eviction shared by fleet and service.

``max_resident_scenes`` bounds how many trainers (model + optimiser moments +
occupancy grid) are in memory at once; over-cap scenes are checkpointed to
one ``.npz`` file each and transparently restored on their next use — the
same preemption machinery :class:`~repro.training.fleet.SceneFleet` has
always used, extracted here so the multi-tenant
:class:`~repro.serving.service.SceneService` can share it.

:class:`ResidencyManager` owns the *mechanics* — building or restoring a
trainer, staleness-aware checkpoint saves, eviction accounting, and a
make-room pass that evicts before acquiring so peak residency never exceeds
the cap even transiently.  The *victim policy* is pluggable: the default is
LRU over :attr:`SceneSlot.last_used` (right for a service where request
recency is the only signal), while the fleet passes a key that evicts the
scene whose next round-robin turn is farthest away.

Restores are validated (scene name and seed must match the checkpoint's
metadata) and bit-exact: a trainer evicted and re-acquired continues the
exact trajectory of one that stayed resident — the property the fleet's
differential tests enforce and the service inherits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Union

from repro.core.config import Instant3DConfig
from repro.core.model import DecoupledRadianceField
from repro.datasets.dataset import SceneDataset
from repro.io import (CheckpointError, io_stats, load_trainer_checkpoint,
                      save_trainer_checkpoint)
from repro.io.checkpoint import _MAX_GENERATIONS
from repro.reliability.faults import fault_point
from repro.training.trainer import Trainer, TrainingHistory

__all__ = ["ResidencyManager", "SceneSlot", "validate_scene_name"]


def validate_scene_name(name: str) -> None:
    """Reject names unusable as checkpoint file names.

    Names become checkpoint file names (``<name>.ckpt.npz``); path
    separators or relative components would escape the checkpoint directory.
    """
    if not name or name in (".", "..") or any(
            sep in name for sep in ("/", "\\", "\0")):
        raise ValueError(
            f"scene name {name!r} is not usable as a checkpoint "
            "file name (empty, relative, or contains a path "
            "separator)")


@dataclass(eq=False)
class SceneSlot:
    """Residency bookkeeping for one scene.

    ``trainer`` is ``None`` while the scene is evicted (or not yet started);
    ``history`` stays in memory across evictions — only the heavy model /
    optimiser / occupancy state is dropped.  ``on_disk`` records whether a
    checkpoint file exists that :meth:`ResidencyManager.acquire` should
    restore from rather than starting fresh.  ``last_used`` is the LRU
    clock tick of the slot's most recent acquire.
    """

    dataset: SceneDataset
    trainer: Optional[Trainer] = None
    history: Optional[TrainingHistory] = None
    on_disk: bool = False
    last_checkpoint_iteration: int = -1
    last_used: int = 0

    @property
    def name(self) -> str:
        return self.dataset.name

    @property
    def resident(self) -> bool:
        return self.trainer is not None


class ResidencyManager:
    """LRU checkpoint eviction of per-scene trainers under a residency cap.

    Parameters
    ----------
    config / seed:
        Shared training configuration and base seed — every trainer this
        manager builds or restores uses them, so an evict/re-acquire cycle
        reproduces the resident trajectory bit-exactly.
    checkpoint_dir:
        Directory for per-scene checkpoint files (``<scene>.ckpt.npz``),
        created on demand.  Required when ``max_resident_scenes`` is set.
    max_resident_scenes:
        Upper bound on simultaneously resident trainers.  ``None`` means
        unbounded (no eviction; the manager still tracks residency stats).
    keep_generations:
        Checkpoint generations retained per scene (``N > 1`` rotates the
        previous file to ``<scene>.ckpt.npz.g1`` etc. on save, enabling
        :func:`~repro.io.load_checkpoint`'s corruption fallback).  Must be
        in ``[1, 64]``.

    The manager is not thread-safe by itself — the service serialises all
    calls behind one lock, and the fleet is single-threaded.
    """

    def __init__(self, config: Instant3DConfig, seed: int = 0,
                 checkpoint_dir: Optional[Union[str, Path]] = None,
                 max_resident_scenes: Optional[int] = None,
                 keep_generations: int = 1):
        if max_resident_scenes is not None and max_resident_scenes < 1:
            raise ValueError("max_resident_scenes must be >= 1 or None")
        if max_resident_scenes is not None and checkpoint_dir is None:
            raise ValueError("max_resident_scenes requires a checkpoint_dir")
        if not 1 <= keep_generations <= _MAX_GENERATIONS:
            raise ValueError(f"keep_generations must be in "
                             f"[1, {_MAX_GENERATIONS}], got {keep_generations}")
        self.config = config
        self.seed = int(seed)
        self.checkpoint_dir = (Path(checkpoint_dir)
                               if checkpoint_dir is not None else None)
        self.max_resident_scenes = max_resident_scenes
        self.keep_generations = int(keep_generations)
        self._slots: Dict[str, SceneSlot] = {}
        self._clock = 0
        self._resident = 0
        #: Trainers checkpointed to disk and dropped from memory.
        self.evictions = 0
        #: High-water mark of simultaneously resident trainers.
        self.peak_resident = 0
        self.checkpoint_saves = 0
        self.checkpoint_loads = 0
        self.checkpoint_save_s = 0.0
        self.checkpoint_load_s = 0.0
        #: Restores served from an older generation after the primary
        #: checkpoint failed verification (see ``docs/reliability.md``).
        self.fallback_loads = 0

    # -- scene registry -------------------------------------------------------
    def add_scene(self, dataset: SceneDataset) -> SceneSlot:
        """Register a scene and return its slot (names must be unique)."""
        validate_scene_name(dataset.name)
        if dataset.name in self._slots:
            raise ValueError(
                f"duplicate scene names: {dataset.name!r} is registered "
                "twice — per-scene RNG streams are derived from the scene "
                "name, so duplicates would train on identical pixel/sample "
                "streams")
        slot = SceneSlot(dataset=dataset)
        if self.checkpoint_dir is not None:
            slot.on_disk = self.checkpoint_path(dataset.name).exists()
        self._slots[dataset.name] = slot
        return slot

    def slot(self, name: str) -> SceneSlot:
        try:
            return self._slots[name]
        except KeyError:
            raise ValueError(f"unknown scene {name!r} — registered scenes: "
                             f"{sorted(self._slots)}") from None

    @property
    def scene_names(self) -> List[str]:
        return list(self._slots)

    # -- checkpoint plumbing --------------------------------------------------
    def checkpoint_path(self, scene_name: str) -> Path:
        """Checkpoint file for one scene (requires ``checkpoint_dir``)."""
        if self.checkpoint_dir is None:
            raise ValueError("this residency manager has no checkpoint_dir")
        return self.checkpoint_dir / f"{scene_name}.ckpt.npz"

    def save(self, slot: SceneSlot) -> None:
        """Checkpoint a resident slot (history included) and mark it clean."""
        start = time.perf_counter()
        save_trainer_checkpoint(
            self.checkpoint_path(slot.name), slot.trainer,
            history=slot.history, metadata={"seed": int(self.seed)},
            keep_generations=self.keep_generations)
        self.checkpoint_save_s += time.perf_counter() - start
        self.checkpoint_saves += 1
        slot.last_checkpoint_iteration = slot.trainer.iteration
        slot.on_disk = True

    def save_if_stale(self, slot: SceneSlot) -> None:
        """Checkpoint unless the file already holds the slot's iteration."""
        if slot.trainer is None:
            return
        if (not slot.on_disk
                or slot.trainer.iteration != slot.last_checkpoint_iteration):
            self.save(slot)

    # -- residency transitions ------------------------------------------------
    def acquire(self, slot: SceneSlot) -> Trainer:
        """Make the slot's trainer resident (build fresh or restore)."""
        self._clock += 1
        slot.last_used = self._clock
        if slot.trainer is not None:
            return slot.trainer
        trainer = Trainer(DecoupledRadianceField(self.config, seed=self.seed),
                          slot.dataset, config=self.config, seed=self.seed)
        if slot.on_disk:
            path = self.checkpoint_path(slot.name)
            start = time.perf_counter()
            fallbacks_before = io_stats().fallback_loads
            if slot.history is None:
                # Cross-process resume: the history lives in the checkpoint.
                slot.history = TrainingHistory()
                metadata = load_trainer_checkpoint(path, trainer,
                                                   history=slot.history)
            else:
                # Re-acquire after in-run eviction: the in-memory history is
                # already current, only the trainer state is restored.
                metadata = load_trainer_checkpoint(path, trainer)
            self.checkpoint_load_s += time.perf_counter() - start
            self.checkpoint_loads += 1
            self.fallback_loads += io_stats().fallback_loads - fallbacks_before
            if metadata.get("scene") != slot.name:
                raise CheckpointError(
                    f"checkpoint {path} was written for scene "
                    f"{metadata.get('scene')!r}, not {slot.name!r}")
            if metadata.get("seed") is not None and metadata["seed"] != self.seed:
                raise CheckpointError(
                    f"checkpoint {path} was written with seed "
                    f"{metadata['seed']}, this fleet/service uses seed "
                    f"{self.seed}")
            slot.last_checkpoint_iteration = trainer.iteration
        else:
            if slot.history is None:
                slot.history = TrainingHistory()
            slot.last_checkpoint_iteration = trainer.iteration
        slot.trainer = trainer
        self._resident += 1
        self.peak_resident = max(self.peak_resident, self._resident)
        return trainer

    def release(self, slot: SceneSlot) -> None:
        """Drop a resident trainer whose state is already safe (or final)."""
        if slot.trainer is not None:
            self._resident -= 1
        slot.trainer = None

    def evict(self, slot: SceneSlot) -> None:
        """Checkpoint a resident trainer to disk and drop it from memory."""
        if slot.trainer is None:
            return
        self.save_if_stale(slot)
        self.release(slot)
        self.evictions += 1

    def make_room(self, incoming: SceneSlot, pinned: Iterable[str] = (),
                  victim_key: Optional[Callable[[SceneSlot], object]] = None) -> None:
        """Evict residents so acquiring ``incoming`` stays within the cap.

        Runs *before* the incoming trainer is built, so peak residency never
        exceeds ``max_resident_scenes`` — not even transiently.  Victims are
        the ``victim_key``-smallest residents (default: least recently
        used).  ``pinned`` names are never evicted (the service pins scenes
        a worker is actively executing on); with enough pinned scenes the
        cap can be transiently exceeded, by design — correctness over
        strictness when workers outnumber the cap.
        """
        cap = self.max_resident_scenes
        if cap is None or incoming.resident:
            return
        excess = self._resident - (cap - 1)
        if excess <= 0:
            return
        pinned = set(pinned)
        evictable = [slot for slot in self._slots.values()
                     if slot.resident and slot is not incoming
                     and slot.name not in pinned]
        key = victim_key if victim_key is not None else (lambda s: s.last_used)
        for victim in sorted(evictable, key=key)[:excess]:
            self.evict(victim)

    def checkout(self, name: str, pinned: Iterable[str] = ()) -> SceneSlot:
        """Make a registered scene resident, evicting LRU scenes as needed."""
        fault_point("residency.checkout")
        slot = self.slot(name)
        self.make_room(slot, pinned=pinned)
        self.acquire(slot)
        return slot

    def flush(self, save: Optional[bool] = None) -> None:
        """Release every registered resident slot (checkpointing by default).

        ``save=None`` saves exactly when a ``checkpoint_dir`` is configured;
        ``save=False`` drops state without persisting (shutdown of a
        checkpoint-less service).
        """
        if save is None:
            save = self.checkpoint_dir is not None
        for slot in self._slots.values():
            if not slot.resident:
                continue
            if save:
                self.save_if_stale(slot)
            self.release(slot)

    # -- accounting -----------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """JSON-able residency/eviction counters."""
        return {
            "evictions": float(self.evictions),
            "peak_resident_scenes": float(self.peak_resident),
            "n_resident": float(self._resident),
            "checkpoint_saves": float(self.checkpoint_saves),
            "checkpoint_loads": float(self.checkpoint_loads),
            "checkpoint_save_ms": 1e3 * self.checkpoint_save_s,
            "checkpoint_load_ms": 1e3 * self.checkpoint_load_s,
            "fallback_loads": float(self.fallback_loads),
        }

    def health_stats(self) -> Dict[str, float]:
        """Numerical-health counters summed over every scene's history.

        Histories live on the slots and survive eviction, so the sums
        cover evicted scenes too — no trainer needs re-materialising.
        """
        totals = {"guard_trips": 0, "rollbacks": 0,
                  "lr_backoffs": 0, "batch_skips": 0}
        for slot in self._slots.values():
            if slot.history is None:  # slot created but never acquired
                continue
            for name in totals:
                totals[name] += getattr(slot.history, name)
        return {name: float(value) for name, value in totals.items()}
