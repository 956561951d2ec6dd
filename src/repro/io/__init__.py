"""Checkpoint/restore subsystem.

Serialises training state — model parameters, optimiser moments, occupancy
grids, RNG streams, loss histories — to versioned single-file checkpoints
(a fixed header, a CRC-signed JSON manifest and a 64-byte-aligned data
region with a CRC32 per array), and restores it bit-identically
so interrupted runs continue exactly where they left off.  Used directly
for single-scene trainers and by
:class:`~repro.training.fleet.SceneFleet`'s preemptible scheduling
(``checkpoint_every`` / ``resume()`` / ``max_resident_scenes`` eviction).
"""

from repro.io.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_MIN_VERSION,
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointIOStats,
    NonFiniteCheckpointError,
    generation_path,
    io_stats,
    load_checkpoint,
    load_trainer_checkpoint,
    save_checkpoint,
    save_trainer_checkpoint,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_MIN_VERSION",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointIOStats",
    "NonFiniteCheckpointError",
    "generation_path",
    "io_stats",
    "load_checkpoint",
    "load_trainer_checkpoint",
    "save_checkpoint",
    "save_trainer_checkpoint",
]
