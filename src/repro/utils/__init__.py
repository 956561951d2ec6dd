"""Shared utilities: 3-D math helpers, deterministic RNG, table formatting."""

from repro.utils.math3d import (
    normalize,
    look_at_pose,
    spherical_pose,
    transform_directions,
)
from repro.utils.seeding import new_rng, derive_rng
from repro.utils.tables import format_table
from repro.utils.precision import FLOAT32, FLOAT64, PrecisionPolicy, resolve_policy
from repro.utils.workspace import WorkspaceArena

__all__ = [
    "FLOAT32",
    "FLOAT64",
    "PrecisionPolicy",
    "resolve_policy",
    "WorkspaceArena",
    "normalize",
    "look_at_pose",
    "spherical_pose",
    "transform_directions",
    "new_rng",
    "derive_rng",
    "format_table",
]
