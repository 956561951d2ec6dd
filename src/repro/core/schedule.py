"""Per-branch update-frequency schedules (Sec. 3.3 of the paper).

A branch with update frequency ``F`` receives a gradient update in a fraction
``F`` of training iterations.  The paper realises ``F = 0.5`` by updating the
color grid every two iterations and notes the accelerator supports arbitrary
frequencies "by skipping one back-propagation process every 1/(1-F)
iterations"; :class:`UpdateSchedule` implements the equivalent rule that
works for any rational frequency: iteration ``i`` updates the branch iff the
integer count of scheduled updates increases between ``i`` and ``i+1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor


@dataclass(frozen=True)
class UpdateSchedule:
    """Deterministic schedule deciding whether a branch updates at an iteration."""

    frequency: float

    def __post_init__(self) -> None:
        if not (0.0 < self.frequency <= 1.0):
            raise ValueError("frequency must be in (0, 1]")

    def should_update(self, iteration: int) -> bool:
        """True if the branch receives a gradient update at ``iteration`` (0-based)."""
        if iteration < 0:
            raise ValueError("iteration must be non-negative")
        if self.frequency >= 1.0:
            return True
        return floor((iteration + 1) * self.frequency) > floor(iteration * self.frequency)


@dataclass(frozen=True)
class BranchSchedules:
    """The pair of schedules for the density and color branches."""

    density: UpdateSchedule
    color: UpdateSchedule

    @staticmethod
    def from_frequencies(density_freq: float, color_freq: float) -> "BranchSchedules":
        return BranchSchedules(
            density=UpdateSchedule(density_freq),
            color=UpdateSchedule(color_freq),
        )

    def updates_at(self, iteration: int):
        """Return ``(update_density, update_color)`` flags for an iteration."""
        return self.density.should_update(iteration), self.color.should_update(iteration)
