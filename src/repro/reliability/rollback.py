"""In-memory snapshot ring backing the divergence-recovery ladder.

A rollback has to restore the *entire* training state — model parameters,
both optimizers' moments, occupancy grid, RNG streams, iteration counters
— or the replay would not be deterministic.  The trainer already knows how
to serialise all of that (``Trainer.state_dict()``, reused verbatim by the
checkpoint layer), so a snapshot is just a host-materialised deep copy of
that tree, held in memory instead of on disk: rollback is latency-critical
(it sits inside the training loop) and the ring holds at most a couple of
generations, so the copy cost beats checkpoint I/O by orders of magnitude.

Copy discipline — the part that makes the bit-identity invariant hold:

* **on capture** every array leaf is copied, so later training steps
  mutating the live parameters cannot reach into a stored snapshot;
* **on restore** the stored tree is copied *again* before being handed to
  ``load_state_dict``, so a restored optimizer never aliases ring storage
  (a second rollback to the same snapshot must see pristine state even if
  the first replay diverged after restoring it).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

__all__ = ["SnapshotRing", "copy_state_tree"]


def copy_state_tree(node: Any) -> Any:
    """Deep-copy a ``state_dict`` tree, materialising array leaves on host.

    Arrays and array-likes come back as fresh ``np.ndarray`` copies;
    containers are rebuilt; scalars/strings/None pass through (immutable).
    """
    if isinstance(node, dict):
        return {key: copy_state_tree(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        copied = [copy_state_tree(value) for value in node]
        return type(node)(copied) if isinstance(node, tuple) else copied
    if isinstance(node, np.ndarray):
        return np.array(node, copy=True)
    if hasattr(node, "__array__") and not isinstance(
            node, (bool, int, float, complex, str, bytes)):
        return np.asarray(node).copy()
    return node


class SnapshotRing:
    """Bounded ring of known-good state trees, newest last.

    ``capacity`` snapshots are kept; pushing an extra one drops the oldest.
    Two generations (the default policy) give the recovery ladder a fallback
    when divergence is detected late enough that the newest snapshot is
    itself suspect — the trainer rolls back to the newest, and a repeat trip
    at the same iteration burns a rollback attempt rather than re-verifying
    the same poisoned state forever.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: List[Dict[str, Any]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, iteration: int, state: Dict[str, Any]) -> None:
        """Store a copy of ``state`` tagged with the iteration it captures."""
        self._entries.append({
            "iteration": int(iteration),
            "state": copy_state_tree(state),
        })
        if len(self._entries) > self.capacity:
            self._entries.pop(0)

    def restore_newest(self) -> Optional[Dict[str, Any]]:
        """A fresh copy of the newest stored state, or ``None`` when empty.

        Returns ``{"iteration": int, "state": tree}`` where ``state`` is
        safe to hand to ``load_state_dict`` — it shares no storage with the
        ring, so the entry can be restored again later.
        """
        if not self._entries:
            return None
        entry = self._entries[-1]
        return {
            "iteration": entry["iteration"],
            "state": copy_state_tree(entry["state"]),
        }

    def iterations(self) -> List[int]:
        """Capture iterations of stored snapshots, oldest first."""
        return [entry["iteration"] for entry in self._entries]

    def clear(self) -> None:
        self._entries.clear()
