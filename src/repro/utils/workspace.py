"""Workspace arena: preallocated, reusable buffers for per-iteration temporaries.

A steady-state training iteration touches the same family of large arrays
every step — corner address/weight planes of the grid engine, MLP
activations, dense sigma/rgb compositing planes, renderer gradients,
optimiser scratch.  Allocating them fresh each iteration costs tens of
megabytes of allocator traffic per step and evicts the cache-resident
working set.  :class:`WorkspaceArena` extends the backing-table reuse
trick of the grid engine to the whole loop: each call site *names* its
buffer, the arena keeps one growable flat backing allocation per
``(name, dtype)`` and hands back a correctly shaped view.

Semantics
---------
* A buffer named ``n`` is **overwritten by the next request for ``n``** —
  call sites therefore use globally unique names (the owning module's name
  is the prefix) and a buffer is only assumed valid until that site runs
  again.  This matches the natural lifetime of per-iteration temporaries
  (forward caches live exactly until the matching backward).
* One arena may serve several threads at once (the model's density and
  color branches run concurrently on large tables): the name lookup and
  the hit/miss counters are locked, but the buffers themselves are not, so
  a name must be used by **one thread at a time** — each branch, and each
  optimiser, prefixes its names with its own.
* Backing allocations only grow (geometrically), so after warm-up — once
  the largest batch shape has been seen — every request is a **hit**:
  zero allocations on the steady-state hot loop.  :attr:`hits` /
  :attr:`misses` make that measurable; the tier-1 tests assert a zero
  steady-state miss rate.
* Components accept ``arena=None`` and then allocate fresh arrays exactly
  as before — direct (non-trainer) use keeps allocation semantics
  unchanged.  The :class:`~repro.training.trainer.Trainer` owns one arena
  per run and threads it through the pipeline, model, renderer and
  optimisers.
"""

from __future__ import annotations

import threading
from math import prod
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["WorkspaceArena", "arena_buffer", "arena_zeros"]


class WorkspaceArena:
    """Shape-keyed pool of reusable scratch buffers (one per call-site name)."""

    def __init__(self) -> None:
        self._backing: Dict[Tuple[str, str], np.ndarray] = {}
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    # -- allocation ---------------------------------------------------------
    def buffer(self, name: str, shape, dtype) -> np.ndarray:
        """A writable contiguous array of ``shape``/``dtype`` for site ``name``.

        Contents are **uninitialised** (they hold whatever the site wrote
        last time).  The view aliases the arena's backing store: it is valid
        until the same ``name`` is requested again.
        """
        dt = np.dtype(dtype)
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        else:
            shape = tuple(int(s) for s in shape)
        size = prod(shape) if shape else 1
        key = (name, dt.str)
        with self._lock:
            backing = self._backing.get(key)
            if backing is None or backing.size < size:
                grown = (size if backing is None
                         else max(size, 2 * backing.size))
                backing = np.empty(grown, dtype=dt)
                self._backing[key] = backing
                self.misses += 1
            else:
                self.hits += 1
        return backing[:size].reshape(shape)

    def zeros(self, name: str, shape, dtype) -> np.ndarray:
        """Like :meth:`buffer` but cleared to zero."""
        out = self.buffer(name, shape, dtype)
        out.fill(0)
        return out

    # -- accounting ---------------------------------------------------------
    @property
    def n_buffers(self) -> int:
        return len(self._backing)

    @property
    def total_bytes(self) -> int:
        """Bytes of backing storage currently held by the arena."""
        return sum(b.nbytes for b in self._backing.values())

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served without allocating (1.0 = steady state)."""
        total = self.hits + self.misses
        return self.hits / total if total else 1.0

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (backing buffers are kept)."""
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WorkspaceArena(buffers={self.n_buffers}, "
                f"bytes={self.total_bytes}, hits={self.hits}, "
                f"misses={self.misses})")


def arena_buffer(arena: Optional[WorkspaceArena], name: str, shape,
                 dtype) -> np.ndarray:
    """Arena buffer when an arena is attached, fresh allocation otherwise."""
    if arena is None:
        return np.empty(shape, dtype=dtype)
    return arena.buffer(name, shape, dtype)


def arena_zeros(arena: Optional[WorkspaceArena], name: str, shape,
                dtype) -> np.ndarray:
    """Arena zeros when an arena is attached, fresh allocation otherwise."""
    if arena is None:
        return np.zeros(shape, dtype=dtype)
    return arena.zeros(name, shape, dtype)
