"""Back-Propagation Update Merger (BUM) — Sec. 4.5 of the paper.

During back-propagation, many vertices map to the same hash-table entry (the
table is smaller than the vertex count), so gradient updates to the *same*
address arrive repeatedly inside a short time window.  The BUM unit keeps a
small buffer of (address, accumulated update) entries: a new update whose
address matches a buffered entry is merged by accumulation; otherwise it
occupies a free entry; an entry that has not been matched for ``timeout``
cycles — or that is displaced when the buffer is full — is written back to
SRAM as a single write.

:class:`BackPropUpdateMerger.process` replays a write-address trace through
that policy and reports how many SRAM writes remain, which is the statistic
behind the Fig. 18 ablation and the accelerator's back-propagation cycle
count.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np


@dataclass
class BUMResult:
    """Outcome of replaying one gradient-update trace through the BUM."""

    n_updates: int          # incoming gradient updates (one per vertex touch)
    n_sram_writes: int      # writes that actually reach the SRAM banks
    n_merged: int           # updates absorbed into an existing buffer entry

    @property
    def write_reduction(self) -> float:
        """Fraction of SRAM writes eliminated by merging."""
        if self.n_updates == 0:
            return 0.0
        return 1.0 - self.n_sram_writes / self.n_updates

    @property
    def merge_rate(self) -> float:
        """Fraction of incoming updates that were merged."""
        if self.n_updates == 0:
            return 0.0
        return self.n_merged / self.n_updates


class BackPropUpdateMerger:
    """A fixed-size address-matching merge buffer for embedding-grid updates."""

    def __init__(self, n_entries: int = 16, timeout_cycles: int = 16):
        if n_entries < 1 or timeout_cycles < 1:
            raise ValueError("n_entries and timeout_cycles must be positive")
        self.n_entries = int(n_entries)
        self.timeout_cycles = int(timeout_cycles)

    def process(self, addresses: np.ndarray, enabled: bool = True) -> BUMResult:
        """Replay a sequence of update addresses (one per cycle) through the BUM."""
        addresses = np.asarray(addresses, dtype=np.int64).reshape(-1)
        n_updates = int(addresses.size)
        if not enabled or n_updates == 0:
            return BUMResult(n_updates=n_updates, n_sram_writes=n_updates, n_merged=0)

        # OrderedDict keyed by address; value = cycle of the last merge.
        buffer: "OrderedDict[int, int]" = OrderedDict()
        sram_writes = 0
        merged = 0
        for cycle, addr in enumerate(addresses):
            addr = int(addr)
            # Retire entries that have waited past the timeout.
            expired = [a for a, last in buffer.items()
                       if cycle - last >= self.timeout_cycles]
            for a in expired:
                del buffer[a]
                sram_writes += 1

            if addr in buffer:
                merged += 1
                buffer[addr] = cycle
                buffer.move_to_end(addr)
                continue

            if len(buffer) >= self.n_entries:
                # Displace the entry at the tail of the buffer (oldest).
                buffer.popitem(last=False)
                sram_writes += 1
            buffer[addr] = cycle

        # Flush whatever is left at the end of the trace.
        sram_writes += len(buffer)
        return BUMResult(n_updates=n_updates, n_sram_writes=sram_writes, n_merged=merged)


def replay_trace(addresses: np.ndarray, n_entries: int = 16,
                 timeout_cycles: int = 16, cap: int = None) -> dict:
    """Replay a touched-address trace through the BUM and summarise it.

    The hook the scheduling tests (and any notebook) use to score a
    live training batch: feed it a grid's recorded address stream — e.g.
    ``grid.last_access.flat_addresses()`` straight after a train step, or
    its :func:`~repro.accelerator.trace.morton_order_record` — and read off the merge rate the modeled hardware would achieve on it, next
    to the software ceiling (a perfect merger that coalesces *all* repeats,
    regardless of distance: ``1 - unique/total``).

    ``cap`` truncates long traces; replay cost is linear in trace length and
    the statistic stabilises within a few tens of thousands of updates.
    """
    addresses = np.asarray(addresses, dtype=np.int64).reshape(-1)
    if cap is not None:
        addresses = addresses[:cap]
    result = BackPropUpdateMerger(n_entries=n_entries,
                                  timeout_cycles=timeout_cycles).process(addresses)
    n_unique = int(np.unique(addresses).size)
    return {
        "n_updates": result.n_updates,
        "n_sram_writes": result.n_sram_writes,
        "n_merged": result.n_merged,
        "merge_rate": result.merge_rate,
        "write_reduction": result.write_reduction,
        "unique_addresses": n_unique,
        "perfect_merge_rate": (1.0 - n_unique / result.n_updates
                               if result.n_updates else 0.0),
    }
