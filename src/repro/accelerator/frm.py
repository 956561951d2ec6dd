"""Feed-Forward Read Mapper (FRM) — Sec. 4.4 of the paper.

During the feed-forward pass each queried point needs the embeddings of its
eight surrounding vertices.  Those eight addresses cluster into four groups
that land in only a handful of SRAM banks, so issuing them one point at a
time leaves most banks idle (25-50 % utilization).  The FRM unit looks ahead
over a small window of pending read requests, detects bank collisions, and
packs collision-free requests from different points into the same SRAM cycle.

:class:`FeedForwardReadMapper.schedule` performs that packing greedily over a
sliding window of ``window`` pending addresses — the same first-fit policy a
hardware reorder buffer of that depth implements — and reports cycle counts
with and without the mapping so the ablation of Fig. 18 can be regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.accelerator.sram import SRAMBankArray


@dataclass
class FRMResult:
    """Cycle statistics of scheduling one read trace through the FRM."""

    n_requests: int
    mapped_cycles: int
    unmapped_cycles: int
    n_banks: int

    @property
    def speedup(self) -> float:
        """Cycle reduction factor achieved by the FRM mapping."""
        if self.mapped_cycles == 0:
            return 1.0
        return self.unmapped_cycles / self.mapped_cycles

    @property
    def mapped_utilization(self) -> float:
        """Average fraction of banks busy per cycle with the FRM."""
        capacity = self.mapped_cycles * self.n_banks
        return self.n_requests / capacity if capacity else float("nan")


class FeedForwardReadMapper:
    """Greedy window-based packer of SRAM read requests into conflict-free cycles."""

    def __init__(self, sram: SRAMBankArray, window: int = 16,
                 requests_per_group: int = 8):
        if window < 1:
            raise ValueError("window must be >= 1")
        if requests_per_group < 1:
            raise ValueError("requests_per_group must be >= 1")
        self.sram = sram
        self.window = int(window)
        self.requests_per_group = int(requests_per_group)

    # -- baseline (no FRM) -------------------------------------------------------
    def unmapped_cycles(self, addresses: np.ndarray) -> int:
        """Cycles without mapping: each point's request group is issued alone."""
        addresses = np.asarray(addresses, dtype=np.int64).reshape(-1)
        total = 0
        for start in range(0, addresses.size, self.requests_per_group):
            total += self.sram.cycles_for_batch(
                addresses[start:start + self.requests_per_group]
            )
        return total

    # -- FRM scheduling ------------------------------------------------------------
    def mapped_cycles(self, addresses: np.ndarray) -> int:
        """Cycles with the FRM: greedy bank-aware packing over the lookahead window."""
        addresses = np.asarray(addresses, dtype=np.int64).reshape(-1)
        if addresses.size == 0:
            return 0
        banks = self.sram.bank_of(addresses)
        n_banks = self.sram.n_banks
        per_bank_capacity = self.sram.accesses_per_bank_per_cycle
        cycles = 0
        pending_start = 0
        n = addresses.size
        # A request list pointer; within each cycle, scan at most ``window``
        # pending requests and issue every one whose bank still has capacity.
        issued = np.zeros(n, dtype=bool)
        while pending_start < n:
            bank_load = np.zeros(n_banks, dtype=np.int64)
            window_end = min(pending_start + self.window, n)
            any_issued = False
            for idx in range(pending_start, window_end):
                if issued[idx]:
                    continue
                bank = banks[idx]
                if bank_load[bank] < per_bank_capacity:
                    bank_load[bank] += 1
                    issued[idx] = True
                    any_issued = True
            cycles += 1
            if not any_issued:
                # Defensive: cannot happen (first pending request always fits),
                # but guard against an infinite loop if capacities were zero.
                issued[pending_start] = True
            while pending_start < n and issued[pending_start]:
                pending_start += 1
        return cycles

    def schedule(self, addresses: np.ndarray, enabled: bool = True) -> FRMResult:
        """Schedule a read trace and report mapped vs unmapped cycle counts."""
        addresses = np.asarray(addresses, dtype=np.int64).reshape(-1)
        unmapped = self.unmapped_cycles(addresses)
        mapped = self.mapped_cycles(addresses) if enabled else unmapped
        return FRMResult(
            n_requests=int(addresses.size),
            mapped_cycles=mapped,
            unmapped_cycles=unmapped,
            n_banks=self.sram.n_banks,
        )
