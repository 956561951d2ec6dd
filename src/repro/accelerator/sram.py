"""Multi-bank SRAM array with bank-conflict semantics.

The 1-D hash table that stores the embedding grid is divided equally across
``n_banks`` SRAM banks (Sec. 4.4).  Each bank can service a bounded number of
accesses per cycle, so a batch of addresses that maps onto few banks wastes
bandwidth — the situation the FRM unit exists to fix.  The bank of an address
is its position in the equal partition of the table's address range, which is
what makes the paper's four "address groups" (far apart in address space)
land in different banks while the two nearby addresses inside a group collide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass
class BankConflictStats:
    """Outcome of servicing a sequence of access batches."""

    n_accesses: int
    n_cycles: int
    n_conflict_cycles: int

    @property
    def accesses_per_cycle(self) -> float:
        return self.n_accesses / max(self.n_cycles, 1)


class SRAMBankArray:
    """An equally partitioned multi-bank SRAM holding one 1-D hash table."""

    def __init__(self, n_banks: int, table_entries: int,
                 accesses_per_bank_per_cycle: int = 1):
        if n_banks < 1 or table_entries < 1:
            raise ValueError("n_banks and table_entries must be positive")
        if accesses_per_bank_per_cycle < 1:
            raise ValueError("accesses_per_bank_per_cycle must be positive")
        self.n_banks = int(n_banks)
        self.table_entries = int(table_entries)
        self.accesses_per_bank_per_cycle = int(accesses_per_bank_per_cycle)

    # -- address mapping ---------------------------------------------------------
    def bank_of(self, addresses: np.ndarray) -> np.ndarray:
        """Bank index of each address.

        Banks are interleaved at entry granularity (``address mod n_banks``),
        the mapping the multi-bank hash-table SRAM of the grid cores uses so
        that every resolution level of the concatenated table — including the
        small dense coarse levels — spreads across all banks.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        if np.any(addresses < 0):
            raise ValueError("addresses must be non-negative")
        return addresses % self.n_banks

    # -- servicing ---------------------------------------------------------------
    def cycles_for_batch(self, addresses: np.ndarray) -> int:
        """Cycles to service one batch of parallel accesses.

        The batch takes as many cycles as the most-contended bank needs:
        ``ceil(max bank occupancy / accesses_per_bank_per_cycle)``.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.size == 0:
            return 0
        banks = self.bank_of(addresses)
        counts = np.bincount(banks, minlength=self.n_banks)
        worst = int(counts.max())
        return int(np.ceil(worst / self.accesses_per_bank_per_cycle))

    def service(self, batches: Iterable[Sequence[int]]) -> BankConflictStats:
        """Service a sequence of access batches and return cycle statistics."""
        n_accesses = 0
        total_cycles = 0
        conflict_cycles = 0
        for batch in batches:
            batch = np.asarray(batch, dtype=np.int64)
            cycles = self.cycles_for_batch(batch)
            n_accesses += int(batch.size)
            total_cycles += cycles
            conflict_cycles += max(cycles - 1, 0)
        return BankConflictStats(
            n_accesses=n_accesses,
            n_cycles=total_cycles,
            n_conflict_cycles=conflict_cycles,
        )
