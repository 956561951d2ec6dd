"""Multi-bank SRAM array with bank-conflict semantics.

The 1-D hash table that stores the embedding grid is spread across
``n_banks`` SRAM banks (Sec. 4.4).  Each bank can service a bounded number of
accesses per cycle, so a batch of addresses that maps onto few banks wastes
bandwidth — the situation the FRM unit exists to fix.  Banks are interleaved
at entry granularity: address ``a`` lives in bank ``a % n_banks``, so
consecutive entries sit in different banks and two addresses collide when
their distance is a multiple of ``n_banks``.
"""

from __future__ import annotations

import numpy as np


class SRAMBankArray:
    """A multi-bank SRAM holding one 1-D hash table, interleaved by entry."""

    def __init__(self, n_banks: int, accesses_per_bank_per_cycle: int = 1):
        if n_banks < 1:
            raise ValueError("n_banks must be positive")
        if accesses_per_bank_per_cycle < 1:
            raise ValueError("accesses_per_bank_per_cycle must be positive")
        self.n_banks = int(n_banks)
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
