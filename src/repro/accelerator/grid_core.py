"""Grid-core pipeline simulation: Step ❸-① on the Instant-3D accelerator.

A grid core (Fig. 11) buffers the queried points' coordinates, computes the
eight surrounding vertex coordinates and their hash addresses, reads the
embeddings from the hash-table SRAM banks through the FRM unit, and either
interpolates them (feed-forward) or computes and writes back gradients
through the BUM unit (back-propagation).  :class:`GridCoreSimulator` replays
a branch's memory trace through those components and reports cycle counts;
the top-level :class:`~repro.accelerator.accelerator.Instant3DAccelerator`
scales the measured per-access rates to the full paper-scale workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.accelerator.bum import BackPropUpdateMerger, BUMResult
from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.frm import FeedForwardReadMapper, FRMResult
from repro.accelerator.fusion import FusionPlan, plan_fusion
from repro.accelerator.sram import SRAMBankArray
from repro.accelerator.trace import BranchTrace

#: Pipeline stages in a grid core before SRAM access (coordinate pre-compute,
#: hash computation, address buffering) — amortised to a per-point overhead.
_ADDRESS_PIPELINE_CYCLES_PER_POINT = 1.0
#: Cycles to trilinearly interpolate / compute gradients for one point's
#: corners once the embeddings are available (overlapped with SRAM access in
#: steady state, charged at a reduced weight).
_COMPUTE_OVERLAP_WEIGHT = 0.25
#: Relative cost of re-scanning the address stream for each additional table
#: segment when the hash table does not fit in the available SRAM.
_SEGMENT_RESCAN_WEIGHT = 0.15
#: Cycles per un-merged embedding update: a read-modify-write of the table
#: entry, the hazard the BUM removes by accumulating updates on chip.
_UNMERGED_WRITE_RMW_CYCLES = 3


@dataclass
class GridPhaseResult:
    """Cycle accounting for one branch's feed-forward or back-propagation phase."""

    branch: str
    phase: str                      # "forward" or "backward"
    n_accesses: int
    sram_cycles: int
    pipeline_cycles: int
    frm: FRMResult
    plan: FusionPlan
    bum: Optional[BUMResult] = None

    @property
    def core_cycles(self) -> int:
        """Cycles spent inside the grid cores (excludes DRAM segment swaps)."""
        return int(self.sram_cycles + self.pipeline_cycles)

    @property
    def accesses_per_cycle(self) -> float:
        return self.n_accesses / max(self.core_cycles, 1)


class GridCoreSimulator:
    """Replays branch traces through the FRM/BUM/SRAM models of the grid cores."""

    def __init__(self, config: AcceleratorConfig):
        self.config = config

    # -- shared helpers ------------------------------------------------------------
    def _parallel_banks(self) -> int:
        """SRAM banks usable in parallel for a branch.

        With the reconfigurable scheme the accelerator always engages all
        grid cores: either fused behind a shared FRM unit (tables larger than
        one core) or running independently on disjoint point sets (tables
        that fit one core, which are replicated).  Without the scheme only a
        single core's banks serve the branch and oversized tables are
        processed in DRAM-swapped segments.
        """
        if self.config.fusion_enabled:
            return self.config.n_grid_cores * self.config.grid_core.n_banks
        return self.config.grid_core.n_banks

    def _frm_window(self) -> int:
        """Reordering window of the FRM unit serving a branch.

        The shared B16/B32 FRM units that fuse multiple cores carry
        proportionally deeper reorder buffers (Fig. 14), so the window scales
        with the number of banks they feed.
        """
        scale = max(1, self._parallel_banks() // self.config.grid_core.n_banks)
        return self.config.grid_core.frm_window * scale

    # -- phases ----------------------------------------------------------------------
    def simulate_forward(self, trace: BranchTrace, table_bytes: int) -> GridPhaseResult:
        """Feed-forward embedding interpolation for one branch."""
        return self._simulate(trace, table_bytes, backward=False)

    def simulate_backward(self, trace: BranchTrace, table_bytes: int) -> GridPhaseResult:
        """Back-propagation: gradient reads plus BUM-merged embedding updates."""
        return self._simulate(trace, table_bytes, backward=True)

    def _simulate(self, trace: BranchTrace, table_bytes: int,
                  backward: bool) -> GridPhaseResult:
        """One phase: the FRM read pass, plus the BUM write-back if ``backward``.

        Gradient computation re-reads the touched embeddings in the forward
        pattern, so both phases share the read pass.
        """
        grid_core = self.config.grid_core
        plan = plan_fusion(table_bytes, self.config)
        sram = SRAMBankArray(
            n_banks=self._parallel_banks(),
            accesses_per_bank_per_cycle=grid_core.accesses_per_bank_per_cycle,
        )
        frm = FeedForwardReadMapper(sram, window=self._frm_window())
        frm_result = frm.schedule(trace.read_addresses, enabled=self.config.frm_enabled)
        cycles = frm_result.mapped_cycles
        n_accesses = int(trace.read_addresses.size)
        bum_result = None
        if backward:
            bum = BackPropUpdateMerger(n_entries=grid_core.bum_entries,
                                       timeout_cycles=grid_core.bum_timeout_cycles)
            bum_result = bum.process(trace.write_addresses,
                                     enabled=self.config.bum_enabled)
            # Merged updates stream out at bank bandwidth; un-merged updates
            # are read-modify-write operations on (often) the same entry and
            # pay the RMW hazard latency the BUM exists to hide.
            write_cost = 1 if self.config.bum_enabled else _UNMERGED_WRITE_RMW_CYCLES
            banks = sram.n_banks * sram.accesses_per_bank_per_cycle
            cycles += int(np.ceil(bum_result.n_sram_writes * write_cost / banks))
            n_accesses += int(trace.write_addresses.size)
        # Extra table segments require re-scanning the address stream; the
        # accesses themselves are only serviced once.
        segment_overhead = 1.0 + _SEGMENT_RESCAN_WEIGHT * (plan.n_segments - 1)
        pipeline = int(trace.n_points * _ADDRESS_PIPELINE_CYCLES_PER_POINT
                       * _COMPUTE_OVERLAP_WEIGHT)
        return GridPhaseResult(
            branch=trace.branch,
            phase="backward" if backward else "forward",
            n_accesses=n_accesses,
            sram_cycles=int(np.ceil(cycles * segment_overhead)),
            pipeline_cycles=pipeline,
            frm=frm_result,
            plan=plan,
            bum=bum_result,
        )
