"""Multi-core-fusion reconfigurable scheme (Sec. 4.6 / Fig. 14).

The Instant-3D algorithm needs hash tables of different sizes for the
density and color branches.  A single grid core holds 256 KB of hash-table
SRAM (8 banks); the fusion scheme combines two cores (16 banks, 512 KB) or
all four cores (32 banks, 1 MB) behind a shared FRM unit so a larger table is
still served at full bank parallelism.  Without fusion, a table larger than
one core's SRAM must be processed in segments that are swapped from DRAM,
which is the scheduling inefficiency the paper's Fig. 17 attributes a 5.3x
speedup to removing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accelerator.config import AcceleratorConfig, FusionMode


@dataclass
class FusionPlan:
    """How a branch's hash table is mapped onto grid cores."""

    n_segments: int            # table segments that must be processed serially
    dram_swap_bytes: int       # bytes swapped to/from DRAM between segments


def select_fusion_mode(table_bytes: int, config: AcceleratorConfig) -> FusionMode:
    """Pick the smallest fusion level whose SRAM capacity covers the table."""
    if table_bytes <= 0:
        raise ValueError("table_bytes must be positive")
    for mode in (FusionMode.LEVEL0_STANDALONE, FusionMode.LEVEL1_FUSION,
                 FusionMode.LEVEL2_FUSION):
        if table_bytes <= mode.max_table_bytes and mode.n_cores <= config.n_grid_cores:
            return mode
    return FusionMode.LEVEL2_FUSION


def plan_fusion(table_bytes: int, config: AcceleratorConfig) -> FusionPlan:
    """Build the execution plan for one branch's hash table.

    With fusion enabled the table is spread across the fused cores' banks and
    processed in a single resident segment (possibly streamed from DRAM once
    if it exceeds even Level-2 capacity).  With fusion disabled only a single
    core's 8 banks and 256 KB are available, so larger tables are processed in
    serial segments with DRAM swaps in between.
    """
    core_bytes = config.grid_core.sram_bytes
    if config.fusion_enabled:
        mode = select_fusion_mode(table_bytes, config)
        capacity = mode.n_cores * core_bytes
        n_segments = max(1, int(np.ceil(table_bytes / capacity)))
        swap_bytes = (n_segments - 1) * capacity if n_segments > 1 else 0
        return FusionPlan(n_segments=n_segments, dram_swap_bytes=swap_bytes)
    n_segments = max(1, int(np.ceil(table_bytes / core_bytes)))
    swap_bytes = (n_segments - 1) * core_bytes if n_segments > 1 else 0
    return FusionPlan(n_segments=n_segments, dram_swap_bytes=swap_bytes)
