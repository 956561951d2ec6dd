"""Hardware configuration of the Instant-3D accelerator.

The published design point (Tab. 3 / Fig. 15): 28 nm, 800 MHz, 1 V, 6.8 mm²,
1.5 MB of on-chip SRAM, 1.9 W typical power, LPDDR4-1866 DRAM at 59.7 GB/s.
It contains four grid cores (8 hash-table SRAM banks each), one BUM unit per
grid core, seven FRM units (four B8 units inside the cores, two B16 units for
core pairs and one B32 unit spanning all four cores), and a systolic-array +
adder-tree MLP engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class FusionMode(Enum):
    """Multi-core fusion levels (Sec. 4.6 / Fig. 14)."""

    LEVEL0_STANDALONE = 0   # 1 grid core,  8 banks, up to 256 KB hash table
    LEVEL1_FUSION = 1       # 2 grid cores, 16 banks, up to 512 KB hash table
    LEVEL2_FUSION = 2       # 4 grid cores, 32 banks, up to 1 MB hash table

    @property
    def n_cores(self) -> int:
        return {FusionMode.LEVEL0_STANDALONE: 1,
                FusionMode.LEVEL1_FUSION: 2,
                FusionMode.LEVEL2_FUSION: 4}[self]

    @property
    def n_banks(self) -> int:
        return 8 * self.n_cores

    @property
    def max_table_bytes(self) -> int:
        return {FusionMode.LEVEL0_STANDALONE: 256 * 1024,
                FusionMode.LEVEL1_FUSION: 512 * 1024,
                FusionMode.LEVEL2_FUSION: 1024 * 1024}[self]


@dataclass(frozen=True)
class GridCoreConfig:
    """One grid core: hash-table SRAM banks plus FRM/BUM pipeline parameters."""

    n_banks: int = 8
    bank_bytes: int = 32 * 1024            # 8 banks x 32 KB = 256 KB per core
    accesses_per_bank_per_cycle: int = 1
    frm_window: int = 16                   # reordering pipeline depth (Sec. 5.1)
    bum_entries: int = 16                  # BUM buffer entries
    bum_timeout_cycles: int = 16           # write-back after N cycles without a match

    def __post_init__(self) -> None:
        if self.n_banks < 1 or self.bank_bytes < 1:
            raise ValueError("bank configuration must be positive")
        if self.frm_window < 1 or self.bum_entries < 1:
            raise ValueError("FRM window and BUM entries must be positive")

    @property
    def sram_bytes(self) -> int:
        return self.n_banks * self.bank_bytes


@dataclass(frozen=True)
class MLPUnitConfig:
    """The MLP engine: a systolic array plus a multiplier-adder tree.

    The systolic array serves matrix multiplications with output channels
    > 3; the adder tree serves the small-output-channel layers (e.g. the
    final RGB layer), following the paper's dual-unit design.
    """

    systolic_rows: int = 64
    systolic_cols: int = 64
    adder_tree_macs: int = 256
    utilization: float = 0.85

    def __post_init__(self) -> None:
        if self.systolic_rows < 1 or self.systolic_cols < 1 or self.adder_tree_macs < 1:
            raise ValueError("MLP unit dimensions must be positive")
        if not (0.0 < self.utilization <= 1.0):
            raise ValueError("utilization must be in (0, 1]")


@dataclass(frozen=True)
class AcceleratorConfig:
    """Top-level accelerator configuration (defaults = the published design)."""

    name: str = "Instant-3D"
    technology_nm: int = 28
    frequency_hz: float = 800e6
    voltage_v: float = 1.0
    n_grid_cores: int = 4
    grid_core: GridCoreConfig = field(default_factory=GridCoreConfig)
    mlp_unit: MLPUnitConfig = field(default_factory=MLPUnitConfig)
    dram_bandwidth_bytes_per_s: float = 59.7e9     # LPDDR4-1866, same as Jetson TX2/Xavier
    io_buffer_bytes: int = 128 * 1024
    typical_power_w: float = 1.9
    frm_enabled: bool = True
    bum_enabled: bool = True
    fusion_enabled: bool = True

    def __post_init__(self) -> None:
        if self.n_grid_cores < 1:
            raise ValueError("need at least one grid core")
        if self.frequency_hz <= 0 or self.dram_bandwidth_bytes_per_s <= 0:
            raise ValueError("frequency and DRAM bandwidth must be positive")

    @property
    def total_grid_sram_bytes(self) -> int:
        """Hash-table SRAM across all grid cores (1 MB in the published design)."""
        return self.n_grid_cores * self.grid_core.sram_bytes

    @property
    def total_sram_bytes(self) -> int:
        """All on-chip SRAM: hash-table banks, coordinate/address buffers, MLP buffers."""
        return self.total_grid_sram_bytes + self.io_buffer_bytes + 384 * 1024

    @property
    def cycle_time_s(self) -> float:
        return 1.0 / self.frequency_hz

    def without(self, frm: bool = False, bum: bool = False, fusion: bool = False
                ) -> "AcceleratorConfig":
        """Copy of this config with the named features disabled (for ablations)."""
        from dataclasses import replace
        return replace(
            self,
            frm_enabled=self.frm_enabled and not frm,
            bum_enabled=self.bum_enabled and not bum,
            fusion_enabled=self.fusion_enabled and not fusion,
        )
