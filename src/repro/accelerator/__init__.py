"""The Instant-3D accelerator simulator and baseline device models.

The paper evaluates its accelerator with a cycle-accurate simulator plus RTL
synthesis for area/power; the baselines are three Jetson-class edge GPUs.
This package rebuilds that evaluation apparatus:

* :mod:`repro.accelerator.config` — hardware configuration dataclasses
  (grid cores, SRAM banks, FRM/BUM depths, fusion modes, clock).
* :mod:`repro.accelerator.sram` — multi-bank SRAM arrays with bank-conflict
  semantics.
* :mod:`repro.accelerator.frm` — the Feed-forward Read Mapper (Sec. 4.4).
* :mod:`repro.accelerator.bum` — the Back-propagation Update Merger (Sec. 4.5).
* :mod:`repro.accelerator.mlp_unit` — systolic-array and adder-tree MLP units.
* :mod:`repro.accelerator.fusion` — the multi-core-fusion reconfigurable
  scheme (Sec. 4.6).
* :mod:`repro.accelerator.trace` — memory-trace extraction from real grid
  queries, feeding the micro-simulations, and their Morton ordering.
* :mod:`repro.accelerator.grid_core` — the grid-core pipeline combining the
  above.
* :mod:`repro.accelerator.energy` — area / energy models (Fig. 15).
* :mod:`repro.accelerator.devices` — Jetson Nano / TX2 / Xavier NX analytic
  performance models (Tab. 3, Figs. 4, 16).
* :mod:`repro.accelerator.accelerator` — the top-level simulator producing
  per-scene training runtime and energy (Figs. 16-18, Tab. 5).
"""

from repro.accelerator.config import (
    AcceleratorConfig,
    FusionMode,
    GridCoreConfig,
    MLPUnitConfig,
)
from repro.accelerator.sram import SRAMBankArray
from repro.accelerator.frm import FeedForwardReadMapper, FRMResult
from repro.accelerator.bum import BackPropUpdateMerger, BUMResult, replay_trace
from repro.accelerator.mlp_unit import SystolicArrayUnit, AdderTreeUnit, MLPEngine
from repro.accelerator.fusion import select_fusion_mode, FusionPlan
from repro.accelerator.trace import MemoryTrace, extract_training_trace, morton_order_record
from repro.accelerator.grid_core import GridCoreSimulator, GridPhaseResult
from repro.accelerator.energy import EnergyModel, AreaModel, EnergyBreakdown, AreaBreakdown
from repro.accelerator.devices import (
    DeviceSpec,
    EdgeGPUModel,
    JETSON_NANO,
    JETSON_TX2,
    XAVIER_NX,
    baseline_devices,
)
from repro.accelerator.accelerator import (
    Instant3DAccelerator,
    AcceleratorRunEstimate,
)

__all__ = [
    "AcceleratorConfig",
    "GridCoreConfig",
    "MLPUnitConfig",
    "FusionMode",
    "SRAMBankArray",
    "FeedForwardReadMapper",
    "FRMResult",
    "BackPropUpdateMerger",
    "replay_trace",
    "BUMResult",
    "SystolicArrayUnit",
    "AdderTreeUnit",
    "MLPEngine",
    "select_fusion_mode",
    "FusionPlan",
    "MemoryTrace",
    "extract_training_trace",
    "morton_order_record",
    "GridCoreSimulator",
    "GridPhaseResult",
    "EnergyModel",
    "AreaModel",
    "EnergyBreakdown",
    "AreaBreakdown",
    "DeviceSpec",
    "EdgeGPUModel",
    "JETSON_NANO",
    "JETSON_TX2",
    "XAVIER_NX",
    "baseline_devices",
    "Instant3DAccelerator",
    "AcceleratorRunEstimate",
]
