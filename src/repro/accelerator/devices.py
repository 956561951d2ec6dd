"""Analytic performance/power models of the baseline edge devices (Tab. 3).

The paper's baselines are three NVIDIA Jetson modules running the reference
CUDA Instant-NGP.  Since those boards are not available in this environment,
each is modelled analytically: per-iteration runtime is derived from the same
workload counts (grid bytes gathered/scattered, MLP FLOPs, host-side work)
that the real kernels execute, with per-device effective rates **calibrated
to the paper's own measured end-to-end runtimes** (72 s / ~211 s / ~358 s per
NeRF-Synthetic scene, i.e. the 45x/132x/224x accelerator speedups of Fig. 16
divided into the 1.6 s accelerator runtime) — see DESIGN.md §1 and
EXPERIMENTS.md.  Everything the benchmarks *derive* from these models
(runtime breakdowns, the Instant-3D algorithm's relative speedups, the
crossover behaviour of Tables 1/2/5) follows from how the workload counts
change between configurations, not from further per-experiment fitting.

A key modelled effect is gather/scatter *locality*: a hash table that fits in
the GPU's cache hierarchy is cheaper to access per byte than one that spills
to DRAM.  This is what makes the smaller color grid of the Instant-3D
algorithm faster on the same device (Tab. 1) even though the number of
accesses is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.training.profiler import IterationWorkload, PipelineStep


@dataclass(frozen=True)
class DeviceSpec:
    """Static device specification (the rows of the paper's Table 3)."""

    name: str
    technology_nm: int
    sram_mb: float
    area_mm2: Optional[float]
    frequency_ghz: float
    dram: str
    dram_bandwidth_gbs: float
    typical_power_w: float


@dataclass(frozen=True)
class DevicePerformanceParams:
    """Calibrated effective rates of one device (see module docstring)."""

    grid_gather_bytes_per_s: float      # effective rate for embedding reads
    grid_scatter_bytes_per_s: float     # effective rate for gradient updates
    mlp_flops_per_s: float              # effective FP16 throughput for the MLPs
    host_flops_per_s: float             # rate for host-side pipeline steps
    host_overhead_s: float              # fixed per-iteration launch/sync overhead
    cache_bytes: float                  # working set that gathers/scatters can hold
    locality_floor: float               # minimum relative cost of a cache-resident table


@dataclass
class DeviceRuntimeEstimate:
    """Per-scene training-runtime estimate of a device on a workload."""

    device: str
    per_iteration_s: float
    total_s: float
    n_iterations: int
    step_seconds: Dict[str, float] = field(default_factory=dict)
    energy_j: float = 0.0


#: Table 3 specifications.
JETSON_NANO = DeviceSpec(
    name="Jetson Nano", technology_nm=20, sram_mb=2.5, area_mm2=118.0,
    frequency_ghz=0.9, dram="LPDDR4-1600", dram_bandwidth_gbs=25.6,
    typical_power_w=10.0,
)
JETSON_TX2 = DeviceSpec(
    name="Jetson TX2", technology_nm=16, sram_mb=5.0, area_mm2=None,
    frequency_ghz=1.4, dram="LPDDR4-1866", dram_bandwidth_gbs=59.7,
    typical_power_w=15.0,
)
XAVIER_NX = DeviceSpec(
    name="Xavier NX", technology_nm=12, sram_mb=11.0, area_mm2=350.0,
    frequency_ghz=1.1, dram="LPDDR4-1866", dram_bandwidth_gbs=59.7,
    typical_power_w=20.0,
)

#: Calibrated effective rates (see module docstring for the calibration rule).
_DEVICE_PARAMS: Dict[str, DevicePerformanceParams] = {
    XAVIER_NX.name: DevicePerformanceParams(
        grid_gather_bytes_per_s=3.6e9,
        grid_scatter_bytes_per_s=3.6e9,
        mlp_flops_per_s=2.2e12,
        host_flops_per_s=0.5e12,
        host_overhead_s=5.5e-3,
        cache_bytes=8.0e6,
        locality_floor=0.44,
    ),
    JETSON_TX2.name: DevicePerformanceParams(
        grid_gather_bytes_per_s=1.23e9,
        grid_scatter_bytes_per_s=1.23e9,
        mlp_flops_per_s=0.75e12,
        host_flops_per_s=0.2e12,
        host_overhead_s=16.0e-3,
        cache_bytes=4.0e6,
        locality_floor=0.44,
    ),
    JETSON_NANO.name: DevicePerformanceParams(
        grid_gather_bytes_per_s=0.72e9,
        grid_scatter_bytes_per_s=0.72e9,
        mlp_flops_per_s=0.45e12,
        host_flops_per_s=0.12e12,
        host_overhead_s=28.0e-3,
        cache_bytes=2.0e6,
        locality_floor=0.44,
    ),
}


class EdgeGPUModel:
    """Workload-count-driven runtime/energy model of one Jetson-class device."""

    def __init__(self, spec: DeviceSpec,
                 params: Optional[DevicePerformanceParams] = None):
        self.spec = spec
        if params is None:
            if spec.name not in _DEVICE_PARAMS:
                raise KeyError(f"no calibrated parameters for device {spec.name!r}")
            params = _DEVICE_PARAMS[spec.name]
        self.params = params

    # -- cost helpers ---------------------------------------------------------------
    def _locality_penalty(self, table_bytes: float) -> float:
        """Relative per-byte cost of accessing a hash table of ``table_bytes``.

        Tables no larger than the device's cache working set approach the
        ``locality_floor``; tables much larger than it cost the full rate.
        """
        p = self.params
        resident = min(1.0, table_bytes / max(p.cache_bytes, 1.0))
        return p.locality_floor + (1.0 - p.locality_floor) * resident

    def estimate_step_times(self, workload: IterationWorkload) -> Dict[str, float]:
        """Seconds spent in each pipeline step during one training iteration."""
        p = self.params
        table_bytes = workload.grid_table_bytes
        step_seconds: Dict[str, float] = {}
        for step in workload.steps:
            key = step.label
            if step.step == PipelineStep.GRID_FORWARD:
                penalty = self._locality_penalty(table_bytes[step.branch])
                seconds = step.grid_bytes * penalty / p.grid_gather_bytes_per_s
            elif step.step == PipelineStep.GRID_BACKWARD:
                penalty = self._locality_penalty(table_bytes[step.branch])
                seconds = (step.grid_bytes * penalty / p.grid_scatter_bytes_per_s)
                seconds *= step.update_fraction
            elif step.step in (PipelineStep.MLP_FORWARD, PipelineStep.MLP_BACKWARD):
                seconds = step.flops / p.mlp_flops_per_s
            else:
                seconds = (step.flops / p.host_flops_per_s
                           + step.other_bytes / (self.spec.dram_bandwidth_gbs * 1e9))
            step_seconds[key] = step_seconds.get(key, 0.0) + seconds
        # Fixed kernel-launch / synchronisation overhead, attributed to Step ❶.
        step_seconds[PipelineStep.SAMPLE_PIXELS] = (
            step_seconds.get(PipelineStep.SAMPLE_PIXELS, 0.0) + p.host_overhead_s
        )
        return step_seconds

    def estimate_training(self, workload: IterationWorkload,
                          n_iterations: Optional[int] = None) -> DeviceRuntimeEstimate:
        """Per-scene runtime and energy for a full training run."""
        n_iterations = n_iterations if n_iterations is not None else workload.scale.n_iterations
        step_seconds = self.estimate_step_times(workload)
        per_iteration = float(sum(step_seconds.values()))
        total = per_iteration * n_iterations
        return DeviceRuntimeEstimate(
            device=self.spec.name,
            per_iteration_s=per_iteration,
            total_s=total,
            n_iterations=n_iterations,
            step_seconds=step_seconds,
            energy_j=total * self.spec.typical_power_w,
        )


def baseline_devices() -> Dict[str, EdgeGPUModel]:
    """The three baseline device models, keyed by name (Tab. 3 order)."""
    return {
        JETSON_NANO.name: EdgeGPUModel(JETSON_NANO),
        JETSON_TX2.name: EdgeGPUModel(JETSON_TX2),
        XAVIER_NX.name: EdgeGPUModel(XAVIER_NX),
    }
