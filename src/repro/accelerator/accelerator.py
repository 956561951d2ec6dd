"""Top-level Instant-3D accelerator simulation.

:class:`Instant3DAccelerator` combines the component models — grid cores with
FRM/BUM and the multi-core-fusion scheme, the MLP engine, the host SoC and
the LPDDR4 DRAM — into a per-scene training-runtime and energy estimate.

The grid-core behaviour (reads packed per cycle by the FRM, gradient writes
merged by the BUM) is *measured* by replaying a real memory trace extracted
from the Python model (:mod:`repro.accelerator.trace`); the measured
per-access rates are then scaled to the paper-scale workload counts produced
by :mod:`repro.training.profiler`.  Feature ablations (``frm_enabled``,
``bum_enabled``, ``fusion_enabled`` on the config, or swapping the Instant-3D
algorithm for the Instant-NGP baseline) therefore change the estimate through
the simulated mechanisms, which is how Figs. 16-18 and Tab. 5 are
regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.energy import EnergyBreakdown, EnergyModel
from repro.accelerator.grid_core import GridCoreSimulator
from repro.accelerator.mlp_unit import MLPEngine, MLPLayerShape
from repro.accelerator.trace import MemoryTrace
from repro.training.profiler import IterationWorkload, PipelineStep, mlp_head_widths


@dataclass
class AcceleratorRunEstimate:
    """Runtime/energy estimate of one full training run on the accelerator."""

    config_name: str
    per_iteration_s: float
    total_s: float
    n_iterations: int
    energy: Optional[EnergyBreakdown] = None
    average_power_w: float = 0.0

    @property
    def energy_j(self) -> float:
        return self.energy.total_j if self.energy is not None else 0.0

    def speedup_over(self, other_total_s: float) -> float:
        """Speedup of this run versus another runtime (e.g. a Jetson estimate)."""
        if self.total_s <= 0:
            return float("inf")
        return other_total_s / self.total_s

    def energy_efficiency_over(self, other_energy_j: float) -> float:
        """Energy-efficiency gain versus another run's energy."""
        if self.energy_j <= 0:
            return float("inf")
        return other_energy_j / self.energy_j


#: Bytes exchanged with DRAM per queried point (coordinates in, features out).
_IO_BYTES_PER_POINT = 20.0
#: Host SoC effective rate for the pipeline steps it keeps (Steps ❶❷❹❺).
_HOST_FLOPS_PER_S = 0.25e12
_HOST_OVERHEAD_S = 1.0e-4


class Instant3DAccelerator:
    """Cycle-level runtime/energy estimator for the Instant-3D accelerator."""

    def __init__(self, config: Optional[AcceleratorConfig] = None):
        self.config = config if config is not None else AcceleratorConfig()
        self.grid_sim = GridCoreSimulator(self.config)
        self.mlp_engine = MLPEngine(self.config.mlp_unit)
        self.energy_model = EnergyModel(self.config)

    def estimate_training(self, workload: IterationWorkload, trace: MemoryTrace,
                          n_iterations: Optional[int] = None) -> AcceleratorRunEstimate:
        """Estimate the per-scene training runtime and energy for ``workload``.

        Each grid step is priced at the accesses-per-cycle rate its phase
        reaches when ``trace``'s branch is replayed through the grid cores,
        plus the DRAM segment swaps of the branch's fusion plan.
        """
        config = self.config
        n_iterations = (n_iterations if n_iterations is not None
                        else workload.scale.n_iterations)
        cycle_s = config.cycle_time_s
        table_bytes = workload.grid_table_bytes
        simulate = {PipelineStep.GRID_FORWARD: self.grid_sim.simulate_forward,
                    PipelineStep.GRID_BACKWARD: self.grid_sim.simulate_backward}

        grid_s = {step: 0.0 for step in PipelineStep.GRID_STEPS}
        sram_read_bytes = 0.0
        sram_write_bytes = 0.0
        interpolation_macs = 0.0
        dram_swap_bytes = 0.0
        for step in workload.steps:
            if step.step not in PipelineStep.GRID_STEPS:
                continue
            phase = simulate[step.step](trace.branch(step.branch),
                                        table_bytes[step.branch])
            swap_bytes = phase.plan.dram_swap_bytes
            cycles = step.grid_accesses / max(phase.accesses_per_cycle, 1e-9)
            seconds = cycles * cycle_s + swap_bytes / config.dram_bandwidth_bytes_per_s
            grid_s[step.step] += seconds * step.update_fraction
            sram_read_bytes += step.grid_bytes * step.update_fraction
            if phase.bum is not None:
                # Only the updates the BUM could not merge reach the SRAM.
                write_fraction = 1.0 - phase.bum.write_reduction
                sram_write_bytes += step.grid_bytes * write_fraction * step.update_fraction
            dram_swap_bytes += swap_bytes * step.update_fraction
            interpolation_macs += step.flops * step.update_fraction / 2.0

        # MLP engine: forward and backward of the two heads (Step ❸-②).
        layers = [MLPLayerShape(a, b) for widths in mlp_head_widths(workload.config)
                  for a, b in zip(widths[:-1], widths[1:])]
        n_points = workload.points_per_iteration
        mlp_fwd_cycles, _routing = self.mlp_engine.cycles_for_layers(layers, n_points)
        mlp_forward_s = mlp_fwd_cycles * cycle_s
        mlp_backward_s = 2.0 * mlp_forward_s
        mlp_macs = workload.total("flops", [PipelineStep.MLP_FORWARD,
                                            PipelineStep.MLP_BACKWARD]) / 2.0

        # Host SoC steps (❶❷❹❺ and the MLP optimiser update) and DRAM I/O.
        host_flops = workload.total("flops", list(PipelineStep.HOST_STEPS))
        host_bytes = workload.total("other_bytes", list(PipelineStep.HOST_STEPS))
        host_s = (host_flops / _HOST_FLOPS_PER_S
                  + host_bytes / config.dram_bandwidth_bytes_per_s
                  + _HOST_OVERHEAD_S)
        io_bytes = n_points * _IO_BYTES_PER_POINT
        io_s = io_bytes / config.dram_bandwidth_bytes_per_s

        # Grid cores and MLP units pipeline over point chunks within each of
        # the forward and backward halves of an iteration.
        forward_s = max(grid_s[PipelineStep.GRID_FORWARD], mlp_forward_s)
        backward_s = max(grid_s[PipelineStep.GRID_BACKWARD], mlp_backward_s)
        per_iteration_s = forward_s + backward_s + host_s + io_s
        total_s = per_iteration_s * n_iterations

        energy = self.energy_model.breakdown(
            sram_read_bytes=sram_read_bytes * n_iterations,
            sram_write_bytes=sram_write_bytes * n_iterations,
            interpolation_macs=interpolation_macs * n_iterations,
            mlp_macs=mlp_macs * n_iterations,
            activation_bytes=workload.total(
                "other_bytes", [PipelineStep.MLP_FORWARD, PipelineStep.MLP_BACKWARD]
            ) * n_iterations,
            dram_bytes=(io_bytes + dram_swap_bytes + host_bytes) * n_iterations,
            runtime_s=total_s,
        )
        return AcceleratorRunEstimate(
            config_name=config.name,
            per_iteration_s=per_iteration_s,
            total_s=total_s,
            n_iterations=n_iterations,
            energy=energy,
            average_power_w=self.energy_model.average_power_w(energy, total_s),
        )
