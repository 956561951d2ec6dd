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

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.energy import EnergyBreakdown, EnergyModel
from repro.accelerator.fusion import plan_fusion
from repro.accelerator.grid_core import GridCoreSimulator, GridPhaseResult
from repro.accelerator.mlp_unit import MLPEngine
from repro.accelerator.trace import MemoryTrace
from repro.nerf.encoding import spherical_harmonics_dim
from repro.training.profiler import IterationWorkload, PipelineStep


@dataclass
class AcceleratorRunEstimate:
    """Runtime/energy estimate of one full training run on the accelerator."""

    config_name: str
    per_iteration_s: float
    total_s: float
    n_iterations: int
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    grid_phases: Dict[str, GridPhaseResult] = field(default_factory=dict)
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


#: Fallback per-access rates used when no memory trace is provided, taken
#: from typical trace measurements (accesses serviced per cycle per branch
#: and BUM write-reduction fraction).
_DEFAULT_RATES = {
    "forward_accesses_per_cycle_per_bank": 0.85,
    "backward_accesses_per_cycle_per_bank": 0.65,
    "bum_write_reduction": 0.6,
}

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

    # -- grid phases --------------------------------------------------------------
    def _branch_rates(self, trace: Optional[MemoryTrace], table_bytes: Dict[str, int]
                      ) -> Dict[str, Dict[str, float]]:
        """Per-branch accesses-per-cycle rates, measured from the trace if given."""
        rates: Dict[str, Dict[str, float]] = {}
        for branch, bytes_ in table_bytes.items():
            if trace is not None and branch in trace.branches:
                branch_trace = trace.branch(branch)
                fwd = self.grid_sim.simulate_forward(branch_trace, bytes_)
                bwd = self.grid_sim.simulate_backward(branch_trace, bytes_)
                # The backward rate is the backward phase's own access count
                # (gradient reads + update writes, ``bwd.n_accesses``) per
                # core cycle — the old numerator used the forward read count
                # alone, which halved the measured rate while the workload's
                # GRID_BACKWARD step counts both reads and writes.
                rates[branch] = {
                    "forward_accesses_per_cycle": max(fwd.accesses_per_cycle, 1e-9),
                    "backward_accesses_per_cycle": max(bwd.accesses_per_cycle, 1e-9),
                    "forward_result": fwd,
                    "backward_result": bwd,
                }
            else:
                plan = plan_fusion(bytes_, self.config)
                banks = (self.config.n_grid_cores * self.config.grid_core.n_banks
                         if self.config.fusion_enabled else self.config.grid_core.n_banks)
                fwd_per_bank = (_DEFAULT_RATES["forward_accesses_per_cycle_per_bank"]
                                if self.config.frm_enabled else 0.25)
                bwd_per_bank = (_DEFAULT_RATES["backward_accesses_per_cycle_per_bank"]
                                if self.config.frm_enabled else 0.2)
                if not self.config.bum_enabled:
                    bwd_per_bank *= 0.6
                rates[branch] = {
                    "forward_accesses_per_cycle": banks * fwd_per_bank / plan.n_segments,
                    "backward_accesses_per_cycle": banks * bwd_per_bank / plan.n_segments,
                    "forward_result": None,
                    "backward_result": None,
                }
        return rates

    # -- full estimate ---------------------------------------------------------------
    def estimate_training(self, workload: IterationWorkload,
                          trace: Optional[MemoryTrace] = None,
                          n_iterations: Optional[int] = None) -> AcceleratorRunEstimate:
        """Estimate the per-scene training runtime and energy for ``workload``."""
        config = self.config
        n_iterations = (n_iterations if n_iterations is not None
                        else workload.scale.n_iterations)
        cycle_s = config.cycle_time_s
        table_bytes = workload.grid_table_bytes
        rates = self._branch_rates(trace, table_bytes)

        phase_seconds: Dict[str, float] = {}
        grid_phases: Dict[str, GridPhaseResult] = {}
        sram_read_bytes = 0.0
        sram_write_bytes = 0.0
        interpolation_macs = 0.0
        dram_swap_bytes = 0.0

        grid_forward_s = 0.0
        grid_backward_s = 0.0
        for step in workload.steps:
            if step.step not in PipelineStep.GRID_STEPS:
                continue
            branch = step.branch
            plan = plan_fusion(table_bytes[branch], config)
            branch_rates = rates[branch]
            if step.step == PipelineStep.GRID_FORWARD:
                rate = branch_rates["forward_accesses_per_cycle"]
                cycles = step.grid_accesses / rate
                seconds = cycles * cycle_s
                seconds += plan.dram_swap_bytes / config.dram_bandwidth_bytes_per_s
                grid_forward_s += seconds
                phase_seconds[f"grid_forward[{branch}]"] = seconds
                if branch_rates["forward_result"] is not None:
                    grid_phases[f"forward[{branch}]"] = branch_rates["forward_result"]
                sram_read_bytes += step.grid_bytes
                dram_swap_bytes += plan.dram_swap_bytes
            else:
                rate = branch_rates["backward_accesses_per_cycle"]
                cycles = step.grid_accesses / rate
                seconds = cycles * cycle_s
                seconds += plan.dram_swap_bytes / config.dram_bandwidth_bytes_per_s
                seconds *= step.update_fraction
                grid_backward_s += seconds
                phase_seconds[f"grid_backward[{branch}]"] = seconds
                if branch_rates["backward_result"] is not None:
                    grid_phases[f"backward[{branch}]"] = branch_rates["backward_result"]
                bwd_result = branch_rates["backward_result"]
                write_fraction = (1.0 - bwd_result.bum.write_reduction
                                  if bwd_result is not None and bwd_result.bum is not None
                                  else (1.0 - _DEFAULT_RATES["bum_write_reduction"]
                                        if config.bum_enabled else 1.0))
                sram_read_bytes += step.grid_bytes * step.update_fraction
                sram_write_bytes += step.grid_bytes * write_fraction * step.update_fraction
                dram_swap_bytes += plan.dram_swap_bytes * step.update_fraction
            interpolation_macs += step.flops * step.update_fraction / 2.0

        # MLP engine: forward and backward of the two heads (Step ❸-②).
        model_config = workload.config
        branch_features = max(1, model_config.grid.n_features_per_level // 2)
        density_in = model_config.density_grid_config.n_levels * branch_features
        color_in = (model_config.color_grid_config.n_levels * branch_features
                    + spherical_harmonics_dim())
        layers = (
            self.mlp_engine.head_layers(density_in, model_config.mlp_hidden_width,
                                        model_config.mlp_hidden_layers, 1)
            + self.mlp_engine.head_layers(color_in, model_config.mlp_hidden_width,
                                          model_config.mlp_hidden_layers, 3)
        )
        n_points = workload.points_per_iteration
        mlp_fwd_cycles, _routing = self.mlp_engine.cycles_for_layers(layers, n_points)
        mlp_forward_s = mlp_fwd_cycles * cycle_s
        mlp_backward_s = 2.0 * mlp_forward_s
        phase_seconds["mlp_forward"] = mlp_forward_s
        phase_seconds["mlp_backward"] = mlp_backward_s
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
        phase_seconds["host"] = host_s
        phase_seconds["dram_io"] = io_s

        # Grid cores and MLP units pipeline over point chunks within each of
        # the forward and backward halves of an iteration.
        forward_s = max(grid_forward_s, mlp_forward_s)
        backward_s = max(grid_backward_s, mlp_backward_s)
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
            phase_seconds=phase_seconds,
            grid_phases=grid_phases,
            energy=energy,
            average_power_w=self.energy_model.average_power_w(energy, total_s),
        )
