"""Runtime-breakdown analysis (Figs. 4 and 7).

Turns a device-model step-time estimate into the category shares the paper
plots: the embedding-grid interpolation step (❸-①) plus its back-propagation,
the MLP step (❸-②) plus its back-propagation, and everything else.  When the
underlying :class:`~repro.training.profiler.IterationWorkload` is supplied,
the breakdown also carries the occupancy-culling accounting (dense vs culled
point queries per iteration) so reports can show *which* workload the shares
were priced against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.accelerator.devices import DeviceRuntimeEstimate
from repro.training.profiler import IterationWorkload, PipelineStep

#: Display categories used by the paper's breakdown figures.
CATEGORY_GRID = "grid interpolation (step 3-1) + backprop"
CATEGORY_MLP = "MLP (step 3-2) + backprop"
CATEGORY_OTHER = "other pipeline steps"


@dataclass
class RuntimeBreakdown:
    """Per-category share of one device's per-iteration runtime.

    The query-accounting fields describe the workload the estimate was
    priced against: ``keep_fraction`` is 1.0 for a dense workload and the
    occupancy-culled share otherwise, with ``points_per_iteration`` the
    dense product and ``culled_points_per_iteration`` what actually reached
    the grids/MLPs.
    """

    device: str
    total_per_iteration_s: float
    category_seconds: Dict[str, float]
    keep_fraction: float = 1.0
    points_per_iteration: int = 0
    culled_points_per_iteration: int = 0

    def fraction(self, category: str) -> float:
        if self.total_per_iteration_s <= 0:
            return 0.0
        return self.category_seconds.get(category, 0.0) / self.total_per_iteration_s

    @property
    def grid_fraction(self) -> float:
        """Share of runtime spent in the paper's bottleneck step."""
        return self.fraction(CATEGORY_GRID)


def _categorise(step_label: str) -> str:
    step = step_label.split("[")[0]
    if step in PipelineStep.GRID_STEPS:
        return CATEGORY_GRID
    if step in (PipelineStep.MLP_FORWARD, PipelineStep.MLP_BACKWARD):
        return CATEGORY_MLP
    return CATEGORY_OTHER


def runtime_breakdown(estimate: DeviceRuntimeEstimate,
                      workload: Optional[IterationWorkload] = None) -> RuntimeBreakdown:
    """Aggregate a device estimate's step times into the paper's categories.

    Pass the ``workload`` the estimate was computed from to surface its
    occupancy-culling accounting (keep fraction, dense vs culled queries per
    iteration) alongside the category shares.
    """
    categories: Dict[str, float] = {
        CATEGORY_GRID: 0.0,
        CATEGORY_MLP: 0.0,
        CATEGORY_OTHER: 0.0,
    }
    for label, seconds in estimate.step_seconds.items():
        categories[_categorise(label)] += seconds
    return RuntimeBreakdown(
        device=estimate.device,
        total_per_iteration_s=estimate.per_iteration_s,
        category_seconds=categories,
        keep_fraction=workload.keep_fraction if workload is not None else 1.0,
        points_per_iteration=(workload.points_per_iteration
                              if workload is not None else 0),
        culled_points_per_iteration=(workload.culled_points_per_iteration
                                     if workload is not None else 0),
    )
