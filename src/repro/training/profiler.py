"""Static workload accounting for one training iteration.

The paper's runtime analyses (Figs. 4 and 7, Tables 1/2/4/5, Figs. 16-18)
are about *where the work is*: how many embedding-grid accesses, bytes and
FLOPs each step of the training pipeline performs.  This module derives those
counts from an :class:`~repro.core.config.Instant3DConfig` and a
:class:`WorkloadScale`, without running the optimisation, so that paper-scale
workloads (hundreds of thousands of point queries per iteration) can be fed
to the device models and the accelerator simulator.  It is the one place
that counts a configuration's work: the live model keeps no copy of it.

Pipeline steps follow the paper's numbering:

=====================  =======================================================
``SAMPLE_PIXELS``      Step ❶ — random pixel batch (host SoC)
``MAP_RAYS``           Step ❷ — pixels → rays (host SoC)
``GRID_FORWARD``       Step ❸-① — embedding-grid interpolation (per branch)
``MLP_FORWARD``        Step ❸-② — small MLP heads
``VOLUME_RENDER``      Step ❹ — volume rendering (host SoC)
``LOSS``               Step ❺ — squared-error loss (host SoC)
``MLP_BACKWARD``       back-propagation of Step ❸-②
``GRID_BACKWARD``      back-propagation of Step ❸-① (per branch)
``PARAM_UPDATE``       optimiser update of MLP weights
=====================  =======================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.config import Instant3DConfig
from repro.grid.hash_encoding import FEATURE_BYTES, HashGridConfig
from repro.nerf.encoding import spherical_harmonics_dim

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nerf.occupancy import OccupancyGrid


class PipelineStep:
    """Symbolic names of the training-pipeline steps."""

    SAMPLE_PIXELS = "sample_pixels"
    MAP_RAYS = "map_rays"
    GRID_FORWARD = "grid_forward"
    MLP_FORWARD = "mlp_forward"
    VOLUME_RENDER = "volume_render"
    LOSS = "loss"
    MLP_BACKWARD = "mlp_backward"
    GRID_BACKWARD = "grid_backward"
    PARAM_UPDATE = "param_update"

    #: Steps belonging to the paper's bottleneck: Step ❸-① and its backward.
    GRID_STEPS = (GRID_FORWARD, GRID_BACKWARD)
    #: Steps executed on the host SoC in the accelerator system (Fig. 11).
    HOST_STEPS = (SAMPLE_PIXELS, MAP_RAYS, VOLUME_RENDER, LOSS, PARAM_UPDATE)
    ORDER = (
        SAMPLE_PIXELS,
        MAP_RAYS,
        GRID_FORWARD,
        MLP_FORWARD,
        VOLUME_RENDER,
        LOSS,
        MLP_BACKWARD,
        GRID_BACKWARD,
        PARAM_UPDATE,
    )


@dataclass(frozen=True)
class WorkloadScale:
    """Size of one training run: per-iteration batch and iteration count."""

    batch_pixels: int
    samples_per_ray: int
    n_iterations: int

    def __post_init__(self) -> None:
        if self.batch_pixels < 1 or self.samples_per_ray < 1 or self.n_iterations < 1:
            raise ValueError("workload dimensions must be positive")

    @property
    def points_per_iteration(self) -> int:
        """Grid/MLP point queries per iteration (the paper's ">200,000")."""
        return self.batch_pixels * self.samples_per_ray

    @staticmethod
    def paper_scale(n_iterations: int = 1024) -> "WorkloadScale":
        """The Instant-NGP training workload the paper profiles.

        4096 pixels per batch and ~48 occupancy-pruned samples per ray give
        ~197k point queries per iteration, matching the paper's ">200,000
        interpolations per training iteration" statement.
        """
        return WorkloadScale(batch_pixels=4096, samples_per_ray=48,
                             n_iterations=n_iterations)

    @staticmethod
    def from_config(config: Instant3DConfig, n_iterations: int) -> "WorkloadScale":
        """Workload of the reduced-scale Python training loop itself."""
        return WorkloadScale(
            batch_pixels=config.batch_pixels,
            samples_per_ray=config.n_samples_per_ray,
            n_iterations=n_iterations,
        )


@dataclass
class StepWorkload:
    """Operation counts of one pipeline step in one training iteration."""

    step: str
    branch: Optional[str] = None          # "density", "color" or None
    flops: float = 0.0
    grid_accesses: float = 0.0            # individual vertex-embedding reads/writes
    grid_bytes: float = 0.0               # bytes moved to/from the hash tables
    other_bytes: float = 0.0              # non-grid memory traffic
    update_fraction: float = 1.0          # fraction of iterations this step runs

    @property
    def label(self) -> str:
        return f"{self.step}[{self.branch}]" if self.branch else self.step

    def effective(self, attribute: str) -> float:
        """An attribute scaled by the step's update fraction."""
        return getattr(self, attribute) * self.update_fraction


@dataclass
class IterationWorkload:
    """All step workloads of a single training iteration plus run metadata.

    ``keep_fraction`` records the occupancy-culled share of the dense
    ``rays x samples`` product that actually reaches the embedding grids and
    MLP heads (1.0 = dense).  The per-step counts in ``steps`` are already
    scaled by it, so device and accelerator models price the culled workload
    without further adjustment.
    """

    config: Instant3DConfig
    scale: WorkloadScale
    steps: List[StepWorkload] = field(default_factory=list)
    keep_fraction: float = 1.0

    def total(self, attribute: str, steps: Optional[List[str]] = None) -> float:
        """Sum an attribute over (a subset of) steps, weighted by update fraction."""
        selected = self.steps if steps is None else [s for s in self.steps if s.step in steps]
        return float(sum(s.effective(attribute) for s in selected))

    @property
    def grid_table_bytes(self) -> Dict[str, int]:
        """Hash-table storage footprint per branch.

        Uses the decomposed per-branch feature width
        (:func:`branch_features`), so the two branches of the 1:1
        configuration together occupy the same storage as the coupled
        baseline grid.
        """
        features = branch_features(self.config)
        return {
            "density": grid_table_entries(self.config.density_grid_config)
            * features * FEATURE_BYTES,
            "color": grid_table_entries(self.config.color_grid_config)
            * features * FEATURE_BYTES,
        }

    @property
    def points_per_iteration(self) -> int:
        """The dense ``rays x samples`` point-query product."""
        return self.scale.points_per_iteration

    @property
    def culled_points_per_iteration(self) -> int:
        """Point queries that actually reach the grids/MLPs after culling."""
        return int(round(self.scale.points_per_iteration * self.keep_fraction))


# ---------------------------------------------------------------------------
# Per-config count helpers (no table allocation needed).
# ---------------------------------------------------------------------------

def grid_table_entries(grid: HashGridConfig) -> int:
    """Total hash-table entries across levels (dense levels stored exactly)."""
    total = 0
    for level in range(grid.n_levels):
        resolution = grid.level_resolution(level)
        n_vertices = (resolution + 1) ** 3
        total += min(n_vertices, grid.max_table_entries)
    return total


def branch_features(config: Instant3DConfig) -> int:
    """Features per level of each decoupled branch.

    The branches split the baseline grid's feature budget: each carries
    ``F / 2`` features per level when the baseline carries ``F``, so the
    1:1 / 1:1 configuration performs the same total embedding work as the
    coupled Instant-NGP grid it stands in for.
    """
    return max(1, config.grid.n_features_per_level // 2)


def mlp_head_widths(config: Instant3DConfig) -> Tuple[Tuple[int, ...], ...]:
    """Layer widths, input to output, of the density and the color head.

    The density head reads its branch's :func:`branch_features` per level
    and emits one value; the color head also reads the view direction's
    spherical-harmonics code and emits RGB.
    """
    features = branch_features(config)
    hidden = (config.mlp_hidden_width,) * config.mlp_hidden_layers
    density_in = config.density_grid_config.n_levels * features
    color_in = (config.color_grid_config.n_levels * features
                + spherical_harmonics_dim())
    return (density_in, *hidden, 1), (color_in, *hidden, 3)


def _mlp_flops(widths: Tuple[int, ...]) -> int:
    """Forward FLOPs of one MLP head per input point (2 FLOPs per MAC)."""
    return sum(2 * a * b + b for a, b in zip(widths[:-1], widths[1:]))


def build_iteration_workload(config: Instant3DConfig,
                             scale: Optional[WorkloadScale] = None,
                             n_iterations: int = 1024,
                             occupancy: Optional["OccupancyGrid"] = None,
                             keep_fraction: Optional[float] = None) -> IterationWorkload:
    """Derive the per-iteration operation counts of a training configuration.

    Each decoupled branch carries :func:`branch_features` features per
    level, and the MLP heads have the widths of :func:`mlp_head_widths`.

    Occupancy culling enters through ``occupancy`` (an
    :class:`~repro.nerf.occupancy.OccupancyGrid`, whose
    ``expected_queries_per_iteration`` supplies the kept fraction) or an
    explicit ``keep_fraction`` (e.g. the *measured*
    ``TrainingHistory.mean_keep_fraction`` of a real culled run).  Only the
    per-point steps scale with it — the grid interpolations/backwards and
    the MLP heads, which is exactly the work the compacting
    :class:`~repro.nerf.pipeline.RenderPipeline` skips.  Host-side steps
    (pixel sampling, ray setup, volume rendering over the dense planes,
    loss, parameter update) stay at the dense size.  This is how the paper's
    ">200,000 interpolations per iteration" figure arises: 4096 rays x 48
    samples already *net* of the occupancy grid's pruning.
    """
    if occupancy is not None and keep_fraction is not None:
        raise ValueError("pass either occupancy or keep_fraction, not both")
    if scale is None:
        scale = WorkloadScale.paper_scale(n_iterations=n_iterations)
    if occupancy is not None:
        keep_fraction = (occupancy.expected_queries_per_iteration(
            scale.batch_pixels, scale.samples_per_ray)
            / scale.points_per_iteration)
    if keep_fraction is None:
        keep_fraction = 1.0
    if not (0.0 <= keep_fraction <= 1.0):
        raise ValueError("keep_fraction must be in [0, 1]")
    points = scale.points_per_iteration * keep_fraction
    pixels = scale.batch_pixels
    samples = scale.samples_per_ray

    density_grid = config.density_grid_config
    color_grid = config.color_grid_config
    features = branch_features(config)

    workload = IterationWorkload(config=config, scale=scale, steps=[],
                                 keep_fraction=float(keep_fraction))

    # Step ❶ / ❷ — host-side pixel sampling and ray setup.
    workload.steps.append(StepWorkload(
        step=PipelineStep.SAMPLE_PIXELS,
        flops=12.0 * pixels,
        other_bytes=16.0 * pixels,
    ))
    workload.steps.append(StepWorkload(
        step=PipelineStep.MAP_RAYS,
        flops=40.0 * pixels,
        other_bytes=24.0 * pixels,
    ))

    # Step ❸-① — embedding-grid interpolation, one entry per branch.
    for branch, grid, update_freq in (
        ("density", density_grid, config.density_update_freq),
        ("color", color_grid, config.color_update_freq),
    ):
        accesses = points * 8.0 * grid.n_levels
        bytes_per_access = features * FEATURE_BYTES
        interp_flops = points * grid.n_levels * (8.0 * features * 2.0 + 30.0)
        workload.steps.append(StepWorkload(
            step=PipelineStep.GRID_FORWARD,
            branch=branch,
            flops=interp_flops,
            grid_accesses=accesses,
            grid_bytes=accesses * bytes_per_access,
            update_fraction=1.0,          # forward always runs
        ))
        workload.steps.append(StepWorkload(
            step=PipelineStep.GRID_BACKWARD,
            branch=branch,
            flops=interp_flops,
            # Back-propagation touches each vertex twice — a gradient read
            # plus an update write — matching the backward-phase access
            # count (reads + writes) the grid-core simulator measures its
            # accesses-per-cycle rate against.  ``grid_bytes`` stays
            # per-direction: the energy model charges reads and writes
            # separately from it.
            grid_accesses=2.0 * accesses,
            grid_bytes=accesses * bytes_per_access,
            update_fraction=update_freq,  # backward skipped on non-update iterations
        ))

    # Step ❸-② — the two small MLP heads (forward) and their backward.
    density_head, color_head = mlp_head_widths(config)
    head_inputs = density_head[0] + color_head[0]
    mlp_forward_flops = points * (_mlp_flops(density_head) + _mlp_flops(color_head))
    workload.steps.append(StepWorkload(
        step=PipelineStep.MLP_FORWARD,
        flops=mlp_forward_flops,
        other_bytes=points * 4.0 * head_inputs,
    ))
    workload.steps.append(StepWorkload(
        step=PipelineStep.MLP_BACKWARD,
        flops=2.0 * mlp_forward_flops,
        other_bytes=points * 4.0 * head_inputs,
    ))

    # Step ❹ / ❺ — volume rendering and loss on the host.
    workload.steps.append(StepWorkload(
        step=PipelineStep.VOLUME_RENDER,
        flops=pixels * samples * 18.0,
        other_bytes=pixels * samples * 16.0,
    ))
    workload.steps.append(StepWorkload(
        step=PipelineStep.LOSS,
        flops=pixels * 8.0,
        other_bytes=pixels * 12.0,
    ))

    # Optimiser update of the MLP weights (grid updates are accounted in
    # GRID_BACKWARD since they happen in the same scatter pass).
    mlp_params = _mlp_flops(density_head) // 2 + _mlp_flops(color_head) // 2
    workload.steps.append(StepWorkload(
        step=PipelineStep.PARAM_UPDATE,
        flops=10.0 * mlp_params,
        other_bytes=8.0 * mlp_params,
    ))
    return workload
