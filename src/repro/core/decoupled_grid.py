"""The decoupled density/color embedding grids (Sec. 3.2 of the paper).

Instant-NGP stores one multiresolution hash grid whose interpolated
embedding feeds a density MLP that in turn feeds the color MLP.  Instant-3D
*decomposes* that grid into a density grid and a color grid so that the two
feature types — which learn at different paces — can use different grid
sizes and update frequencies.  :class:`DecoupledGridEncoder` owns the two
:class:`~repro.grid.hash_encoding.MultiResHashGrid` instances, each with its
own parameters and access record.  What each branch costs in storage,
accesses and FLOPs (and so the accelerator's fusion mode) is counted from
the config alone by :func:`repro.training.profiler.build_iteration_workload`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.config import Instant3DConfig
from repro.grid.hash_encoding import GridAccessRecord, MultiResHashGrid
from repro.nn.parameter import Parameter
from repro.utils.seeding import derive_rng
from repro.utils.workspace import WorkspaceArena


class DecoupledGridEncoder:
    """A pair of hash grids: a full-size density grid and a scaled color grid.

    Both grids share the config's compute-precision policy; an optional
    workspace arena (threaded in by the trainer via :meth:`set_arena`) makes
    their query planes reusable across iterations.
    """

    def __init__(self, config: Instant3DConfig, seed: int = 0):
        self.config = config
        policy = config.precision_policy
        self.density_grid = MultiResHashGrid(
            config.density_grid_config,
            rng=derive_rng(seed, "density_grid"),
            name="density_grid",
            policy=policy,
            sparse=config.sparse_updates,
        )
        self.color_grid = MultiResHashGrid(
            config.color_grid_config,
            rng=derive_rng(seed, "color_grid"),
            name="color_grid",
            policy=policy,
            sparse=config.sparse_updates,
        )

    def set_arena(self, arena: Optional[WorkspaceArena]) -> None:
        """Attach a workspace arena to both branch grids."""
        self.density_grid.set_arena(arena)
        self.color_grid.set_arena(arena)

    # -- forward / backward -------------------------------------------------------
    def encode_density(self, points_unit: np.ndarray) -> np.ndarray:
        """Interpolate density-branch embeddings for points in ``[0, 1]^3``."""
        return self.density_grid.forward(points_unit)

    def encode_color(self, points_unit: np.ndarray) -> np.ndarray:
        """Interpolate color-branch embeddings for points in ``[0, 1]^3``."""
        return self.color_grid.forward(points_unit)

    def backward_density(self, grad_embeddings: np.ndarray,
                         runner: Optional[Callable] = None) -> None:
        """Scatter density-embedding gradients into the density tables
        (``runner``: see :meth:`MultiResHashGrid.backward`)."""
        self.density_grid.backward(grad_embeddings, runner)

    def backward_color(self, grad_embeddings: np.ndarray,
                       runner: Optional[Callable] = None) -> None:
        """Scatter color-embedding gradients into the color tables
        (``runner``: see :meth:`MultiResHashGrid.backward`)."""
        self.color_grid.backward(grad_embeddings, runner)

    # -- parameters and tracing ----------------------------------------------------
    def last_access_records(self) -> Dict[str, Optional[GridAccessRecord]]:
        """Access records of the most recent encode calls (for trace export)."""
        return {
            "density": self.density_grid.last_access,
            "color": self.color_grid.last_access,
        }

    def density_parameters(self) -> List[Parameter]:
        return self.density_grid.parameters()

    def color_parameters(self) -> List[Parameter]:
        return self.color_grid.parameters()

    # -- serialisation ------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Serialisable snapshot of both branch grids."""
        return {
            "density_grid": self.density_grid.state_dict(),
            "color_grid": self.color_grid.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` into an identically configured encoder."""
        self.density_grid.load_state_dict(state["density_grid"])
        self.color_grid.load_state_dict(state["color_grid"])
