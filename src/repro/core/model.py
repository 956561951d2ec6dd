"""The Instant-3D radiance-field model (decoupled density and color branches).

The model realises Fig. 6 of the paper:

* density branch — density hash grid (size ``S_D``) → small MLP → truncated
  exponential → volumetric density ``sigma``;
* color branch — color hash grid (size ``S_C``) concatenated with a
  spherical-harmonics encoding of the view direction → small MLP → sigmoid →
  RGB color.

With ``color_size_ratio = 1`` and both update frequencies at 1 the model is
the Instant-NGP baseline configuration that the paper's Tables 1/2 label
"1:1 [24]".  ``backward`` takes per-branch update flags so the trainer can
realise the ``F_D : F_C`` update-frequency schedule by skipping the color
branch's back-propagation on non-update iterations.

The two branches share no mutable state (own tables, MLP, optimiser and
arena-name prefix), so :meth:`DecoupledRadianceField.run_branches` runs the
color branch on a worker thread beside the density branch — the software
form of the accelerator giving each branch its own grid cores — when both
tables are too large for the caches, or when a query or backward covers
enough points to outweigh the thread hand-offs.  On a step where only one
branch updates, :meth:`DecoupledRadianceField.run_branch_updates` gives
that branch the idle worker instead: its grid backward and its lazy
``Adam`` step split over two threads, as fused grid cores serve one large
table together.  Results are bit-identical either way.

The model counts none of its own cost: table bytes, grid accesses and
FLOPs per step come from the config alone, through
:func:`repro.training.profiler.build_iteration_workload`.
"""

from __future__ import annotations

import contextvars
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import Instant3DConfig
from repro.core.decoupled_grid import DecoupledGridEncoder
from repro.nerf.encoding import spherical_harmonics_dim, spherical_harmonics_encoding
from repro.nn.activations import Sigmoid, TruncatedExp
from repro.nn.mlp import MLP
from repro.nn.parameter import Parameter
from repro.utils.seeding import derive_rng
from repro.utils.workspace import WorkspaceArena, arena_buffer

#: Run the two branches concurrently in every phase (query, backward and
#: the trainer's update phase) when the *smaller* branch table holds at
#: least this many rows, so that its gathers and scatters leave the caches.
#: On smaller tables an optimiser step's numpy calls last microseconds, and
#: the interpreter-lock hand-offs cost more than the overlap saves.
BRANCH_THREAD_MIN_ROWS = 1 << 18

#: Below the rows gate, a query or backward still runs concurrently when it
#: covers at least this many points: a numpy call's cost grows with the
#: points it covers.  On ``train-small``'s grid (2-core host) 1,024 points
#: break even on the query and 2,048 save a quarter of the query and a
#: third of the backward (README, "Concurrent density/color branches").
BRANCH_THREAD_MIN_POINTS = 2048


def _run_inline(first: Callable[[], Any],
                second: Callable[[], Any]) -> Tuple[Any, Any]:
    """A pair runner that runs both tasks on the caller's thread, in order."""
    return first(), second()


class DecoupledRadianceField:
    """Queryable/trainable radiance field with decoupled color/density branches."""

    def __init__(self, config: Instant3DConfig, seed: int = 0):
        self.config = config
        self.encoder = DecoupledGridEncoder(config, seed=seed)
        mlp_rng = derive_rng(seed, "mlp_heads")
        hidden = [config.mlp_hidden_width] * config.mlp_hidden_layers
        self.density_mlp = MLP(
            in_features=self.encoder.density_grid.n_output_features,
            hidden_features=hidden,
            out_features=1,
            rng=mlp_rng,
            name="density_mlp",
        )
        self._sh_dim = spherical_harmonics_dim()
        self.color_mlp = MLP(
            in_features=self.encoder.color_grid.n_output_features + self._sh_dim,
            hidden_features=hidden,
            out_features=3,
            rng=mlp_rng,
            name="color_mlp",
        )
        self.density_activation = TruncatedExp()
        self.color_activation = Sigmoid()
        # Points and color-embedding width of the last query (for backward).
        self._last_n_points: Optional[int] = None
        self._last_color_dim = 0
        # Compute-precision policy from the config: the grids got it at
        # construction; MLP activations pick it up here (Linear compute is
        # float32 under both policies — storage precision).
        self.policy = config.precision_policy
        self.density_mlp.set_policy(self.policy)
        self.color_mlp.set_policy(self.policy)
        self.density_activation.set_policy(self.policy)
        self.color_activation.set_policy(self.policy)
        self.arena: Optional[WorkspaceArena] = None
        # Parameter lists are fixed after construction; build them once
        # instead of re-concatenating on every zero_grad/step.
        self._density_params: List[Parameter] = (
            self.encoder.density_parameters() + self.density_mlp.parameters())
        self._color_params: List[Parameter] = (
            self.encoder.color_parameters() + self.color_mlp.parameters())
        self._params: List[Parameter] = (
            self._density_params + self._color_params)
        self._min_branch_rows = min(
            self.encoder.density_grid.table.data.shape[0],
            self.encoder.color_grid.table.data.shape[0])
        # The color-branch worker, started on the first concurrent call.
        self._worker: Optional[ThreadPoolExecutor] = None

    def set_arena(self, arena: Optional[WorkspaceArena]) -> None:
        """Thread a workspace arena through grids, MLP heads and activations.

        Attached by the trainer so steady-state queries reuse one set of
        buffers; pass ``None`` to restore fresh-allocation semantics.
        """
        self.arena = arena
        self.encoder.set_arena(arena)
        self.density_mlp.set_arena(arena)
        self.color_mlp.set_arena(arena)
        self.density_activation.set_arena(arena, "density_act")
        self.color_activation.set_arena(arena, "color_act")

    # -- branch concurrency -------------------------------------------------------
    @property
    def branches_concurrent(self) -> bool:
        """Whether the rows gate holds, so that :meth:`run_branches` uses the
        color-branch worker thread whatever the call's point count."""
        return self._min_branch_rows >= BRANCH_THREAD_MIN_ROWS

    def run_branches(self, density_fn: Optional[Callable[[], Any]],
                     color_fn: Optional[Callable[[], Any]],
                     n_points: int = 0) -> Tuple[Any, Any]:
        """Run ``density_fn()`` and ``color_fn()`` and return both results.

        A ``None`` function is skipped (its result is ``None``).  When both
        are given and a gate holds — :attr:`branches_concurrent`, or
        ``n_points`` (the points the call covers; 0 for work that is not per
        point) is at least :data:`BRANCH_THREAD_MIN_POINTS` — ``color_fn``
        runs on the model's worker thread while ``density_fn`` runs on the
        caller's; otherwise both run inline, density first.  The color task
        runs in a copy of the caller's context, so ``np.errstate`` (a
        context variable) applies to it too.  Both branches are joined
        before this returns or raises; a density-branch exception wins over
        a color-branch one.
        """
        if (density_fn is None or color_fn is None
                or not (self.branches_concurrent
                        or n_points >= BRANCH_THREAD_MIN_POINTS)):
            return (density_fn() if density_fn is not None else None,
                    color_fn() if color_fn is not None else None)
        if self._worker is None:
            self._worker = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-color-branch")
            # The worker may drop the last reference itself, so do not join.
            weakref.finalize(self, self._worker.shutdown, wait=False)
        color = self._worker.submit(contextvars.copy_context().run, color_fn)
        try:
            density = density_fn()
        except BaseException:
            color.exception()           # join (and retrieve) before raising
            raise
        return density, color.result()

    def run_branch_updates(self, density_fn: Optional[Callable[[Any], Any]],
                           color_fn: Optional[Callable[[Any], Any]],
                           n_points: int = 0) -> Tuple[Any, Any]:
        """Run two branch updates that each take a pair runner for their
        sparse grid work (the grid backward, ``Adam.step``).

        The two branches run as :meth:`run_branches` runs them for
        ``n_points`` points (the trainer's update phase passes none).  The
        pair runners follow the rows gate alone.  Below it each function
        gets ``None`` (one kernel call).  Above it, a branch whose partner
        is ``None`` gets :meth:`run_branches`, so its two halves use the
        idle worker; when both run, each gets an inline runner — a task
        already on the worker must not submit to it, or the single worker
        would wait on itself.
        """
        def bind(fn, other):
            if fn is None:
                return None
            runner = None
            if self.branches_concurrent:
                runner = self.run_branches if other is None else _run_inline
            return lambda: fn(runner)

        return self.run_branches(bind(density_fn, color_fn),
                                 bind(color_fn, density_fn), n_points)

    # -- forward ------------------------------------------------------------------
    def query(self, points_unit: np.ndarray, dirs: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate ``(sigma, rgb)`` for points in ``[0, 1]^3`` and unit directions.

        This is Step ❸ of the training pipeline: Step ❸-① is the two grid
        interpolations, Step ❸-② the two small MLPs.
        """
        dtype = self.policy.dtype
        points_unit = np.asarray(points_unit, dtype=dtype)
        dirs = np.asarray(dirs, dtype=dtype)
        if points_unit.shape != dirs.shape or points_unit.shape[-1] != 3:
            raise ValueError("points_unit and dirs must both have shape (N, 3)")

        def density_branch() -> np.ndarray:
            density_emb = self.encoder.encode_density(points_unit)
            raw_sigma = self.density_mlp.forward(density_emb)
            return self.density_activation.forward(raw_sigma)[:, 0]

        def color_branch() -> Tuple[np.ndarray, int]:
            color_emb = self.encoder.encode_color(points_unit)
            dir_enc = spherical_harmonics_encoding(dirs, dtype=dtype,
                                                   arena=self.arena)
            color_in = arena_buffer(self.arena, "model/color_in",
                                    (color_emb.shape[0],
                                     color_emb.shape[1] + dir_enc.shape[1]),
                                    np.float32)
            color_in[:, :color_emb.shape[1]] = color_emb
            color_in[:, color_emb.shape[1]:] = dir_enc
            raw_rgb = self.color_mlp.forward(color_in)
            return self.color_activation.forward(raw_rgb), color_emb.shape[1]

        sigma, (rgb, color_dim) = self.run_branches(
            density_branch, color_branch, points_unit.shape[0])
        self._last_n_points = points_unit.shape[0]
        self._last_color_dim = color_dim
        return sigma, rgb

    def query_density(self, points_unit: np.ndarray) -> np.ndarray:
        """Evaluate ``sigma`` alone for points in ``[0, 1]^3``.

        Used by the occupancy grid's periodic refresh (only the density
        branch matters for culling) — roughly half the work of a full
        :meth:`query`.  It reuses the density branch's forward buffers, so it
        must not be called between a :meth:`query` and its :meth:`backward`.
        """
        points_unit = np.asarray(points_unit, dtype=self.policy.dtype)
        if points_unit.ndim != 2 or points_unit.shape[-1] != 3:
            raise ValueError("points_unit must have shape (N, 3)")
        density_emb = self.encoder.encode_density(points_unit)
        raw_sigma = self.density_mlp.forward(density_emb)
        return self.density_activation.forward(raw_sigma)[:, 0]

    # -- backward -----------------------------------------------------------------
    def backward(self, grad_sigma: np.ndarray, grad_rgb: np.ndarray,
                 update_density: bool = True, update_color: bool = True) -> None:
        """Back-propagate per-point output gradients into the branch parameters.

        ``update_density`` / ``update_color`` implement the paper's
        update-frequency decomposition: a branch whose flag is False skips its
        entire back-propagation (MLP and embedding grid), which is exactly the
        work the accelerator skips on non-update iterations.
        """
        n_points = self._last_n_points
        if n_points is None:
            raise RuntimeError("backward called before query")
        color_dim = self._last_color_dim

        def density_branch(runner) -> None:
            grad_raw_sigma = self.density_activation.backward(
                np.asarray(grad_sigma, dtype=np.float32)[:, None]
            )
            grad_density_emb = self.density_mlp.backward(grad_raw_sigma)
            self.encoder.backward_density(grad_density_emb, runner)

        def color_branch(runner) -> None:
            grad_raw_rgb = self.color_activation.backward(
                np.asarray(grad_rgb, dtype=np.float32)
            )
            grad_color_in = self.color_mlp.backward(grad_raw_rgb)
            self.encoder.backward_color(
                grad_color_in[:, :color_dim], runner)

        self.run_branch_updates(density_branch if update_density else None,
                                color_branch if update_color else None,
                                n_points)

    # -- parameters ---------------------------------------------------------------
    def density_parameters(self) -> List[Parameter]:
        """Parameters updated on density-branch update iterations (cached)."""
        return self._density_params

    def color_parameters(self) -> List[Parameter]:
        """Parameters updated on color-branch update iterations (cached)."""
        return self._color_params

    def parameters(self) -> List[Parameter]:
        """All trainable parameters (cached list — do not mutate)."""
        return self._params

    def zero_grad(self) -> None:
        for param in self._params:
            param.zero_grad()

    # -- serialisation ----------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Serialisable snapshot of every trainable tensor in the field."""
        return {
            "encoder": self.encoder.state_dict(),
            "density_mlp": self.density_mlp.state_dict(),
            "color_mlp": self.color_mlp.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` into a model built from the same config.

        Parameters are copied in place, so optimisers already bound to this
        model keep valid references.  Transient forward caches are untouched
        (they are rebuilt by the next :meth:`query`).
        """
        self.encoder.load_state_dict(state["encoder"])
        self.density_mlp.load_state_dict(state["density_mlp"])
        self.color_mlp.load_state_dict(state["color_mlp"])
