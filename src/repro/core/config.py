"""Configuration of the Instant-3D model and training run."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.grid.hash_encoding import HashGridConfig
from repro.nerf.scheduling import RAY_SCHEDULES
from repro.reliability.health import HealthPolicy
from repro.utils.precision import PRECISION_NAMES, PrecisionPolicy, resolve_policy


@dataclass(frozen=True)
class Instant3DConfig:
    """Hyper-parameters of an Instant-3D (or Instant-NGP-baseline) model.

    The two knobs the paper introduces are ``color_size_ratio``
    (``S_C / S_D``) and ``color_update_ratio`` (``F_C / F_D``); the density
    branch always uses the full grid size and updates every iteration, per
    the paper's design rule ``S_D > S_C`` and ``F_D > F_C``.

    The model is built from ``grid``, ``color_size_ratio``, the MLP sizes,
    ``compute_dtype`` and ``sparse_updates``; a
    :class:`~repro.training.trainer.Trainer` rejects a config that differs
    from its model's on any of them.  The other fields configure the run.

    Attributes
    ----------
    grid:
        Base hash-grid configuration shared by both branches; the color
        branch applies ``color_size_ratio`` on top of it.
    color_size_ratio:
        ``S_C : S_D`` expressed as a fraction.  1.0 reproduces the
        Instant-NGP baseline, 0.25 is the published Instant-3D setting.
        Values above 1 express the reversed ablation rows of Tab. 1/2 (a
        color grid larger than the density grid); the effective per-branch
        table budget is always capped at the base grid's full size.
    density_update_freq / color_update_freq:
        ``F_D`` and ``F_C`` as fractions of training iterations in which the
        corresponding grid receives a gradient update.  1.0 means every
        iteration, 0.5 every other iteration.
    mlp_hidden_width / mlp_hidden_layers:
        Size of the small density and color MLP heads (Instant-NGP uses
        3 layers of 64 units; the defaults are a scaled-down equivalent).
        View directions always use the degree-3 spherical-harmonics basis
        (:data:`repro.nerf.encoding.SH_DEGREE`).
    n_samples_per_ray / batch_pixels:
        Per-iteration workload of the training loop.
    learning_rate:
        Adam learning rate shared by grids and MLPs.
    culling_enabled:
        Route training and rendering through the occupancy-culled
        :class:`~repro.nerf.pipeline.RenderPipeline`: samples in cells the
        occupancy grid marks empty are *compacted away* before the radiance
        field is queried (forward and backward).  ``False`` (the default)
        keeps the dense path, which is bit-identical to the pre-culling
        trainer and retained for differential testing.  The grid's shape,
        decay, threshold and refresh schedule belong to
        :class:`~repro.nerf.occupancy.OccupancyGrid`.
    """

    grid: HashGridConfig = field(default_factory=HashGridConfig)
    color_size_ratio: float = 1.0
    density_update_freq: float = 1.0
    color_update_freq: float = 1.0
    mlp_hidden_width: int = 32
    mlp_hidden_layers: int = 2
    n_samples_per_ray: int = 32
    batch_pixels: int = 256
    learning_rate: float = 1e-2
    white_background: bool = True
    culling_enabled: bool = False
    #: Pixel-batch schedule of the training loop (see
    #: :mod:`repro.nerf.scheduling`).  ``"uniform"`` (the default) draws
    #: independent random pixels — bit-identical to previous releases.
    #: ``"morton"`` draws random ``tile_size x tile_size`` tiles and walks
    #: each tile's pixels along the 2-D Z curve; ``"occupancy"``
    #: additionally reorders the batch (stably, no extra RNG draws) by the
    #: 3-D Morton code of the first occupied cell each ray enters, grouping
    #: rays whose kept samples scatter into the same grid rows.  Scored
    #: after :func:`~repro.accelerator.trace.morton_order_record`, the
    #: tiled schedules raise the merge rate of the accelerator's
    #: backward-update merger (``tests/test_scheduling.py`` pins the gain on
    #: a fixed training trace); the tiles alone do not.
    ray_schedule: str = "uniform"
    #: Edge length of the square pixel tiles drawn by the ``"morton"`` and
    #: ``"occupancy"`` schedules (clamped to the smallest view dimension).
    tile_size: int = 8
    #: Compute dtype of every batch-proportional hot-path array (grid weight
    #: planes, renderer compositing, sampling, loss, optimiser scratch).
    #: ``"float64"`` is the bit-exact reference path every differential test
    #: anchors to; ``"float32"`` is the fast path (~half the memory traffic;
    #: perfbench's ``train-large-sparse`` workload times it).  Random
    #: draws are shared between the two, so runs differ only by arithmetic
    #: precision.  Parameter storage is float32 under both.
    compute_dtype: str = "float64"
    #: Make gradient sparsity first-class from backward scatter to optimiser
    #: step: the hash-grid backward emits one compacted
    #: ``(unique_addresses, accumulated_grads)`` COO pair per grid instead of
    #: a dense gradient table, and Adam applies touched-rows-only lazy
    #: updates to the tables (untouched rows' moment decay deferred via
    #: closed-form ``beta**k`` catch-up).  This mirrors the paper's backward-update
    #: -merging hardware, which only writes touched entries back to SRAM;
    #: per-step optimiser cost then scales with the touched rows (~8% of a
    #: culled batch's candidate set) instead of the table size.  Untouched
    #: rows receive no momentum-driven drift, so trajectories differ
    #: (deliberately) from the dense default in the same way the
    #: accelerator's updates differ from a dense-Adam GPU run.  ``False``
    #: (the default) keeps the dense path, bit-identical to previous
    #: releases.
    sparse_updates: bool = False
    #: Numerical-health guardrails (see
    #: :class:`~repro.reliability.health.HealthPolicy`): divergence
    #: detection wired into every train step plus snapshot-and-rollback
    #: recovery.  ``None`` (the default) disables the watchdog entirely —
    #: the trainer then runs the exact pre-health code path, and guards-on
    #: runs that never trip are bit-identical to it.
    health: Optional[HealthPolicy] = None

    def __post_init__(self) -> None:
        if self.compute_dtype not in PRECISION_NAMES:
            raise ValueError(
                f"compute_dtype must be one of {PRECISION_NAMES}, "
                f"got {self.compute_dtype!r}")
        # Ordered comparisons alone let NaN through (NaN <= 0 is False), so
        # the learning rate is checked for finiteness explicitly — a NaN
        # here would otherwise surface hundreds of iterations later as a
        # diverged run.
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(
                f"learning_rate must be finite and > 0, "
                f"got {self.learning_rate}")
        if self.ray_schedule not in RAY_SCHEDULES:
            raise ValueError(
                f"ray_schedule must be one of {RAY_SCHEDULES}, "
                f"got {self.ray_schedule!r}")
        if self.tile_size < 1:
            raise ValueError("tile_size must be >= 1")
        if not (0.0 < self.color_size_ratio <= 8.0):
            raise ValueError("color_size_ratio must be in (0, 8]")
        for freq in (self.density_update_freq, self.color_update_freq):
            if not (0.0 < freq <= 1.0):
                raise ValueError("update frequencies must be in (0, 1]")
        if self.mlp_hidden_width < 1 or self.mlp_hidden_layers < 1:
            raise ValueError("MLP heads need at least one hidden layer/unit")
        if self.n_samples_per_ray < 1 or self.batch_pixels < 1:
            raise ValueError("workload sizes must be positive")

    # -- named configurations ---------------------------------------------------
    @staticmethod
    def instant_ngp_baseline(**overrides) -> "Instant3DConfig":
        """The Instant-NGP baseline: equal grid sizes and update frequencies."""
        return Instant3DConfig(
            color_size_ratio=1.0,
            density_update_freq=1.0,
            color_update_freq=1.0,
            **overrides,
        )

    @staticmethod
    def instant_3d(**overrides) -> "Instant3DConfig":
        """The published Instant-3D setting: S_D:S_C = 1:0.25, F_D:F_C = 1:0.5."""
        return Instant3DConfig(
            color_size_ratio=0.25,
            density_update_freq=1.0,
            color_update_freq=0.5,
            **overrides,
        )

    @staticmethod
    def paper_scale_baseline(n_levels: int = 16, **overrides) -> "Instant3DConfig":
        """The full-scale Instant-NGP training workload the paper profiles.

        This configuration is used only for *workload accounting* (grid
        accesses, bytes and FLOPs per iteration on the Jetson baselines); the
        Python optimisation itself runs the reduced-scale defaults.
        """
        grid = HashGridConfig(
            n_levels=n_levels,
            n_features_per_level=2,
            log2_hashmap_size=19,
            base_resolution=16,
            finest_resolution=2048,
        )
        return Instant3DConfig(
            grid=grid,
            color_size_ratio=1.0,
            density_update_freq=1.0,
            color_update_freq=1.0,
            mlp_hidden_width=64,
            mlp_hidden_layers=2,
            n_samples_per_ray=48,
            batch_pixels=4096,
            **overrides,
        )

    @staticmethod
    def paper_scale_instant3d(**overrides) -> "Instant3DConfig":
        """Full-scale Instant-3D algorithm workload as deployed on the accelerator.

        The hash-table budget matches the published accelerator design: the
        density grid occupies ~1 MB (Level-2 fusion) and the color grid, at
        ``S_C = 0.25 S_D``, ~256 KB (Level-0 standalone mode).
        """
        grid = HashGridConfig(
            n_levels=16,
            n_features_per_level=2,
            log2_hashmap_size=15,
            base_resolution=16,
            finest_resolution=1024,
        )
        return Instant3DConfig(
            grid=grid,
            color_size_ratio=0.25,
            density_update_freq=1.0,
            color_update_freq=0.5,
            mlp_hidden_width=64,
            mlp_hidden_layers=2,
            n_samples_per_ray=48,
            batch_pixels=4096,
            **overrides,
        )

    def with_ratios(self, color_size_ratio: float = None,
                    color_update_freq: float = None,
                    density_update_freq: float = None) -> "Instant3DConfig":
        """Copy this config with different decomposition ratios."""
        kwargs = {}
        if color_size_ratio is not None:
            kwargs["color_size_ratio"] = color_size_ratio
        if color_update_freq is not None:
            kwargs["color_update_freq"] = color_update_freq
        if density_update_freq is not None:
            kwargs["density_update_freq"] = density_update_freq
        return replace(self, **kwargs)

    # -- precision ---------------------------------------------------------------
    @property
    def precision_policy(self) -> PrecisionPolicy:
        """The :class:`~repro.utils.precision.PrecisionPolicy` of this config."""
        return resolve_policy(self.compute_dtype)

    # -- derived grid configs ------------------------------------------------------
    @property
    def density_grid_config(self) -> HashGridConfig:
        """Hash-grid config of the density branch (full size)."""
        return self.grid

    @property
    def color_grid_config(self) -> HashGridConfig:
        """Hash-grid config of the color branch (scaled by ``S_C / S_D``)."""
        return self.grid.scaled(min(1.0, self.grid.size_scale * self.color_size_ratio))

    @property
    def size_ratio_label(self) -> str:
        """Human-readable ``S_D : S_C`` label (e.g. ``"1:0.25"``)."""
        return f"1:{self.color_size_ratio:g}"

    @property
    def freq_ratio_label(self) -> str:
        """Human-readable ``F_D : F_C`` label (e.g. ``"1:0.5"``)."""
        return f"{self.density_update_freq:g}:{self.color_update_freq:g}"

    @property
    def points_per_iteration(self) -> int:
        """Number of grid/MLP point queries per training iteration."""
        return self.batch_pixels * self.n_samples_per_ray
