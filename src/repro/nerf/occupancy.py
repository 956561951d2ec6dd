"""Occupancy-grid-based sample pruning.

Instant-NGP maintains a coarse binary occupancy grid over the scene and skips
ray samples that fall in cells known to be empty, which is how it keeps the
number of embedding-grid interpolations per iteration near the ~200k the
paper profiles instead of the full ``rays x samples`` product.  This module
implements that mechanism for the reproduction:

* :class:`OccupancyGrid` — a dense ``resolution^3`` grid of exponentially
  averaged density estimates with a binary occupancy view;
* periodic updates from the radiance field's own density predictions;
* :meth:`OccupancyGrid.filter_samples` — masks out ray samples in empty
  cells so callers can skip querying them.

The grid is wired into the training stack through
:class:`~repro.nerf.pipeline.RenderPipeline`: with
``Instant3DConfig(culling_enabled=True)`` the trainer refreshes the grid from
the density branch whenever :meth:`OccupancyGrid.refresh_due` says so, and
every batch's samples are *compacted* (only occupied-cell samples reach the
radiance field, forward and backward).  The dense path remains the default
(``culling_enabled=False``) and is kept bit-identical for differential
testing.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.utils.seeding import derive_rng, get_rng_state, set_rng_state


class OccupancyGrid:
    """A coarse occupancy grid over the unit cube used to prune empty samples.

    A ``resolution^3`` grid of per-cell density memories, each decayed by
    ``decay`` at every refresh; cells below ``occupancy_threshold`` are
    cullable (which bounds the per-sample alpha lost to ``~threshold *
    delta``).  The defaults, and the refresh schedule below, are the
    reduced-scale equivalent of Instant-NGP's 128^3 grid with 0.95 decay
    refreshed every 16 of ~35k iterations: runs here last a few hundred
    iterations, so the grid is coarser (matching the 4096-point refresh
    coverage, ``1 - exp(-samples / resolution^3)``), refreshed more often
    and decayed faster.
    """

    #: Refresh schedule (:meth:`refresh_due`): a warm-up that lets the
    #: density branch carve out empty space first, then a fixed cadence,
    #: probing ``refresh_samples`` density-branch points each time.
    warmup_iterations: int = 16
    update_every: int = 8
    refresh_samples: int = 4096

    def __init__(self, resolution: int = 16, decay: float = 0.6,
                 occupancy_threshold: float = 0.01, seed: int = 0):
        if resolution < 2:
            raise ValueError("resolution must be >= 2")
        if not (0.0 < decay < 1.0):
            raise ValueError("decay must be in (0, 1)")
        # A NaN threshold passes an ordered comparison and would mark no
        # cell occupied, which silently turns culling off.
        if not (math.isfinite(occupancy_threshold)
                and occupancy_threshold >= 0.0):
            raise ValueError(
                f"occupancy_threshold must be finite and non-negative, "
                f"got {occupancy_threshold}")
        self.resolution = int(resolution)
        self.decay = float(decay)
        self.occupancy_threshold = float(occupancy_threshold)
        self.density = np.zeros((resolution,) * 3, dtype=np.float32)
        # One generator for the grid's whole lifetime: successive updates
        # probe fresh point sets (the state advances), and the sequence is a
        # pure function of the constructor seed rather than of how many
        # updates happened before a restart.
        self._rng = derive_rng(seed, "occupancy.update-points")
        self._updates = 0
        # Cached binary view of ``density`` (and its .any() reduction): the
        # thresholding scans resolution^3 cells, which filter_samples would
        # otherwise redo twice per batch.  Invalidated whenever the density
        # memory changes.
        self._occupancy_cache: Optional[np.ndarray] = None
        self._any_occupied: Optional[bool] = None

    # -- indexing -----------------------------------------------------------------
    def cell_indices(self, points_unit: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Map points in ``[0, 1]^3`` to integer cell indices."""
        points_unit = np.clip(np.asarray(points_unit, dtype=np.float64), 0.0, 1.0 - 1e-9)
        idx = np.floor(points_unit * self.resolution).astype(np.int64)
        return idx[:, 0], idx[:, 1], idx[:, 2]

    # -- updates --------------------------------------------------------------------
    def _invalidate_cache(self) -> None:
        self._occupancy_cache = None
        self._any_occupied = None

    def refresh_due(self, iteration: int) -> bool:
        """Whether the schedule refreshes the grid at training ``iteration``."""
        since_warmup = iteration - self.warmup_iterations
        return since_warmup >= 0 and since_warmup % self.update_every == 0

    def update(self, query_fn: Callable[[np.ndarray], np.ndarray],
               n_samples: Optional[int] = None,
               rng: Optional[np.random.Generator] = None) -> None:
        """Refresh the grid from the radiance field's current density estimates.

        ``query_fn`` maps ``(N, 3)`` unit-cube points to ``(N,)`` densities
        (e.g. the model's :meth:`~repro.core.model.DecoupledRadianceField.query_density`).
        ``n_samples`` points are probed (``None``: :attr:`refresh_samples`).
        Cells are updated with an exponential moving maximum, mirroring
        Instant-NGP's schedule.  Without an explicit ``rng`` the grid's own
        seeded generator is used, so repeated updates probe fresh point sets.
        """
        if n_samples is None:
            n_samples = self.refresh_samples
        rng = rng if rng is not None else self._rng
        points = rng.uniform(0.0, 1.0, size=(n_samples, 3))
        densities = np.asarray(query_fn(points), dtype=np.float32).reshape(-1)
        if densities.shape[0] != n_samples:
            raise ValueError("query_fn must return one density per sampled point")
        self.density *= self.decay
        ix, iy, iz = self.cell_indices(points)
        np.maximum.at(self.density, (ix, iy, iz), densities)
        self._updates += 1
        self._invalidate_cache()

    # -- queries ----------------------------------------------------------------------
    @property
    def n_updates(self) -> int:
        """How many times the grid has been refreshed via :meth:`update`."""
        return self._updates

    @property
    def has_data(self) -> bool:
        """True once the grid holds density evidence (any :meth:`update`).

        A grid without data keeps every sample in :meth:`filter_samples`.
        """
        return self._updates > 0

    @property
    def occupancy(self) -> np.ndarray:
        """Binary occupancy view of the grid (cached; treat as read-only)."""
        if self._occupancy_cache is None:
            self._occupancy_cache = self.density > self.occupancy_threshold
        return self._occupancy_cache

    @property
    def occupancy_fraction(self) -> float:
        """Fraction of cells currently considered occupied."""
        return float(np.mean(self.occupancy))

    def _anything_occupied(self) -> bool:
        if self._any_occupied is None:
            self._any_occupied = bool(self.occupancy.any())
        return self._any_occupied

    def is_occupied(self, points_unit: np.ndarray) -> np.ndarray:
        """Boolean occupancy of the cells containing each point."""
        ix, iy, iz = self.cell_indices(points_unit)
        return self.occupancy[ix, iy, iz]

    def first_occupied_cells(self, points_unit: np.ndarray, n_rays: int,
                             n_probes: int) -> Tuple[np.ndarray, np.ndarray,
                                                     np.ndarray, np.ndarray]:
        """First occupied probe cell along each ray, for batch scheduling.

        ``points_unit`` holds ``n_rays * n_probes`` unit-cube probe points in
        ray-major order (see :func:`~repro.nerf.sampling.ray_probe_points`).
        Returns ``(found, ix, iy, iz)``, each of shape ``(n_rays,)``:
        ``found`` marks rays whose probes hit at least one occupied cell and
        ``ix/iy/iz`` are that first hit's cell indices (the first probe's
        cell for no-hit rays — callers must gate on ``found``).
        """
        points_unit = np.asarray(points_unit, dtype=np.float64)
        if points_unit.shape[0] != n_rays * n_probes:
            raise ValueError("expected n_rays * n_probes probe points")
        ix, iy, iz = self.cell_indices(points_unit)
        hits = self.occupancy[ix, iy, iz].reshape(n_rays, n_probes)
        first = np.argmax(hits, axis=1)
        rays = np.arange(n_rays)
        found = hits[rays, first]
        sel = rays * n_probes + first
        return found, ix[sel], iy[sel], iz[sel]

    def filter_samples(self, points_unit: np.ndarray) -> np.ndarray:
        """Mask of samples worth querying (True = keep).

        Before the grid holds any data every sample is kept, so training is
        correct even if the caller never refreshes the grid.  Likewise, a
        grid whose cells are *all* below the threshold keeps everything:
        culling 100% of samples would freeze training (no gradients ever
        flow, so the density field could never re-exceed the threshold) — an
        empty grid means "no known occupied space yet", not "skip the scene".
        """
        points_unit = np.asarray(points_unit, dtype=np.float64)
        if not self.has_data or not self._anything_occupied():
            return np.ones(points_unit.shape[0], dtype=bool)
        return self.is_occupied(points_unit)

    def expected_queries_per_iteration(self, n_rays: int, n_samples: int) -> float:
        """Expected embedding-grid queries per iteration after pruning.

        Mirrors :meth:`filter_samples`: a data-free or all-empty grid keeps
        every sample, so the expectation is the dense product.
        """
        fraction = self.occupancy_fraction
        keep = fraction if self.has_data and fraction > 0.0 else 1.0
        return n_rays * n_samples * keep

    # -- serialisation ----------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Serialisable snapshot: density planes, counters and RNG state.

        Capturing the probe generator's bit-generator state means a restored
        grid draws exactly the point sets the uninterrupted run would have —
        a requirement for bit-identical resume of culled training.
        """
        return {
            "resolution": int(self.resolution),
            "decay": float(self.decay),
            "occupancy_threshold": float(self.occupancy_threshold),
            "density": self.density.copy(),
            "updates": int(self._updates),
            "rng": get_rng_state(self._rng),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` into an identically configured grid.

        A ``"marks"`` entry, which older snapshots carry, is ignored.
        """
        if int(state["resolution"]) != self.resolution:
            raise ValueError(
                f"checkpoint resolution {state['resolution']} does not match "
                f"grid resolution {self.resolution}")
        if float(state["decay"]) != self.decay or \
                float(state["occupancy_threshold"]) != self.occupancy_threshold:
            raise ValueError(
                "checkpoint decay/threshold do not match this grid's "
                "configuration")
        density = np.asarray(state["density"], dtype=np.float32)
        if density.shape != self.density.shape:
            raise ValueError(
                f"checkpoint density shape {density.shape} does not match "
                f"{self.density.shape}")
        self.density[...] = density
        self._updates = int(state["updates"])
        set_rng_state(self._rng, state["rng"])
        self._invalidate_cache()
