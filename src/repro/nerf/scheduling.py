"""Locality-aware ray scheduling (Step ❶ with address locality in mind).

The accelerator co-design (Sec 4.5) bounds hash-table update throughput by
address locality: the BackPropUpdateMerger can only merge updates whose
addresses recur within its small window.  A uniformly random pixel batch
scatters rays across all views and the whole image plane, so consecutive
samples rarely touch the same grid rows.  This module supplies drop-in
schedulers for the trainer's pixel draw that restore that locality in
software:

* :class:`UniformScheduler` — the seed behaviour: uniform random pixels,
  drawn as :func:`~repro.nerf.cameras.sample_pixel_batch` draws them (same
  RNG stream, same draws).
* :class:`MortonTileScheduler` — draws whole ``tile_size x tile_size`` pixel
  tiles per view and enumerates each tile's pixels in 2-D Morton order, so
  neighbouring rays (which march through overlapping grid voxels) are
  adjacent in the batch.
* :class:`OccupancyTileScheduler` — extends the Morton draw by probing each
  ray against the trainer's :class:`~repro.nerf.occupancy.OccupancyGrid` and
  stably reordering the batch by the 3-D Morton code of the first occupied
  cell each ray enters, grouping rays whose *kept* samples land in the same
  grid region.

The tiles supply the locality; lining a batch's updates up for the merger
is the hardware model's job
(:func:`~repro.accelerator.trace.morton_order_record` orders a recorded
trace), so the trainer's sample order never changes for it.

Every scheduler draws through the :class:`~repro.nerf.cameras.RayTable` it
is given (a trainer passes its dataset's
:attr:`~repro.datasets.dataset.SceneDataset.ray_table`, which outlives the
trainer): the RNG picks views and pixels (or tile origins) view by view, and
one gather per array then reads the drawn pixels' rays and colours from the
table, built on its first draw.

The RNG-stream rule that keeps ``ray_schedule="uniform"`` bit-identical: a
scheduler owns the trainer's pixel stream for the duration of a draw and may
consume it however it likes, but the uniform scheduler consumes it exactly as
``sample_pixel_batch`` always has.  The occupancy reorder is deterministic
(no extra draws), so switching the occupancy grid on or off never perturbs
the pixel stream.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nerf.cameras import RayBundle, RayTable
from repro.nerf.occupancy import OccupancyGrid
from repro.nerf.sampling import normalize_points_to_unit_cube, ray_probe_points
from repro.utils.morton import morton_encode_2d, morton_encode_3d

__all__ = [
    "RAY_SCHEDULES",
    "RayScheduler",
    "UniformScheduler",
    "MortonTileScheduler",
    "OccupancyTileScheduler",
    "make_scheduler",
]

#: Valid ``Instant3DConfig.ray_schedule`` values.
RAY_SCHEDULES = ("uniform", "morton", "occupancy")

#: Sort key larger than any encodable 3-D cell code: rays that hit no
#: occupied cell sink to the end of the batch, after every grouped ray.
_NO_HIT_KEY = np.int64(1) << np.int64(62)


class RayScheduler:
    """Draws ``(RayBundle, targets)`` training batches from a ray table.

    ``last_pixels`` exposes the most recent draw as ``(views, cols, rows)``
    index arrays (None before the first draw) so tests and benchmarks can
    check which pixels a schedule selected without re-deriving them from ray
    geometry.
    """

    last_pixels: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def sample_batch(self, rng: np.random.Generator):
        """Return ``(ray_bundle, target_rgb)`` for one training batch."""
        raise NotImplementedError


class UniformScheduler(RayScheduler):
    """The seed schedule: uniform random pixels, drawn from a ray table.

    :meth:`RayTable.sample_pixels` keeps the RNG consumption (one view
    draw, then per-view column/row draws) byte-for-byte identical to the
    pre-scheduler trainer, which the differential tests pin against a
    frozen per-view draw.  ``last_pixels`` stays ``None``.
    """

    def __init__(self, table: RayTable, batch_pixels: int):
        self.table = table
        if batch_pixels < 1:
            raise ValueError("batch_pixels must be >= 1")
        self.batch_pixels = int(batch_pixels)

    def sample_batch(self, rng: np.random.Generator):
        self.last_pixels = None
        return self.table.sample_pixels(self.batch_pixels, rng)


class MortonTileScheduler(RayScheduler):
    """Locality-preserving pixel draw: random tiles, Morton order within.

    Instead of ``batch_pixels`` independent pixels, the draw selects
    ``ceil(batch_pixels / tile_size^2)`` random tile origins (view first,
    then origin per view, mirroring the uniform draw's structure) and emits
    each tile's pixels along the 2-D Z curve.  Adjacent rays in the batch
    then pierce overlapping sets of grid voxels at every level, which is what
    the BUM's small address-matching window can exploit.

    ``tile_size`` is clamped to the smallest view dimension so tiles always
    fit inside every image.  The drawn tiles' rays and colours are gathered
    from the table in one pass.
    """

    def __init__(self, table: RayTable, batch_pixels: int, tile_size: int = 8):
        self.table = table
        if batch_pixels < 1:
            raise ValueError("batch_pixels must be >= 1")
        if tile_size < 1:
            raise ValueError("tile_size must be >= 1")
        self.batch_pixels = int(batch_pixels)
        min_dim = min(min(self.table.widths), min(self.table.heights))
        self.tile_size = int(min(tile_size, min_dim))
        # Within-tile (dx, dy) offsets along the Z curve, precomputed once.
        # For power-of-two tiles this is exactly the Morton traversal; for
        # other sizes the stable sort of the codes gives the curve restricted
        # to the tile.
        t = self.tile_size
        dx, dy = np.meshgrid(np.arange(t), np.arange(t), indexing="ij")
        order = np.argsort(morton_encode_2d(dx.reshape(-1), dy.reshape(-1)),
                           kind="stable")
        self._tile_dx = dx.reshape(-1)[order]
        self._tile_dy = dy.reshape(-1)[order]
        self.pixels_per_tile = t * t

    def sample_batch(self, rng: np.random.Generator):
        table = self.table
        t = self.tile_size
        n_tiles = -(-self.batch_pixels // self.pixels_per_tile)
        view_idx = rng.integers(0, table.n_views, size=n_tiles)

        def draw_tiles(view, count):
            ox = rng.integers(0, table.widths[view] - t + 1, size=count)
            oy = rng.integers(0, table.heights[view] - t + 1, size=count)
            return ((ox[:, None] + self._tile_dx[None, :]).reshape(-1),
                    (oy[:, None] + self._tile_dy[None, :]).reshape(-1))

        pixel_view, cols, rows = table.draw(view_idx, self.pixels_per_tile,
                                            draw_tiles)
        batch = self.batch_pixels
        self.last_pixels = (pixel_view[:batch], cols[:batch], rows[:batch])
        return table.gather(*self.last_pixels)


class OccupancyTileScheduler(MortonTileScheduler):
    """Morton tile draw + stable reorder by first occupied cell per ray.

    After the tile draw, each ray is probed at ``n_probes`` deterministic
    midpoints between its near and far bounds; the 3-D Morton code of the
    first probe landing in an occupied cell of the shared
    :class:`OccupancyGrid` becomes the ray's sort key (rays that miss all
    occupied cells sort last).  The reorder is a stable permutation of the
    already-drawn batch — it consumes no RNG, so the pixel stream is
    identical to the plain Morton schedule — and groups rays whose *kept*
    samples will scatter into the same grid rows.

    Before the grid holds data (warm-up, or culling disabled) the schedule
    degrades to the plain Morton draw.
    """

    def __init__(self, table: RayTable, batch_pixels: int, tile_size: int = 8,
                 occupancy: Optional[OccupancyGrid] = None,
                 scene_bound: float = 1.0, n_probes: int = 16):
        super().__init__(table, batch_pixels, tile_size)
        if scene_bound <= 0:
            raise ValueError("scene_bound must be positive")
        if n_probes < 1:
            raise ValueError("n_probes must be >= 1")
        self.occupancy = occupancy
        self.scene_bound = float(scene_bound)
        self.n_probes = int(n_probes)
        #: Sorted ray keys of the most recent draw (None when no reorder ran).
        self.last_keys: Optional[np.ndarray] = None

    def sample_batch(self, rng: np.random.Generator):
        bundle, targets = super().sample_batch(rng)
        grid = self.occupancy
        if grid is None or not grid.has_data:
            self.last_keys = None
            return bundle, targets
        probes = ray_probe_points(bundle, self.n_probes)
        probes_unit = normalize_points_to_unit_cube(probes, self.scene_bound)
        found, ix, iy, iz = grid.first_occupied_cells(
            probes_unit, bundle.n_rays, self.n_probes)
        keys = morton_encode_3d(ix, iy, iz)
        keys[~found] = _NO_HIT_KEY
        order = np.argsort(keys, kind="stable")
        self.last_keys = keys[order]
        views, cols, rows = self.last_pixels
        self.last_pixels = (views[order], cols[order], rows[order])
        bundle = RayBundle(origins=bundle.origins[order],
                           directions=bundle.directions[order],
                           near=bundle.near, far=bundle.far)
        return bundle, targets[order]


def make_scheduler(schedule: str, table: RayTable, batch_pixels: int, *,
                   tile_size: int = 8,
                   occupancy: Optional[OccupancyGrid] = None,
                   scene_bound: float = 1.0,
                   n_probes: int = 16) -> RayScheduler:
    """Build the scheduler named by ``Instant3DConfig.ray_schedule``.

    ``occupancy``/``scene_bound``/``n_probes`` only matter for the
    ``"occupancy"`` schedule; passing ``occupancy=None`` there (e.g. culling
    disabled) degrades it to the plain Morton draw.
    """
    if schedule == "uniform":
        return UniformScheduler(table, batch_pixels)
    if schedule == "morton":
        return MortonTileScheduler(table, batch_pixels, tile_size)
    if schedule == "occupancy":
        return OccupancyTileScheduler(table, batch_pixels, tile_size,
                                      occupancy=occupancy,
                                      scene_bound=scene_bound,
                                      n_probes=n_probes)
    raise ValueError(
        f"unknown ray schedule {schedule!r}; expected one of {RAY_SCHEDULES}")
