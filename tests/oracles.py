"""Frozen reference oracles for the differential tests.

Production ships one grid engine and one gradient representation; the
reference forms they replaced live here, frozen, so tests can keep checking
the engine against them.

* :func:`per_level_loop` — the per-level query loop, verbatim: one level at
  a time, built from the scalar Eq. 3 helpers (``spatial_hash`` /
  ``dense_index``, ``trilinear_weights``, ``interpolate``,
  ``interpolate_backward``).  It reads a
  :class:`~repro.grid.hash_encoding.MultiResHashGrid`'s level tables and
  returns the embeddings, a per-level address/weight record and the dense
  gradient table — what the engine must equal (traces bit-identically).
* :func:`coo_from_dense` and :func:`use_dense_scatter` — the
  dense-representation oracle of the sparse (COO) backward: scatter into a
  full-table ``np.bincount`` accumulator, then keep the non-zero rows.
* :func:`updates_in_loop` — the O(n) per-iteration count of
  :meth:`~repro.core.schedule.UpdateSchedule.should_update`, which the
  schedule tests hold to the closed form ``floor(n * F)``.
* :func:`per_view_pixel_draw` and :func:`per_view_tile_draw` — the pixel
  draws that :class:`~repro.nerf.cameras.RayTable` replaced: rays generated
  view by view with ``rays_for_pixels`` on every draw, consuming the RNG in
  the order the table must keep.
* :func:`pipeline_address_sort` — the training pipeline's Morton sort of
  the kept samples that
  :func:`~repro.accelerator.trace.morton_order_record` replaced: the
  trace-side order must equal what the sorted query recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.grid.hash_function import dense_index, spatial_hash
from repro.nerf.cameras import RayBundle
from repro.utils.morton import morton_encode_3d
from repro.grid.interpolation import (
    CORNER_OFFSETS,
    interpolate,
    interpolate_backward,
    trilinear_weights,
)


@dataclass
class LoopRecord:
    """The per-level loop's access record: one ``(N, 8)`` array per level."""

    addresses: List[np.ndarray] = field(default_factory=list)
    weights: List[np.ndarray] = field(default_factory=list)
    level_offsets: List[int] = field(default_factory=list)
    table_sizes: List[int] = field(default_factory=list)

    def flat_addresses(self, level: Optional[int] = None) -> np.ndarray:
        """Global (level-offset) addresses, point-major within a level."""
        if level is not None:
            return (self.addresses[level] + self.level_offsets[level]).reshape(-1)
        parts = [(addr + offset).reshape(-1)
                 for addr, offset in zip(self.addresses, self.level_offsets)]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def per_level_loop(grid, points: np.ndarray,
                   grad_embeddings: Optional[np.ndarray] = None
                   ) -> Tuple[np.ndarray, LoopRecord, Optional[np.ndarray]]:
    """Query ``grid`` one level at a time (the pre-fusion engine).

    Returns ``(embeddings, record, grad_table)``: ``(N, L*F)`` float32
    embeddings, the per-level :class:`LoopRecord`, and — when
    ``grad_embeddings`` is given — the ``(T, F)`` float32 gradient table of
    all levels, scattered per level with ``np.add.at`` into float64 zeros.
    Computes in the grid's policy dtype and never touches grid state.
    """
    dtype = grid.policy.dtype
    points = np.clip(np.asarray(points, dtype=dtype), 0.0, 1.0)
    record = LoopRecord()
    outputs = []
    offset = 0
    for level in grid.levels:
        scaled = points * np.asarray(level.resolution, dtype=dtype)
        base = np.floor(scaled).astype(np.int64)
        base = np.minimum(base, level.resolution - 1)
        frac = (scaled - base).astype(dtype)
        corners = base[:, None, :] + CORNER_OFFSETS[None, :, :]   # (N, 8, 3)
        if level.is_dense:
            addresses = dense_index(corners, level.resolution)
        else:
            addresses = spatial_hash(corners, level.table_size, validate=False)
        weights = trilinear_weights(frac, dtype=dtype)            # (N, 8)
        corner_values = np.take(level.table.data, addresses, axis=0)
        outputs.append(
            interpolate(corner_values, weights, dtype=dtype).astype(np.float32))
        record.addresses.append(addresses)
        record.weights.append(weights)
        record.level_offsets.append(offset)
        record.table_sizes.append(level.table_size)
        offset += level.table_size
    embeddings = np.concatenate(outputs, axis=1)
    if grad_embeddings is None:
        return embeddings, record, None
    grad_embeddings = np.asarray(grad_embeddings, dtype=dtype)
    f = grid.config.n_features_per_level
    tables = []
    for idx, level in enumerate(grid.levels):
        corner_grads = interpolate_backward(
            grad_embeddings[:, idx * f:(idx + 1) * f], record.weights[idx],
            dtype=dtype)                                          # (N, 8, F)
        grad_table = np.zeros((level.table_size, f), dtype=np.float64)
        np.add.at(grad_table, record.addresses[idx].reshape(-1),
                  corner_grads.reshape(-1, f))
        tables.append(grad_table.astype(np.float32))
    return embeddings, record, np.concatenate(tables, axis=0)


def coo_from_dense(grad: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The COO pair of a dense gradient table.

    Rows are ``flatnonzero(any(grad != 0))`` (sorted, unique); values are
    those rows with ``+ 0.0`` applied, so a ``-0.0`` entry reads as the
    ``+0.0`` a zeroed dense accumulator would hold.
    """
    grad = np.asarray(grad, dtype=np.float32)
    rows = np.flatnonzero(np.any(grad != 0.0, axis=tuple(range(1, grad.ndim))))
    values = grad[rows]
    values += 0.0
    return rows, values


def use_dense_scatter(grid) -> None:
    """Swap a sparse grid's COO scatter kernel for the dense-representation
    oracle.

    The replacement accumulates a level range's contributions over the
    whole table with one ``np.bincount`` per feature over all corner planes
    (the dense backward's arithmetic), casts to float32 and emits
    :func:`coo_from_dense` of the range's table block — bit-identical to the
    first-touch COO scatter it stands in for, at dense cost.
    """
    def scatter(record, grad3, lo, hi, part):
        total = grid.total_table_entries
        f = grad3.shape[2]
        addr = record.address_planes[:, lo:hi].ravel()
        acc = np.zeros((total, f), dtype=np.float64)
        for j in range(f):
            contrib = record.weight_planes[:, lo:hi] * grad3[:, lo:hi, j].T
            acc[:, j] = np.bincount(addr, weights=contrib.astype(np.float64).ravel(),
                                    minlength=total)
        start, stop = grid._level_bounds[lo], grid._level_bounds[hi]
        rows, values = coo_from_dense(acc[start:stop].astype(np.float32))
        return rows + start, values

    grid._scatter_sparse = scatter


def updates_in_loop(schedule, n_iterations: int) -> int:
    """Count the iterations among the first ``n_iterations`` at which
    ``schedule.should_update`` fires, one by one."""
    if n_iterations < 0:
        raise ValueError("n_iterations must be non-negative")
    return sum(schedule.should_update(i) for i in range(n_iterations))


def per_view_pixel_draw(cameras, images, batch_size: int,
                        rng: np.random.Generator):
    """The per-view uniform draw of ``sample_pixel_batch``, verbatim.

    One view per pixel, then per drawn view (ascending) its columns and
    rows; each view's rays come from one ``rays_for_pixels`` call over its
    drawn pixels.  Returns ``(bundle, targets)``.
    """
    if len(cameras) != len(images) or not cameras:
        raise ValueError("cameras and images must be non-empty and aligned")
    n_views = len(cameras)
    view_idx = rng.integers(0, n_views, size=batch_size)
    origins = np.empty((batch_size, 3))
    directions = np.empty((batch_size, 3))
    targets = np.empty((batch_size, 3))
    near = cameras[0].near
    far = cameras[0].far
    for view in np.unique(view_idx):
        mask = view_idx == view
        count = int(mask.sum())
        cam = cameras[view]
        image = np.asarray(images[view])
        cols = rng.integers(0, cam.width, size=count)
        rows = rng.integers(0, cam.height, size=count)
        bundle = cam.rays_for_pixels(cols, rows)
        origins[mask] = bundle.origins
        directions[mask] = bundle.directions
        targets[mask] = image[rows, cols]
    return RayBundle(origins=origins, directions=directions, near=near,
                     far=far), targets


def per_view_tile_draw(cameras, images, batch_pixels: int, tile_dx, tile_dy,
                       rng: np.random.Generator):
    """The per-view Morton tile draw, verbatim.

    ``tile_dx``/``tile_dy`` are a tile's pixel offsets in Z-curve order
    (``MortonTileScheduler._tile_dx``/``_tile_dy``).  One view per tile,
    then per drawn view (ascending) its tile origins.  Returns
    ``(bundle, targets, (views, cols, rows))``.
    """
    ppt = tile_dx.size
    t = int(tile_dx.max()) + 1
    n_tiles = -(-batch_pixels // ppt)
    n_total = n_tiles * ppt
    view_idx = rng.integers(0, len(cameras), size=n_tiles)
    pixel_view = np.repeat(view_idx, ppt)
    origins = np.empty((n_total, 3))
    directions = np.empty((n_total, 3))
    targets = np.empty((n_total, 3))
    cols_all = np.empty(n_total, dtype=np.int64)
    rows_all = np.empty(n_total, dtype=np.int64)
    for view in np.unique(view_idx):
        count = int((view_idx == view).sum())
        cam = cameras[view]
        image = np.asarray(images[view])
        ox = rng.integers(0, cam.width - t + 1, size=count)
        oy = rng.integers(0, cam.height - t + 1, size=count)
        cols = (ox[:, None] + tile_dx[None, :]).reshape(-1)
        rows = (oy[:, None] + tile_dy[None, :]).reshape(-1)
        bundle = cam.rays_for_pixels(cols, rows)
        mask = pixel_view == view
        origins[mask] = bundle.origins
        directions[mask] = bundle.directions
        targets[mask] = image[rows, cols]
        cols_all[mask] = cols
        rows_all[mask] = rows
    b = batch_pixels
    bundle = RayBundle(origins=origins[:b], directions=directions[:b],
                       near=cameras[0].near, far=cameras[0].far)
    return bundle, targets[:b], (pixel_view[:b], cols_all[:b], rows_all[:b])


def pipeline_address_sort(grid, points_unit: np.ndarray,
                          idx: np.ndarray) -> np.ndarray:
    """``RenderPipeline._address_sorted`` with ``point_sort_keys``, verbatim.

    Permutes the kept flat sample indices ``idx`` into the stable order of
    the Morton codes of their points' finest-level voxels; the pipeline
    then gathered and queried the points in that order.
    """
    sort_points = np.take(points_unit, idx, axis=0)
    sort_points = np.asarray(sort_points, dtype=np.float64)
    res = grid.levels[-1].resolution
    base = (np.clip(sort_points, 0.0, 1.0) * res).astype(np.int64)
    np.minimum(base, res - 1, out=base)
    keys = morton_encode_3d(base[:, 0], base[:, 1], base[:, 2])
    perm = np.argsort(keys, kind="stable")
    return np.take(idx, perm)
