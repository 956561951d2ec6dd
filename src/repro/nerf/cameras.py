"""Pinhole cameras, ray generation and pixel-batch sampling (Steps ❶ and ❷)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.utils.math3d import normalize, transform_directions


@dataclass
class RayBundle:
    """A batch of rays ``r(t) = origin + t * direction``.

    ``origins`` and ``directions`` have shape ``(N, 3)``; directions are unit
    length.  ``near``/``far`` are the per-bundle integration bounds used when
    sampling points along the rays.
    """

    origins: np.ndarray
    directions: np.ndarray
    near: float
    far: float

    def __post_init__(self) -> None:
        self.origins = np.asarray(self.origins, dtype=np.float64)
        self.directions = np.asarray(self.directions, dtype=np.float64)
        if self.origins.shape != self.directions.shape or self.origins.shape[-1] != 3:
            raise ValueError("origins and directions must both have shape (N, 3)")
        if self.near < 0 or self.far <= self.near:
            raise ValueError("require 0 <= near < far")

    @property
    def n_rays(self) -> int:
        return int(self.origins.shape[0])


@dataclass
class PinholeCamera:
    """A posed pinhole camera using the NeRF/OpenGL convention.

    The camera looks down its local ``-z`` axis; ``pose`` is the 4x4
    camera-to-world matrix.  ``focal`` is expressed in pixels and shared by
    the x and y axes (square pixels), matching the NeRF-Synthetic cameras.
    """

    width: int
    height: int
    focal: float
    pose: np.ndarray
    near: float = 0.05
    far: float = 2.5

    def __post_init__(self) -> None:
        self.pose = np.asarray(self.pose, dtype=np.float64)
        if self.pose.shape != (4, 4):
            raise ValueError("pose must be a 4x4 camera-to-world matrix")
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        if self.focal <= 0:
            raise ValueError("focal length must be positive")

    @property
    def n_pixels(self) -> int:
        return self.width * self.height

    def pixel_grid(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return (cols, rows) index arrays for every pixel, row-major."""
        rows, cols = np.meshgrid(
            np.arange(self.height), np.arange(self.width), indexing="ij"
        )
        return cols.reshape(-1), rows.reshape(-1)

    def rays_for_pixels(self, cols: np.ndarray, rows: np.ndarray) -> RayBundle:
        """Emit world-space rays through the centres of the given pixels (Step ❷)."""
        cols = np.asarray(cols, dtype=np.float64)
        rows = np.asarray(rows, dtype=np.float64)
        cx = self.width / 2.0
        cy = self.height / 2.0
        # Camera-space directions: +x right, +y up, camera looks along -z.
        dirs_cam = np.stack(
            [
                (cols + 0.5 - cx) / self.focal,
                -(rows + 0.5 - cy) / self.focal,
                -np.ones_like(cols),
            ],
            axis=-1,
        )
        dirs_world = normalize(transform_directions(self.pose, dirs_cam))
        origins = np.broadcast_to(self.pose[:3, 3], dirs_world.shape).copy()
        return RayBundle(origins=origins, directions=dirs_world,
                         near=self.near, far=self.far)

    def all_rays(self) -> RayBundle:
        """Rays for every pixel of the image, row-major order."""
        cols, rows = self.pixel_grid()
        return self.rays_for_pixels(cols, rows)


class RayTable:
    """Every training view's rays and colours, flattened for one-gather draws.

    Row ``offset[v] + row * width_v + col`` holds pixel ``(col, row)`` of
    view ``v``: its unit direction (the row of the view's
    :meth:`PinholeCamera.all_rays`) and its colour; each view also has its
    ray origin (the camera centre).  A pixel draw is then integer index
    arithmetic plus one gather per array, whatever the number of views —
    rays are not generated view by view on every draw.  The arrays are
    built on the first draw, not at construction, and never change after
    it, so any number of schedulers may share one table.

    Because every direction comes from one ``all_rays()`` call per view, a
    pixel's ray does not depend on which other pixels share its draw.
    :meth:`PinholeCamera.rays_for_pixels` over a view's drawn pixels gives
    the same bits when it is called with at least two pixels; called with
    one, it runs a one-row matrix product whose direction may differ from
    the table's in the last bit.

    A batch carries one ``near``/``far`` interval, so every view must share
    view 0's; the constructor rejects a view whose interval differs, and an
    image whose shape is not ``(height, width, 3)``, naming the view.
    """

    def __init__(self, cameras: Sequence[PinholeCamera], images: Sequence):
        if len(cameras) != len(images) or not cameras:
            raise ValueError("cameras and images must be non-empty and aligned")
        self.cameras = list(cameras)
        self.images = [np.asarray(image) for image in images]
        self.near = self.cameras[0].near
        self.far = self.cameras[0].far
        for view, (cam, image) in enumerate(zip(self.cameras, self.images)):
            if (cam.near, cam.far) != (self.near, self.far):
                raise ValueError(
                    f"view {view} has near/far ({cam.near}, {cam.far}) but "
                    f"view 0 has ({self.near}, {self.far}); a pixel batch "
                    f"carries one interval")
            expected = (cam.height, cam.width, 3)
            if image.shape != expected:
                raise ValueError(
                    f"view {view} has image shape {image.shape}, expected "
                    f"(height, width, 3) = {expected}")
        self.widths = [cam.width for cam in self.cameras]
        self.heights = [cam.height for cam in self.cameras]
        self._directions: Optional[np.ndarray] = None

    @property
    def n_views(self) -> int:
        return len(self.cameras)

    def _build(self) -> None:
        self._widths = np.array(self.widths, dtype=np.int64)
        self._offsets = np.concatenate(
            ([0], np.cumsum([cam.n_pixels for cam in self.cameras])[:-1]))
        self._colors = np.concatenate(
            [np.asarray(image, dtype=np.float64).reshape(-1, 3)
             for image in self.images])
        self._origins = np.stack([cam.pose[:3, 3] for cam in self.cameras])
        # Last: gather() builds while _directions is None.
        self._directions = np.concatenate(
            [cam.all_rays().directions for cam in self.cameras])

    def draw(self, unit_view: np.ndarray, unit_pixels: int,
             draw_view: Callable[[int, int], Tuple[np.ndarray, np.ndarray]]
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scatter per-view pixel draws back into batch order.

        ``unit_view`` gives the view of each drawn unit (a pixel, or a tile
        of ``unit_pixels`` pixels); ``draw_view(view, count)`` returns the
        ``(cols, rows)`` of ``count`` units of ``view``, unit-major.  It is
        called once per drawn view, in ascending view order, so a caller
        that draws from a generator there consumes it in that order.
        Returns ``(pixel_view, cols, rows)``: each view's pixels fill the
        batch positions of its units, in order.
        """
        counts = np.bincount(unit_view, minlength=self.n_views)
        drawn = [draw_view(view, int(counts[view]))
                 for view in np.flatnonzero(counts)]
        pixel_view = np.repeat(unit_view, unit_pixels)
        order = np.argsort(pixel_view, kind="stable")
        cols = np.empty(pixel_view.size, dtype=np.int64)
        rows = np.empty(pixel_view.size, dtype=np.int64)
        if drawn:
            cols[order] = np.concatenate([c for c, _ in drawn])
            rows[order] = np.concatenate([r for _, r in drawn])
        return pixel_view, cols, rows

    def gather(self, pixel_view: np.ndarray, cols: np.ndarray,
               rows: np.ndarray) -> Tuple[RayBundle, np.ndarray]:
        """``(ray_bundle, target_rgb)`` of the given pixels of the given views."""
        if self._directions is None:
            self._build()
        flat = self._offsets[pixel_view] + rows * self._widths[pixel_view] + cols
        bundle = RayBundle(origins=np.take(self._origins, pixel_view, axis=0),
                           directions=np.take(self._directions, flat, axis=0),
                           near=self.near, far=self.far)
        return bundle, np.take(self._colors, flat, axis=0)

    def sample_pixels(self, batch_size: int, rng: np.random.Generator):
        """Step ❶: ``batch_size`` uniform random pixels across all views.

        Draws with replacement, as in Instant-NGP: one view per pixel
        first, then each drawn view's columns and rows in ascending view
        order.  Returns ``(ray_bundle, target_rgb)``.
        """
        view_idx = rng.integers(0, self.n_views, size=batch_size)
        pixel_view, cols, rows = self.draw(
            view_idx, 1,
            lambda view, count: (
                rng.integers(0, self.widths[view], size=count),
                rng.integers(0, self.heights[view], size=count)))
        return self.gather(pixel_view, cols, rows)


def sample_pixel_batch(cameras, images, batch_size: int,
                       rng: np.random.Generator):
    """Step ❶: randomly sample a batch of pixels across all training views.

    Parameters
    ----------
    cameras:
        Sequence of :class:`PinholeCamera`, one per training view.
    images:
        Sequence of ``(H, W, 3)`` float arrays in ``[0, 1]`` aligned with
        ``cameras``.
    batch_size:
        Number of pixels to draw.
    rng:
        Random generator (sampling is with replacement, as in Instant-NGP).

    Returns
    -------
    ``(ray_bundle, target_rgb)`` where ``target_rgb`` is ``(batch_size, 3)``.

    Builds a :class:`RayTable` over the views for this one draw; callers
    that draw repeatedly keep a table (every ray scheduler does).
    """
    return RayTable(cameras, images).sample_pixels(batch_size, rng)
