"""Exact ground-truth renderer for analytic scenes.

The renderer integrates the analytic density/albedo fields along camera rays
with the same volume-rendering equation (Eq. 1) that the learned models use,
producing the posed RGB images that serve as training/test data and the depth
maps used by the Fig. 5 color-vs-density learning-pace analysis.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.datasets.scene import AnalyticScene
from repro.nerf.cameras import PinholeCamera
from repro.nerf.sampling import ray_points, stratified_samples
from repro.nerf.volume_rendering import VolumeRenderer

#: Rays integrated per batch; bounds the ``rays x n_samples`` working set.
RAYS_PER_CHUNK = 4096


class GroundTruthRenderer:
    """Renders reference RGB and depth images of an :class:`AnalyticScene`.

    ``n_samples`` controls the quadrature resolution of the integral; the
    default is dense enough that doubling it changes pixel values by well
    under 1/255 for the scenes in this repository.
    """

    def __init__(self, n_samples: int = 128, white_background: bool = True):
        if n_samples < 2:
            raise ValueError("n_samples must be >= 2")
        self.n_samples = int(n_samples)
        self.white_background = bool(white_background)

    def render(self, scene: AnalyticScene, camera: PinholeCamera
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Render one view; returns ``(rgb, depth)``.

        ``rgb`` has shape ``(H, W, 3)`` in ``[0, 1]``; ``depth`` has shape
        ``(H, W)`` holding the expected ray-termination distance.
        """
        bundle = camera.all_rays()
        colors = np.empty((bundle.n_rays, 3))
        depths = np.empty(bundle.n_rays)
        renderer = VolumeRenderer(white_background=self.white_background)
        for start in range(0, bundle.n_rays, RAYS_PER_CHUNK):
            stop = min(start + RAYS_PER_CHUNK, bundle.n_rays)
            chunk = type(bundle)(
                origins=bundle.origins[start:stop],
                directions=bundle.directions[start:stop],
                near=bundle.near,
                far=bundle.far,
            )
            t_vals, deltas = stratified_samples(chunk, self.n_samples, rng=None)
            points, dirs = ray_points(chunk, t_vals)
            sigmas, rgbs = scene.query(points, dirs)
            n_rays = stop - start
            sigmas = sigmas.reshape(n_rays, self.n_samples)
            rgbs = rgbs.reshape(n_rays, self.n_samples, 3)
            out = renderer.forward(sigmas, rgbs, deltas, t_vals)
            colors[start:stop] = out.colors
            depths[start:stop] = out.depth
        rgb_image = np.clip(colors, 0.0, 1.0).reshape(camera.height, camera.width, 3)
        depth_image = depths.reshape(camera.height, camera.width)
        return rgb_image, depth_image
