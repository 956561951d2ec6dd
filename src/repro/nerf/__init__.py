"""NeRF training substrate: cameras, rays, sampling, volume rendering, losses.

This package implements Steps ❶, ❷, ❹ and ❺ of the six-step NeRF training
pipeline described in Sec. 2.1 of the paper (Step ❸ — querying point features
— lives in :mod:`repro.core`):

❶ sample pixels      → :class:`~repro.nerf.cameras.PinholeCamera` /
                        :func:`~repro.nerf.cameras.sample_pixel_batch`
❷ pixels → rays      → :meth:`PinholeCamera.rays_for_pixels`
   point sampling    → :func:`~repro.nerf.sampling.stratified_samples`
❹ volume rendering   → :class:`~repro.nerf.volume_rendering.VolumeRenderer` (Eq. 1)
❺ reconstruction loss→ :func:`~repro.nerf.losses.mse_loss` (Eq. 2),
                        :func:`~repro.nerf.losses.psnr`

:class:`~repro.nerf.pipeline.RenderPipeline` composes ❷–❹ into the
occupancy-culled ray lifecycle (sample compaction via
:class:`~repro.nerf.occupancy.OccupancyGrid`) that the trainer, evaluators
and fleet route through.
:mod:`repro.nerf.scheduling` supplies the Step-❶ schedulers — uniform
(the bit-identical default), Morton-tiled and occupancy-aware — that trade
pixel-draw randomness for grid-address locality.
"""

from repro.nerf.cameras import PinholeCamera, RayBundle, sample_pixel_batch
from repro.nerf.sampling import stratified_samples, ray_points, ray_probe_points
from repro.nerf.volume_rendering import VolumeRenderer, RenderOutput
from repro.nerf.losses import mse_loss, psnr, mse_to_psnr
from repro.nerf.encoding import spherical_harmonics_encoding
from repro.nerf.occupancy import OccupancyGrid
from repro.nerf.pipeline import PipelineRender, RenderPipeline
from repro.nerf.scheduling import (
    RAY_SCHEDULES,
    MortonTileScheduler,
    OccupancyTileScheduler,
    RayScheduler,
    UniformScheduler,
    make_scheduler,
)

__all__ = [
    "PinholeCamera",
    "RayBundle",
    "sample_pixel_batch",
    "stratified_samples",
    "ray_points",
    "ray_probe_points",
    "RAY_SCHEDULES",
    "RayScheduler",
    "UniformScheduler",
    "MortonTileScheduler",
    "OccupancyTileScheduler",
    "make_scheduler",
    "VolumeRenderer",
    "RenderOutput",
    "mse_loss",
    "psnr",
    "mse_to_psnr",
    "spherical_harmonics_encoding",
    "OccupancyGrid",
    "RenderPipeline",
    "PipelineRender",
]
