"""Test-view evaluation: render held-out views and score RGB / depth PSNR.

RGB PSNR is the paper's reconstruction-quality metric (Tables 1, 2 and 4).
Depth PSNR — computed from the expected ray-termination depth against the
analytic scene's ground-truth depth — is the proxy the paper uses for how
well the *density* field has been learned (Fig. 5); it is never trained on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.model import DecoupledRadianceField
from repro.datasets.dataset import SceneDataset
from repro.nerf.cameras import PinholeCamera
from repro.nerf.losses import mse_to_psnr, psnr
from repro.nerf.occupancy import OccupancyGrid
from repro.nerf.pipeline import RenderPipeline, render_coalesced


@dataclass
class EvaluationResult:
    """Average and per-view PSNR of a model on a dataset's test split."""

    rgb_psnr: float
    depth_psnr: float
    per_view_rgb: List[float] = field(default_factory=list)

    @property
    def n_views(self) -> int:
        return len(self.per_view_rgb)


def render_view(model: DecoupledRadianceField, camera: PinholeCamera,
                scene_bound: float, n_samples: int = 48,
                white_background: bool = True,
                occupancy: Optional[OccupancyGrid] = None,
                policy=None):
    """Render a full image and depth map from a trained model.

    The view's rays run through
    :func:`~repro.nerf.pipeline.render_coalesced`, whose field query
    streams :data:`~repro.nerf.pipeline.DEFAULT_CHUNK_POINTS` points at a
    time, so a render needs no buffer larger than a training step's and
    agrees with one whole-view :meth:`RenderPipeline.render_rays` to BLAS
    reduction tolerance.  An ``occupancy`` grid culls samples in
    known-empty cells; without one (the default) the view renders densely.
    ``policy`` selects the compositing precision (``None`` = the float64
    reference); the trainer forwards its config's policy here so evaluation
    renders use the same precision as training.

    Returns ``(rgb, depth)`` with shapes ``(H, W, 3)`` and ``(H, W)``.
    """
    pipeline = RenderPipeline(
        model, scene_bound, n_samples=n_samples,
        white_background=white_background, occupancy=occupancy,
        policy=policy,
    )
    [view] = render_coalesced(pipeline, [camera.all_rays()])
    # float64 images whatever the compute precision, as depth PSNR expects.
    rgb_image = np.clip(view.colors, 0.0, 1.0, dtype=np.float64).reshape(
        camera.height, camera.width, 3)
    depth_image = view.depth.astype(np.float64).reshape(camera.height,
                                                        camera.width)
    return rgb_image, depth_image


def _depth_psnr(pred_depth: np.ndarray, gt_depth: np.ndarray,
                near: float, far: float) -> float:
    """PSNR between normalised predicted and ground-truth depth maps.

    Background rays terminate at (or beyond) the far plane for both the
    prediction and the ground truth, which would dominate the score and hide
    how well the *geometry* has been learned.  The metric is therefore
    evaluated on foreground pixels (ground-truth depth meaningfully closer
    than the far plane); if a view has no foreground it falls back to the
    full image.
    """
    span = max(far - near, 1e-9)
    pred = np.clip((pred_depth - near) / span, 0.0, 1.0)
    gt = np.clip((gt_depth - near) / span, 0.0, 1.0)
    foreground = gt < 0.95
    if np.any(foreground):
        return mse_to_psnr(float(np.mean((pred[foreground] - gt[foreground]) ** 2)))
    return psnr(pred, gt)


def evaluate_model(model: DecoupledRadianceField, dataset: SceneDataset,
                   n_views: Optional[int] = None, n_samples: int = 48,
                   white_background: bool = True,
                   occupancy: Optional[OccupancyGrid] = None,
                   policy=None) -> EvaluationResult:
    """Render test views of ``dataset`` with ``model`` and average PSNR.

    ``occupancy`` and ``policy`` are forwarded to
    :func:`render_view`, so evaluation renders benefit from the same sample
    culling and compute precision as training when the caller (e.g. the
    trainer) provides them.
    """
    views = dataset.test_views if n_views is None else dataset.test_views[:n_views]
    if not views:
        raise ValueError("dataset has no test views to evaluate")
    rgb_scores: List[float] = []
    depth_scores: List[float] = []
    for view in views:
        rgb, depth = render_view(
            model, view.camera, dataset.scene_bound,
            n_samples=n_samples, white_background=white_background,
            occupancy=occupancy, policy=policy,
        )
        rgb_scores.append(psnr(rgb, view.rgb))
        depth_scores.append(
            _depth_psnr(depth, view.depth, view.camera.near, view.camera.far)
        )
    return EvaluationResult(
        rgb_psnr=float(np.mean(rgb_scores)),
        depth_psnr=float(np.mean(depth_scores)),
        per_view_rgb=rgb_scores,
    )
