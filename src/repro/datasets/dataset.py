"""Posed-view dataset container, builder and input validation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.datasets.renderer import GroundTruthRenderer
from repro.datasets.scene import AnalyticScene
from repro.nerf.cameras import PinholeCamera, RayTable
from repro.utils.math3d import spherical_pose
from repro.utils.seeding import derive_rng


@dataclass
class RenderedView:
    """One posed ground-truth view: camera, RGB image and depth map."""

    camera: PinholeCamera
    rgb: np.ndarray
    depth: np.ndarray


class DatasetValidationError(ValueError):
    """A dataset's views or intrinsics are malformed (non-finite, bad shape)."""


def validate_view(view: RenderedView, label: str = "view",
                  direction_tolerance: float = 1e-6) -> None:
    """Validate one posed view's image, depth and camera intrinsics.

    Checks, in order: image/depth shapes match the camera's pixel grid;
    pixel and depth values are finite; the camera pose is finite with
    ``focal > 0``; and the pose's rotation block is orthonormal (within
    ``direction_tolerance``).  The ray generator re-normalizes direction
    *lengths*, so a sheared or scaled rotation block would not blow up —
    it would silently bend every ray's orientation instead, which is why
    the block itself is checked rather than the emitted rays.  Raises
    :class:`DatasetValidationError` naming the offending view.
    """
    camera = view.camera
    rgb = np.asarray(view.rgb)
    expected = (camera.height, camera.width, 3)
    if rgb.shape != expected:
        raise DatasetValidationError(
            f"{label}: rgb shape {rgb.shape} does not match the camera's "
            f"{expected}")
    if not np.isfinite(rgb).all():
        raise DatasetValidationError(f"{label}: rgb image has non-finite pixels")
    if view.depth is not None:
        depth = np.asarray(view.depth)
        if depth.shape != (camera.height, camera.width):
            raise DatasetValidationError(
                f"{label}: depth shape {depth.shape} does not match the "
                f"camera's {(camera.height, camera.width)}")
        if not np.isfinite(depth).all():
            raise DatasetValidationError(
                f"{label}: depth map has non-finite values")
    if not np.isfinite(np.asarray(camera.pose)).all():
        raise DatasetValidationError(f"{label}: camera pose has non-finite "
                                     f"entries")
    if not (np.isfinite(camera.focal) and camera.focal > 0):
        raise DatasetValidationError(
            f"{label}: focal length must be finite and > 0, "
            f"got {camera.focal}")
    rotation = np.asarray(camera.pose, dtype=np.float64)[:3, :3]
    gram_error = float(np.max(np.abs(rotation.T @ rotation - np.eye(3))))
    if gram_error > direction_tolerance:
        raise DatasetValidationError(
            f"{label}: pose rotation block is not orthonormal "
            f"(max |R^T R - I| = {gram_error:.2e}); a sheared or scaled "
            f"pose bends every ray direction the camera emits")


def validate_dataset(dataset: "SceneDataset") -> "SceneDataset":
    """Validate every view of ``dataset``; return it for call chaining.

    Loader-facing entry point: ``scannet_like`` / ``silvr_like`` run it on
    their rendered output so malformed input fails at load time with a
    named view instead of surfacing as a NaN hundreds of iterations into
    training.
    """
    for split, views in (("train", dataset.train_views),
                         ("test", dataset.test_views)):
        for index, view in enumerate(views):
            validate_view(view,
                          label=f"{dataset.name}: {split} view {index}")
    return dataset


@dataclass
class SceneDataset:
    """Training/test views of one analytic scene.

    The structure mirrors a NeRF-Synthetic scene directory: a handful of
    training views spread over the upper hemisphere plus held-out test views
    used for PSNR evaluation.
    """

    name: str
    scene: AnalyticScene
    train_views: List[RenderedView] = field(default_factory=list)
    test_views: List[RenderedView] = field(default_factory=list)
    _ray_table: Optional[RayTable] = field(default=None, init=False,
                                           repr=False, compare=False)

    @property
    def ray_table(self) -> RayTable:
        """The training views' :class:`RayTable`, made on first use.

        Every trainer of this scene draws from it, so a trainer restored
        after eviction finds the table its predecessor built.
        """
        if self._ray_table is None:
            self._ray_table = RayTable(self.train_cameras, self.train_images)
        return self._ray_table

    @property
    def train_cameras(self) -> List[PinholeCamera]:
        return [view.camera for view in self.train_views]

    @property
    def train_images(self) -> List[np.ndarray]:
        return [view.rgb for view in self.train_views]

    @property
    def scene_bound(self) -> float:
        return self.scene.scene_bound

    @property
    def n_train_views(self) -> int:
        return len(self.train_views)

    @property
    def n_test_views(self) -> int:
        return len(self.test_views)


def _camera_ring(n_views: int, radius: float, image_size: int, focal: float,
                 near: float, far: float, rng: np.random.Generator,
                 elevation_range=(0.2, 0.9), target=(0.0, 0.0, 0.0),
                 jitter: float = 0.05) -> List[PinholeCamera]:
    """Inward-facing cameras spread around the scene (NeRF-Synthetic style rig)."""
    cameras = []
    for i in range(n_views):
        theta = 2.0 * np.pi * i / max(n_views, 1) + rng.uniform(-jitter, jitter)
        phi = rng.uniform(*elevation_range)
        pose = spherical_pose(radius, theta, phi, target=target)
        cameras.append(
            PinholeCamera(width=image_size, height=image_size, focal=focal,
                          pose=pose, near=near, far=far)
        )
    return cameras


def build_dataset(scene: AnalyticScene, n_train_views: int = 12, n_test_views: int = 4,
                  image_size: int = 40, seed: int = 0,
                  camera_radius: Optional[float] = None,
                  gt_samples: int = 96) -> SceneDataset:
    """Render a train/test dataset of posed views for ``scene``.

    Parameters
    ----------
    scene:
        The analytic scene to photograph.
    n_train_views / n_test_views:
        Number of posed views in each split.
    image_size:
        Square image resolution in pixels.  The pure-Python reproduction
        defaults to small images; the geometry of the workload (rays,
        samples, grid accesses) scales linearly so the profile shape is
        unchanged.
    seed:
        Seed for the camera-rig jitter (derived per split).
    camera_radius:
        Distance of the camera ring from the origin; defaults to 2.2x the
        scene bound, matching the NeRF-Synthetic framing.
    gt_samples:
        Quadrature samples per ray for the ground-truth renderer.
    """
    if n_train_views < 1 or n_test_views < 1:
        raise ValueError("both splits need at least one view")
    radius = camera_radius if camera_radius is not None else 2.2 * scene.scene_bound
    focal = 1.1 * image_size
    near = max(0.05, radius - 2.0 * scene.scene_bound)
    far = radius + 2.0 * scene.scene_bound
    renderer = GroundTruthRenderer(n_samples=gt_samples)

    def render_split(n_views: int, key: str) -> List[RenderedView]:
        rng = derive_rng(seed, f"{scene.name}:{key}")
        cameras = _camera_ring(
            n_views, radius, image_size, focal, near, far, rng
        )
        views = []
        for camera in cameras:
            rgb, depth = renderer.render(scene, camera)
            views.append(RenderedView(camera=camera, rgb=rgb, depth=depth))
        return views

    return SceneDataset(
        name=scene.name,
        scene=scene,
        train_views=render_split(n_train_views, "train"),
        test_views=render_split(n_test_views, "test"),
    )
