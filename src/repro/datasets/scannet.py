"""ScanNet-like indoor room scenes.

ScanNet scenes are real indoor rooms captured with a handheld RGB-D sensor.
The stand-ins here are furnished box rooms: wall/floor slabs enclosing
furniture-scale primitives, photographed by cameras placed *inside* the room
looking outward/around, which reproduces the workload characteristic that
matters for the paper — occupied structure near the grid boundary in every
direction rather than a single centred object.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.datasets.dataset import (RenderedView, SceneDataset,
                                    validate_dataset)
from repro.datasets.renderer import GroundTruthRenderer
from repro.datasets.scene import AnalyticScene, Box, Cylinder, Sphere, checker_color
from repro.nerf.cameras import PinholeCamera
from repro.utils.math3d import look_at_pose
from repro.utils.seeding import derive_rng

#: Scene names of the ScanNet-like indoor suite.
SCANNET_SCENES = ("scene0000_office", "scene0001_bedroom", "scene0002_kitchen",
                  "scene0003_lounge")


def _room_shell(scene: AnalyticScene, half: float, wall_color) -> None:
    """Add floor and four thin wall slabs enclosing ``[-half, half]^2``."""
    thickness = 0.08
    scene.add(Box(center=(0.0, 0.0, -half), half_extents=(half, half, thickness),
                  color=checker_color((0.65, 0.6, 0.55), (0.5, 0.47, 0.44), scale=2.5)))
    for axis, sign in ((0, -1), (0, 1), (1, -1), (1, 1)):
        center = [0.0, 0.0, 0.0]
        extents = [half, half, half]
        center[axis] = sign * half
        extents[axis] = thickness
        scene.add(Box(center=tuple(center), half_extents=tuple(extents), color=wall_color))


def _office() -> AnalyticScene:
    scene = AnalyticScene(name="scene0000_office", scene_bound=1.5)
    _room_shell(scene, half=1.4, wall_color=(0.8, 0.8, 0.78))
    scene.add(Box(center=(0.5, 0.3, -1.0), half_extents=(0.5, 0.3, 0.04),
                  color=(0.5, 0.33, 0.2)))
    for dx, dy in ((0.1, 0.1), (0.9, 0.1), (0.1, 0.5), (0.9, 0.5)):
        scene.add(Box(center=(dx, dy, -1.2), half_extents=(0.03, 0.03, 0.18),
                      color=(0.3, 0.3, 0.3)))
    scene.add(Box(center=(0.4, 0.3, -0.85), half_extents=(0.18, 0.12, 0.1),
                  color=(0.15, 0.15, 0.18)))
    scene.add(Cylinder(center=(-0.7, -0.6, -1.1), radius=0.2, half_height=0.25,
                       color=(0.25, 0.3, 0.55)))
    return scene


def _bedroom() -> AnalyticScene:
    scene = AnalyticScene(name="scene0001_bedroom", scene_bound=1.5)
    _room_shell(scene, half=1.4, wall_color=(0.82, 0.78, 0.72))
    scene.add(Box(center=(-0.4, 0.4, -1.15), half_extents=(0.6, 0.45, 0.2),
                  color=(0.7, 0.7, 0.75)))
    scene.add(Box(center=(-0.4, 0.4, -0.9), half_extents=(0.55, 0.4, 0.06),
                  color=(0.85, 0.3, 0.35)))
    scene.add(Box(center=(0.9, -0.8, -1.0), half_extents=(0.25, 0.2, 0.35),
                  color=(0.45, 0.3, 0.2)))
    scene.add(Sphere(center=(0.9, -0.8, -0.55), radius=0.12, color=(0.95, 0.9, 0.6)))
    return scene


def _kitchen() -> AnalyticScene:
    scene = AnalyticScene(name="scene0002_kitchen", scene_bound=1.5)
    _room_shell(scene, half=1.4, wall_color=(0.85, 0.85, 0.82))
    scene.add(Box(center=(0.0, 1.1, -0.9), half_extents=(1.2, 0.25, 0.45),
                  color=(0.55, 0.55, 0.58)))
    scene.add(Box(center=(0.0, 1.1, -0.42), half_extents=(1.2, 0.28, 0.04),
                  color=(0.3, 0.3, 0.32)))
    scene.add(Box(center=(-1.0, -0.2, -0.7), half_extents=(0.25, 0.3, 0.65),
                  color=(0.9, 0.9, 0.92)))
    scene.add(Cylinder(center=(0.4, 0.2, -1.05), radius=0.3, half_height=0.04,
                       color=(0.6, 0.4, 0.25)))
    return scene


def _lounge() -> AnalyticScene:
    scene = AnalyticScene(name="scene0003_lounge", scene_bound=1.5)
    _room_shell(scene, half=1.4, wall_color=(0.78, 0.8, 0.82))
    scene.add(Box(center=(0.0, -0.9, -1.05), half_extents=(0.8, 0.3, 0.18),
                  color=(0.35, 0.4, 0.6)))
    scene.add(Box(center=(0.0, -0.9, -0.8), half_extents=(0.8, 0.3, 0.08),
                  color=(0.4, 0.45, 0.65)))
    scene.add(Box(center=(0.0, 0.2, -1.15), half_extents=(0.45, 0.3, 0.05),
                  color=(0.5, 0.35, 0.22)))
    scene.add(Sphere(center=(0.7, 0.7, -1.05), radius=0.25, color=(0.2, 0.5, 0.3)))
    return scene


_BUILDERS = {
    "scene0000_office": _office,
    "scene0001_bedroom": _bedroom,
    "scene0002_kitchen": _kitchen,
    "scene0003_lounge": _lounge,
}


def make_scannet_scene(name: str) -> AnalyticScene:
    """Build one ScanNet-like indoor room scene by name."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown ScanNet-like scene {name!r}; choose one of {sorted(_BUILDERS)}")
    return _BUILDERS[name]()


def _interior_cameras(scene: AnalyticScene, n_views: int, image_size: int,
                      rng: np.random.Generator) -> List[PinholeCamera]:
    """Cameras inside the room looking towards jittered points on the far side."""
    cameras = []
    half = scene.scene_bound * 0.55
    for i in range(n_views):
        angle = 2.0 * np.pi * i / max(n_views, 1)
        eye = np.array([half * np.cos(angle), half * np.sin(angle),
                        rng.uniform(-0.3, 0.1)])
        target = np.array([-1.1 * half * np.cos(angle) + rng.uniform(-0.2, 0.2),
                           -1.1 * half * np.sin(angle) + rng.uniform(-0.2, 0.2),
                           rng.uniform(-0.6, -0.1)])
        pose = look_at_pose(eye, target)
        cameras.append(
            PinholeCamera(width=image_size, height=image_size, focal=0.9 * image_size,
                          pose=pose, near=0.05, far=2.0 * scene.scene_bound * 1.8)
        )
    return cameras


def scannet_like(scenes: Optional[Iterable[str]] = None, n_train_views: int = 12,
                 n_test_views: int = 3, image_size: int = 40, seed: int = 0
                 ) -> List[SceneDataset]:
    """Render datasets for the ScanNet-like indoor suite.

    Unlike the object/large-volume suites this uses an interior camera rig
    (cameras inside the room), so it has its own dataset builder rather than
    reusing :func:`repro.datasets.dataset.build_dataset`.
    """
    names = list(scenes) if scenes is not None else list(SCANNET_SCENES)
    renderer = GroundTruthRenderer(n_samples=96)
    datasets = []
    for name in names:
        scene = make_scannet_scene(name)

        def render_split(n_views: int, key: str) -> List[RenderedView]:
            rng = derive_rng(seed, f"{name}:{key}")
            views = []
            for camera in _interior_cameras(scene, n_views, image_size, rng):
                rgb, depth = renderer.render(scene, camera)
                views.append(RenderedView(camera=camera, rgb=rgb, depth=depth))
            return views

        datasets.append(
            validate_dataset(SceneDataset(
                name=name,
                scene=scene,
                train_views=render_split(n_train_views, "train"),
                test_views=render_split(n_test_views, "test"),
            ))
        )
    return datasets
