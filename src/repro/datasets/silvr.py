"""SILVR-like large-volume plenoptic scenes.

SILVR (Courteaux et al., 2022) is a synthetic *immersive, large-volume*
dataset: cameras are positioned inside sizeable environments rather than
orbiting a single object.  The stand-ins here use a larger scene bound and
more, larger primitives than the object scenes, and the camera rig sits at a
wider radius, so the hash grid must cover more occupied volume — which is the
property that makes the paper's SILVR runtimes ~1.9x NeRF-Synthetic's.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.datasets.dataset import SceneDataset, build_dataset, validate_dataset
from repro.datasets.scene import (
    AnalyticScene,
    Box,
    Cylinder,
    GroundPlane,
    Sphere,
    checker_color,
    gradient_color,
)
from repro.utils.seeding import derive_rng

#: Scene names of the SILVR-like large-volume suite.
SILVR_SCENES = ("garden", "agora", "zen_garden")


def _garden() -> AnalyticScene:
    scene = AnalyticScene(name="garden", scene_bound=2.0)
    scene.add(GroundPlane(height=-1.0, thickness=0.25,
                          color=checker_color((0.2, 0.5, 0.2), (0.15, 0.4, 0.15), scale=2.0),
                          density=30.0))
    rng = derive_rng(21, "silvr:garden")
    for _ in range(8):
        x, y = rng.uniform(-1.6, 1.6, size=2)
        height = rng.uniform(0.4, 0.9)
        scene.add(Cylinder(center=(x, y, -0.9 + height / 2), radius=0.08,
                           half_height=height / 2, color=(0.4, 0.26, 0.13)))
        scene.add(Sphere(center=(x, y, -0.8 + height), radius=rng.uniform(0.25, 0.45),
                         color=(0.12, rng.uniform(0.4, 0.65), 0.14)))
    scene.add(Box(center=(0.0, 0.0, -0.85), half_extents=(0.5, 0.5, 0.12),
                  color=(0.6, 0.6, 0.62)))
    return scene


def _agora() -> AnalyticScene:
    scene = AnalyticScene(name="agora", scene_bound=2.0)
    scene.add(GroundPlane(height=-1.0, thickness=0.25,
                          color=checker_color((0.75, 0.72, 0.68), (0.6, 0.58, 0.55), scale=1.5),
                          density=30.0))
    for i in range(10):
        angle = 2.0 * np.pi * i / 10
        x = 1.5 * float(np.cos(angle))
        y = 1.5 * float(np.sin(angle))
        scene.add(Cylinder(center=(x, y, -0.3), radius=0.12, half_height=0.7,
                           color=(0.85, 0.83, 0.78)))
    scene.add(Box(center=(0.0, 0.0, 0.45), half_extents=(1.7, 1.7, 0.06),
                  color=(0.8, 0.78, 0.72)))
    scene.add(Sphere(center=(0.0, 0.0, -0.5), radius=0.4,
                     color=gradient_color((0.7, 0.5, 0.2), (0.9, 0.8, 0.4),
                                          axis=2, low=-0.9, high=-0.1)))
    return scene


def _zen_garden() -> AnalyticScene:
    scene = AnalyticScene(name="zen_garden", scene_bound=2.0)
    scene.add(GroundPlane(height=-1.0, thickness=0.2,
                          color=(0.85, 0.82, 0.75), density=30.0))
    rng = derive_rng(23, "silvr:zen")
    for _ in range(6):
        center = rng.uniform(-1.4, 1.4, size=3)
        center[2] = rng.uniform(-0.85, -0.6)
        scene.add(Sphere(center=center, radius=rng.uniform(0.2, 0.5),
                         color=(0.45, 0.45, 0.48)))
    scene.add(Box(center=(1.2, -1.2, -0.55), half_extents=(0.35, 0.35, 0.4),
                  color=(0.5, 0.3, 0.2)))
    scene.add(Cylinder(center=(-1.2, 1.2, -0.4), radius=0.25, half_height=0.55,
                       color=(0.3, 0.45, 0.3)))
    return scene


_BUILDERS = {
    "garden": _garden,
    "agora": _agora,
    "zen_garden": _zen_garden,
}


def make_silvr_scene(name: str) -> AnalyticScene:
    """Build one SILVR-like large-volume scene by name."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown SILVR-like scene {name!r}; choose one of {sorted(_BUILDERS)}")
    return _BUILDERS[name]()


def silvr_like(scenes: Optional[Iterable[str]] = None, n_train_views: int = 12,
               n_test_views: int = 3, image_size: int = 40, seed: int = 0
               ) -> List[SceneDataset]:
    """Render datasets for the SILVR-like suite (all three scenes by default)."""
    names = list(scenes) if scenes is not None else list(SILVR_SCENES)
    datasets = []
    for name in names:
        scene = make_silvr_scene(name)
        datasets.append(
            validate_dataset(
                build_dataset(scene, n_train_views=n_train_views,
                              n_test_views=n_test_views,
                              image_size=image_size, seed=seed,
                              camera_radius=1.9 * scene.scene_bound))
        )
    return datasets
