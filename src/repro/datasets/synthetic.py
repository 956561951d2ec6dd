"""NeRF-Synthetic-like procedural object scenes.

The paper's headline numbers are averaged over the eight object scenes of the
NeRF-Synthetic dataset (chair, drums, ficus, hotdog, lego, materials, mic,
ship).  This module builds eight procedural stand-ins with the same names;
each is an object-scale arrangement of primitives with distinct geometry and
color structure so that scene-to-scene variation (and the average over the
suite) behaves like the original benchmark.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.datasets.dataset import SceneDataset, build_dataset
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

#: The eight scene names of the NeRF-Synthetic benchmark.
NERF_SYNTHETIC_SCENES = (
    "chair",
    "drums",
    "ficus",
    "hotdog",
    "lego",
    "materials",
    "mic",
    "ship",
)


def _chair() -> AnalyticScene:
    scene = AnalyticScene(name="chair", scene_bound=1.0)
    seat_color = (0.55, 0.35, 0.2)
    scene.add(Box(center=(0.0, 0.0, 0.0), half_extents=(0.3, 0.3, 0.04), color=seat_color))
    scene.add(Box(center=(0.0, -0.28, 0.3), half_extents=(0.3, 0.04, 0.3), color=seat_color))
    for dx in (-0.24, 0.24):
        for dy in (-0.24, 0.24):
            scene.add(Box(center=(dx, dy, -0.25), half_extents=(0.04, 0.04, 0.22),
                          color=(0.35, 0.22, 0.12)))
    return scene


def _drums() -> AnalyticScene:
    scene = AnalyticScene(name="drums", scene_bound=1.0)
    scene.add(Cylinder(center=(0.0, 0.0, -0.1), radius=0.35, half_height=0.18,
                       color=(0.75, 0.1, 0.12)))
    scene.add(Cylinder(center=(-0.45, 0.2, -0.2), radius=0.2, half_height=0.12,
                       color=(0.12, 0.12, 0.7)))
    scene.add(Cylinder(center=(0.45, 0.2, -0.2), radius=0.2, half_height=0.12,
                       color=(0.9, 0.75, 0.2)))
    scene.add(Sphere(center=(-0.35, -0.3, 0.25), radius=0.14, color=(0.85, 0.85, 0.9)))
    scene.add(Sphere(center=(0.35, -0.3, 0.25), radius=0.14, color=(0.85, 0.85, 0.9)))
    return scene


def _ficus() -> AnalyticScene:
    scene = AnalyticScene(name="ficus", scene_bound=1.0)
    scene.add(Cylinder(center=(0.0, 0.0, -0.45), radius=0.18, half_height=0.12,
                       color=(0.6, 0.3, 0.15)))
    scene.add(Cylinder(center=(0.0, 0.0, -0.1), radius=0.035, half_height=0.3,
                       color=(0.45, 0.3, 0.18)))
    rng = derive_rng(7, "ficus:leaves")
    for _ in range(10):
        offset = rng.uniform(-0.32, 0.32, size=3)
        offset[2] = rng.uniform(0.1, 0.55)
        scene.add(Sphere(center=offset, radius=rng.uniform(0.08, 0.16),
                         color=(0.1, rng.uniform(0.45, 0.7), 0.15)))
    return scene


def _hotdog() -> AnalyticScene:
    scene = AnalyticScene(name="hotdog", scene_bound=1.0)
    scene.add(Box(center=(0.0, 0.0, -0.2), half_extents=(0.55, 0.4, 0.05),
                  color=(0.9, 0.9, 0.92)))
    scene.add(Cylinder(center=(0.0, -0.12, -0.05), radius=0.1, half_height=0.42,
                       color=(0.95, 0.8, 0.45)))
    scene.add(Cylinder(center=(0.0, 0.12, -0.05), radius=0.1, half_height=0.42,
                       color=(0.95, 0.8, 0.45)))
    scene.add(Cylinder(center=(0.0, 0.0, 0.05), radius=0.08, half_height=0.4,
                       color=(0.75, 0.3, 0.15)))
    return scene


def _lego() -> AnalyticScene:
    scene = AnalyticScene(name="lego", scene_bound=1.0)
    scene.add(Box(center=(0.0, 0.0, -0.3), half_extents=(0.5, 0.35, 0.08),
                  color=(0.8, 0.65, 0.1)))
    scene.add(Box(center=(-0.25, 0.0, -0.05), half_extents=(0.2, 0.3, 0.18),
                  color=(0.8, 0.65, 0.1)))
    scene.add(Box(center=(0.3, 0.0, 0.0), half_extents=(0.16, 0.12, 0.25),
                  color=(0.35, 0.35, 0.35)))
    scene.add(Cylinder(center=(0.3, 0.0, 0.33), radius=0.05, half_height=0.14,
                       color=(0.25, 0.25, 0.25)))
    for dy in (-0.22, 0.22):
        scene.add(Cylinder(center=(-0.1, dy, -0.35), radius=0.12, half_height=0.08,
                           color=(0.2, 0.2, 0.2)))
    return scene


def _materials() -> AnalyticScene:
    scene = AnalyticScene(name="materials", scene_bound=1.0)
    colors = [
        (0.85, 0.15, 0.15),
        (0.15, 0.75, 0.2),
        (0.15, 0.25, 0.85),
        (0.9, 0.8, 0.2),
        (0.7, 0.2, 0.75),
        (0.2, 0.75, 0.8),
    ]
    rng = derive_rng(11, "materials:spheres")
    for i, color in enumerate(colors):
        x = -0.55 + 0.22 * (i % 3) + rng.uniform(-0.02, 0.02)
        y = -0.2 + 0.4 * (i // 3) + rng.uniform(-0.02, 0.02)
        scene.add(Sphere(center=(x + 0.2, y, -0.15), radius=0.13, color=color))
    scene.add(Box(center=(0.0, 0.0, -0.35), half_extents=(0.6, 0.45, 0.05),
                  color=checker_color((0.85, 0.85, 0.85), (0.25, 0.25, 0.25), scale=5.0)))
    return scene


def _mic() -> AnalyticScene:
    scene = AnalyticScene(name="mic", scene_bound=1.0)
    scene.add(Sphere(center=(0.0, 0.0, 0.35), radius=0.2, color=(0.55, 0.55, 0.6)))
    scene.add(Cylinder(center=(0.0, 0.0, -0.05), radius=0.05, half_height=0.32,
                       color=(0.2, 0.2, 0.22)))
    scene.add(Cylinder(center=(0.0, 0.0, -0.42), radius=0.25, half_height=0.05,
                       color=(0.15, 0.15, 0.16)))
    scene.add(Box(center=(0.3, 0.0, 0.1), half_extents=(0.03, 0.03, 0.35),
                  color=(0.4, 0.4, 0.42)))
    return scene


def _ship() -> AnalyticScene:
    scene = AnalyticScene(name="ship", scene_bound=1.0)
    scene.add(Box(center=(0.0, 0.0, -0.3), half_extents=(0.6, 0.22, 0.1),
                  color=(0.45, 0.28, 0.15)))
    scene.add(Box(center=(0.0, 0.0, -0.15), half_extents=(0.45, 0.16, 0.06),
                  color=(0.5, 0.32, 0.18)))
    scene.add(Cylinder(center=(0.1, 0.0, 0.2), radius=0.03, half_height=0.4,
                       color=(0.35, 0.25, 0.15)))
    scene.add(Box(center=(0.1, 0.0, 0.3), half_extents=(0.22, 0.01, 0.18),
                  color=(0.92, 0.92, 0.88)))
    scene.add(GroundPlane(height=-0.4, thickness=0.15,
                          color=gradient_color((0.05, 0.2, 0.4), (0.1, 0.45, 0.6),
                                               axis=2, low=-0.55, high=-0.4),
                          density=25.0))
    return scene


_BUILDERS = {
    "chair": _chair,
    "drums": _drums,
    "ficus": _ficus,
    "hotdog": _hotdog,
    "lego": _lego,
    "materials": _materials,
    "mic": _mic,
    "ship": _ship,
}


def make_synthetic_scene(name: str) -> AnalyticScene:
    """Build one of the eight NeRF-Synthetic-like object scenes by name."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown NeRF-Synthetic-like scene {name!r}; "
                         f"choose one of {sorted(_BUILDERS)}")
    return _BUILDERS[name]()


def nerf_synthetic_like(scenes: Optional[Iterable[str]] = None,
                        n_train_views: int = 12, n_test_views: int = 3,
                        image_size: int = 40, seed: int = 0) -> List[SceneDataset]:
    """Render datasets for the requested NeRF-Synthetic-like scenes.

    By default all eight scenes are built (matching the paper's "averaged on
    the eight scenes" protocol); pass a subset of names for faster runs.
    """
    names = list(scenes) if scenes is not None else list(NERF_SYNTHETIC_SCENES)
    datasets = []
    for name in names:
        scene = make_synthetic_scene(name)
        datasets.append(
            build_dataset(scene, n_train_views=n_train_views, n_test_views=n_test_views,
                          image_size=image_size, seed=seed)
        )
    return datasets
