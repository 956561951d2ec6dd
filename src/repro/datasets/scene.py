"""Analytic scenes: density/albedo fields built from geometric primitives.

Each :class:`Primitive` exposes a signed-distance-like ``density_at`` and an
``albedo_at``.  An :class:`AnalyticScene` aggregates primitives into a single
volumetric field that the ground-truth renderer integrates and that the NeRF
models learn to reproduce.  Densities use a smooth falloff near the surface
so the learning problem is well conditioned at the modest resolutions the
pure-Python reproduction trains at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

ColorLike = Tuple[float, float, float]
ColorFn = Callable[[np.ndarray], np.ndarray]


def _resolve_color(points: np.ndarray, color) -> np.ndarray:
    """Evaluate a constant color or a color function at ``points``."""
    if callable(color):
        values = np.asarray(color(points), dtype=np.float64)
        if values.shape != (points.shape[0], 3):
            raise ValueError("color functions must return an (N, 3) array")
        return np.clip(values, 0.0, 1.0)
    values = np.asarray(color, dtype=np.float64)
    return np.clip(np.broadcast_to(values, (points.shape[0], 3)), 0.0, 1.0).copy()


def _soft_occupancy(signed_distance: np.ndarray, softness: float) -> np.ndarray:
    """Map a signed distance (negative inside) to occupancy in [0, 1]."""
    return 1.0 / (1.0 + np.exp(np.clip(signed_distance / max(softness, 1e-6), -40.0, 40.0)))


class Primitive:
    """Base class for analytic scene primitives.

    Sub-classes implement :meth:`signed_distance`; density is derived from it
    with a sigmoid falloff of width ``softness`` and peak value ``density``.
    """

    def __init__(self, density: float = 40.0, color: ColorLike | ColorFn = (0.8, 0.8, 0.8),
                 softness: float = 0.015):
        if density <= 0:
            raise ValueError("density must be positive")
        self.density = float(density)
        self.color = color
        self.softness = float(softness)

    def signed_distance(self, points: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def density_at(self, points: np.ndarray) -> np.ndarray:
        """Volumetric density (1/distance units) at each point."""
        points = np.asarray(points, dtype=np.float64)
        return self.density * _soft_occupancy(self.signed_distance(points), self.softness)

    def albedo_at(self, points: np.ndarray) -> np.ndarray:
        """View-independent RGB albedo at each point."""
        points = np.asarray(points, dtype=np.float64)
        return _resolve_color(points, self.color)


class Sphere(Primitive):
    """Solid sphere."""

    def __init__(self, center, radius: float, **kwargs):
        super().__init__(**kwargs)
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = float(radius)

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        return np.linalg.norm(points - self.center, axis=-1) - self.radius


class Box(Primitive):
    """Axis-aligned solid box defined by its center and half-extents."""

    def __init__(self, center, half_extents, **kwargs):
        super().__init__(**kwargs)
        self.center = np.asarray(center, dtype=np.float64)
        self.half_extents = np.asarray(half_extents, dtype=np.float64)
        if np.any(self.half_extents <= 0):
            raise ValueError("half_extents must be positive")

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        q = np.abs(points - self.center) - self.half_extents
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
        inside = np.minimum(np.max(q, axis=-1), 0.0)
        return outside + inside


class Cylinder(Primitive):
    """Solid vertical (z-aligned) cylinder."""

    def __init__(self, center, radius: float, half_height: float, **kwargs):
        super().__init__(**kwargs)
        if radius <= 0 or half_height <= 0:
            raise ValueError("radius and half_height must be positive")
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = float(radius)
        self.half_height = float(half_height)

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        rel = points - self.center
        radial = np.linalg.norm(rel[..., :2], axis=-1) - self.radius
        axial = np.abs(rel[..., 2]) - self.half_height
        outside = np.linalg.norm(
            np.stack([np.maximum(radial, 0.0), np.maximum(axial, 0.0)], axis=-1), axis=-1
        )
        inside = np.minimum(np.maximum(radial, axial), 0.0)
        return outside + inside


class GroundPlane(Primitive):
    """Horizontal slab ``z <= height`` of finite thickness (scene floor/walls)."""

    def __init__(self, height: float, thickness: float = 0.1, **kwargs):
        super().__init__(**kwargs)
        if thickness <= 0:
            raise ValueError("thickness must be positive")
        self.height = float(height)
        self.thickness = float(thickness)

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        z = points[..., 2]
        top = z - self.height
        bottom = (self.height - self.thickness) - z
        return np.maximum(top, bottom)


def checker_color(color_a: ColorLike, color_b: ColorLike, scale: float = 4.0,
                  axes: Sequence[int] = (0, 1)) -> ColorFn:
    """Return a color function producing a checkerboard of two colors."""
    color_a = np.asarray(color_a, dtype=np.float64)
    color_b = np.asarray(color_b, dtype=np.float64)

    def fn(points: np.ndarray) -> np.ndarray:
        coords = np.floor(points[:, list(axes)] * scale).astype(np.int64)
        parity = np.mod(coords.sum(axis=1), 2)
        return np.where(parity[:, None] == 0, color_a[None, :], color_b[None, :])

    return fn


def gradient_color(color_low: ColorLike, color_high: ColorLike, axis: int = 2,
                   low: float = -1.0, high: float = 1.0) -> ColorFn:
    """Return a color function interpolating between two colors along an axis."""
    color_low = np.asarray(color_low, dtype=np.float64)
    color_high = np.asarray(color_high, dtype=np.float64)

    def fn(points: np.ndarray) -> np.ndarray:
        t = np.clip((points[:, axis] - low) / max(high - low, 1e-9), 0.0, 1.0)
        return color_low[None, :] * (1.0 - t[:, None]) + color_high[None, :] * t[:, None]

    return fn


@dataclass
class AnalyticScene:
    """A volumetric scene assembled from primitives.

    Attributes
    ----------
    name:
        Scene identifier (e.g. ``"ficus"``).
    primitives:
        The solid objects making up the scene.
    scene_bound:
        The scene content lives inside ``[-scene_bound, scene_bound]^3``;
        the hash grid is mapped over this cube.
    """

    name: str
    primitives: List[Primitive] = field(default_factory=list)
    scene_bound: float = 1.0

    def __post_init__(self) -> None:
        if self.scene_bound <= 0:
            raise ValueError("scene_bound must be positive")

    def add(self, primitive: Primitive) -> "AnalyticScene":
        """Append a primitive and return ``self`` for chaining."""
        self.primitives.append(primitive)
        return self

    def density_at(self, points: np.ndarray) -> np.ndarray:
        """Total volumetric density at ``points`` (shape ``(N,)``)."""
        points = np.asarray(points, dtype=np.float64)
        if not self.primitives:
            return np.zeros(points.shape[0])
        total = np.zeros(points.shape[0])
        for prim in self.primitives:
            total += prim.density_at(points)
        return total

    def color_at(self, points: np.ndarray) -> np.ndarray:
        """Density-weighted blend of the primitives' albedos at ``points``."""
        points = np.asarray(points, dtype=np.float64)
        n = points.shape[0]
        if not self.primitives:
            return np.zeros((n, 3))
        weighted = np.zeros((n, 3))
        total = np.zeros(n)
        for prim in self.primitives:
            dens = prim.density_at(points)
            weighted += dens[:, None] * prim.albedo_at(points)
            total += dens
        safe_total = np.maximum(total, 1e-9)
        colors = weighted / safe_total[:, None]
        colors[total < 1e-9] = 0.0
        return np.clip(colors, 0.0, 1.0)

    def query(self, points: np.ndarray, dirs: Optional[np.ndarray] = None):
        """Radiance-field style query returning ``(sigma, rgb)``.

        ``dirs`` is accepted for interface compatibility with the learned
        models; the analytic scenes are Lambertian so it is ignored.
        """
        return self.density_at(points), self.color_at(points)
