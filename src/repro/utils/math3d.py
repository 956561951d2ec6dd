"""Small 3-D math helpers used by the camera/ray substrate.

All functions operate on NumPy arrays and use the OpenGL-style convention
used by the NeRF-Synthetic dataset: camera looks down its local ``-z`` axis,
``+x`` is right and ``+y`` is up.  Poses are 4x4 camera-to-world matrices.
"""

from __future__ import annotations

import numpy as np


def normalize(v: np.ndarray, axis: int = -1, eps: float = 1e-12) -> np.ndarray:
    """Return ``v`` scaled to unit length along ``axis``.

    Zero vectors are returned unchanged (guarded by ``eps``) rather than
    producing NaNs, which keeps downstream ray math well defined.
    """
    v = np.asarray(v, dtype=np.float64)
    norm = np.linalg.norm(v, axis=axis, keepdims=True)
    return v / np.maximum(norm, eps)


def look_at_pose(eye: np.ndarray, target: np.ndarray, up=(0.0, 0.0, 1.0)) -> np.ndarray:
    """Build a 4x4 camera-to-world pose for a camera at ``eye`` looking at ``target``.

    The returned pose maps camera-space points (camera looks along -z) into
    world space.  ``up`` is the approximate world-space up direction used to
    resolve the camera roll.
    """
    eye = np.asarray(eye, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    forward = normalize(target - eye)          # camera -z in world space
    right = normalize(np.cross(forward, np.asarray(up, dtype=np.float64)))
    true_up = np.cross(right, forward)
    pose = np.eye(4)
    pose[:3, 0] = right
    pose[:3, 1] = true_up
    pose[:3, 2] = -forward
    pose[:3, 3] = eye
    return pose


def spherical_pose(radius: float, theta: float, phi: float,
                   target=(0.0, 0.0, 0.0), up=(0.0, 0.0, 1.0)) -> np.ndarray:
    """Camera-to-world pose on a sphere around ``target``.

    ``theta`` is the azimuth angle in the x-y plane (radians) and ``phi`` the
    elevation angle measured from the x-y plane towards +z.  This matches the
    inward-facing camera rigs used by the NeRF-Synthetic dataset.
    """
    target = np.asarray(target, dtype=np.float64)
    eye = target + radius * np.array([
        np.cos(phi) * np.cos(theta),
        np.cos(phi) * np.sin(theta),
        np.sin(phi),
    ])
    return look_at_pose(eye, target, up=up)


def transform_directions(pose: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Apply only the rotational part of a 4x4 transform to direction vectors."""
    dirs = np.asarray(dirs, dtype=np.float64)
    return dirs @ pose[:3, :3].T
