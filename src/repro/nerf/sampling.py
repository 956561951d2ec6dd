"""Point sampling along rays (the per-ray part of Step ❸).

All three helpers take the training stack's compute ``dtype`` (the precision
policy) and an optional :class:`~repro.utils.workspace.WorkspaceArena`; the
float64 defaults are bit-identical to the pre-policy implementation.  Jitter
is always *drawn* as float64 — ``Generator.random(out=...)`` produces the
exact draws ``Generator.uniform(0, 1, size)`` did — and cast to the compute
dtype afterwards, so a float32 run consumes the same RNG stream as its
float64 twin and differs only by arithmetic precision.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nerf.cameras import RayBundle
from repro.utils.workspace import WorkspaceArena, arena_buffer


def stratified_samples(ray_bundle: RayBundle, n_samples: int,
                       rng: Optional[np.random.Generator] = None,
                       dtype=np.float64,
                       arena: Optional[WorkspaceArena] = None
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Draw ``n_samples`` distances per ray between ``near`` and ``far``.

    The ``[near, far]`` interval is split into ``n_samples`` equal bins; with
    an ``rng`` each sample is drawn uniformly inside its bin (stratified
    sampling, used during training), otherwise bin midpoints are used
    (deterministic, used for evaluation rendering).

    Returns
    -------
    ``(t_vals, deltas)`` — both of shape ``(n_rays, n_samples)``.  ``deltas``
    are the inter-sample spacings ``t_{k+1} - t_k`` used by the volume
    renderer, with the final delta closing the interval at ``far``.  Every
    delta (not just the last) is floored at ``1e-6``: jitter landing exactly
    on adjacent bin edges can otherwise produce zero-width intervals, which
    zero out the volume renderer's extinction terms.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n_rays = ray_bundle.n_rays
    near, far = ray_bundle.near, ray_bundle.far
    edges = np.linspace(near, far, n_samples + 1, dtype=dtype)
    lower = np.broadcast_to(edges[:-1], (n_rays, n_samples))
    width = (far - near) / n_samples
    shape = (n_rays, n_samples)
    if rng is not None:
        # Drawn as float64 under both policies (the reference draws), then
        # cast — identical streams across precision policies.  Filling in
        # place consumes the generator exactly as
        # ``Generator.uniform(0, 1, size)`` would, so runs differ across
        # policies only by arithmetic, never by stream divergence.
        draws = arena_buffer(arena, "samples/jitter64", shape, np.float64)
        rng.random(out=draws)
        if np.dtype(dtype) == np.float64:
            jitter = draws
        else:
            jitter = arena_buffer(arena, "samples/jitter", shape, dtype)
            np.copyto(jitter, draws, casting="same_kind")
    else:
        jitter = arena_buffer(arena, "samples/jitter_mid", shape, dtype)
        jitter.fill(0.5)
    t_vals = arena_buffer(arena, "samples/t_vals", shape, dtype)
    np.multiply(jitter, width, out=t_vals)
    t_vals += lower
    deltas = arena_buffer(arena, "samples/deltas", shape, dtype)
    if n_samples > 1:
        np.subtract(t_vals[:, 1:], t_vals[:, :-1], out=deltas[:, :-1])
    np.subtract(far, t_vals[:, -1], out=deltas[:, -1])
    np.maximum(deltas, 1e-6, out=deltas)
    return t_vals, deltas


def ray_points(ray_bundle: RayBundle, t_vals: np.ndarray,
               dtype=np.float64,
               arena: Optional[WorkspaceArena] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate ``o + t * d`` for every sample of every ray.

    Returns ``(points, dirs)`` where ``points`` is ``(n_rays * n_samples, 3)``
    flattened in ray-major order and ``dirs`` repeats each ray direction for
    each of its samples (the per-point view direction fed to the color head).
    """
    t_vals = np.asarray(t_vals, dtype=dtype)
    if t_vals.shape[0] != ray_bundle.n_rays:
        raise ValueError("t_vals row count must equal the number of rays")
    n_rays, n_samples = t_vals.shape
    origins = ray_bundle.origins
    directions = ray_bundle.directions
    if origins.dtype != np.dtype(dtype):
        cast = arena_buffer(arena, "rays/origins", origins.shape, dtype)
        np.copyto(cast, origins, casting="same_kind")
        origins = cast
    if directions.dtype != np.dtype(dtype):
        cast = arena_buffer(arena, "rays/directions", directions.shape, dtype)
        np.copyto(cast, directions, casting="same_kind")
        directions = cast
    points = arena_buffer(arena, "rays/points", (n_rays, n_samples, 3), dtype)
    np.multiply(t_vals[:, :, None], directions[:, None, :], out=points)
    points += origins[:, None, :]
    dirs = arena_buffer(arena, "rays/dirs", (n_rays, n_samples, 3), dtype)
    dirs[...] = directions[:, None, :]
    return points.reshape(-1, 3), dirs.reshape(-1, 3)


def ray_probe_points(ray_bundle: RayBundle, n_probes: int) -> np.ndarray:
    """Deterministic probe points at bin midpoints along each ray.

    A cheap, jitter-free cousin of :func:`stratified_samples` +
    :func:`ray_points` used by the occupancy-aware scheduler to ask "which
    grid cells does this ray march through?" without touching any RNG stream
    (reordering a batch must never perturb the trainer's sample draws).

    Returns ``(n_rays * n_probes, 3)`` world-space points, ray-major.
    """
    if n_probes < 1:
        raise ValueError("n_probes must be >= 1")
    near, far = ray_bundle.near, ray_bundle.far
    t_vals = near + (far - near) * \
        (np.arange(n_probes, dtype=np.float64) + 0.5) / n_probes
    points = (ray_bundle.origins[:, None, :]
              + t_vals[None, :, None] * ray_bundle.directions[:, None, :])
    return points.reshape(-1, 3)


def normalize_points_to_unit_cube(points: np.ndarray, scene_bound: float,
                                  dtype=np.float64,
                                  arena: Optional[WorkspaceArena] = None
                                  ) -> np.ndarray:
    """Map world-space points in ``[-scene_bound, scene_bound]^3`` to ``[0, 1]^3``.

    The hash grid is defined over the unit cube; points outside the scene
    bound are clamped to the cube surface (they land in empty space anyway).
    """
    if scene_bound <= 0:
        raise ValueError("scene_bound must be positive")
    points = np.asarray(points, dtype=dtype)
    unit = arena_buffer(arena, "rays/unit", points.shape, dtype)
    np.add(points, scene_bound, out=unit)
    unit /= 2.0 * scene_bound
    np.clip(unit, 0.0, 1.0, out=unit)
    return unit
