"""Trilinear interpolation over the eight nearest grid vertices.

Step ❸-① of the pipeline fetches the embeddings of the eight vertices that
surround a queried 3-D point and blends them with trilinear weights.  The
corner enumeration order matters for the paper's Fig. 8 analysis: corners are
indexed ``000, 001, ..., 111`` where the bits are ``(dz, dy, dx)`` — i.e. the
x offset is the least-significant bit — so that corner pairs ``(2k, 2k+1)``
share the same y and z coordinate and form the paper's four address groups.
"""

from __future__ import annotations

import numpy as np

# (8, 3) integer offsets of the cube corners, ordered so that consecutive
# pairs differ only in x (dx is the least-significant bit of the corner id).
CORNER_OFFSETS = np.array(
    [
        [0, 0, 0],
        [1, 0, 0],
        [0, 1, 0],
        [1, 1, 0],
        [0, 0, 1],
        [1, 0, 1],
        [0, 1, 1],
        [1, 1, 1],
    ],
    dtype=np.int64,
)


def trilinear_weights(frac: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Interpolation weights for the eight corners.

    Parameters
    ----------
    frac:
        ``(N, 3)`` array with the fractional position of each query point
        inside its voxel, each component in ``[0, 1]``.
    dtype:
        Compute dtype of the weights (the grid's precision policy; float64
        is the bit-exact reference).

    Returns
    -------
    ``(N, 8)`` array of non-negative weights that sum to one per row, ordered
    consistently with :data:`CORNER_OFFSETS`.
    """
    frac = np.asarray(frac, dtype=dtype)
    if frac.ndim != 2 or frac.shape[1] != 3:
        raise ValueError(f"frac must have shape (N, 3), got {frac.shape}")
    fx, fy, fz = frac[:, 0], frac[:, 1], frac[:, 2]
    wx = np.stack([1.0 - fx, fx], axis=1)          # (N, 2)
    wy = np.stack([1.0 - fy, fy], axis=1)
    wz = np.stack([1.0 - fz, fz], axis=1)
    weights = np.empty((frac.shape[0], 8), dtype=dtype)
    for corner, (dx, dy, dz) in enumerate(CORNER_OFFSETS):
        weights[:, corner] = wx[:, dx] * wy[:, dy] * wz[:, dz]
    return weights


def interpolate(corner_values: np.ndarray, weights: np.ndarray,
                dtype=np.float64) -> np.ndarray:
    """Blend per-corner embeddings with trilinear weights.

    ``corner_values`` has shape ``(N, 8, F)`` and ``weights`` has shape
    ``(N, 8)``; the result has shape ``(N, F)``.  ``dtype`` selects the
    accumulation precision (float64 is the bit-exact reference).
    """
    corner_values = np.asarray(corner_values, dtype=dtype)
    weights = np.asarray(weights, dtype=dtype)
    return np.einsum("ncf,nc->nf", corner_values, weights)


def interpolate_backward(grad_out: np.ndarray, weights: np.ndarray,
                         dtype=np.float64) -> np.ndarray:
    """Gradient of :func:`interpolate` with respect to the corner embeddings.

    Returns an ``(N, 8, F)`` array: the output gradient broadcast to each
    corner scaled by its interpolation weight.  (Positions are not trained,
    so no gradient with respect to the weights is needed.)
    """
    grad_out = np.asarray(grad_out, dtype=dtype)
    weights = np.asarray(weights, dtype=dtype)
    return np.einsum("nf,nc->ncf", grad_out, weights)
