"""View-direction encoding: a low-order spherical-harmonics basis.

The Instant-NGP-style models encode positions with the hash grid
(:mod:`repro.grid`) and view directions with spherical harmonics, matching
the reference implementation.
"""

from __future__ import annotations

import numpy as np

from repro.utils.workspace import arena_buffer

#: Spherical-harmonics degree of the models' view-direction encoding
#: (16 features), as in Instant-NGP.
SH_DEGREE = 3


def spherical_harmonics_encoding(dirs: np.ndarray, degree: int = SH_DEGREE,
                                 dtype=np.float64,
                                 arena=None) -> np.ndarray:
    """Real spherical-harmonics basis evaluated at unit directions.

    Supports degrees 1-4 (1, 4, 9 or 16 output features), the same options
    as tiny-cuda-nn's ``SphericalHarmonics`` encoding used by Instant-NGP for
    view directions.  ``dtype`` selects the evaluation precision (float64,
    the default, is the bit-exact reference); the returned basis is float32
    under both, matching the MLP input dtype.  ``arena`` supplies the
    normalised-direction and output buffers when given.
    """
    if degree not in (1, 2, 3, 4):
        raise ValueError("degree must be in {1, 2, 3, 4}")
    dirs = np.asarray(dirs, dtype=dtype)
    if dirs.ndim != 2 or dirs.shape[1] != 3:
        raise ValueError(f"dirs must have shape (N, 3), got {dirs.shape}")
    norm = np.linalg.norm(dirs, axis=1, keepdims=True)
    np.maximum(norm, 1e-12, out=norm)
    d = arena_buffer(arena, "sh/d", dirs.shape, dtype)
    np.divide(dirs, norm, out=d)
    x, y, z = d[:, 0], d[:, 1], d[:, 2]
    n = dirs.shape[0]
    out = arena_buffer(arena, "sh/out", (n, degree * degree), dtype)
    out[:, 0] = 0.28209479177387814                    # l=0
    if degree > 1:
        out[:, 1] = -0.48860251190291987 * y           # l=1
        out[:, 2] = 0.48860251190291987 * z
        out[:, 3] = -0.48860251190291987 * x
    if degree > 2:
        xy, yz, xz = x * y, y * z, x * z
        x2, y2, z2 = x * x, y * y, z * z
        out[:, 4] = 1.0925484305920792 * xy            # l=2
        out[:, 5] = -1.0925484305920792 * yz
        out[:, 6] = 0.31539156525252005 * (3.0 * z2 - 1.0)
        out[:, 7] = -1.0925484305920792 * xz
        out[:, 8] = 0.5462742152960396 * (x2 - y2)
    if degree > 3:
        x2, y2, z2 = x * x, y * y, z * z
        out[:, 9] = -0.5900435899266435 * y * (3.0 * x2 - y2)      # l=3
        out[:, 10] = 2.890611442640554 * x * y * z
        out[:, 11] = -0.4570457994644658 * y * (5.0 * z2 - 1.0)
        out[:, 12] = 0.3731763325901154 * z * (5.0 * z2 - 3.0)
        out[:, 13] = -0.4570457994644658 * x * (5.0 * z2 - 1.0)
        out[:, 14] = 1.445305721320277 * z * (x2 - y2)
        out[:, 15] = -0.5900435899266435 * x * (x2 - 3.0 * y2)
    if out.dtype == np.float32:
        return out
    out32 = arena_buffer(arena, "sh/out32", out.shape, np.float32)
    np.copyto(out32, out, casting="same_kind")
    return out32


def spherical_harmonics_dim(degree: int = SH_DEGREE) -> int:
    """Number of features produced by :func:`spherical_harmonics_encoding`."""
    if degree not in (1, 2, 3, 4):
        raise ValueError("degree must be in {1, 2, 3, 4}")
    return degree * degree
