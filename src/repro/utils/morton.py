"""Vectorized Morton (Z-order) curve encoding.

Morton codes interleave the bits of integer coordinates so that sorting by
code visits points along a space-filling Z curve: coordinates that are close
in space end up close in the sorted order.  The schedulers in
``repro.nerf.scheduling`` use 2-D codes to enumerate pixels inside a tile and
3-D codes to order rays by the first occupied cell they enter;
``repro.accelerator.trace`` orders a recorded batch's points by their grid
voxel, which is what raises the address locality seen by the
BackPropUpdateMerger model.

All helpers accept integer arrays (any shape) and return ``int64`` codes of
the same shape.  2-D codes support coordinates up to 32 bits, 3-D codes up to
21 bits per axis — far beyond any image or grid resolution used here.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "morton_encode_2d",
    "morton_decode_2d",
    "morton_encode_3d",
]


def _part_1by1(x: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of ``x`` so they occupy even bit positions."""
    x = x.astype(np.uint64) & np.uint64(0xFFFFFFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x << np.uint64(2))) & np.uint64(0x3333333333333333)
    x = (x | (x << np.uint64(1))) & np.uint64(0x5555555555555555)
    return x


def _compact_1by1(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_part_1by1`: gather even bit positions."""
    x = x.astype(np.uint64) & np.uint64(0x5555555555555555)
    x = (x | (x >> np.uint64(1))) & np.uint64(0x3333333333333333)
    x = (x | (x >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x | (x >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
    x = (x | (x >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
    return x


def _part_1by2(x: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of ``x`` so they occupy every third position."""
    x = x.astype(np.uint64) & np.uint64(0x1FFFFF)
    x = (x | (x << np.uint64(32))) & np.uint64(0x001F00000000FFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x001F0000FF0000FF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    x = (x | (x << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    x = (x | (x << np.uint64(2))) & np.uint64(0x1249249249249249)
    return x


def morton_encode_2d(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Interleave ``(x, y)`` into a 2-D Z-order code (x in the even bits)."""
    code = _part_1by1(np.asarray(x)) | (_part_1by1(np.asarray(y)) << np.uint64(1))
    return code.astype(np.int64)


def morton_decode_2d(code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`morton_encode_2d`; returns ``(x, y)`` as ``int64``."""
    code = np.asarray(code).astype(np.uint64)
    x = _compact_1by1(code)
    y = _compact_1by1(code >> np.uint64(1))
    return x.astype(np.int64), y.astype(np.int64)


def morton_encode_3d(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Interleave ``(x, y, z)`` into a 3-D Z-order code (x in the low bit)."""
    code = (_part_1by2(np.asarray(x))
            | (_part_1by2(np.asarray(y)) << np.uint64(1))
            | (_part_1by2(np.asarray(z)) << np.uint64(2)))
    return code.astype(np.int64)
