"""Small test helpers shared by several test modules."""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

#: A checkpoint file's fixed header: magic, manifest length, data length
#: and manifest CRC32 (little-endian).  The manifest follows it; the data
#: region starts at the next 64-byte boundary.
CHECKPOINT_HEADER = struct.Struct("<8sQQI")
CHECKPOINT_MAGIC = b"\x89RCKPT\r\n"


class _FixedDraw:
    """A generator stand-in whose uniform draw returns the given points."""

    def __init__(self, points: np.ndarray):
        self.points = np.asarray(points, dtype=np.float64).reshape(-1, 3)

    def uniform(self, low, high, size):
        assert size == self.points.shape
        return self.points


def occupy(grid, points: np.ndarray, density: float = 1.0) -> None:
    """Mark the occupancy-grid cells holding ``points`` occupied.

    Runs one public ``OccupancyGrid.update`` whose probe draw is exactly
    ``points`` and whose density is ``density`` everywhere, so on a fresh
    grid those cells, and only those, hold ``density``.  The update decays
    what the grid held before, counts as one refresh and leaves the grid's
    own probe generator untouched.
    """
    draw = _FixedDraw(points)
    grid.update(lambda probes: np.full(probes.shape[0], density),
                n_samples=draw.points.shape[0], rng=draw)


def read_checkpoint_file(path) -> tuple:
    """The manifest and the data region (a ``bytearray``) of a checkpoint.

    Checks the layout on the way: magic, declared size, manifest CRC32 and
    zero padding.
    """
    raw = Path(path).read_bytes()
    magic, manifest_size, data_size, crc = CHECKPOINT_HEADER.unpack_from(raw)
    manifest_end = CHECKPOINT_HEADER.size + manifest_size
    data_start = -(-manifest_end // 64) * 64
    assert magic == CHECKPOINT_MAGIC
    assert len(raw) == data_start + data_size
    manifest = raw[CHECKPOINT_HEADER.size:manifest_end]
    assert zlib.crc32(manifest) == crc
    assert not any(raw[manifest_end:data_start])
    return json.loads(manifest), bytearray(raw[data_start:])


def write_checkpoint_file(path, manifest: dict, data=b"") -> None:
    """Write ``manifest`` and ``data`` as a checkpoint, CRC re-signed."""
    body = json.dumps(manifest).encode()
    head = CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, len(body), len(data),
                                  zlib.crc32(body)) + body
    Path(path).write_bytes(head + bytes(-len(head) % 64) + bytes(data))
