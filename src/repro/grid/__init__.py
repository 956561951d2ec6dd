"""Multiresolution hash-grid encoding (the Instant-NGP "3D embedding grid").

This package implements the data structure at the centre of the paper's
bottleneck analysis: a multiresolution voxel grid whose vertex embeddings are
stored in compact 1-D hash tables and queried by trilinear interpolation
(Step ❸-① in the paper's pipeline).

* :mod:`repro.grid.hash_function` — the spatial hash of Eq. 3 with
  ``pi1 = 1``, ``pi2 = 2654435761`` and ``pi3 = 805459861``.
* :mod:`repro.grid.interpolation` — corner enumeration and trilinear weights
  with their backward pass.
* :mod:`repro.grid.hash_encoding` —
  :class:`~repro.grid.hash_encoding.HashGridConfig`, whose ``layout`` is
  the one statement of each level's resolution, dense-or-hashed storage
  and rows in the backing table;
  :class:`~repro.grid.hash_encoding.MultiResHashGrid`, the one grid-query
  engine (all levels in a single stacked pass over that one table); and
  the access-trace export consumed by the accelerator simulator and by the
  memory-access analyses of Figs. 8-10.
"""

from repro.grid.hash_function import PI1, PI2, PI3, spatial_hash, dense_index
from repro.grid.interpolation import CORNER_OFFSETS, trilinear_weights
from repro.grid.hash_encoding import (
    HashGridConfig,
    LevelLayout,
    MultiResHashGrid,
    GridAccessRecord,
)

__all__ = [
    "PI1",
    "PI2",
    "PI3",
    "spatial_hash",
    "dense_index",
    "CORNER_OFFSETS",
    "trilinear_weights",
    "HashGridConfig",
    "LevelLayout",
    "MultiResHashGrid",
    "GridAccessRecord",
]
