"""Memory-trace extraction from real hash-grid queries.

The FRM/BUM micro-simulations and the access-pattern analyses (Figs. 8-10)
replay the *actual* addresses the hash grids touch.  This module runs one
training-style query batch through a model's grids and exports the address
streams:

* the **feed-forward read trace** is point-major — each queried point issues
  its eight vertex reads per level back-to-back, exactly the order the grid
  core's address pipeline produces them;
* the **back-propagation write trace** is level-major — the gradient scatter
  walks the batch level by level, which is the order the grid core applies
  embedding updates in and the reason updates to the same (coarse-level)
  table entry recur within a short window, the behaviour the BUM exploits
  (Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.model import DecoupledRadianceField
from repro.datasets.dataset import SceneDataset
from repro.grid.hash_encoding import GridAccessRecord
from repro.nerf.cameras import sample_pixel_batch
from repro.nerf.sampling import normalize_points_to_unit_cube, ray_points, stratified_samples
from repro.utils.seeding import derive_rng


@dataclass
class BranchTrace:
    """Address streams of one grid branch for one query batch."""

    branch: str
    read_addresses: np.ndarray          # point-major feed-forward reads
    write_addresses: np.ndarray         # level-major back-propagation updates
    table_entries: int                  # total entries across levels
    level_table_sizes: List[int] = field(default_factory=list)
    n_points: int = 0


@dataclass
class MemoryTrace:
    """Traces of both branches plus batch metadata."""

    branches: Dict[str, BranchTrace]
    n_points: int

    def branch(self, name: str) -> BranchTrace:
        return self.branches[name]


def trace_from_record(branch: str, record: GridAccessRecord,
                      table_entries: int) -> BranchTrace:
    """Build a :class:`BranchTrace` from one grid access record.

    The record's ``(8, L, N)`` global-address planes, transposed, give the
    point-major reads (per point, per level, 8 corners); its flat addresses
    are the level-major writes (per level, per point, 8 corners).
    """
    return BranchTrace(
        branch=branch,
        read_addresses=record.address_planes.transpose(2, 1, 0).flatten(),
        write_addresses=record.flat_addresses(),
        table_entries=table_entries,
        level_table_sizes=list(record.table_sizes),
        n_points=record.n_points,
    )


def extract_training_trace(model: DecoupledRadianceField, dataset: SceneDataset,
                           batch_pixels: Optional[int] = None,
                           samples_per_ray: Optional[int] = None,
                           seed: int = 0) -> MemoryTrace:
    """Run one training-style query batch and export its grid address traces."""
    config = model.config
    batch_pixels = batch_pixels if batch_pixels is not None else config.batch_pixels
    samples_per_ray = (samples_per_ray if samples_per_ray is not None
                       else config.n_samples_per_ray)
    pixel_rng = derive_rng(seed, f"trace:{dataset.name}:pixels")
    sample_rng = derive_rng(seed, f"trace:{dataset.name}:samples")

    bundle, _targets = sample_pixel_batch(
        dataset.train_cameras, dataset.train_images, batch_pixels, pixel_rng
    )
    t_vals, _deltas = stratified_samples(bundle, samples_per_ray, rng=sample_rng)
    points, dirs = ray_points(bundle, t_vals)
    points_unit = normalize_points_to_unit_cube(points, dataset.scene_bound)
    model.query(points_unit, dirs)

    records = model.encoder.last_access_records()
    branches = {}
    for name, grid in (("density", model.encoder.density_grid),
                       ("color", model.encoder.color_grid)):
        record = records[name]
        if record is None:
            raise RuntimeError(f"no access record for branch {name!r}")
        branches[name] = trace_from_record(name, record, grid.total_table_entries)
    return MemoryTrace(branches=branches, n_points=points_unit.shape[0])
