"""The Instant-3D algorithm: decoupled color/density embedding grids.

This package holds the paper's primary algorithmic contribution (Sec. 3):

* :mod:`repro.core.config` — model/training configuration, including the
  grid-size ratio ``S_D : S_C`` and update-frequency ratio ``F_D : F_C``.
  ``Instant3DConfig.instant_ngp_baseline()`` is the coupled 1:1/1:1 setting
  the paper uses as the most-efficient-prior-art baseline, and
  ``Instant3DConfig.instant_3d()`` is the proposed 1:0.25 / 1:0.5 setting.
* :mod:`repro.core.schedule` — per-branch update-frequency schedules.
* :mod:`repro.core.decoupled_grid` — the pair of hash grids with different
  ``size_scale`` values.
* :mod:`repro.core.model` — :class:`DecoupledRadianceField`, the queryable /
  trainable radiance field built from the two grids plus the small density
  and color MLP heads.
* :mod:`repro.core.search` — the grid-search helper the paper uses to pick
  the ratio configuration (Sec. 5.1).
"""

from repro.core.config import Instant3DConfig
from repro.core.schedule import UpdateSchedule, BranchSchedules
from repro.core.decoupled_grid import DecoupledGridEncoder
from repro.core.model import DecoupledRadianceField
from repro.core.search import RatioSearchResult, grid_ratio_search

__all__ = [
    "Instant3DConfig",
    "UpdateSchedule",
    "BranchSchedules",
    "DecoupledGridEncoder",
    "DecoupledRadianceField",
    "RatioSearchResult",
    "grid_ratio_search",
]
