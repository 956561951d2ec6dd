"""repro — a reproduction of Instant-3D (Li et al., ISCA 2023).

Instant-3D is an algorithm–hardware co-design framework for *instant*
on-device NeRF training.  This library rebuilds the full system in Python:

* :mod:`repro.core` — the Instant-3D algorithm: the embedding grid decomposed
  into density and color branches with different grid sizes (``S_D : S_C``)
  and update frequencies (``F_D : F_C``).
* :mod:`repro.grid`, :mod:`repro.nn`, :mod:`repro.nerf`,
  :mod:`repro.datasets`, :mod:`repro.training` — the NeRF training substrate
  (multiresolution hash grids, small MLPs, volume rendering, procedural
  scene suites standing in for NeRF-Synthetic / SILVR / ScanNet).
* :mod:`repro.accelerator` — a cycle-level simulator of the Instant-3D
  accelerator (FRM, BUM, multi-core fusion) plus analytic models of the
  Jetson-class baseline devices.
* :mod:`repro.analysis` — the memory-access-pattern and runtime-breakdown
  analyses behind the paper's motivating figures.
* :mod:`repro.io` — versioned single-file checkpointing used for
  interruptible trainers and :class:`~repro.training.SceneFleet`'s
  preemptible scheduling (checkpoint/resume, scene eviction).

Quickstart::

    from repro import Instant3DConfig, train_scene
    from repro.datasets import nerf_synthetic_like

    dataset = nerf_synthetic_like(["lego"], image_size=32)[0]
    result = train_scene(dataset, Instant3DConfig.instant_3d(), n_iterations=60)
    print(result.rgb_psnr)
"""

from repro.core import (
    DecoupledGridEncoder,
    DecoupledRadianceField,
    Instant3DConfig,
)
from repro.training import (
    FleetResult,
    SceneFleet,
    Trainer,
    TrainingResult,
    WorkloadScale,
    build_iteration_workload,
    evaluate_model,
    train_fleet,
    train_scene,
)

__version__ = "1.3.0"

__all__ = [
    "Instant3DConfig",
    "DecoupledRadianceField",
    "DecoupledGridEncoder",
    "Trainer",
    "TrainingResult",
    "train_scene",
    "evaluate_model",
    "WorkloadScale",
    "build_iteration_workload",
    "FleetResult",
    "SceneFleet",
    "train_fleet",
    "__version__",
]
