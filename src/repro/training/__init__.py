"""Training pipeline: the six-step loop, workload profiling and metrics.

* :mod:`repro.training.profiler` — static workload accounting: how many grid
  accesses, bytes and FLOPs each pipeline step performs per iteration.  The
  device models and the accelerator simulator consume these counts, which is
  how paper-scale runtimes are estimated even though the Python optimisation
  itself runs at reduced scale (see DESIGN.md §4).
* :mod:`repro.training.trainer` — the actual optimisation loop used for the
  PSNR experiments (Tables 1, 2, 4 and Fig. 5).
* :mod:`repro.training.metrics` — test-view evaluation of RGB and depth PSNR.
* :mod:`repro.training.fleet` — multi-scene orchestration: round-robin
  training of many scenes under one shared configuration, with
  checkpoint-backed eviction and resume.
"""

from repro.training.profiler import (
    PipelineStep,
    StepWorkload,
    IterationWorkload,
    WorkloadScale,
    build_iteration_workload,
    profile_iteration,
)
from repro.training.trainer import Trainer, TrainingHistory, TrainingResult, train_scene
from repro.training.metrics import evaluate_model, EvaluationResult
from repro.training.fleet import FleetResult, SceneFleet, train_fleet

__all__ = [
    "PipelineStep",
    "StepWorkload",
    "IterationWorkload",
    "WorkloadScale",
    "build_iteration_workload",
    "profile_iteration",
    "Trainer",
    "TrainingHistory",
    "TrainingResult",
    "train_scene",
    "evaluate_model",
    "EvaluationResult",
    "FleetResult",
    "SceneFleet",
    "train_fleet",
]
