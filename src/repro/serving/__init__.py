"""Multi-tenant serving: job queue, scene residency and cross-request batching.

The package turns the repo's single-scene synchronous training/rendering
stack into the service shape the ROADMAP's north star describes — many
concurrent render and fine-tune requests sharing one engine:

* :mod:`repro.serving.jobs` — the :class:`RenderJob` / :class:`TrainJob`
  request model (scene name, priority, deadline) and the
  :class:`JobHandle` futures clients wait on;
* :mod:`repro.serving.residency` — the :class:`ResidencyManager`, the
  standalone LRU checkpoint-eviction engine shared by
  :class:`~repro.training.fleet.SceneFleet` and the service;
* :mod:`repro.serving.service` — the :class:`SceneService` front end owning
  the worker threads and the request queue; it batches pending same-scene
  renders through :func:`~repro.nerf.pipeline.render_coalesced`, the
  chunked forward loop that evaluation renders run too.
"""

from repro.serving.jobs import (
    DeadlineExceeded,
    JobCancelled,
    JobHandle,
    JobPoisoned,
    QueueFull,
    RenderJob,
    RenderResult,
    TrainJob,
    TrainResult,
)
from repro.serving.residency import ResidencyManager, SceneSlot, validate_scene_name
from repro.serving.service import SceneService

__all__ = [
    "DeadlineExceeded",
    "JobCancelled",
    "JobHandle",
    "JobPoisoned",
    "QueueFull",
    "RenderJob",
    "RenderResult",
    "ResidencyManager",
    "SceneService",
    "SceneSlot",
    "TrainJob",
    "TrainResult",
    "validate_scene_name",
]
