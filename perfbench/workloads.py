"""The three workloads: train-small, train-large-sparse and serve-mixed.

Each workload drives the public API (``Trainer``, ``render_view``,
``SceneService``) and returns raw observations; :mod:`run` turns them into
metrics.  Inputs come only from the workload seed: it derives the trainer
seed of every ``train-small`` run, and the arrival times and the scene and
camera draws of the serving load.  ``train-large-sparse`` and the served
scenes train the same trainer seeds whatever the workload seed (see their
comments).  The procedural datasets are fixed (dataset seed 0).
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro import DecoupledRadianceField, Instant3DConfig, Trainer
from repro.datasets import nerf_synthetic_like
from repro.grid.hash_encoding import HashGridConfig
from repro.io import load_trainer_checkpoint
from repro.nerf.losses import psnr
from repro.serving import ResidencyManager, SceneService
from repro.training.metrics import render_view
from repro.utils.seeding import derive_seed

from tracer import Tracer, install_layer_spans

#: Render latency limit (ms) behind ``render_slo_frac``.
SLO_MS = 250.0

_COMMON = dict(batch_pixels=256, n_samples_per_ray=24, mlp_hidden_width=32,
               mlp_hidden_layers=2, culling_enabled=True)

#: 6 levels x 2^12 entries: ~55k parameters, cache-resident tables.
SMALL_GRID = HashGridConfig(n_levels=6, n_features_per_level=2,
                            log2_hashmap_size=12, base_resolution=8,
                            finest_resolution=96)
#: 8 levels x 2^19 entries: ~6.66M parameters, larger than the caches.
LARGE_GRID = HashGridConfig(n_levels=8, n_features_per_level=2,
                            log2_hashmap_size=19, base_resolution=16,
                            finest_resolution=512)


@dataclass(frozen=True)
class TrainSpec:
    config: Instant3DConfig
    steps: int                 # fixed step budget of one training run
    target_psnr: float         # time_to_psnr_s threshold (dB)
    psnr_floor: float          # correctness floor on the final PSNR (dB)
    seconds_per_run: float     # --seconds per training run (at least 3 runs)
    eval_every: int = 5        # held-out evaluation cadence until the target
    renders_per_view: int = 4  # timed renders of each held-out view per run
    setup_builds: int = 5      # model+Trainer builds behind setup_s, at least
    #: Whether the workload seed derives the trainer seeds.  When False,
    #: every workload seed trains the same runs (trainer seeds derived from
    #: 0), so only the code and the host move the timings.
    seeded: bool = True


TRAIN_SPECS: Dict[str, TrainSpec] = {
    "train-small": TrainSpec(
        config=Instant3DConfig.instant_3d(grid=SMALL_GRID, **_COMMON),
        steps=250, target_psnr=20.0, psnr_floor=25.0, seconds_per_run=2.5),
    "train-large-sparse": TrainSpec(
        config=Instant3DConfig.instant_3d(
            grid=LARGE_GRID, sparse_updates=True, compute_dtype="float32",
            ray_schedule="occupancy", **_COMMON),
        # Every trainer seed first sits on a ~13 dB plateau, and the step
        # at which its pixel draws lift it off varies by +-30 %: three runs
        # per measurement cannot average that out, so the trainer seeds
        # are fixed.  16 dB is crossed soon after the climb starts.
        steps=100, target_psnr=16.0, psnr_floor=20.0, seconds_per_run=13.0,
        seeded=False),
}


def train_dataset():
    return nerf_synthetic_like(["lego"], n_train_views=10, n_test_views=2,
                               image_size=32)[0]


def _all_finite(model) -> bool:
    return all(bool(np.isfinite(param.data).all())
               for param in model.parameters())


def _held_out(trainer: Trainer, culled: bool = True) -> List[tuple]:
    """(rgb, psnr, seconds) for each held-out view of the trainer's scene.

    ``culled=False`` renders with ``render_view``'s default, no culling: a
    fixed amount of work per view whatever occupancy the run learned, so
    its latency does not change with the seed.
    """
    config, dataset = trainer.config, trainer.dataset
    out = []
    for view in dataset.test_views:
        start = time.perf_counter()
        rgb, _ = render_view(trainer.model, view.camera, dataset.scene_bound,
                             n_samples=config.n_samples_per_ray,
                             white_background=config.white_background,
                             occupancy=trainer.occupancy if culled else None,
                             policy=trainer.policy)
        out.append((rgb, psnr(rgb, view.rgb), time.perf_counter() - start))
    return out


def build_trainer(config: Instant3DConfig, dataset, seed: int) -> Trainer:
    return Trainer(DecoupledRadianceField(config, seed=seed), dataset,
                   config=config, seed=seed)


def train_run(spec: TrainSpec, dataset, seed: int,
              tracer: Optional[Tracer] = None) -> dict:
    """One training run from scratch: timed steps, paused evaluations."""
    start = time.perf_counter()
    trainer = build_trainer(spec.config, dataset, seed)
    setup_s = time.perf_counter() - start
    step_s: List[float] = []
    losses: List[float] = []
    trained = 0.0
    time_to_psnr = None
    previous = (0.0, None)
    for index in range(spec.steps):
        start = time.perf_counter()
        metrics = trainer.train_step()
        elapsed = time.perf_counter() - start
        step_s.append(elapsed)
        losses.append(metrics["loss"])
        trained += elapsed
        if time_to_psnr is None and (index + 1) % spec.eval_every == 0:
            if tracer is not None:
                tracer.active = False
            value = float(np.mean([p for _, p, _ in _held_out(trainer)]))
            if tracer is not None:
                tracer.active = True
            if value >= spec.target_psnr:
                # Linear interpolation between the bracketing evaluations.
                t0, p0 = previous
                time_to_psnr = trained if p0 is None else (
                    t0 + (spec.target_psnr - p0) / (value - p0) * (trained - t0))
            previous = (trained, value)
    if tracer is not None:
        tracer.active = False
    render_s: List[float] = []
    final_psnr = None
    for repeat in range(spec.renders_per_view):
        views = _held_out(trainer, culled=False)
        if final_psnr is None:
            final_psnr = float(np.mean([p for _, p, _ in views]))
        render_s.extend(seconds for _, _, seconds in views)
    if tracer is not None:
        tracer.active = True
    return {
        "setup_s": setup_s, "step_s": step_s, "losses": losses,
        "train_s": trained, "time_to_psnr_s": time_to_psnr,
        "psnr_db": final_psnr, "render_s": render_s,
        "finite": _all_finite(trainer.model),
    }


def run_train(spec: TrainSpec, seed: int, seconds: float,
              traced: bool) -> dict:
    """Training runs with distinct derived seeds, as many as ``seconds``
    buys at ``spec.seconds_per_run`` (at least 3).

    The count depends on ``seconds`` only, never on how fast the host is,
    so a seed always measures the same set of trajectories.  Traced: half
    as many pairs of an untraced and a traced run of the same seed (at
    least one), so their loss trajectories can be compared and the
    tracer's overhead measured on identical work.
    """
    dataset = train_dataset()
    runs, traced_runs = [], []
    tracer = Tracer() if traced else None
    n_runs = max(3, int(seconds // spec.seconds_per_run))
    for index in range(max(1, n_runs // 2) if traced else n_runs):
        run_seed = derive_seed(seed if spec.seeded else 0,
                               f"train-run:{index}")
        runs.append(train_run(spec, dataset, run_seed))
        if traced:
            install_layer_spans(tracer)
            try:
                traced_runs.append(train_run(spec, dataset, run_seed, tracer))
            finally:
                tracer.uninstall()
    setup = [run["setup_s"] for run in runs]
    while len(setup) < spec.setup_builds:
        start = time.perf_counter()
        build_trainer(spec.config, dataset, derive_seed(seed, "setup"))
        setup.append(time.perf_counter() - start)
    return {"runs": runs, "traced_runs": traced_runs, "tracer": tracer,
            "setup_s": setup}


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------
SERVE_SCENES = ("lego", "chair", "drums")
POPULARITY = (0.7, 0.2, 0.1)
RENDER_RATE = 50.0           # Poisson render arrivals per second
TRAIN_PERIOD_S = 0.5         # one TrainJob every TRAIN_PERIOD_S
TRAIN_JOB_STEPS = 8
BRINGUP_ROUNDS = 16          # rounds of one TrainJob per scene
SERVE_TARGET_PSNR = 20.0     # every scene, after bring-up
SERVE_PSNR_FLOOR = 20.0
SERVE_SETUP_BUILDS = 5
#: The served scenes are the same for every workload seed: their trainers
#: always start from this seed, so the learned occupancy (and with it the
#: cost of a render) does not change with the seed.  The workload seed
#: drives the arrivals and the scene and camera draws.
SERVE_TRAINER_SEED = 0
#: Scheduling lag (ms) above which a run is flagged: 10 % of the limit.
LAG_FLAG_MS = 0.1 * SLO_MS
SERVE_CONFIG = Instant3DConfig.instant_3d(grid=SMALL_GRID, **_COMMON)


def serve_datasets():
    return nerf_synthetic_like(list(SERVE_SCENES), n_train_views=10,
                               n_test_views=4, image_size=16)


def _build_service(datasets, checkpoint_dir: Path) -> SceneService:
    """A ready service: every scene's trainer built and rendered once."""
    service = SceneService(datasets, SERVE_CONFIG, seed=SERVE_TRAINER_SEED,
                           n_workers=1,
                           checkpoint_dir=checkpoint_dir,
                           max_resident_scenes=2)
    for handle in [service.render(ds.name) for ds in datasets]:
        handle.result()
    return service


def _served_psnr(service: SceneService, dataset) -> float:
    handles = [service.render(dataset.name, camera=view.camera)
               for view in dataset.test_views]
    return float(np.mean([psnr(handle.result().colors, view.rgb)
                          for handle, view in zip(handles, dataset.test_views)]))


def make_schedule(seed: int, seconds: float, datasets) -> List[tuple]:
    """Open-loop arrivals: (due_s, kind, scene, camera) sorted by due time."""
    rng = np.random.default_rng(derive_seed(seed, "serve-schedule"))
    n_renders = rng.poisson(RENDER_RATE * seconds)
    due = np.sort(rng.uniform(0.0, seconds, n_renders))
    events = [(float(t), "render") for t in due]
    first = rng.uniform(0.0, TRAIN_PERIOD_S)
    events += [(float(t), "train")
               for t in np.arange(first, seconds, TRAIN_PERIOD_S)]
    events.sort()
    scenes = rng.choice(len(datasets), size=len(events), p=POPULARITY)
    schedule = []
    for (t, kind), scene in zip(events, scenes):
        dataset = datasets[int(scene)]
        camera = None
        if kind == "render":
            views = dataset.test_views
            camera = views[int(rng.integers(len(views)))].camera
        schedule.append((t, kind, dataset.name, camera))
    return schedule


def drive_load(service: SceneService, schedule: List[tuple]) -> dict:
    """Submit ``schedule`` on time from this thread; collect every outcome."""
    submitted = []
    lag = []
    origin = time.perf_counter() + 0.01
    stats_before = service.stats()
    for due, kind, scene, camera in schedule:
        wait = origin + due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        lag.append(time.perf_counter() - origin - due)
        try:
            if kind == "render":
                handle = service.render(scene, camera=camera)
            else:
                handle = service.train(scene, n_steps=TRAIN_JOB_STEPS)
        except Exception as exc:   # refused at admission: a failed op
            submitted.append((origin + due, kind, None, exc))
            continue
        submitted.append((origin + due, kind, handle, None))
    outcomes = []
    for due_at, kind, handle, error in submitted:
        if handle is not None:
            try:
                result = handle.result(timeout=120.0)
            except Exception as exc:
                error = exc
            else:
                done = handle.submitted_at + result.service_ms / 1e3
                dequeued = handle.submitted_at + result.queued_ms / 1e3
                outcomes.append({
                    "kind": kind, "latency_s": done - due_at,
                    "queued_s": result.queued_ms / 1e3,
                    "exec": (dequeued, done),
                    "batch": getattr(result, "batch_size", 1)})
                continue
        outcomes.append({"kind": kind, "error": repr(error)})
    end = max([o["exec"][1] for o in outcomes if "exec" in o] + [origin])
    stats_after = service.stats()
    return {"outcomes": outcomes, "lag_s": lag, "wall_s": end - origin,
            "stats": {key: stats_after[key] - stats_before.get(key, 0.0)
                      for key in stats_after},
            "submitted": len(submitted)}


def run_serve(seed: int, seconds: float, traced: bool, scratch: Path) -> dict:
    datasets = serve_datasets()
    checkpoint_dir = scratch / "checkpoints"
    setup_s = []
    service = None
    for build in range(SERVE_SETUP_BUILDS):
        if service is not None:
            service.close(save=False)
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
        start = time.perf_counter()
        service = _build_service(datasets, checkpoint_dir)
        setup_s.append(time.perf_counter() - start)
    try:
        return _serve_measure(service, datasets, seed, seconds, traced,
                              checkpoint_dir, setup_s)
    finally:
        service.close(save=False)


def _serve_measure(service, datasets, seed, seconds, traced,
                   checkpoint_dir, setup_s) -> dict:
    # Bring-up: train every scene through the service, evaluation paused.
    trained = 0.0
    time_to_psnr = None
    previous = (0.0, None)
    job_exec_s: List[float] = []
    for _ in range(BRINGUP_ROUNDS):
        start = time.perf_counter()
        handles = [service.train(ds.name, n_steps=TRAIN_JOB_STEPS)
                   for ds in datasets]
        for handle in handles:
            result = handle.result()
            job_exec_s.append((result.service_ms - result.queued_ms) / 1e3)
        trained += time.perf_counter() - start
        if time_to_psnr is None:
            worst = min(_served_psnr(service, ds) for ds in datasets)
            if worst >= SERVE_TARGET_PSNR:
                t0, p0 = previous
                time_to_psnr = trained if p0 is None else (
                    t0 + (SERVE_TARGET_PSNR - p0) / (worst - p0) * (trained - t0))
            previous = (trained, worst)
    scene_psnr = {ds.name: _served_psnr(service, ds) for ds in datasets}

    # Traced: the same schedule twice, untraced then traced, so the
    # tracer's overhead is measured on the same arrivals.
    schedule = make_schedule(seed, seconds / 2 if traced else seconds, datasets)
    load = {"untraced": drive_load(service, schedule)}
    tracer = None
    if traced:
        tracer = Tracer()
        install_layer_spans(tracer)
        try:
            load["traced"] = drive_load(service, schedule)
        finally:
            tracer.uninstall()
    for phase in load.values():
        job_exec_s += [(o["exec"][1] - o["exec"][0]) for o in phase["outcomes"]
                       if o["kind"] == "train" and "exec" in o]

    # Correctness: a served render equals a solo render of the same state.
    final = {ds.name: service.render(ds.name).result().colors
             for ds in datasets}
    service.close()          # flushes every scene's checkpoint
    probe = ResidencyManager(SERVE_CONFIG, seed=SERVE_TRAINER_SEED,
                             checkpoint_dir=checkpoint_dir)
    render_error = 0.0
    for dataset in datasets:
        trainer = build_trainer(SERVE_CONFIG, dataset, SERVE_TRAINER_SEED)
        load_trainer_checkpoint(probe.checkpoint_path(dataset.name), trainer)
        view = dataset.test_views[0]
        solo, _ = render_view(trainer.model, view.camera, dataset.scene_bound,
                              n_samples=SERVE_CONFIG.n_samples_per_ray,
                              white_background=SERVE_CONFIG.white_background,
                              occupancy=trainer.occupancy,
                              policy=trainer.policy)
        render_error = max(render_error,
                           float(np.max(np.abs(solo - final[dataset.name]))))
    return {"setup_s": setup_s, "train_s": trained,
            "time_to_psnr_s": time_to_psnr, "scene_psnr": scene_psnr,
            "job_exec_s": job_exec_s, "load": load, "tracer": tracer,
            "render_error": render_error,
            "bringup_jobs": BRINGUP_ROUNDS * len(datasets)}
