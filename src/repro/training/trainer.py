"""The six-step NeRF training loop with per-branch update frequencies.

One call to :meth:`Trainer.train_step` executes the paper's pipeline:

❶ sample a pixel batch → ❷ map the pixels to rays and sample points along
them → ❸ query the decoupled radiance field → ❹ volume-render the predicted
pixel colors → ❺ compute the squared-error loss → ❻ back-propagate, where
the color branch's back-propagation and optimiser step are skipped on
iterations the ``F_C`` schedule marks as non-update iterations.

Steps ❷–❹ (and the per-sample half of ❻) are delegated to
:class:`~repro.nerf.pipeline.RenderPipeline`.  With
``Instant3DConfig(culling_enabled=True)`` the trainer additionally maintains
an :class:`~repro.nerf.occupancy.OccupancyGrid`, refreshed from the density
branch on the Instant-NGP schedule, and the pipeline compacts away samples
in known-empty cells before they reach the field — forward and backward.
The dense path (``culling_enabled=False``, the default) stays bit-identical
to the pre-pipeline trainer for differential testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.config import Instant3DConfig
from repro.core.model import DecoupledRadianceField
from repro.core.schedule import BranchSchedules
from repro.datasets.dataset import SceneDataset
from repro.nerf.losses import mse_loss, mse_to_psnr
from repro.nerf.occupancy import OccupancyGrid
from repro.nerf.pipeline import RenderPipeline
from repro.nerf.scheduling import make_scheduler
from repro.nn.optim import Adam
from repro.reliability.faults import fault_point, get_injector
from repro.reliability.health import (
    GuardTrip,
    HealthMonitor,
    NumericalFault,
    all_finite,
)
from repro.reliability.rollback import SnapshotRing
from repro.training.metrics import EvaluationResult, evaluate_model
from repro.utils.seeding import derive_rng, derive_seed, get_rng_state, set_rng_state
from repro.utils.workspace import WorkspaceArena


@dataclass
class TrainingHistory:
    """Loss curve, query accounting and periodic evaluations of a run."""

    iterations: List[int] = field(default_factory=list)
    losses: List[float] = field(default_factory=list)
    batch_psnrs: List[float] = field(default_factory=list)
    #: Per-iteration sample-query accounting: the dense ``rays x samples``
    #: product, the samples that actually reached the field after occupancy
    #: culling, and the occupancy grid's occupied-cell fraction (1.0 when
    #: culling is disabled).
    queries_total: List[int] = field(default_factory=list)
    queries_kept: List[int] = field(default_factory=list)
    occupancy_fractions: List[float] = field(default_factory=list)
    eval_iterations: List[int] = field(default_factory=list)
    eval_rgb_psnrs: List[float] = field(default_factory=list)
    eval_depth_psnrs: List[float] = field(default_factory=list)
    #: Numerical-health counters, mirrored from the trainer's
    #: :class:`~repro.reliability.health.HealthMonitor` (all zero when
    #: guards are disabled).  Living on the history keeps them visible
    #: through eviction: ``SceneService.stats()`` and fleet summaries read
    #: them here without re-materialising the trainer.
    guard_trips: int = 0
    rollbacks: int = 0
    lr_backoffs: int = 0
    batch_skips: int = 0

    def record_step(self, iteration: int, loss: float, batch_psnr: float,
                    queries_kept: Optional[int] = None,
                    queries_total: Optional[int] = None,
                    occupancy_fraction: float = 1.0) -> None:
        self.iterations.append(iteration)
        self.losses.append(loss)
        self.batch_psnrs.append(batch_psnr)
        if queries_total is not None:
            self.queries_total.append(int(queries_total))
            self.queries_kept.append(
                int(queries_kept if queries_kept is not None else queries_total))
            self.occupancy_fractions.append(float(occupancy_fraction))

    def mean_keep_fraction(self, last_n: Optional[int] = None) -> float:
        """Mean kept-sample fraction, optionally over the last ``last_n`` steps."""
        if last_n is not None and last_n <= 0:
            return 1.0
        total = self.queries_total if last_n is None else self.queries_total[-last_n:]
        kept = self.queries_kept if last_n is None else self.queries_kept[-last_n:]
        if not total:
            return 1.0
        return float(sum(kept)) / float(max(sum(total), 1))

    def record_eval(self, iteration: int, result: EvaluationResult) -> None:
        self.eval_iterations.append(iteration)
        self.eval_rgb_psnrs.append(result.rgb_psnr)
        self.eval_depth_psnrs.append(result.depth_psnr)

    # -- serialisation -------------------------------------------------------
    _FIELDS = (
        ("iterations", np.int64), ("losses", np.float64),
        ("batch_psnrs", np.float64), ("queries_total", np.int64),
        ("queries_kept", np.int64), ("occupancy_fractions", np.float64),
        ("eval_iterations", np.int64), ("eval_rgb_psnrs", np.float64),
        ("eval_depth_psnrs", np.float64),
    )
    _COUNTERS = ("guard_trips", "rollbacks", "lr_backoffs", "batch_skips")

    def state_dict(self) -> Dict[str, Any]:
        """Serialisable snapshot of every recorded series.

        Series are stored as int64/float64 arrays, which round-trip the
        Python ints/floats they were recorded as exactly — so a resumed
        run's loss history is bit-identical to an uninterrupted one's.
        """
        state = {name: np.asarray(getattr(self, name), dtype=dtype)
                 for name, dtype in self._FIELDS}
        state["health_counters"] = np.asarray(
            [getattr(self, name) for name in self._COUNTERS], dtype=np.int64)
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict`, replacing all recorded series."""
        for name, dtype in self._FIELDS:
            cast = int if np.issubdtype(dtype, np.integer) else float
            getattr(self, name)[:] = [cast(v) for v in state[name]]
        # Pre-health checkpoints carry no counters: all zero.
        counters = state.get("health_counters")
        for index, name in enumerate(self._COUNTERS):
            setattr(self, name,
                    int(counters[index]) if counters is not None else 0)


@dataclass
class TrainingResult:
    """Outcome of a training run."""

    history: TrainingHistory
    final_eval: EvaluationResult
    n_iterations: int
    density_updates: int
    color_updates: int
    #: Occupied-cell fraction of the occupancy grid at the end of the run
    #: (1.0 when culling was disabled).
    final_occupancy_fraction: float = 1.0
    #: Density-branch points queried by occupancy-grid refreshes over the
    #: run — the overhead side of the culling ledger (0 when disabled).
    occupancy_refresh_points: int = 0
    #: Numerical-health ledger (zeros when guards were disabled): guard
    #: trips detected, rollbacks performed, LR backoffs and batch skips
    #: applied while recovering.
    guard_trips: int = 0
    rollbacks: int = 0
    lr_backoffs: int = 0
    batch_skips: int = 0

    @property
    def rgb_psnr(self) -> float:
        return self.final_eval.rgb_psnr

    @property
    def depth_psnr(self) -> float:
        return self.final_eval.depth_psnr

    @property
    def queries_total(self) -> int:
        """Dense sample-query product summed over the recorded iterations."""
        return int(sum(self.history.queries_total))

    @property
    def queries_kept(self) -> int:
        """Samples that actually reached the field over the recorded iterations."""
        return int(sum(self.history.queries_kept))


#: Config fields the model is built from; a trainer config that differs
#: from ``model.config`` on one would describe (and checkpoint) a model it
#: does not hold.
_MODEL_FIELDS = ("grid", "color_size_ratio", "mlp_hidden_width",
                 "mlp_hidden_layers", "compute_dtype", "sparse_updates")


class Trainer:
    """Optimises a :class:`DecoupledRadianceField` on one scene dataset.

    ``config`` (default ``model.config``) may change only run-level fields;
    a model field (``_MODEL_FIELDS``) that differs raises ``ValueError``.
    """

    def __init__(self, model: DecoupledRadianceField, dataset: SceneDataset,
                 config: Optional[Instant3DConfig] = None, seed: int = 0):
        self.model = model
        self.dataset = dataset
        self.config = config if config is not None else model.config
        for name in _MODEL_FIELDS:
            if getattr(self.config, name) != getattr(model.config, name):
                raise ValueError(
                    f"config.{name}={getattr(self.config, name)!r} does not "
                    f"match the model's {getattr(model.config, name)!r}; "
                    f"build the model from the same config")
        self.schedules = BranchSchedules.from_frequencies(
            self.config.density_update_freq, self.config.color_update_freq
        )
        self.occupancy: Optional[OccupancyGrid] = None
        if self.config.culling_enabled:
            self.occupancy = OccupancyGrid(
                seed=derive_seed(seed, f"{dataset.name}:occupancy"))
        # One workspace arena per run: every per-iteration temporary — grid
        # query planes, MLP activations, renderer planes/gradients, optimiser
        # scratch — comes from named reusable buffers, so steady-state steps
        # perform no large allocations (misses only while shapes grow).
        self.arena = WorkspaceArena()
        self.policy = self.config.precision_policy
        model.set_arena(self.arena)
        self.pipeline = RenderPipeline(
            model, dataset.scene_bound,
            n_samples=self.config.n_samples_per_ray,
            white_background=self.config.white_background,
            occupancy=self.occupancy,
            policy=self.policy,
            arena=self.arena,
            address_sort=self.config.address_sort,
        )
        # Pixel-batch scheduler (Step ❶).  The default "uniform" schedule
        # consumes the pixel RNG stream exactly as the pre-scheduler trainer
        # did, so existing runs are bit-identical; the tiled schedules trade
        # that stream for locality-preserving draws (see
        # repro.nerf.scheduling).
        self.scheduler = make_scheduler(
            self.config.ray_schedule,
            dataset.train_cameras, dataset.train_images,
            self.config.batch_pixels,
            tile_size=self.config.tile_size,
            occupancy=self.occupancy,
            scene_bound=dataset.scene_bound,
        )
        # Per-branch arena prefixes: the two optimisers may step
        # concurrently, and a branch stepping alone may split its update
        # over both threads (see DecoupledRadianceField.run_branch_updates).
        self.density_optimizer = Adam(model.density_parameters(),
                                      lr=self.config.learning_rate)
        self.density_optimizer.set_arena(self.arena, "density_adam")
        self.color_optimizer = Adam(model.color_parameters(),
                                    lr=self.config.learning_rate)
        self.color_optimizer.set_arena(self.arena, "color_adam")
        self._pixel_rng = derive_rng(seed, f"{dataset.name}:pixels")
        self._sample_rng = derive_rng(seed, f"{dataset.name}:samples")
        self.iteration = 0
        self.density_updates = 0
        self.color_updates = 0
        self.occupancy_refresh_points = 0
        # Numerical-health watchdog (config.health=None disables it: no
        # guard checks, snapshots or rollbacks run).
        self.health: Optional[HealthMonitor] = None
        self._snapshots: Optional[SnapshotRing] = None
        self._last_snapshot_iteration = -1
        self.last_guard_trip: Optional[GuardTrip] = None
        if self.config.health is not None:
            self.health = HealthMonitor(self.config.health)
            self._snapshots = SnapshotRing(self.config.health.snapshot_ring)

    # -- occupancy maintenance -------------------------------------------------
    def _refresh_occupancy(self) -> None:
        """Refresh the occupancy grid from the density branch when scheduled.

        The grid owns the Instant-NGP cadence
        (:meth:`~repro.nerf.occupancy.OccupancyGrid.refresh_due`).  Runs
        *before* the iteration's query so the density branch's forward
        buffers are free to reuse.
        """
        grid = self.occupancy
        if not grid.refresh_due(self.iteration):
            return
        grid.update(self.model.query_density)
        self.occupancy_refresh_points += grid.refresh_samples

    # -- checkpointing ---------------------------------------------------------
    def state_dict(self, history: Optional[TrainingHistory] = None
                   ) -> Dict[str, Any]:
        """Serialisable snapshot of everything a resumed run needs.

        Captures the model parameters, both optimiser states (Adam moments
        and step counts), the occupancy grid (density planes, update/mark
        counters and probe-RNG state), the pixel/sample RNG streams and the
        iteration counters.  With ``history`` given, the recorded loss curve
        is included too.  Restoring this snapshot into a freshly built
        trainer (same config, dataset and seed) and continuing produces
        bit-identical iterations to a run that was never interrupted —
        checkpoints must be taken *between* ``train_step`` calls (forward
        caches are transient and deliberately not captured).

        Under ``sparse_updates=True`` the optimisers' deferred lazy-moment
        decay is *flushed* as part of the snapshot (see
        :mod:`repro.nn.optim`), which rebases the live optimisers too: the
        saving run's own continuation and a load-and-continue run remain
        bit-identical to **each other** (flushing is deterministic, so any
        two runs that snapshot at the same iterations agree exactly); a run
        that never snapshots can differ from a snapshotting one in the last
        ulp of the deferred-decay factorisation.  Dense-mode snapshots are
        side-effect free, exactly as before.
        """
        state: Dict[str, Any] = {
            "compute_dtype": self.config.compute_dtype,
            "sparse_updates": bool(self.config.sparse_updates),
            "iteration": int(self.iteration),
            "density_updates": int(self.density_updates),
            "color_updates": int(self.color_updates),
            "occupancy_refresh_points": int(self.occupancy_refresh_points),
            "pixel_rng": get_rng_state(self._pixel_rng),
            "sample_rng": get_rng_state(self._sample_rng),
            "model": self.model.state_dict(),
            "density_optimizer": self.density_optimizer.state_dict(),
            "color_optimizer": self.color_optimizer.state_dict(),
            "occupancy": (self.occupancy.state_dict()
                          if self.occupancy is not None else None),
        }
        if self.health is not None:
            # LR backoffs live on the optimizers' ``lr`` attribute, which
            # their own state_dicts deliberately exclude (lr is normally
            # config-owned) — persist the effective values here so a
            # resumed recovery replays with the backed-off step sizes.
            state["health"] = {
                "monitor": self.health.state_dict(),
                "density_lr": float(self.density_optimizer.lr),
                "color_lr": float(self.color_optimizer.lr),
            }
        if history is not None:
            state["history"] = history.state_dict()
        return state

    def load_state_dict(self, state: Dict[str, Any],
                        history: Optional[TrainingHistory] = None) -> None:
        """Restore :meth:`state_dict` into this (freshly built) trainer.

        When ``history`` is given it is filled from the snapshot's recorded
        series; a snapshot saved without a history then raises.
        """
        stored_dtype = state["compute_dtype"]
        if stored_dtype != self.config.compute_dtype:
            raise ValueError(
                f"checkpoint was trained under compute_dtype="
                f"{stored_dtype!r} but this trainer uses "
                f"{self.config.compute_dtype!r}; resume is only bit-exact "
                f"within one precision policy")
        stored_sparse = bool(state["sparse_updates"])
        if stored_sparse != self.config.sparse_updates:
            raise ValueError(
                f"checkpoint was trained with sparse_updates={stored_sparse} "
                f"but this trainer uses "
                f"sparse_updates={self.config.sparse_updates}; the two modes' "
                f"update semantics differ, so resume would not continue the "
                f"same trajectory")
        if (state["occupancy"] is None) != (self.occupancy is None):
            raise ValueError(
                "checkpoint culling state does not match this trainer's "
                "configuration (culling_enabled mismatch)")
        self.model.load_state_dict(state["model"])
        self.density_optimizer.load_state_dict(state["density_optimizer"])
        self.color_optimizer.load_state_dict(state["color_optimizer"])
        if self.occupancy is not None:
            self.occupancy.load_state_dict(state["occupancy"])
        set_rng_state(self._pixel_rng, state["pixel_rng"])
        set_rng_state(self._sample_rng, state["sample_rng"])
        self.iteration = int(state["iteration"])
        self.density_updates = int(state["density_updates"])
        self.color_updates = int(state["color_updates"])
        self.occupancy_refresh_points = int(state["occupancy_refresh_points"])
        health_state = state.get("health")
        if health_state is not None:
            if self.health is None:
                raise ValueError(
                    "checkpoint carries numerical-health state but this "
                    "trainer has no HealthPolicy configured; a resumed "
                    "recovery would silently drop its LR backoffs")
            self.health.load_state_dict(health_state["monitor"])
            self.density_optimizer.lr = float(health_state["density_lr"])
            self.color_optimizer.lr = float(health_state["color_lr"])
        # (health-enabled trainer + pre-health checkpoint: monitor starts
        # fresh, LRs stay at the config values — nothing to restore.)
        if history is not None:
            if "history" not in state:
                raise ValueError(
                    "checkpoint was saved without a training history")
            history.load_state_dict(state["history"])

    # -- one iteration ---------------------------------------------------------
    def train_step(self) -> Dict[str, float]:
        """Run one full training iteration and return its scalar metrics."""
        update_density, update_color = self.schedules.updates_at(self.iteration)
        if self.occupancy is not None:
            self._refresh_occupancy()

        # ❶ — pixel batch, drawn by the configured ray schedule.
        bundle, targets = self.scheduler.sample_batch(self._pixel_rng)
        # ❷ / ❸ / ❹ — sampling, (culled) field query and volume rendering.
        out = self.pipeline.render_rays(bundle, rng=self._sample_rng)
        # ❺ — loss.
        loss, grad_colors = mse_loss(out.render.colors, targets,
                                     dtype=self.policy.dtype)

        # ❻ — back-propagation with per-branch update schedule, touching only
        # the samples that were queried.  A batch whose samples were all
        # culled has no gradients at all, so neither branch updates on it.
        self.model.zero_grad()
        update_density = update_density and out.n_queried > 0
        update_color = update_color and out.n_queried > 0
        rows_touched = 0
        if out.n_queried > 0:
            grad_sigmas, grad_rgbs = self.pipeline.backward_to_points(
                grad_colors)
            self.model.backward(
                grad_sigmas,
                grad_rgbs,
                update_density=update_density,
                update_color=update_color,
            )
            if get_injector() is not None:      # chaos hook: poison grads
                fault_point("train.backward",
                            arrays=self._gradient_arrays(
                                update_density, update_color))
            # Unique hash-table rows carrying a gradient this step (the
            # software analogue of the entries the paper's BUM unit writes
            # back); stale branch counts are excluded via the update flags.
            encoder = self.model.encoder
            if update_density and encoder.density_grid.last_touched_rows is not None:
                rows_touched += encoder.density_grid.last_touched_rows
            if update_color and encoder.color_grid.last_touched_rows is not None:
                rows_touched += encoder.color_grid.last_touched_rows
            self.model.run_branch_updates(
                self.density_optimizer.step if update_density else None,
                self.color_optimizer.step if update_color else None)
            self.density_updates += int(update_density)
            self.color_updates += int(update_color)
            if get_injector() is not None:      # chaos hook: poison params
                fault_point("optimizer.step",
                            arrays=[param.data
                                    for param in self.model.parameters()])

        self.iteration += 1
        guard_checked = False
        if self.health is not None and self.health.check_due(self.iteration):
            guard_checked = True
            trip = self.health.check(self.iteration, float(loss),
                                     self.model.parameters())
            if trip is not None:
                self.last_guard_trip = trip
        return {
            "iteration": float(self.iteration),
            "loss": loss,
            "batch_psnr": mse_to_psnr(loss),
            "updated_density": float(update_density),
            "updated_color": float(update_color),
            "queries_total": float(out.n_total),
            "queries_kept": float(out.n_queried),
            "occupancy_fraction": float(out.occupancy_fraction),
            "grid_rows_touched": float(rows_touched),
            "guard_checked": float(guard_checked),
            "guard_tripped": float(self.last_guard_trip is not None),
        }

    def _gradient_arrays(self, update_density: bool,
                         update_color: bool) -> List[np.ndarray]:
        """Live gradient buffers of the branches updating this step.

        Only the updating branches' gradients are handed to the injector:
        a stale branch's buffer is never read by the optimizer, so
        corrupting it would make the injected fault silently vanish.
        """
        parameters: List[Any] = []
        if update_density:
            parameters.extend(self.model.density_parameters())
        if update_color:
            parameters.extend(self.model.color_parameters())
        arrays: List[np.ndarray] = []
        for param in parameters:
            if param.sparse_grad is not None:
                arrays.append(param.sparse_grad.values)
            elif param.grad is not None:
                arrays.append(param.grad)
        return arrays

    # -- full run ---------------------------------------------------------------
    def run_steps(self, n_steps: int, history: TrainingHistory,
                  eval_every: Optional[int] = None, eval_views: int = 1,
                  eval_samples: int = 48) -> None:
        """Run ``n_steps`` iterations, recording losses (and periodic
        evaluations) into ``history``.

        Used both by :meth:`train` and by the fleet orchestrator's
        round-robin scheduler, which interleaves slices of steps across
        scenes while keeping each scene's trajectory identical to a solo run.

        With a :class:`~repro.reliability.health.HealthPolicy` configured,
        the loop seeds a baseline snapshot, snapshots on schedule, and a
        tripped guard rolls the trainer back to the last good snapshot
        and replays with seeded remediation (LR backoff / batch skip); the
        loop then keeps going until the *target* iteration is reached, so a
        recovered run delivers the same number of net steps.  Exhausting
        ``max_rollbacks`` raises
        :class:`~repro.reliability.health.NumericalFault`.
        """
        target = self.iteration + n_steps
        try:
            if self.health is not None:
                self._ensure_baseline_snapshot(history)
            while self.iteration < target:
                metrics = self.train_step()
                if self.last_guard_trip is not None:
                    # The just-finished step is poisoned: do not record it,
                    # rewind instead.  The while condition then replays the
                    # lost iterations.
                    self._recover(history)
                    continue
                history.record_step(
                    self.iteration, metrics["loss"], metrics["batch_psnr"],
                    queries_kept=int(metrics["queries_kept"]),
                    queries_total=int(metrics["queries_total"]),
                    occupancy_fraction=metrics["occupancy_fraction"],
                )
                if eval_every and self.iteration % eval_every == 0:
                    history.record_eval(self.iteration,
                                        self._evaluate(eval_views, eval_samples))
                # guard_checked is only ever set with health guards on.
                if metrics["guard_checked"] > 0.0 and (
                        self.iteration - self._last_snapshot_iteration
                        >= self.health.policy.snapshot_every):
                    self._snapshots.push(self.iteration,
                                         self.state_dict(history))
                    self._last_snapshot_iteration = self.iteration
        finally:
            # Counters must reach the history even when NumericalFault
            # aborts the run: the serving stats report poisoned scenes'
            # trips from here.
            self._sync_health_counters(history)

    def _evaluate(self, eval_views: int, eval_samples: int) -> EvaluationResult:
        """Test-split evaluation of the current model under this config."""
        return evaluate_model(
            self.model, self.dataset, n_views=eval_views,
            n_samples=eval_samples,
            white_background=self.config.white_background,
            occupancy=self.occupancy,
            policy=self.policy,
        )

    # -- divergence recovery -----------------------------------------------
    def _sync_health_counters(self, history: TrainingHistory) -> None:
        if self.health is None:
            return
        for name, value in self.health.counters().items():
            setattr(history, name, value)

    def _ensure_baseline_snapshot(self, history: TrainingHistory) -> None:
        """Seed the ring at loop entry so the first trip has a rewind target.

        Verifies the entry state is finite first: snapshotting an
        already-poisoned trainer would make every rollback restore the
        poison, so that is a :class:`NumericalFault` outright.
        """
        if len(self._snapshots) > 0:
            return
        if not all(all_finite(param.data)
                   for param in self.model.parameters()):
            raise NumericalFault(
                "trainer entered run_steps with non-finite parameters; "
                "nothing healthy to snapshot")
        self._snapshots.push(self.iteration, self.state_dict(history))
        self._last_snapshot_iteration = self.iteration

    def _recover(self, history: TrainingHistory) -> None:
        """Roll back to the newest good snapshot and arm the seeded replay.

        The remediation ladder is deterministic: restore (which rewinds
        model, optimizers, occupancy, RNG streams *and* the recorded
        history), then multiply both optimizers' LR by ``lr_backoff``
        (cumulative across consecutive rollbacks — the backoff survives
        restores because ``lr`` is deliberately outside the optimizer
        state_dict) and consume one pixel-scheduler draw so the replay sees
        a shifted batch sequence.  ``max_rollbacks`` consecutive rollbacks
        without a healthy check past the trip point raise
        :class:`NumericalFault`; the trainer is still restored first so its
        state stays finite (and checkpointable) for post-mortems.
        """
        monitor = self.health
        policy = monitor.policy
        trip = self.last_guard_trip
        self.last_guard_trip = None
        monitor.last_trip_iteration = max(monitor.last_trip_iteration,
                                          trip.iteration)
        entry = self._snapshots.restore_newest()
        if entry is None:       # unreachable: _ensure_baseline_snapshot ran
            raise NumericalFault(
                f"guard trip {trip.reason!r} at iteration {trip.iteration} "
                f"with an empty snapshot ring")
        self._load_snapshot(entry, history)
        monitor.rollback_attempts += 1
        if monitor.budget_exhausted():
            raise NumericalFault(
                f"guard trip {trip.reason!r} at iteration {trip.iteration} "
                f"({trip.detail}): rollback budget exhausted after "
                f"{policy.max_rollbacks} consecutive rollbacks to "
                f"iteration {entry['iteration']}")
        monitor.rollbacks += 1
        if policy.lr_backoff < 1.0:
            self.density_optimizer.lr *= policy.lr_backoff
            self.color_optimizer.lr *= policy.lr_backoff
            monitor.lr_backoffs += 1
        if policy.skip_batch:
            # Discard as many scheduler draws as there have been consecutive
            # rollbacks: the restore above rewound the pixel RNG to the
            # snapshot state, so a *fixed* skip would replay the identical
            # batch sequence on every attempt.  Escalating the skip count
            # deterministically shifts each successive replay.
            for _ in range(monitor.rollback_attempts):
                self.scheduler.sample_batch(self._pixel_rng)
            monitor.batch_skips += monitor.rollback_attempts

    def _load_snapshot(self, entry: Dict[str, Any],
                       history: TrainingHistory) -> None:
        """Restore a ring entry, preserving the monitor's recovery ledger.

        The snapshot's embedded health state describes the monitor *at
        capture time*; restoring it would erase the trips and rollbacks
        recorded since, so it is dropped and the live monitor carries on.
        """
        state = dict(entry["state"])
        state.pop("health", None)
        self.load_state_dict(state, history=history)

    def finalize(self, history: TrainingHistory, eval_views: int = 1,
                 eval_samples: int = 48) -> TrainingResult:
        """Run the final test-split evaluation and package the result."""
        final_eval = self._evaluate(eval_views, eval_samples)
        self._sync_health_counters(history)
        return TrainingResult(
            history=history,
            final_eval=final_eval,
            n_iterations=self.iteration,
            density_updates=self.density_updates,
            color_updates=self.color_updates,
            final_occupancy_fraction=self.pipeline.occupancy_fraction,
            occupancy_refresh_points=self.occupancy_refresh_points,
            guard_trips=history.guard_trips,
            rollbacks=history.rollbacks,
            lr_backoffs=history.lr_backoffs,
            batch_skips=history.batch_skips,
        )

    def train(self, n_iterations: int, eval_every: Optional[int] = None,
              eval_views: int = 1, eval_samples: int = 48) -> TrainingResult:
        """Train for ``n_iterations`` and evaluate on the test split.

        ``eval_every`` triggers intermediate evaluations (used by the Fig. 5
        color-vs-density learning-pace analysis); the final evaluation always
        runs.
        """
        if n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        history = TrainingHistory()
        self.run_steps(n_iterations, history, eval_every=eval_every,
                       eval_views=eval_views, eval_samples=eval_samples)
        return self.finalize(history, eval_views=eval_views,
                             eval_samples=eval_samples)


def train_scene(dataset: SceneDataset, config: Instant3DConfig, n_iterations: int,
                seed: int = 0, eval_every: Optional[int] = None,
                eval_views: int = 1, eval_samples: int = 48) -> TrainingResult:
    """Convenience helper: build a model for ``config`` and train it on ``dataset``."""
    model = DecoupledRadianceField(config, seed=seed)
    trainer = Trainer(model, dataset, config=config, seed=seed)
    return trainer.train(n_iterations, eval_every=eval_every, eval_views=eval_views,
                         eval_samples=eval_samples)
