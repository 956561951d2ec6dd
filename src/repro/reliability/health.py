"""Numerical-health guardrails for training: divergence detection policy.

PR 9 made the stack survive *external* faults (torn writes, worker
crashes).  This module covers *numerical* faults: a NaN-poisoned gradient,
an Adam blow-up, a loss spike from a pathological hash collision.  Left
unchecked, a single non-finite update silently corrupts the hash tables,
gets persisted by ``save_checkpoint`` and is then served to every
subsequent render of the scene.  Large-scale training practice (the
PaLM/OPT loss-spike protocols) treats divergence as a first-class fault:
detect it cheaply, rewind to a known-good snapshot, perturb the replay.

Three pieces, mirroring the fault-injection split in ``faults.py``:

* :class:`HealthPolicy` — a frozen, picklable bundle of knobs (what to
  check, how often, how to recover).  Carried on ``Instant3DConfig.health``
  so fleets and services inherit it without extra plumbing.
* :class:`HealthMonitor` — the per-trainer watchdog.  Read-only over the
  training state: it looks at the loss scalar, gradient buffers and
  parameter tensors but never writes to any of them, which is what makes
  the no-trip bit-identity invariant (guards on == guards off) hold.
* :class:`NumericalFault` — raised by the trainer once the rollback
  budget is exhausted; classified as *permanent* by the retry machinery
  and mapped to ``JobPoisoned`` by ``SceneService`` so one diverging
  tenant cannot take down the fleet.

All detection thresholds are evaluated with explicit ``isfinite`` logic
rather than ordered comparisons: NaN compares false against everything,
so e.g. ``loss > limit`` would silently pass a NaN through.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional

import numpy as np

__all__ = [
    "GuardTrip",
    "HealthMonitor",
    "HealthPolicy",
    "NumericalFault",
    "all_finite",
]


class NumericalFault(RuntimeError):
    """Training diverged and the rollback budget could not recover it.

    Subclasses :class:`RuntimeError` so :class:`~repro.reliability.retry.
    RetryPolicy` classifies it as permanent: replaying the exact same
    deterministic schedule would diverge the exact same way, so retrying
    the job verbatim is pointless.  ``SceneService`` maps this onto
    :class:`~repro.serving.jobs.JobPoisoned` for the offending scene.
    """


@dataclass(frozen=True)
class GuardTrip:
    """One detection event: *what* tripped, *where*, and the offending value."""

    reason: str          # "loss-nonfinite" | "loss-spike" | "grad-nonfinite"
                         # | "param-nonfinite" | "param-explosion"
    iteration: int
    detail: str = ""


@dataclass(frozen=True)
class HealthPolicy:
    """Knobs for the divergence watchdog and its recovery ladder.

    Frozen and containing only scalars so it hashes into config identity.

    Detection knobs
    ---------------
    check_every:
        Run the guards every N-th iteration (1 = every step).  Raising it
        amortises the read-only scans; divergence is then detected at most
        ``check_every - 1`` steps late, which the snapshot ring absorbs.
    loss_window / loss_spike_factor:
        Keep a rolling window of the last ``loss_window`` *healthy* loss
        values and trip when a new loss exceeds ``loss_spike_factor`` times
        the window median.  ``loss_spike_factor=None`` disables the spike
        guard (non-finite losses still trip).  The median is robust to the
        noisy per-batch MSE in a way a mean is not.
    check_grads / check_params:
        Scan gradient buffers (dense and COO) and parameter tensors for
        non-finite values; params are additionally checked against
        ``param_limit``.
    param_limit:
        Trip when any parameter's magnitude exceeds this (finite) bound —
        catches the slow hash-table blow-up that precedes a NaN by many
        iterations.

    Recovery knobs
    --------------
    snapshot_every / snapshot_ring:
        Take an in-memory snapshot of the full trainer state every
        ``snapshot_every`` healthy checks, keeping the newest
        ``snapshot_ring`` of them.
    max_rollbacks:
        Consecutive rollbacks allowed without forward progress before the
        trainer raises :class:`NumericalFault`.  A healthy check *past* the
        last trip point resets the budget.
    lr_backoff:
        Multiply both optimizers' learning rate by this factor on every
        rollback (cumulative: k rollbacks => lr * backoff**k).  1.0
        disables the backoff.
    skip_batch:
        On rollback, deterministically discard pixel-scheduler draws (as
        many as there have been consecutive rollbacks, since the restore
        rewinds the RNG) so each replay attempt sees a shifted batch
        sequence.  Combined with LR backoff this is the seeded "perturb
        the replay" remediation.
    """

    check_every: int = 1
    loss_window: int = 16
    loss_window_min: int = 8
    loss_spike_factor: Optional[float] = 50.0
    check_grads: bool = True
    check_params: bool = True
    param_limit: float = 1e6
    snapshot_every: int = 25
    snapshot_ring: int = 2
    max_rollbacks: int = 3
    lr_backoff: float = 0.5
    skip_batch: bool = True

    def __post_init__(self) -> None:
        if self.check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {self.check_every}")
        if self.loss_window < 2:
            raise ValueError(f"loss_window must be >= 2, got {self.loss_window}")
        if not 2 <= self.loss_window_min <= self.loss_window:
            raise ValueError(
                f"loss_window_min must be in [2, loss_window], "
                f"got {self.loss_window_min}")
        if self.loss_spike_factor is not None and not (
                math.isfinite(self.loss_spike_factor)
                and self.loss_spike_factor > 1.0):
            raise ValueError(
                f"loss_spike_factor must be finite and > 1, "
                f"got {self.loss_spike_factor}")
        if not (math.isfinite(self.param_limit) and self.param_limit > 0.0):
            raise ValueError(
                f"param_limit must be finite and > 0, got {self.param_limit}")
        if self.snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}")
        if self.snapshot_ring < 1:
            raise ValueError(
                f"snapshot_ring must be >= 1, got {self.snapshot_ring}")
        if self.max_rollbacks < 1:
            raise ValueError(
                f"max_rollbacks must be >= 1, got {self.max_rollbacks}")
        if not (math.isfinite(self.lr_backoff) and 0.0 < self.lr_backoff <= 1.0):
            raise ValueError(
                f"lr_backoff must be in (0, 1], got {self.lr_backoff}")


def all_finite(array) -> bool:
    """Whether every element of a (floating) array is finite.

    Non-floating dtypes are finite by construction and return ``True``
    without a scan.
    """
    array = np.asarray(array)
    if not np.issubdtype(array.dtype, np.floating):
        return True
    return bool(np.isfinite(array).all())


class HealthMonitor:
    """Per-trainer divergence watchdog.

    Strictly read-only over model/optimizer/loss state: every guard is a
    scan, never a write, so installing the monitor cannot perturb a healthy
    run (the no-trip bit-identity invariant, pinned by differentials in
    ``tests/test_health.py``).  The loss window only admits values from
    *healthy* checks, so a spike never contaminates its own baseline.
    """

    def __init__(self, policy: HealthPolicy) -> None:
        self.policy = policy
        self._losses: Deque[float] = deque(maxlen=policy.loss_window)
        # Counters (canonical here; the trainer mirrors them into history).
        self.guard_trips = 0
        self.rollbacks = 0
        self.lr_backoffs = 0
        self.batch_skips = 0
        self.rollback_attempts = 0      # consecutive, reset on progress
        self.last_trip_iteration = -1
        self.trips: List[GuardTrip] = []

    # -- detection ---------------------------------------------------------

    def check_due(self, iteration: int) -> bool:
        """Whether the guards run for the step that just finished."""
        return iteration % self.policy.check_every == 0

    def check(self, iteration: int, loss: float,
              parameters: Iterable) -> Optional[GuardTrip]:
        """Run every enabled guard; return the first trip (or ``None``).

        ``parameters`` is the trainer's parameter list; gradients are read
        from ``p.grad`` / ``p.sparse_grad`` in whatever state the step left
        them.  On a healthy check the loss joins the rolling window.
        """
        policy = self.policy
        trip: Optional[GuardTrip] = None
        if not math.isfinite(loss):
            trip = GuardTrip("loss-nonfinite", iteration, f"loss={loss!r}")
        if trip is None and policy.loss_spike_factor is not None \
                and len(self._losses) >= policy.loss_window_min:
            median = float(np.median(np.asarray(self._losses)))
            if median > 0.0 and loss > policy.loss_spike_factor * median:
                trip = GuardTrip(
                    "loss-spike", iteration,
                    f"loss={loss:.6g} > {policy.loss_spike_factor:g} * "
                    f"median({median:.6g})")
        if trip is None and (policy.check_grads or policy.check_params):
            trip = self._scan_parameters(iteration, parameters)
        if trip is None:
            self._losses.append(float(loss))
            if iteration > self.last_trip_iteration:
                self.rollback_attempts = 0      # forward progress: new budget
        else:
            self.guard_trips += 1
            self.trips.append(trip)
        return trip

    def _scan_parameters(self, iteration: int,
                         parameters: Iterable) -> Optional[GuardTrip]:
        policy = self.policy
        for index, param in enumerate(parameters):
            if policy.check_grads:
                grad = getattr(param, "grad", None)
                if grad is not None and not all_finite(grad):
                    return GuardTrip("grad-nonfinite", iteration,
                                     f"parameter #{index} dense grad")
                sparse = getattr(param, "sparse_grad", None)
                if sparse is not None and not all_finite(sparse.values):
                    return GuardTrip("grad-nonfinite", iteration,
                                     f"parameter #{index} sparse grad")
            if policy.check_params:
                data = np.asarray(param.data)
                # One pass: max |x| is NaN if any element is, so a single
                # isfinite on the scalar catches NaN/inf and the explosion
                # bound together.
                peak = float(np.max(np.abs(data))) if data.size else 0.0
                if not math.isfinite(peak):
                    return GuardTrip("param-nonfinite", iteration,
                                     f"parameter #{index}")
                if peak > policy.param_limit:
                    return GuardTrip(
                        "param-explosion", iteration,
                        f"parameter #{index} max |x| = {peak:.3g} > "
                        f"{policy.param_limit:g}")
        return None

    # -- recovery bookkeeping (mutations happen in the trainer) ------------

    def budget_exhausted(self) -> bool:
        return self.rollback_attempts > self.policy.max_rollbacks

    # -- persistence -------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return {
            "guard_trips": self.guard_trips,
            "rollbacks": self.rollbacks,
            "lr_backoffs": self.lr_backoffs,
            "batch_skips": self.batch_skips,
        }

    def state_dict(self) -> Dict[str, object]:
        return {
            "losses": [float(v) for v in self._losses],
            "guard_trips": self.guard_trips,
            "rollbacks": self.rollbacks,
            "lr_backoffs": self.lr_backoffs,
            "batch_skips": self.batch_skips,
            "rollback_attempts": self.rollback_attempts,
            "last_trip_iteration": self.last_trip_iteration,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self._losses = deque((float(v) for v in state["losses"]),
                             maxlen=self.policy.loss_window)
        self.guard_trips = int(state["guard_trips"])
        self.rollbacks = int(state["rollbacks"])
        self.lr_backoffs = int(state["lr_backoffs"])
        self.batch_skips = int(state["batch_skips"])
        self.rollback_attempts = int(state["rollback_attempts"])
        self.last_trip_iteration = int(state["last_trip_iteration"])
