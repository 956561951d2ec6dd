"""Reliability toolkit: fault injection, retry policy, numerical health.

* :mod:`repro.reliability.faults` — the seeded :class:`FaultInjector`,
  the :func:`fault_point` production hooks, and the
  :class:`TransientFault` / :class:`PermanentFault` error taxonomy;
* :mod:`repro.reliability.retry` — the :class:`RetryPolicy` used by
  :class:`~repro.serving.service.SceneService` to requeue failed jobs
  with deterministic exponential backoff;
* :mod:`repro.reliability.health` — the :class:`HealthPolicy` /
  :class:`HealthMonitor` divergence watchdog and the permanent
  :class:`NumericalFault` it raises when recovery is exhausted;
* :mod:`repro.reliability.rollback` — the in-memory :class:`SnapshotRing`
  of known-good trainer states backing deterministic rollback recovery.

See ``docs/reliability.md`` for the fault-site table and the end-to-end
fault-tolerance contract.
"""

from repro.reliability.faults import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultInjector,
    FaultSpec,
    PermanentFault,
    TransientFault,
    fault_injection,
    fault_point,
    get_injector,
    install_injector,
    uninstall_injector,
)
from repro.reliability.health import (
    GuardTrip,
    HealthMonitor,
    HealthPolicy,
    NumericalFault,
)
from repro.reliability.retry import RetryPolicy
from repro.reliability.rollback import SnapshotRing, copy_state_tree

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultInjector",
    "FaultSpec",
    "GuardTrip",
    "HealthMonitor",
    "HealthPolicy",
    "NumericalFault",
    "PermanentFault",
    "RetryPolicy",
    "SnapshotRing",
    "TransientFault",
    "copy_state_tree",
    "fault_injection",
    "fault_point",
    "get_injector",
    "install_injector",
    "uninstall_injector",
]
