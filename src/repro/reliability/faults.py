"""Deterministic, seeded fault injection for chaos-testing the serving stack.

The serving path (``SceneService`` -> ``ResidencyManager`` -> checkpoint
I/O) evicts and restores scene state under load, which is exactly the kind
of churn that invites transient I/O failures in production.  This module
provides the hooks to *rehearse* those failures deterministically:

* production code calls :func:`fault_point` at named sites
  (``"checkpoint.save"``, ``"worker.execute"``, ...).  When no injector is
  installed the call is a single global read followed by a return — the hot
  path is untouched;
* tests and benchmarks build a :class:`FaultInjector`, arm it with
  :meth:`FaultInjector.add` specs, and install it for the duration of a
  ``with fault_injection(injector):`` block.

Every spec owns its own RNG derived from ``(seed, site, kind, index)`` via
:func:`repro.utils.seeding.derive_seed`, so whether a given call fires
depends only on the injector seed and on how many calls that spec has seen
— not on wall-clock time or interleaving with other sites.  Under a single
worker thread the whole fault schedule is reproducible from the seed alone.

Fault kinds
-----------
``raise-transient``
    Raise :class:`TransientFault` — models a recoverable failure (EIO,
    flaky NFS, ...).  :class:`~repro.reliability.retry.RetryPolicy`
    classifies it as retryable.
``raise-permanent``
    Raise :class:`PermanentFault` — models a non-recoverable failure;
    never retried.
``truncate-file``
    Truncate the file passed as ``path=`` to half its size — models a torn
    write / partial flush.  No-op when the site passes no path.
``corrupt-bytes``
    Flip a short run of bytes at a seeded offset in ``path`` — models
    silent media corruption that only integrity digests can catch.
``delay``
    Sleep ``delay_s`` seconds — models a slow disk or scheduling stall;
    used to make timing-sensitive tests (queue-full, deadline shed)
    deterministic.
``corrupt-grad`` / ``corrupt-param``
    Poison one seeded element of every array the site passes via
    ``arrays=`` with NaN — models a numerically diverging step (the
    hazard the ``repro.reliability.health`` watchdog exists to catch).
    The two kinds are identical mechanically; the split keeps specs
    self-describing about *which* tensor family (gradients at
    ``train.backward``, parameters at ``optimizer.step``) they target.
    No-ops when the site passes no arrays.

Sites are registered in :data:`FAULT_SITES`; :meth:`FaultInjector.add`
rejects unknown site names so a typo'd spec fails loudly instead of
silently never firing.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.utils.seeding import derive_seed

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultInjector",
    "FaultSpec",
    "PermanentFault",
    "TransientFault",
    "fault_injection",
    "fault_point",
    "get_injector",
    "install_injector",
    "uninstall_injector",
]

FAULT_KINDS = (
    "raise-transient",
    "raise-permanent",
    "truncate-file",
    "corrupt-bytes",
    "delay",
    "corrupt-grad",
    "corrupt-param",
)

#: Array-poisoning kinds: side effects (never raise), applied to the
#: ``arrays=`` a site passes.
_ARRAY_KINDS = ("corrupt-grad", "corrupt-param")

# Every fault_point() site in the codebase.  add() validates against this
# so a typo'd site fails at arm time instead of silently never firing.
FAULT_SITES = {
    "checkpoint.save": "after an atomic checkpoint write lands",
    "checkpoint.load": "before a checkpoint generation is read",
    "residency.checkout": "when a worker checks a scene slot out",
    "worker.execute": "around a service job's execution body",
    "worker.crash": "inside the worker loop, outside job handling",
    "train.backward": "after gradients are scattered into parameters",
    "optimizer.step": "after both optimizers apply their updates",
}


class TransientFault(OSError):
    """Injected failure that a retry is expected to cure.

    Subclasses :class:`OSError` so that code which already treats I/O
    errors as retryable (and tests that catch ``OSError``) classify it
    correctly without knowing about the injector.
    """


class PermanentFault(RuntimeError):
    """Injected failure that retrying cannot cure."""


@dataclass
class FaultSpec:
    """One armed fault: *where* (site), *what* (kind), and *when* (rate/after/times)."""

    site: str
    kind: str = "raise-transient"
    rate: float = 1.0
    #: skip this many matching calls before the spec becomes eligible
    after: int = 0
    #: fire at most this many times (``None`` = unlimited)
    times: Optional[int] = None
    delay_s: float = 0.0
    # bookkeeping (mutated under the injector lock)
    calls: int = field(default=0, repr=False)
    triggered: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")


class FaultInjector:
    """Deterministic fault schedule keyed by (seed, site, call count).

    Thread-safe: all spec bookkeeping happens under one lock, so counters
    are exact even when several worker threads hit the same site.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._specs: List[FaultSpec] = []
        self._rngs: List[np.random.Generator] = []
        self._lock = threading.Lock()
        self.faults_injected = 0
        self.site_counts: Dict[str, int] = {}

    def add(self, site: str, kind: str = "raise-transient", *,
            rate: float = 1.0, after: int = 0, times: Optional[int] = None,
            delay_s: float = 0.0) -> FaultSpec:
        """Arm a fault at ``site`` and return the spec for later inspection.

        ``site`` must be named in :data:`FAULT_SITES`: a typo'd site would
        otherwise arm a spec that silently never fires.
        """
        spec = FaultSpec(site=site, kind=kind, rate=rate, after=after,
                         times=times, delay_s=delay_s)
        if site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {site!r}; registered sites: "
                f"{sorted(FAULT_SITES)}")
        with self._lock:
            index = len(self._specs)
            self._specs.append(spec)
            self._rngs.append(np.random.default_rng(
                derive_seed(self.seed, f"fault:{site}:{kind}:{index}")))
        return spec

    def fire(self, site: str, path: Optional[os.PathLike] = None,
             arrays: Optional[List[np.ndarray]] = None) -> None:
        """Evaluate every spec armed at ``site``; apply the first that triggers.

        Side-effect kinds (truncate/corrupt/delay/corrupt-grad/corrupt-param)
        do not stop evaluation of later specs, but at most one *raising*
        spec fires per call.
        """
        actions: List[FaultSpec] = []
        with self._lock:
            for spec, rng in zip(self._specs, self._rngs):
                if spec.site != site:
                    continue
                spec.calls += 1
                if spec.calls <= spec.after:
                    continue
                if spec.times is not None and spec.triggered >= spec.times:
                    continue
                # Draw even at rate=1.0 so adding/removing other specs never
                # shifts this spec's schedule.
                if rng.random() >= spec.rate and spec.rate < 1.0:
                    continue
                spec.triggered += 1
                self.faults_injected += 1
                self.site_counts[site] = self.site_counts.get(site, 0) + 1
                actions.append(spec)
        raising: Optional[FaultSpec] = None
        for spec in actions:
            if spec.kind == "delay":
                time.sleep(spec.delay_s)
            elif spec.kind == "truncate-file":
                _truncate_file(path)
            elif spec.kind == "corrupt-bytes":
                self._corrupt_bytes(path)
            elif spec.kind in _ARRAY_KINDS:
                self._corrupt_arrays(arrays)
            elif raising is None:
                raising = spec
        if raising is not None:
            if raising.kind == "raise-transient":
                raise TransientFault(
                    f"injected transient fault at site {site!r} "
                    f"(trigger {raising.triggered}/{raising.times or 'inf'})")
            raise PermanentFault(
                f"injected permanent fault at site {site!r}")

    def _corrupt_bytes(self, path: Optional[os.PathLike]) -> None:
        if path is None or not os.path.exists(path):
            return
        size = os.path.getsize(path)
        if size == 0:
            return
        with self._lock:
            rng = np.random.default_rng(
                derive_seed(self.seed, f"corrupt:{self.faults_injected}"))
        offset = int(rng.integers(0, size))
        span = int(min(size - offset, 8))
        with open(path, "r+b") as handle:
            handle.seek(offset)
            original = handle.read(span)
            handle.seek(offset)
            handle.write(bytes(b ^ 0xFF for b in original))

    def _corrupt_arrays(self, arrays: Optional[List[np.ndarray]]) -> None:
        """Poison one seeded element of *every* passed array with NaN.

        Corrupting every array (rather than one seeded pick) guarantees the
        poison lands in live state: at a site like ``train.backward`` a
        single pick could hit a stale branch's buffer that this iteration's
        optimizer step never reads, and the injected fault would vanish.
        Element choice is seeded from ``(seed, faults_injected)`` so the
        schedule replays exactly under a fixed ``REPRO_FAULT_SEED``.
        """
        if not arrays:
            return
        with self._lock:
            rng = np.random.default_rng(
                derive_seed(self.seed, f"corrupt-array:{self.faults_injected}"))
        for array in arrays:
            if array.size == 0 or not np.issubdtype(array.dtype, np.floating):
                continue
            # .flat assigns in place even on non-contiguous views.
            array.flat[int(rng.integers(0, array.size))] = np.nan

    def counts(self) -> Dict[str, int]:
        """Per-site trigger counts plus the ``total``."""
        with self._lock:
            out = dict(self.site_counts)
            out["total"] = self.faults_injected
        return out


def _truncate_file(path: Optional[os.PathLike]) -> None:
    if path is None or not os.path.exists(path):
        return
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size // 2)


# Process-global injector.  ``None`` (the default) keeps fault_point() at a
# single attribute read, so production code pays nothing for the hooks.
_INJECTOR: Optional[FaultInjector] = None
_INSTALL_LOCK = threading.Lock()


def get_injector() -> Optional[FaultInjector]:
    """The currently installed injector, or ``None`` when disabled."""
    return _INJECTOR


def install_injector(injector: FaultInjector) -> None:
    """Install ``injector`` process-wide; errors if one is already installed."""
    global _INJECTOR
    with _INSTALL_LOCK:
        if _INJECTOR is not None:
            raise RuntimeError("a FaultInjector is already installed; "
                               "uninstall it first")
        _INJECTOR = injector


def uninstall_injector() -> None:
    """Remove the installed injector (no-op when none is installed)."""
    global _INJECTOR
    with _INSTALL_LOCK:
        _INJECTOR = None


@contextmanager
def fault_injection(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Install ``injector`` for the duration of the block."""
    install_injector(injector)
    try:
        yield injector
    finally:
        uninstall_injector()


def fault_point(site: str, path: Optional[os.PathLike] = None,
                arrays: Optional[List[np.ndarray]] = None) -> None:
    """Production-side hook: inject whatever is armed at ``site``.

    A no-op (one global read) when no injector is installed.  ``path``
    gives file-mutating kinds (truncate/corrupt) something to chew on;
    ``arrays`` gives the array-poisoning kinds (corrupt-grad /
    corrupt-param) their targets.  Callers should build the ``arrays``
    list only when :func:`get_injector` is non-``None`` so the disabled
    hot path stays a single global read.
    """
    injector = _INJECTOR
    if injector is None:
        return
    injector.fire(site, path, arrays)
