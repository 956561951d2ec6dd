"""Span tracer installed from outside the library, for the traced run.

Wrappers replace methods at class level (or functions at module level)
only while a :class:`Tracer` is installed, so the untraced run executes the
library's own code objects.  Each thread keeps its own span stack (the
serving worker is a separate thread from the load generator), and every
span's *self time* — its duration minus the part covered by its child
spans — is added to its layer.  Self times of nested spans therefore sum
to the root span's duration: nothing is counted twice, even when a
subclass method calls its wrapped base-class method.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """Per-layer self time and call counts of wrapped calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: Spans are recorded only while ``active`` (the train loop clears
        #: it around held-out evaluations, which are not part of a step).
        self.active = True
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- span arithmetic ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> list:
        frame = [layer, self.clock(), 0.0]
        self._stack().append(frame)
        return frame

    def exit(self, frame: list) -> None:
        stack = self._stack()
        popped = stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        duration = self.clock() - frame[1]
        if stack:
            stack[-1][2] += duration
        with self._lock:
            self.self_s[frame[0]] += duration - frame[2]
            self.calls[frame[0]] += 1

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    # -- installation ---------------------------------------------------------
    def wrap(self, fn: Callable, layer: str,
             on_return: Optional[Callable[["Tracer", object], None]] = None
             ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if on_return is not None:
                on_return(tracer, result)
            return result

        return traced

    def instrument(self, owner: object, attr: str, layer: str,
                   on_return: Optional[Callable[["Tracer", object], None]] = None
                   ) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a span."""
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(original, layer, on_return))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every instrumented attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _count_step(tracer: Tracer, metrics: Dict[str, float]) -> None:
    """Record the counts ``Trainer.train_step`` returns."""
    tracer.count("steps", 1)
    tracer.count("queries_total", metrics["queries_total"])
    tracer.count("queries_kept", metrics["queries_kept"])
    tracer.count("rows_touched", metrics["grid_rows_touched"])


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (see README for the map)."""
    import repro.serving.residency as residency
    import repro.serving.service as service
    import repro.training.trainer as trainer
    from repro.core.decoupled_grid import DecoupledGridEncoder
    from repro.core.model import DecoupledRadianceField
    from repro.nerf import scheduling
    from repro.nerf.occupancy import OccupancyGrid
    from repro.nerf.pipeline import RenderPipeline
    from repro.nerf.volume_rendering import VolumeRenderer
    from repro.nn.mlp import MLP
    from repro.nn.optim import Adam

    instrument = tracer.instrument
    instrument(trainer.Trainer, "train_step", "trainer.step", _count_step)
    for cls in (scheduling.UniformScheduler, scheduling.MortonTileScheduler,
                scheduling.OccupancyTileScheduler):
        instrument(cls, "sample_batch", "scheduling.sample_pixels")
    instrument(RenderPipeline, "stage_samples", "pipeline.map_rays")
    for name in ("stage_cull", "stage_gather", "stage_composite",
                 "backward_to_points"):
        instrument(RenderPipeline, name, "pipeline.cull")
    instrument(RenderPipeline, "stage_query", "field.glue")
    for name in ("query", "query_density", "backward"):
        instrument(DecoupledRadianceField, name, "field.glue")
    instrument(DecoupledGridEncoder, "encode_density", "grid.forward")
    instrument(DecoupledGridEncoder, "encode_color", "grid.forward")
    instrument(DecoupledGridEncoder, "backward_density", "grid.backward")
    instrument(DecoupledGridEncoder, "backward_color", "grid.backward")
    instrument(MLP, "forward", "mlp.forward")
    instrument(MLP, "backward", "mlp.backward")
    instrument(VolumeRenderer, "forward", "volume_rendering.forward")
    instrument(VolumeRenderer, "backward", "volume_rendering.backward")
    instrument(OccupancyGrid, "update", "occupancy.refresh")
    instrument(Adam, "step", "optim.param_update")
    instrument(trainer, "mse_loss", "losses.loss")
    instrument(residency.ResidencyManager, "checkout", "residency.checkout")
    instrument(residency, "save_trainer_checkpoint", "checkpoint.save")
    instrument(residency, "load_trainer_checkpoint", "checkpoint.load")
    instrument(service, "render_coalesced", "batching.coalesce")
