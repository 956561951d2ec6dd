"""Self-time arithmetic of the benchmark's span tracer.

Run from the repository root with::

    python3 -m pytest perfbench/test_tracer.py -q
"""

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tracer import Tracer, install_layer_spans  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def test_nested_spans_split_self_time(clock):
    tracer = Tracer(clock=clock)

    def inner():
        clock.advance(3.0)

    def outer():
        clock.advance(2.0)
        wrapped_inner()
        clock.advance(5.0)

    wrapped_inner = tracer.wrap(inner, "inner")
    tracer.wrap(outer, "outer")()
    assert tracer.self_s["outer"] == pytest.approx(7.0)
    assert tracer.self_s["inner"] == pytest.approx(3.0)
    assert dict(tracer.calls) == {"outer": 1, "inner": 1}


def test_grandchild_time_is_not_subtracted_twice(clock):
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap(lambda: clock.advance(1.0), "leaf")

    def middle():
        clock.advance(2.0)
        leaf()

    def root():
        clock.advance(4.0)
        wrapped_middle()

    wrapped_middle = tracer.wrap(middle, "middle")
    tracer.wrap(root, "root")()
    assert tracer.self_s["root"] == pytest.approx(4.0)
    assert tracer.self_s["middle"] == pytest.approx(2.0)
    assert tracer.self_s["leaf"] == pytest.approx(1.0)
    assert sum(tracer.self_s.values()) == pytest.approx(7.0)


def test_subclass_calling_wrapped_base_counts_once(clock):
    class Base:
        def sample_batch(self, rng):
            clock.advance(2.0)
            return "batch"

    class Sub(Base):
        def sample_batch(self, rng):
            batch = super().sample_batch(rng)
            clock.advance(1.0)
            return batch

    original = Sub.__dict__["sample_batch"]
    tracer = Tracer(clock=clock)
    tracer.instrument(Base, "sample_batch", "scheduling.sample_pixels")
    tracer.instrument(Sub, "sample_batch", "scheduling.sample_pixels")
    try:
        assert Sub().sample_batch(None) == "batch"
    finally:
        tracer.uninstall()
    assert tracer.self_s["scheduling.sample_pixels"] == pytest.approx(3.0)
    assert tracer.calls["scheduling.sample_pixels"] == 2
    assert Sub.__dict__["sample_batch"] is original


def test_exception_closes_span(clock):
    tracer = Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert tracer.self_s["boom"] == pytest.approx(1.0)
    assert tracer._stack() == []


def test_inactive_tracer_records_nothing(clock):
    tracer = Tracer(clock=clock)
    tracer.active = False
    tracer.wrap(lambda: clock.advance(1.0), "idle")()
    assert not tracer.self_s and not tracer.calls


def test_threads_keep_separate_stacks():
    tracer = Tracer()
    entered, release = threading.Event(), threading.Event()

    def worker_body():
        entered.set()
        release.wait(5.0)

    worker_span = tracer.wrap(worker_body, "worker")

    def main_body():
        thread = threading.Thread(target=worker_span)
        thread.start()
        assert entered.wait(5.0)
        release.set()
        thread.join(5.0)
        assert not thread.is_alive()

    tracer.wrap(main_body, "main")()
    # The worker's span is not a child of the main thread's open span, so
    # the main span keeps the time it spent waiting on the worker.
    assert tracer.calls == {"main": 1, "worker": 1}
    assert tracer.self_s["main"] >= tracer.self_s["worker"] * 0.99


def test_library_spans_install_and_restore():
    from repro.nerf.scheduling import OccupancyTileScheduler
    from repro.training.trainer import Trainer
    import repro.training.trainer as trainer_module

    originals = (Trainer.__dict__["train_step"],
                 OccupancyTileScheduler.__dict__["sample_batch"],
                 trainer_module.mse_loss)
    tracer = Tracer()
    install_layer_spans(tracer)
    try:
        assert Trainer.__dict__["train_step"] is not originals[0]
        assert trainer_module.mse_loss is not originals[2]
    finally:
        tracer.uninstall()
    assert (Trainer.__dict__["train_step"],
            OccupancyTileScheduler.__dict__["sample_batch"],
            trainer_module.mse_loss) == originals
