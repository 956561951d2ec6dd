"""Concurrent density/color branches and the shared workspace arena.

Above ``repro.core.model.BRANCH_THREAD_MIN_ROWS`` rows in the smaller branch
table, :meth:`DecoupledRadianceField.run_branches` runs the color branch on
a worker thread beside the density branch (query, backward and the
trainer's optimiser steps).  Below it, a query or backward covering at
least ``BRANCH_THREAD_MIN_POINTS`` points does the same; the update phase
stays inline.  On a step where one branch updates alone,
:meth:`DecoupledRadianceField.run_branch_updates` hands the idle worker to
that branch instead: its COO grid backward runs as two level ranges and
its lazy ``Adam`` step as two row halves, one on each thread.  These tests
lower the gate to 0 so the concurrent paths run on tiny models, and check
that:

* a concurrent 20-step training run is bit-identical to the sequential one
  (losses, parameters, flushed Adam moments), dense and sparse updates,
  both precision policies, culled pipeline;
* with the gates as shipped, a 24-step small-table run whose batches
  cross the point gate and are then culled below it threads exactly the
  calls at or above the gate, and is bit-identical to the run with both
  gates at infinity;
* a 20-step sparse run whose density-only steps take the split is
  bit-identical to the sequential run, both precision policies; the split
  halves really ran on two threads, and the grid's first-touch ``mark``
  array is all-False after every backward;
* an exception in either half of a split grid backward reaches the caller
  only after both halves joined, and the next backward matches a clean
  model's;
* each gate starts no thread below it and one worker at it, and
  ``backward`` follows the point count of the query it belongs to;
* color-branch exceptions (including ``np.errstate`` floating-point errors,
  which live in a context variable) reach the caller after both branches
  joined, and the model keeps working;
* the worker belongs to the calling thread: every model a thread runs
  shares it, and it stops when that thread ends;
* the arena's name lookup and counters survive many threads, and two
  optimisers sharing one arena under their own prefixes step concurrently
  exactly as on separate arenas.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import sys
import threading
import time

import numpy as np
import pytest

import repro.core.model as model_module
from repro.core.config import Instant3DConfig
from repro.core.model import DecoupledRadianceField
from repro.grid.hash_encoding import HashGridConfig, MultiResHashGrid
from repro.nn.mlp import MLP
from repro.nn.optim import Adam
from repro.nn.parameter import Parameter
from repro.training.trainer import Trainer
from repro.utils.seeding import new_rng
from repro.utils.workspace import WorkspaceArena

JOIN_TIMEOUT_S = 30.0
WORKER_PREFIX = "repro-color-branch"


@pytest.fixture
def concurrent_branches(monkeypatch):
    """Lower the gate so every model runs its branches on two threads."""
    monkeypatch.setattr(model_module, "BRANCH_THREAD_MIN_ROWS", 0)


@pytest.fixture
def model(tiny_config, concurrent_branches):
    """A fresh tiny model on the concurrent path."""
    return DecoupledRadianceField(tiny_config, seed=0)


def _workers() -> set:
    return {thread for thread in threading.enumerate()
            if thread.name.startswith(WORKER_PREFIX)}


def _on_worker() -> bool:
    return threading.current_thread().name.startswith(WORKER_PREFIX)


def _in_fresh_thread(fn) -> None:
    """Run ``fn()`` on a new thread, which starts with no branch worker,
    and re-raise what it raised."""
    errors = []

    def target():
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    thread = threading.Thread(target=target)
    thread.start()
    thread.join()
    if errors:
        raise errors[0]


def _inputs(n_points: int, seed: int = 0):
    """``n_points`` random points, one direction, and output gradients."""
    rng = new_rng(seed)
    return (rng.random((n_points, 3)),
            np.tile([0.0, 0.0, 1.0], (n_points, 1)),
            rng.standard_normal(n_points),
            rng.standard_normal((n_points, 3)))


def _run(config, dataset, n_steps: int):
    trainer = Trainer(DecoupledRadianceField(config, seed=0), dataset,
                      config=config, seed=0)
    losses = [trainer.train_step()["loss"] for _ in range(n_steps)]
    return trainer, losses


def _assert_same_run(trainer_a, losses_a, trainer_b, losses_b) -> None:
    """Equal losses, parameters and flushed Adam moments, bit for bit."""
    assert losses_a == losses_b
    for a, b in zip(trainer_a.model.parameters(),
                    trainer_b.model.parameters()):
        np.testing.assert_array_equal(a.data, b.data)
    for name in ("density_optimizer", "color_optimizer"):
        state_a = getattr(trainer_a, name).state_dict()
        state_b = getattr(trainer_b, name).state_dict()
        assert state_a["step_count"] == state_b["step_count"]
        for key in ("m", "v"):
            assert state_a[key].keys() == state_b[key].keys()
            for index in state_a[key]:
                np.testing.assert_array_equal(state_a[key][index],
                                              state_b[key][index])


class TestBitIdentity:
    N_STEPS = 20

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_concurrent_run_matches_sequential(self, tiny_config, tiny_dataset,
                                               monkeypatch, sparse, dtype):
        config = dataclasses.replace(tiny_config, sparse_updates=sparse,
                                     compute_dtype=dtype, culling_enabled=True)
        sequential, seq_losses = _run(config, tiny_dataset, self.N_STEPS)
        assert not sequential.model.branches_concurrent
        monkeypatch.setattr(model_module, "BRANCH_THREAD_MIN_ROWS", 0)
        handoffs = []
        branch_worker = model_module._branch_worker

        def counting_branch_worker():
            handoffs.append(1)
            return branch_worker()

        monkeypatch.setattr(model_module, "_branch_worker",
                            counting_branch_worker)
        concurrent, conc_losses = _run(config, tiny_dataset, self.N_STEPS)
        assert handoffs                               # the threaded path ran

        _assert_same_run(sequential, seq_losses, concurrent, conc_losses)

    def test_point_gated_run_matches_sequential(self, tiny_config,
                                                tiny_dataset, monkeypatch,
                                                occupancy_schedule):
        # train-small's shape on the tiny grid: float64, dense Adam, culled.
        # 3,072 points per dense step; the early refreshes cull steps below
        # 2,048 points, and by step 20 the field is culled to ~130.
        config = dataclasses.replace(
            tiny_config, batch_pixels=128, n_samples_per_ray=24,
            mlp_hidden_width=32, mlp_hidden_layers=2, culling_enabled=True)
        gate = model_module.BRANCH_THREAD_MIN_POINTS
        # Which thread ran each color-branch MLP pass and optimiser step.
        calls = []
        forward, backward, step = MLP.forward, MLP.backward, Adam.step

        def recording_forward(mlp, x):
            if mlp.name == "color_mlp":
                calls.append(("forward", x.shape[0], _on_worker()))
            return forward(mlp, x)

        def recording_backward(mlp, grad_out):
            if mlp.name == "color_mlp":
                calls.append(("backward", grad_out.shape[0], _on_worker()))
            return backward(mlp, grad_out)

        def recording_step(opt, runner=None):
            calls.append(("step", 0, _on_worker()))
            return step(opt, runner)

        monkeypatch.setattr(MLP, "forward", recording_forward)
        monkeypatch.setattr(MLP, "backward", recording_backward)
        monkeypatch.setattr(Adam, "step", recording_step)
        with occupancy_schedule(warmup=4, every=2):
            gated, gated_losses = _run(config, tiny_dataset, 24)
            gated_calls, calls[:] = list(calls), []
            monkeypatch.setattr(model_module, "BRANCH_THREAD_MIN_ROWS",
                                math.inf)
            monkeypatch.setattr(model_module, "BRANCH_THREAD_MIN_POINTS",
                                math.inf)
            inline, inline_losses = _run(config, tiny_dataset, 24)

        assert not gated.model.branches_concurrent
        kept = [n for phase, n, _ in gated_calls if phase == "forward"]
        assert max(kept) >= gate and min(kept) < gate
        assert sum(n >= gate for n in kept) >= 4
        assert sum(n < gate for n in kept) >= 4
        # Exactly the per-point calls at or above the gate threaded; the
        # update phase kept to the rows gate and stayed inline.
        for phase, n, threaded in gated_calls:
            assert threaded == (phase != "step" and n >= gate), (phase, n)
        assert not any(threaded for *_, threaded in calls)
        _assert_same_run(gated, gated_losses, inline, inline_losses)


class TestSingleBranchSplit:
    N_STEPS = 20

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_split_run_matches_sequential(self, tiny_config, tiny_dataset,
                                          monkeypatch, dtype):
        config = dataclasses.replace(tiny_config, sparse_updates=True,
                                     compute_dtype=dtype, culling_enabled=True)
        sequential, seq_losses = _run(config, tiny_dataset, self.N_STEPS)

        # Record which thread ran each half of each kernel, and check the
        # first-touch map after every grid backward.
        halves = []
        scatter = MultiResHashGrid._scatter_sparse
        step_rows = Adam._step_rows
        grid_backward = MultiResHashGrid.backward

        def recording_scatter(grid, record, grad3, lo, hi, part):
            halves.append((grid.name, part, threading.get_ident()))
            return scatter(grid, record, grad3, lo, hi, part)

        def recording_step_rows(opt, state, param, rows, vals, bias1, bias2,
                                part):
            halves.append((opt.arena_prefix, part, threading.get_ident()))
            return step_rows(opt, state, param, rows, vals, bias1, bias2,
                             part)

        def checked_backward(grid, *args, **kwargs):
            grid_backward(grid, *args, **kwargs)
            assert not grid._first_touch[0].any()

        monkeypatch.setattr(MultiResHashGrid, "_scatter_sparse",
                            recording_scatter)
        monkeypatch.setattr(Adam, "_step_rows", recording_step_rows)
        monkeypatch.setattr(MultiResHashGrid, "backward", checked_backward)
        monkeypatch.setattr(model_module, "BRANCH_THREAD_MIN_ROWS", 0)
        split, split_losses = _run(config, tiny_dataset, self.N_STEPS)

        _assert_same_run(sequential, seq_losses, split, split_losses)
        # F_D:F_C = 1:0.5, so half of the steps update the density branch
        # alone; on each of them the second half of its grid backward and
        # of its Adam step ran on the worker, the first on the caller.
        density_only = split.density_updates - split.color_updates
        assert density_only > 0
        caller = threading.get_ident()
        for owner in ("density_grid", "density_adam"):
            threads = [tid for name, part, tid in halves
                       if name == owner and part == 1]
            assert sum(tid != caller for tid in threads) == density_only
            assert all(tid == caller for name, part, tid in halves
                       if name == owner and part == 0)

    @pytest.mark.parametrize("failing_part", [0, 1])
    def test_half_error_raises_after_both_halves_join(
            self, tiny_config, concurrent_branches, monkeypatch,
            failing_part):
        config = dataclasses.replace(tiny_config, sparse_updates=True)
        model = DecoupledRadianceField(config, seed=0)
        clean = DecoupledRadianceField(config, seed=0)
        rng = new_rng(5)
        points = rng.random((48, 3))
        dirs = np.tile([0.0, 0.0, 1.0], (48, 1))
        grad_sigma = rng.standard_normal(48)
        grad_rgb = rng.standard_normal((48, 3))
        scatter = MultiResHashGrid._scatter_sparse
        finished = []

        def flaky(grid, record, grad3, lo, hi, part):
            if part == failing_part:
                raise RuntimeError("half failed")
            time.sleep(0.05)
            out = scatter(grid, record, grad3, lo, hi, part)
            finished.append(part)
            return out

        monkeypatch.setattr(MultiResHashGrid, "_scatter_sparse", flaky)
        model.query(points, dirs)
        with pytest.raises(RuntimeError, match="half failed"):
            model.backward(grad_sigma, grad_rgb, update_color=False)
        assert finished == [1 - failing_part]       # joined before raising
        monkeypatch.setattr(MultiResHashGrid, "_scatter_sparse", scatter)

        grid = model.encoder.density_grid
        assert not grid._first_touch[0].any()
        for m in (model, clean):
            m.zero_grad()
            m.query(points, dirs)
            m.backward(grad_sigma, grad_rgb, update_color=False)
        got = grid.table.sparse_grad
        want = clean.encoder.density_grid.table.sparse_grad
        np.testing.assert_array_equal(got.rows, want.rows)
        np.testing.assert_array_equal(got.values, want.values)
        for a, b in zip(model.density_mlp.parameters(),
                        clean.density_mlp.parameters()):
            np.testing.assert_array_equal(a.grad, b.grad)


class TestGate:
    def test_small_model_starts_no_thread(self, tiny_config, tiny_dataset):
        # Small tables, and batches below the point gate.
        assert (tiny_config.batch_pixels * tiny_config.n_samples_per_ray
                < model_module.BRANCH_THREAD_MIN_POINTS)

        def run():
            trainer, _ = _run(tiny_config, tiny_dataset, 3)
            assert not trainer.model.branches_concurrent
            assert not _workers() - before

        before = _workers()
        _in_fresh_thread(run)

    def test_query_at_point_gate_starts_one_worker(self, tiny_config):
        gate = model_module.BRANCH_THREAD_MIN_POINTS

        def run():
            model = DecoupledRadianceField(tiny_config, seed=0)
            assert not model.branches_concurrent
            points, dirs, _, _ = _inputs(gate - 1)
            model.query(points, dirs)
            assert not _workers() - before     # none below the gate
            points, dirs, _, _ = _inputs(gate)
            model.query(points, dirs)
            model.query(points, dirs)
            assert len(_workers() - before) == 1   # one, reused

        before = _workers()
        _in_fresh_thread(run)

    def test_backward_follows_cached_point_count(self, tiny_config,
                                                 monkeypatch):
        gate = model_module.BRANCH_THREAD_MIN_POINTS
        model = DecoupledRadianceField(tiny_config, seed=0)
        threaded = []
        backward = model.color_mlp.backward

        def recording_backward(grad_out):
            threaded.append(_on_worker())
            return backward(grad_out)

        monkeypatch.setattr(model.color_mlp, "backward", recording_backward)
        for n in (gate, gate - 1, gate):
            points, dirs, grad_sigma, grad_rgb = _inputs(n, seed=n)
            model.query(points, dirs)
            model.backward(grad_sigma, grad_rgb)
        assert threaded == [True, False, True]
        # A lone branch has no partner to overlap with.
        model.query(points, dirs)
        model.backward(grad_sigma, grad_rgb, update_density=False)
        assert threaded[-1] is False

    def test_model_at_gate_starts_one_worker(self):
        # One hashed level of exactly 2^18 rows in both branches.
        grid = HashGridConfig(n_levels=1, n_features_per_level=2,
                              log2_hashmap_size=18, base_resolution=128,
                              finest_resolution=128)
        config = Instant3DConfig.instant_ngp_baseline(
            grid=grid, mlp_hidden_width=16, mlp_hidden_layers=1)

        def run():
            model = DecoupledRadianceField(config, seed=0)
            assert min(model.encoder.density_grid.table.data.shape[0],
                       model.encoder.color_grid.table.data.shape[0]) \
                == model_module.BRANCH_THREAD_MIN_ROWS
            assert model.branches_concurrent
            assert not _workers() - before     # none at construction
            points = new_rng(0).random((64, 3))
            dirs = np.tile([0.0, 0.0, 1.0], (64, 1))
            model.query(points, dirs)
            model.query(points, dirs)
            assert len(_workers() - before) == 1   # one, reused

        before = _workers()
        _in_fresh_thread(run)


class TestErrors:
    def test_color_error_raises_after_density_finishes(self, model):
        density_done = threading.Event()

        def density():
            time.sleep(0.05)
            density_done.set()
            return "density"

        def color():
            raise ValueError("color branch failed")

        with pytest.raises(ValueError, match="color branch failed"):
            model.run_branches(density, color)
        assert density_done.is_set()
        # The worker survives the failure.
        assert model.run_branches(lambda: 1, lambda: 2) == (1, 2)

    def test_density_error_raises_after_color_finishes(self, model):
        color_done = threading.Event()

        def density():
            raise KeyError("density branch failed")

        def color():
            time.sleep(0.05)
            color_done.set()

        with pytest.raises(KeyError):
            model.run_branches(density, color)
        assert color_done.is_set()

    def test_model_keeps_working_after_a_failure(self, model):
        points = new_rng(0).random((32, 3))
        dirs = np.tile([0.0, 1.0, 0.0], (32, 1))
        sigma, rgb = model.query(points, dirs)
        with pytest.raises(ValueError):
            model.run_branches(lambda: None, lambda: int("x"))
        sigma_again, rgb_again = model.query(points, dirs)
        np.testing.assert_array_equal(sigma, sigma_again)
        np.testing.assert_array_equal(rgb, rgb_again)

    def test_errstate_reaches_color_branch(self, model):
        ran_on = []

        def color():
            ran_on.append(threading.current_thread())
            return np.ones(1) / np.zeros(1)

        with np.errstate(divide="raise"):
            with pytest.raises(FloatingPointError):
                model.run_branches(lambda: None, color)
        assert ran_on and ran_on[0] is not threading.current_thread()


class TestLifetime:
    def test_finished_thread_leaves_no_worker(self, tiny_config,
                                              concurrent_branches):
        """Models built and dropped on one thread, as a service worker
        restores scene after scene, share that thread's one worker, which
        stops when the thread ends."""
        started = set()

        def run():
            for seed in range(3):
                model = DecoupledRadianceField(tiny_config, seed=seed)
                model.run_branches(lambda: None, lambda: None)
                del model
                gc.collect()
            started.update(_workers() - before)

        before = _workers()
        _in_fresh_thread(run)
        assert len(started) == 1
        gc.collect()
        for thread in started:
            thread.join(timeout=JOIN_TIMEOUT_S)
            assert not thread.is_alive()


class TestSharedArena:
    N_THREADS = 8              # more threads than the host has cores
    N_REQUESTS = 2000
    N_NAMES = 4

    def test_stress_counters_and_names(self):
        arena = WorkspaceArena()
        failures = []

        def work(tid: int) -> None:
            for j in range(self.N_REQUESTS):
                name = f"t{tid}/b{j % self.N_NAMES}"
                buf = arena.buffer(name, (j % 7 + 1,), np.float64)
                value = tid * 100 + j % self.N_NAMES
                buf.fill(value)
                if not np.all(buf == value):
                    failures.append((tid, name))

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(tid,))
                       for tid in range(self.N_THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=JOIN_TIMEOUT_S)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(old_interval)

        assert not failures, f"names aliased: {failures[:5]}"
        assert arena.hits + arena.misses == self.N_THREADS * self.N_REQUESTS
        assert arena.n_buffers == self.N_THREADS * self.N_NAMES
        buffers = [arena.buffer(f"t{tid}/b{k}", 7, np.float64)
                   for tid in range(self.N_THREADS)
                   for k in range(self.N_NAMES)]
        for i, a in enumerate(buffers):
            for b in buffers[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_trainer_optimizers_use_own_prefixes(self, tiny_config,
                                                 tiny_dataset):
        trainer = Trainer(DecoupledRadianceField(tiny_config, seed=0),
                          tiny_dataset, config=tiny_config, seed=0)
        prefixes = {trainer.density_optimizer.arena_prefix,
                    trainer.color_optimizer.arena_prefix}
        assert len(prefixes) == 2

    def test_concurrent_optimizers_on_one_arena(self):
        n_steps, n_rows = 12, 4096

        def build(arena_a, arena_b):
            optimizers = []
            for tag, arena in (("a", arena_a), ("b", arena_b)):
                rng = new_rng(7 if tag == "a" else 8)
                table = Parameter(rng.standard_normal((n_rows, 2)), f"{tag}_t")
                table.sparse = True
                weight = Parameter(rng.standard_normal((64, 32)), f"{tag}_w")
                optimizer = Adam([table, weight], lr=1e-2)
                optimizer.set_arena(arena, f"{tag}_adam")
                optimizers.append(optimizer)
            return optimizers

        def set_grads(optimizers, step):
            for k, optimizer in enumerate(optimizers):
                rng = new_rng(1000 * step + k)
                table, weight = optimizer.parameters
                table.zero_grad()
                rows = np.unique(rng.integers(0, n_rows, n_rows // 4))
                table.add_sparse_grad(
                    rows, rng.standard_normal((rows.size, 2)).astype(np.float32))
                weight.zero_grad()
                weight.accumulate_grad(rng.standard_normal(weight.shape))

        shared = WorkspaceArena()
        together = build(shared, shared)
        apart = build(WorkspaceArena(), WorkspaceArena())
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for step in range(n_steps):
                set_grads(together, step)
                threads = [threading.Thread(target=optimizer.step)
                           for optimizer in together]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=JOIN_TIMEOUT_S)
                    assert not thread.is_alive()
                set_grads(apart, step)
                for optimizer in apart:
                    optimizer.step()
        finally:
            sys.setswitchinterval(old_interval)

        for opt_shared, opt_apart in zip(together, apart):
            for p, q in zip(opt_shared.parameters, opt_apart.parameters):
                np.testing.assert_array_equal(p.data, q.data)
            state_shared = opt_shared.state_dict()
            state_apart = opt_apart.state_dict()
            for key in ("m", "v"):
                for index in state_apart[key]:
                    np.testing.assert_array_equal(state_shared[key][index],
                                                  state_apart[key][index])
