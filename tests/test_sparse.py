"""Sparse-gradient backward + lazy-moment optimiser tests.

Covers the ``Instant3DConfig(sparse_updates=True)`` path end to end:

* the grid backward's COO emission is bit-identical to the dense gradient
  scatter (rows and values);
* the lazy Adam/SGD row update equals a dense per-step reference that decays
  every row each step but only updates touched rows (exact for power-of-two
  betas, where ``beta ** k`` catch-up is lossless);
* 20-step trainer differentials: the COO representation against its
  dense-representation oracle (``oracles.use_dense_scatter``), across
  dense/culled pipelines and both precision policies;
* checkpointing: the ``state_dict`` moment flush, save-continue vs
  load-continue bit-identity, and cross-mode rejection.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import Instant3DConfig
from repro.core.decoupled_grid import DecoupledGridEncoder
from repro.core.model import DecoupledRadianceField
from repro.grid.hash_encoding import HashGridConfig, MultiResHashGrid
from repro.io import load_trainer_checkpoint, save_trainer_checkpoint
from repro.nn.optim import SGD, Adam, _pow_by_exponent
from repro.nn.parameter import Parameter, SparseGrad
from repro.training.trainer import Trainer, TrainingHistory
from repro.utils.seeding import new_rng
from repro.utils.workspace import WorkspaceArena

from oracles import coo_from_dense, use_dense_scatter


def _sparse_config(base: Instant3DConfig, **overrides) -> Instant3DConfig:
    return dataclasses.replace(base, sparse_updates=True, **overrides)


def _trainer(config, dataset, seed: int = 0, dense_scatter: bool = False):
    """A trainer; ``dense_scatter`` swaps both grids' COO scatter for the
    dense-representation oracle."""
    trainer = Trainer(DecoupledRadianceField(config, seed=seed), dataset,
                      config=config, seed=seed)
    if dense_scatter:
        encoder = trainer.model.encoder
        use_dense_scatter(encoder.density_grid)
        use_dense_scatter(encoder.color_grid)
    return trainer


def _run_trainer(config, dataset, n_steps: int, seed: int = 0,
                 dense_scatter: bool = False):
    trainer = _trainer(config, dataset, seed, dense_scatter)
    losses = [trainer.train_step()["loss"] for _ in range(n_steps)]
    return trainer, losses


def _params_equal(model_a, model_b) -> bool:
    return all(np.array_equal(a.data, b.data)
               for a, b in zip(model_a.parameters(), model_b.parameters()))


# ---------------------------------------------------------------------------
# Configuration surface
# ---------------------------------------------------------------------------

class TestConfig:
    def test_defaults_off(self, tiny_config):
        assert tiny_config.sparse_updates is False
        encoder = DecoupledGridEncoder(tiny_config)
        assert not encoder.density_grid.sparse
        assert not encoder.color_grid.sparse

    def test_mode_mapping(self, tiny_config):
        encoder = DecoupledGridEncoder(_sparse_config(tiny_config))
        for grid in (encoder.density_grid, encoder.color_grid):
            assert grid.sparse and grid.table.sparse
            assert all(level.table.sparse for level in grid.levels)

    def test_grid_rejects_unknown_mode(self, tiny_grid_config):
        # A string (e.g. a former mode name) must not pass as truthy.
        for bogus in ("bogus", "coo", "oracle", None):
            with pytest.raises(ValueError):
                MultiResHashGrid(tiny_grid_config, rng=new_rng(0),
                                 sparse=bogus)


# ---------------------------------------------------------------------------
# Parameter sparse-grad slot
# ---------------------------------------------------------------------------

class TestParameter:
    def test_zero_grad_clears_sparse_slot(self):
        p = Parameter(np.zeros((4, 2)))
        p.add_sparse_grad(np.array([1, 3]), np.ones((2, 2), np.float32))
        assert p.sparse_grad is not None
        p.zero_grad()
        assert p.sparse_grad is None

    def test_coo_mode_skips_dense_clear_and_rejects_dense_accumulate(self):
        p = Parameter(np.zeros((4, 2)))
        p.sparse = True
        p.zero_grad()                       # must not touch the dense array
        with pytest.raises(RuntimeError):
            p.accumulate_grad(np.ones((4, 2)))
        assert np.all(p.grad == 0.0)

    def test_add_sparse_grad_validates_shapes(self):
        p = Parameter(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            p.add_sparse_grad(np.array([0]), np.ones((2, 2), np.float32))
        with pytest.raises(ValueError):
            p.add_sparse_grad(np.array([0]), np.ones((1, 3), np.float32))

    def test_add_sparse_grad_merges_by_summation(self):
        p = Parameter(np.zeros((5, 2)))
        p.add_sparse_grad(np.array([0, 2]), np.ones((2, 2), np.float32))
        p.add_sparse_grad(np.array([2, 4]), 2 * np.ones((2, 2), np.float32))
        merged = p.sparse_grad
        np.testing.assert_array_equal(merged.rows, [0, 2, 4])
        np.testing.assert_array_equal(
            merged.values, [[1, 1], [3, 3], [2, 2]])

    def test_add_sparse_grad_merge_drops_cancelled_rows(self):
        # Rows that sum to all-zero leave the pair, as at emission.
        p = Parameter(np.zeros((5, 2)))
        p.add_sparse_grad(np.array([1, 3]),
                          np.array([[1, 0], [3, 4]], np.float32))
        p.add_sparse_grad(np.array([1, 3]),
                          np.array([[-1, 2], [-3, -4]], np.float32))
        merged = p.sparse_grad
        np.testing.assert_array_equal(merged.rows, [1])
        np.testing.assert_array_equal(merged.values, [[0, 2]])
        assert not np.signbit(merged.values).any()

    def test_add_sparse_grad_merges_empty_pairs(self):
        # Two empty pairs (an all-zero gradient) merge into an empty pair.
        p = Parameter(np.zeros((5, 2)))
        for _ in range(2):
            p.add_sparse_grad(np.zeros(0, np.int64),
                              np.zeros((0, 2), np.float32))
        assert p.sparse_grad.rows.shape == (0,)
        assert p.sparse_grad.values.shape == (0, 2)

    def test_lazy_adam_ignores_cancelled_merge(self):
        # Row 3 carries momentum from step 1; a step-2 gradient that cancels
        # to zero must leave it untouched (lazy Adam skips untouched rows).
        param = Parameter(np.ones((5, 2)))
        param.sparse = True
        opt = Adam([param], lr=1e-1)
        param.add_sparse_grad(np.array([3]), np.array([[1, 2]], np.float32))
        opt.step()
        after_first = param.data.copy()
        param.zero_grad()
        param.add_sparse_grad(np.array([3]), np.array([[3, 4]], np.float32))
        param.add_sparse_grad(np.array([3]), np.array([[-3, -4]], np.float32))
        opt.step()
        np.testing.assert_array_equal(param.data, after_first)


# ---------------------------------------------------------------------------
# COO emission from the grid backward
# ---------------------------------------------------------------------------

class TestGridCOOEmission:
    def _grids(self, config, **kwargs):
        dense = MultiResHashGrid(config, rng=new_rng(0), **kwargs)
        coo = MultiResHashGrid(config, rng=new_rng(0), sparse=True, **kwargs)
        return dense, coo

    def _check_match(self, dense, coo, points, grad):
        dense.forward(points)
        dense.zero_grad()
        dense.backward(grad)
        coo.forward(points)
        coo.zero_grad()
        coo.backward(grad)
        sparse = coo.table.sparse_grad
        assert isinstance(sparse, SparseGrad)
        rows = np.flatnonzero(np.any(dense.table.grad != 0.0, axis=1))
        np.testing.assert_array_equal(sparse.rows, rows)
        np.testing.assert_array_equal(sparse.values, dense.table.grad[rows])
        assert np.all(np.diff(sparse.rows) > 0)          # sorted unique
        assert np.all(coo.table.grad == 0.0)             # dense table untouched
        assert coo.last_touched_rows == rows.size

    def test_coo_matches_dense_scatter(self, tiny_grid_config, rng):
        dense, coo = self._grids(tiny_grid_config)
        points = rng.uniform(size=(257, 3))
        grad = rng.standard_normal(
            (257, tiny_grid_config.n_output_features))
        self._check_match(dense, coo, points, grad)

    def test_coo_matches_dense_scatter_chunked(self, tiny_grid_config, rng):
        dense, coo = self._grids(tiny_grid_config, max_chunk_points=64)
        points = rng.uniform(size=(200, 3))
        grad = rng.standard_normal(
            (200, tiny_grid_config.n_output_features))
        self._check_match(dense, coo, points, grad)

    @pytest.mark.parametrize("n_features", [1, 4])
    def test_coo_matches_dense_scatter_feature_widths(self, tiny_grid_config,
                                                      rng, n_features):
        # F != 2 takes the generic (non complex-pair) paths and the
        # per-feature nonzero-row loop with one and with several features.
        config = dataclasses.replace(tiny_grid_config,
                                     n_features_per_level=n_features)
        dense, coo = self._grids(config)
        points = rng.uniform(size=(150, 3))
        grad = rng.standard_normal((150, config.n_output_features))
        self._check_match(dense, coo, points, grad)

    def test_coo_matches_dense_scatter_trace_much_smaller_than_table(
            self, rng):
        # The train-large-sparse regime: 2^19-entry tables, a trace of a
        # few hundred addresses.
        config = HashGridConfig(n_levels=8, n_features_per_level=2,
                                log2_hashmap_size=19, base_resolution=16,
                                finest_resolution=256)
        dense, coo = self._grids(config)
        points = rng.uniform(size=(16, 3))
        grad = rng.standard_normal((16, config.n_output_features))
        self._check_match(dense, coo, points, grad)

    def test_coo_underflow_to_zero_keeps_dense_sign(self, tiny_grid_config):
        # A subnormal z-fraction gives weights of ~1e-46: one feature's
        # float32 cast is a nonzero denormal, the other's rounds to -0.0,
        # which the dense table (zeroed grad + cast) holds as +0.0.
        dense, coo = self._grids(tiny_grid_config)
        points = np.array([[0.3, 0.3, 1e-46]])
        grad = np.tile([2.0, -0.3], (1, tiny_grid_config.n_levels))
        self._check_match(dense, coo, points, grad)
        rows = coo.table.sparse_grad.rows
        np.testing.assert_array_equal(
            coo.table.sparse_grad.values.view(np.uint32),
            dense.table.grad[rows].view(np.uint32))

    @pytest.mark.parametrize("arena", [False, True])
    def test_back_to_back_calls_keep_first_touch_map_clean(
            self, tiny_grid_config, rng, arena):
        # One grid runs many COO backwards; each must match a fresh dense
        # reference, and the first-touch mark array must be all-False
        # afterwards, or a stale mark would leak rows into the next call.
        coo = MultiResHashGrid(tiny_grid_config, rng=new_rng(0),
                               sparse=True,
                               arena=WorkspaceArena() if arena else None)
        mark = coo._first_touch[0]
        assert mark.size == coo.total_table_entries and not mark.any()
        # Every point in one voxel at every level (8 corner rows per level).
        one_voxel = 0.5 + rng.uniform(1e-4, 9e-4, size=(40, 3))
        batches = [rng.uniform(size=(257, 3)), np.zeros((0, 3)), one_voxel,
                   rng.uniform(size=(16, 3)), rng.uniform(size=(300, 3)),
                   rng.uniform(size=(1, 3))]
        for points in batches:
            grad = rng.standard_normal(
                (len(points), tiny_grid_config.n_output_features))
            dense = MultiResHashGrid(tiny_grid_config, rng=new_rng(0))
            dense.forward(points)
            dense.zero_grad()
            dense.backward(grad)
            rows = np.flatnonzero(np.any(dense.table.grad != 0.0, axis=1))
            coo.forward(points)
            coo.zero_grad()
            coo.backward(grad)
            sparse = coo.table.sparse_grad
            if rows.size == 0:
                assert sparse is None
            else:
                np.testing.assert_array_equal(sparse.rows, rows)
                np.testing.assert_array_equal(sparse.values,
                                              dense.table.grad[rows])
            assert coo.last_touched_rows == rows.size
            assert not mark.any()

    def test_sparse_grid_step_without_gradient_moves_nothing(
            self, tiny_grid_config, rng):
        grid = MultiResHashGrid(tiny_grid_config, rng=new_rng(0), sparse=True)
        points = rng.uniform(size=(32, 3))
        grid.forward(points)
        grid.zero_grad()
        grid.backward(np.ones((32, tiny_grid_config.n_output_features)))
        # The COO invariant: the dense grad is never written, so a step
        # whose gradient slot is empty must not apply a phantom update.
        assert np.all(grid.table.grad == 0.0)
        grid.zero_grad()
        assert grid.table.sparse_grad is None
        param = grid.table
        opt = Adam([param], lr=1e-1)
        before = param.data.copy()
        opt.step()                            # no gradient this step
        np.testing.assert_array_equal(param.data, before)

    def test_master_table_backs_level_views(self, tiny_grid_config):
        grid = MultiResHashGrid(tiny_grid_config, rng=new_rng(0))
        assert grid.parameters() == [grid.table]
        offset = 0
        for level in grid.levels:
            assert np.shares_memory(level.table.data, grid.table.data)
            np.testing.assert_array_equal(
                level.table.data,
                grid.table.data[offset:offset + level.table_size])
            offset += level.table_size


# ---------------------------------------------------------------------------
# Lazy optimiser semantics
# ---------------------------------------------------------------------------

def _dense_lazy_adam_reference(data, grads_per_step, lr, beta1, beta2, eps):
    """Per-step dense reference of the lazy semantics: every row's moments
    decay each step; only rows with a non-zero gradient get the full update.

    Mirrors the float32 arithmetic of ``Adam._step_sparse`` with ``k == 1``
    each step, so for power-of-two betas (lossless ``beta ** k``) the lazy
    deferred path must match it bit-exactly.
    """
    data = data.astype(np.float32).copy()
    m = np.zeros_like(data)
    v = np.zeros_like(data)
    for step, grad in enumerate(grads_per_step, start=1):
        bias1 = 1.0 - beta1 ** step
        bias2 = 1.0 - beta2 ** step
        m *= np.float32(beta1)
        v *= np.float32(beta2)
        rows = np.flatnonzero(np.any(grad != 0.0, axis=1))
        if rows.size == 0:
            continue
        g = grad[rows]
        m[rows] += (1.0 - beta1) * g
        v[rows] += (1.0 - beta2) * (g * g)
        update = (lr / bias1) * m[rows] / (
            np.sqrt((1.0 / bias2) * v[rows]) + eps)
        data[rows] -= update
    return data, m, v


class TestLazyAdam:
    #: Power-of-two betas: multiplication by beta**k is exact in float, so
    #: the deferred catch-up must equal per-step decay bit-for-bit.
    BETAS = (0.5, 0.25)

    def _grads(self, rng, n_steps, n_rows=12, f=2):
        grads = []
        for _ in range(n_steps):
            grad = np.zeros((n_rows, f), np.float32)
            touched = rng.choice(n_rows, size=rng.integers(0, 5), replace=False)
            grad[touched] = rng.standard_normal((touched.size, f))
            grads.append(grad)
        return grads

    def test_lazy_equals_per_step_reference_pow2_betas(self):
        rng = new_rng(11)
        init = rng.standard_normal((12, 2)).astype(np.float32)
        grads = self._grads(rng, 15)
        param = Parameter(init.copy())
        param.sparse = True
        opt = Adam([param], lr=1e-2, betas=self.BETAS, eps=1e-10)
        for grad in grads:
            param.zero_grad()
            param.add_sparse_grad(*coo_from_dense(grad))
            opt.step()
        opt._flush_lazy()
        ref_data, ref_m, ref_v = _dense_lazy_adam_reference(
            init, grads, lr=1e-2, beta1=self.BETAS[0], beta2=self.BETAS[1],
            eps=1e-10)
        np.testing.assert_array_equal(param.data, ref_data)
        np.testing.assert_array_equal(opt._m[0], ref_m)
        np.testing.assert_array_equal(opt._v[0], ref_v)

    def test_untouched_rows_never_move(self):
        rng = new_rng(3)
        init = rng.standard_normal((10, 2)).astype(np.float32)
        param = Parameter(init.copy())
        param.sparse = True
        opt = Adam([param], lr=1e-1)
        for _ in range(8):
            param.zero_grad()
            param.add_sparse_grad(np.array([2, 5]),
                                  rng.standard_normal((2, 2)).astype(np.float32))
            opt.step()
        untouched = [r for r in range(10) if r not in (2, 5)]
        np.testing.assert_array_equal(param.data[untouched], init[untouched])
        assert not np.array_equal(param.data[[2, 5]], init[[2, 5]])

    def test_coo_and_dense_oracle_representations_agree(self):
        rng = new_rng(17)
        init = rng.standard_normal((16, 2)).astype(np.float32)
        grads = self._grads(rng, 12, n_rows=16)
        grads[3][5] = -0.0                     # a signed zero is untouched

        coo_param = Parameter(init.copy())
        coo_param.sparse = True
        coo_opt = Adam([coo_param], lr=1e-2)
        oracle_param = Parameter(init.copy())
        oracle_param.sparse = True
        oracle_opt = Adam([oracle_param], lr=1e-2)
        for grad in grads:
            coo_param.zero_grad()
            rows = np.flatnonzero(np.any(grad != 0.0, axis=1))
            if rows.size:
                coo_param.add_sparse_grad(rows, grad[rows])
            coo_opt.step()
            oracle_param.zero_grad()
            oracle_param.add_sparse_grad(*coo_from_dense(grad))
            oracle_opt.step()
        np.testing.assert_array_equal(coo_param.data, oracle_param.data)

    def test_state_dict_flush_then_resume_matches_continuation(self):
        rng = new_rng(23)
        init = rng.standard_normal((16, 2)).astype(np.float32)
        grads = self._grads(rng, 16, n_rows=16)

        def build():
            param = Parameter(init.copy())
            param.sparse = True
            return param, Adam([param], lr=1e-2)

        def apply(param, opt, grad):
            param.zero_grad()
            param.add_sparse_grad(*coo_from_dense(grad))
            opt.step()

        param_a, opt_a = build()
        for grad in grads[:8]:
            apply(param_a, opt_a, grad)
        state = opt_a.state_dict()            # flushes (and rebases) opt_a
        param_b, opt_b = build()
        param_b.load_state_dict(param_a.state_dict())
        opt_b.load_state_dict(state)
        for grad in grads[8:]:
            apply(param_a, opt_a, grad)
            apply(param_b, opt_b, grad)
        np.testing.assert_array_equal(param_a.data, param_b.data)
        state_a, state_b = opt_a.state_dict(), opt_b.state_dict()
        for key in ("m", "v"):
            for idx in state_a[key]:
                np.testing.assert_array_equal(state_a[key][idx],
                                              state_b[key][idx])


class TestLazySGD:
    def test_sparse_sgd_momentum_matches_dense_reference(self):
        rng = new_rng(29)
        init = rng.standard_normal((10, 2)).astype(np.float32)
        grads = []
        for _ in range(10):
            grad = np.zeros((10, 2), np.float32)
            touched = rng.choice(10, size=rng.integers(0, 4), replace=False)
            grad[touched] = rng.standard_normal((touched.size, 2))
            grads.append(grad)

        param = Parameter(init.copy())
        param.sparse = True
        opt = SGD([param], lr=1e-2, momentum=0.5)   # power of two: exact
        for grad in grads:
            param.zero_grad()
            param.add_sparse_grad(*coo_from_dense(grad))
            opt.step()
        opt._flush_lazy()

        data = init.astype(np.float32).copy()
        vel = np.zeros_like(data, dtype=np.float64)
        for grad in grads:
            vel *= 0.5
            rows = np.flatnonzero(np.any(grad != 0.0, axis=1))
            if rows.size == 0:
                continue
            vel[rows] += grad[rows]
            data[rows] = (data[rows]
                          - (1e-2 * vel[rows]).astype(np.float32))
        np.testing.assert_allclose(param.data, data, rtol=1e-6, atol=1e-7)

    def test_sparse_sgd_without_momentum_is_scaled_subtract(self):
        param = Parameter(np.ones((4, 2)))
        param.sparse = True
        opt = SGD([param], lr=0.5)
        param.add_sparse_grad(np.array([1]), np.full((1, 2), 2.0, np.float32))
        opt.step()
        np.testing.assert_array_equal(param.data[1], [0.0, 0.0])
        np.testing.assert_array_equal(param.data[[0, 2, 3]],
                                      np.ones((3, 2)))


class TestDecayCatchUpProperty:
    def test_pow_by_exponent_matches_np_power(self):
        k = new_rng(0).integers(1, 40, size=128)
        for beta in (0.9, 0.99, 0.5, 0.37):
            np.testing.assert_array_equal(_pow_by_exponent(beta, k),
                                          np.power(beta, k.astype(np.float64)))

    @pytest.mark.parametrize("beta", [0.5, 0.25, 0.125])
    def test_deferred_catch_up_exact_for_pow2_betas(self, beta):
        moments = new_rng(1).standard_normal(256).astype(np.float32)
        for k in (1, 3, 7, 20):
            stepwise = moments.copy()
            for _ in range(k):
                stepwise *= np.float32(
                    _pow_by_exponent(beta, np.array([1]))[0])
            deferred = (moments
                        * _pow_by_exponent(beta, np.full(256, k))
                        ).astype(np.float32)
            np.testing.assert_array_equal(deferred, stepwise)

    @pytest.mark.parametrize("beta", [0.9, 0.99])
    def test_deferred_catch_up_close_for_general_betas(self, beta):
        moments = new_rng(2).standard_normal(256).astype(np.float32)
        for k in (2, 5, 17):
            stepwise = moments.copy()
            for _ in range(k):
                stepwise *= np.float32(beta)
            deferred = (moments
                        * _pow_by_exponent(beta, np.full(256, k))
                        ).astype(np.float32)
            np.testing.assert_allclose(deferred, stepwise,
                                       rtol=k * 2e-7, atol=1e-12)


# ---------------------------------------------------------------------------
# Trainer differentials: COO vs dense-representation oracle
# ---------------------------------------------------------------------------

class TestTrainerDifferential:
    N_STEPS = 20

    @pytest.mark.parametrize("culled", [False, True],
                             ids=["dense-pipeline", "culled-pipeline"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_coo_bit_identical_to_oracle(self, tiny_config, tiny_dataset,
                                         culled, dtype):
        config = _sparse_config(tiny_config, culling_enabled=culled,
                                compute_dtype=dtype)
        trainer_coo, losses_coo = _run_trainer(config, tiny_dataset,
                                               self.N_STEPS)
        trainer_oracle, losses_oracle = _run_trainer(
            config, tiny_dataset, self.N_STEPS, dense_scatter=True)
        assert losses_coo == losses_oracle
        assert _params_equal(trainer_coo.model, trainer_oracle.model)
        # Flushed optimiser moments agree too.
        for opt_a, opt_b in ((trainer_coo.density_optimizer,
                              trainer_oracle.density_optimizer),
                             (trainer_coo.color_optimizer,
                              trainer_oracle.color_optimizer)):
            state_a, state_b = opt_a.state_dict(), opt_b.state_dict()
            for key in ("m", "v"):
                assert state_a[key].keys() == state_b[key].keys()
                for idx in state_a[key]:
                    np.testing.assert_array_equal(state_a[key][idx],
                                                  state_b[key][idx])

    def test_sparse_mode_changes_trajectory_vs_dense_default(
            self, tiny_config, tiny_dataset):
        # Sanity that the mode is live: lazy updates skip the momentum drift
        # of untouched rows, so the trajectory must differ from the default.
        _, dense_losses = _run_trainer(tiny_config, tiny_dataset, 12)
        _, sparse_losses = _run_trainer(_sparse_config(tiny_config),
                                        tiny_dataset, 12)
        assert dense_losses != sparse_losses

    def test_sparse_training_learns(self, tiny_config, tiny_dataset):
        _, losses = _run_trainer(_sparse_config(tiny_config), tiny_dataset, 60)
        assert np.mean(losses[-10:]) < 0.5 * np.mean(losses[:10])

    def test_rows_touched_metric(self, tiny_config, tiny_dataset):
        config = _sparse_config(tiny_config)
        trainer = Trainer(DecoupledRadianceField(config, seed=0), tiny_dataset,
                          config=config, seed=0)
        metrics = trainer.train_step()
        assert metrics["grid_rows_touched"] > 0
        total = (trainer.model.encoder.density_grid.total_table_entries
                 + trainer.model.encoder.color_grid.total_table_entries)
        assert metrics["grid_rows_touched"] <= total


# ---------------------------------------------------------------------------
# Checkpointing under sparse mode
# ---------------------------------------------------------------------------

class TestSparseCheckpoint:
    def test_save_continue_equals_load_continue(self, tiny_config,
                                                tiny_dataset, tmp_path):
        config = _sparse_config(tiny_config, culling_enabled=True)
        source = _trainer(config, tiny_dataset)
        history = TrainingHistory()
        source.run_steps(12, history)
        path = tmp_path / "sparse.ckpt.npz"
        save_trainer_checkpoint(path, source, history=history)
        restored = _trainer(config, tiny_dataset)
        restored_history = TrainingHistory()
        load_trainer_checkpoint(path, restored, history=restored_history)
        assert restored_history.losses == history.losses
        continued = [source.train_step()["loss"] for _ in range(10)]
        resumed = [restored.train_step()["loss"] for _ in range(10)]
        assert continued == resumed
        assert _params_equal(source.model, restored.model)

    def test_round_trip_state_is_byte_exact_after_flush(self, tiny_config,
                                                        tiny_dataset,
                                                        tmp_path):
        config = _sparse_config(tiny_config)
        source = _trainer(config, tiny_dataset)
        for _ in range(9):
            source.train_step()
        path = tmp_path / "a.ckpt.npz"
        save_trainer_checkpoint(path, source)
        restored = _trainer(config, tiny_dataset)
        load_trainer_checkpoint(path, restored)

        def flatten(node, prefix=""):
            if isinstance(node, dict):
                for key, value in node.items():
                    yield from flatten(value, f"{prefix}.{key}")
            elif isinstance(node, list):
                for i, value in enumerate(node):
                    yield from flatten(value, f"{prefix}[{i}]")
            else:
                yield prefix, node

        state_a = dict(flatten(source.state_dict()))
        state_b = dict(flatten(restored.state_dict()))
        assert state_a.keys() == state_b.keys()
        for key, value in state_a.items():
            other = state_b[key]
            if isinstance(value, np.ndarray):
                assert value.dtype == other.dtype, key
                np.testing.assert_array_equal(value, other, err_msg=key)
            else:
                assert value == other, key

    def test_manifest_records_sparse_mode(self, tiny_config, tiny_dataset,
                                          tmp_path):
        config = _sparse_config(tiny_config)
        trainer = _trainer(config, tiny_dataset)
        trainer.train_step()
        path = tmp_path / "m.ckpt.npz"
        save_trainer_checkpoint(path, trainer)
        restored = _trainer(config, tiny_dataset)
        metadata = load_trainer_checkpoint(path, restored)
        assert metadata["sparse_updates"] is True

    def test_cross_mode_resume_rejected(self, tiny_config, tiny_dataset,
                                        tmp_path):
        sparse_config = _sparse_config(tiny_config)
        sparse_trainer = _trainer(sparse_config, tiny_dataset)
        sparse_trainer.train_step()
        dense_trainer = _trainer(tiny_config, tiny_dataset)
        dense_trainer.train_step()

        with pytest.raises(ValueError, match="sparse_updates"):
            dense_trainer.load_state_dict(sparse_trainer.state_dict())
        with pytest.raises(ValueError, match="sparse_updates"):
            sparse_trainer.load_state_dict(dense_trainer.state_dict())

    def test_coo_and_oracle_checkpoints_are_interchangeable(self, tiny_config,
                                                            tiny_dataset,
                                                            tmp_path):
        # The two representations share semantics, so a checkpoint taken
        # under one restores (and continues bit-identically) under the other.
        config = _sparse_config(tiny_config)
        source = _trainer(config, tiny_dataset)
        for _ in range(8):
            source.train_step()
        path = tmp_path / "x.ckpt.npz"
        save_trainer_checkpoint(path, source)
        restored = _trainer(config, tiny_dataset, dense_scatter=True)
        load_trainer_checkpoint(path, restored)
        continued = [source.train_step()["loss"] for _ in range(6)]
        resumed = [restored.train_step()["loss"] for _ in range(6)]
        assert continued == resumed
