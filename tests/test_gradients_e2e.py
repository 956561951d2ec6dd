"""End-to-end gradient check of the full training loss.

The differential tests elsewhere show that a refactor changed nothing; this
module checks the backward pass against the math.  For one fixed ray batch
the training loss runs through the whole forward path
(:class:`~repro.nerf.pipeline.RenderPipeline` → both hash grids → both MLP
heads → volume rendering → MSE), and its float64 central-difference
gradient is compared with the analytic gradient the trainer's backward
produces, with respect to:

* sampled touched rows of the density and the color hash table, and
* entries of the first and last weight matrix of both MLP heads.

Four backward paths are covered: the dense scatter, the occupancy-culled
pipeline, the COO scatter (``sparse_updates=True``) and the COO scatter
split over two level ranges on two threads (the branch-thread gate lowered
to 0).  The compute policy is float64; the stored parameters
and the MLP matmuls are float32, so each difference uses the
float32-rounded step that was actually applied, and the tolerance is
relative to the largest gradient in the sample (see :data:`RTOL`).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.core.model as model_module
from repro.core.model import DecoupledRadianceField
from repro.nerf.losses import mse_loss
from repro.training.trainer import Trainer
from repro.utils.seeding import new_rng

#: Training steps before the check: past the occupancy warm-up (16
#: iterations), so the culled paths cull, and the MLPs have left their
#: initialisation.
WARM_STEPS = 20
#: Central-difference step on the float32 parameters.
STEP = 2e-3
#: Rows sampled per hash table, among its touched rows.
ROWS_PER_TABLE = 6
#: Entries sampled per MLP weight matrix.
ENTRIES_PER_MATRIX = 4
#: Allowed |numeric - analytic|, relative to the largest |analytic| entry of
#: the sample.  It covers the float32 rounding of the MLP forward and of the
#: stored parameters; a wrong scatter (a dropped corner, a row at the wrong
#: address, a missing level) moves whole entries by far more.
RTOL = 1e-2

PATHS = {
    "dense": dict(sparse_updates=False, culling_enabled=False),
    "culled": dict(sparse_updates=False, culling_enabled=True),
    "coo": dict(sparse_updates=True, culling_enabled=True),
    "coo-split": dict(sparse_updates=True, culling_enabled=True),
}


def _warm_trainer(config, dataset) -> Trainer:
    trainer = Trainer(DecoupledRadianceField(config, seed=0), dataset,
                      config=config, seed=0)
    for _ in range(WARM_STEPS):
        trainer.train_step()
    return trainer


class _Loss:
    """The training loss of one fixed batch as a function of the params."""

    def __init__(self, trainer: Trainer, seed: int):
        self.trainer = trainer
        self.bundle, self.targets = trainer.scheduler.sample_batch(
            new_rng(seed))
        self.seed = seed

    def forward(self):
        out = self.trainer.pipeline.render_rays(self.bundle,
                                                rng=new_rng(self.seed + 1))
        loss, grad = mse_loss(out.render.colors, self.targets,
                              dtype=self.trainer.policy.dtype)
        return loss, grad, out

    def __call__(self) -> float:
        return self.forward()[0]

    def analytic(self):
        """Run the trainer's backward (both branches update)."""
        model = self.trainer.model
        model.zero_grad()
        _, grad_colors, out = self.forward()
        assert out.n_queried > 0
        grad_sigmas, grad_rgbs = self.trainer.pipeline.backward_to_points(
            grad_colors)
        model.backward(grad_sigmas, grad_rgbs)
        return out


def _dense_grad(param) -> np.ndarray:
    """The analytic gradient of a parameter as a dense float64 array."""
    if not param.sparse:
        return param.grad.astype(np.float64)
    grad = np.zeros(param.data.shape, dtype=np.float64)
    if param.sparse_grad is not None:
        grad[param.sparse_grad.rows] = param.sparse_grad.values
    return grad


def _numeric(loss: _Loss, param, flat_index: int) -> float:
    """Central difference over the float32 step actually stored."""
    flat = param.data.reshape(-1)
    original = flat[flat_index]
    values = []
    for sign in (1.0, -1.0):
        flat[flat_index] = np.float32(float(original) + sign * STEP)
        values.append((float(flat[flat_index]), loss()))
    flat[flat_index] = original
    (x_plus, f_plus), (x_minus, f_minus) = values
    return (f_plus - f_minus) / (x_plus - x_minus)


def _check(loss: _Loss, param, flat_indices, analytic: np.ndarray) -> None:
    expected = analytic.reshape(-1)[flat_indices]
    got = np.array([_numeric(loss, param, int(i)) for i in flat_indices])
    scale = np.max(np.abs(expected))
    assert scale > 0.0, f"{param.name}: sampled gradient is all zero"
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=RTOL * scale,
                               err_msg=param.name)


@pytest.mark.parametrize("path", sorted(PATHS))
def test_training_loss_gradient_matches_central_difference(
        path, tiny_config, tiny_dataset, monkeypatch):
    config = dataclasses.replace(tiny_config, compute_dtype="float64",
                                 **PATHS[path])
    if path == "coo-split":
        monkeypatch.setattr(model_module, "BRANCH_THREAD_MIN_ROWS", 0)
    trainer = _warm_trainer(config, tiny_dataset)
    model = trainer.model
    if path == "coo-split":
        assert model.branches_concurrent
    loss = _Loss(trainer, seed=101)
    out = loss.analytic()
    if config.culling_enabled:                     # the batch is culled
        assert out.n_queried < out.n_total
    pick = new_rng(202)

    for grid in (model.encoder.density_grid, model.encoder.color_grid):
        table = grid.table
        analytic = _dense_grad(table)
        touched = np.flatnonzero(np.any(analytic != 0.0, axis=1))
        assert touched.size >= ROWS_PER_TABLE
        # Half the rows carry the largest gradients (well above the float32
        # noise floor), half are drawn uniformly from all touched rows.
        magnitude = np.abs(analytic[touched]).max(axis=1)
        top = touched[np.argsort(magnitude)[-(ROWS_PER_TABLE // 2):]]
        rest = pick.choice(np.setdiff1d(touched, top),
                           ROWS_PER_TABLE - top.size, replace=False)
        rows = np.concatenate([top, rest])
        n_features = table.data.shape[1]
        flat = (rows[:, None] * n_features
                + np.arange(n_features)[None, :]).reshape(-1)
        _check(loss, table, flat, analytic)

    for mlp in (model.density_mlp, model.color_mlp):
        weights = [p for p in mlp.parameters() if p.data.ndim == 2]
        for param in (weights[0], weights[-1]):
            analytic = _dense_grad(param)
            nonzero = np.flatnonzero(analytic.reshape(-1))
            flat = pick.choice(nonzero, ENTRIES_PER_MATRIX, replace=False)
            _check(loss, param, flat, analytic)
