"""Trainable parameter container (dense gradients, optional row-sparse slot)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np



def flat_pair_view(arr: np.ndarray) -> Optional[np.ndarray]:
    """One-element-per-row flat view of a contiguous ``(T, 2)`` float32 array.

    Each ``(f0, f1)`` row becomes one complex64 element, so row gathers and
    scatters through the view move both features in a single flat take —
    the fast path of the fused grid gather and of the lazy optimiser.
    Returns ``None`` for any other layout; callers fall back to row indexing.
    """
    if (isinstance(arr, np.ndarray) and arr.ndim == 2
            and arr.shape[1] == 2 and arr.dtype == np.float32
            and arr.flags.c_contiguous):
        return arr.view(np.complex64).reshape(-1)
    return None


@dataclass
class SparseGrad:
    """A compacted row-sparse (COO) gradient of a 2-D table parameter.

    ``rows`` holds the touched row indices, **sorted and unique**, and
    ``values`` the accumulated gradient of each touched row — exactly the
    ``(unique_addresses, accumulated_grads)`` pair the hash-grid backward
    emits after deduplicating its scatter trace.  Rows whose accumulated
    float32 gradient is entirely zero are filtered out at emission, so the
    row set is identical to ``np.flatnonzero(np.any(dense_grad != 0, -1))``
    of the equivalent dense gradient table.

    The arrays may be views into a :class:`~repro.utils.workspace`
    arena — valid until the producing site runs again (i.e. for exactly one
    optimiser step, the natural lifetime of a gradient).
    """

    rows: np.ndarray       # (U,) integer row indices, sorted unique
    values: np.ndarray     # (U, F) float32 accumulated gradients

    @property
    def n_rows(self) -> int:
        return int(self.rows.size)


class Parameter:
    """A named trainable tensor with a gradient accumulator.

    The library uses float32 data throughout to mirror the FP16/FP32 mixed
    precision of the reference CUDA implementation while keeping NumPy
    numerics stable.

    Sparse-update support (the hash-grid tables under
    ``Instant3DConfig(sparse_updates=True)``) adds the ``sparse`` flag:

    * the optimiser applies **touched-rows-only lazy updates** to this
      parameter: rows with a gradient receive the full moment +
      bias-correction update, untouched rows' moment decay is deferred
      (closed-form ``beta**k`` catch-up on next touch).  This mirrors the
      accelerator's backward-update-merging unit, which only ever writes
      touched hash-table entries back to SRAM;
    * gradients arrive exclusively as COO pairs through
      :meth:`add_sparse_grad`; the dense ``grad`` array is never written and
      stays all-zero, so :meth:`zero_grad` skips the dense O(table) clear —
      part of what makes the sparse path fast.
    """

    def __init__(self, data: np.ndarray, name: str = "param"):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = np.zeros(self.data.shape, dtype=np.float32)
        self.name = name
        #: Optimiser applies row-sparse lazy updates; gradients arrive only
        #: via :meth:`add_sparse_grad` (see class docstring).
        self.sparse = False
        #: The current row-sparse gradient, or ``None`` (cleared per step).
        self.sparse_grad: Optional[SparseGrad] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient (dense and sparse) in place.

        For a ``sparse`` parameter the dense array is known to be all-zero
        (nothing ever writes it), so only the sparse slot is dropped — O(1)
        instead of an O(table) memset per step.
        """
        self.sparse_grad = None
        if not self.sparse:
            self.grad.fill(0.0)

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into the dense accumulator (shape-checked)."""
        if self.sparse:
            raise RuntimeError(
                f"parameter {self.name} receives COO gradients; dense "
                f"accumulation would break the all-zero dense-grad invariant")
        if not (isinstance(grad, np.ndarray) and grad.dtype == np.float32):
            grad = np.asarray(grad, dtype=np.float32)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match parameter "
                f"{self.name} shape {self.data.shape}"
            )
        self.grad += grad

    def add_sparse_grad(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Attach (or merge) a compacted row-sparse gradient.

        ``rows`` must be sorted unique row indices into ``data``'s leading
        axis and ``values`` the matching ``(U, F)`` float32 accumulated
        gradients.  A second call before :meth:`zero_grad` merges by
        summation (the sparse analogue of ``grad +=``); the common
        one-backward-per-step path stores the arrays as-is, without copying.
        Rows whose merged gradient cancels to all-zero are dropped, so the
        merged pair keeps the :class:`SparseGrad` row-set invariant.
        """
        if rows.ndim != 1 or values.ndim != self.data.ndim:
            raise ValueError(
                f"sparse gradient for {self.name} must be (U,) rows and "
                f"(U, F) values, got {rows.shape} / {values.shape}")
        if values.shape[0] != rows.shape[0] or (
                values.shape[1:] != self.data.shape[1:]):
            raise ValueError(
                f"sparse gradient values {values.shape} do not match "
                f"parameter {self.name} rows {rows.shape} / feature shape "
                f"{self.data.shape[1:]}")
        if self.sparse_grad is None:
            self.sparse_grad = SparseGrad(rows=rows, values=values)
            return
        # Merge path (rare: two backward passes without zero_grad): combine
        # the two sorted COO pairs into a fresh (owned) pair.
        merged_rows = np.union1d(self.sparse_grad.rows, rows)
        merged_vals = np.zeros((merged_rows.size,) + self.data.shape[1:],
                               dtype=np.float32)
        old_pos = np.searchsorted(merged_rows, self.sparse_grad.rows)
        merged_vals[old_pos] += self.sparse_grad.values
        new_pos = np.searchsorted(merged_rows, rows)
        merged_vals[new_pos] += values
        # Keep the SparseGrad invariant: rows that cancelled to all-zero
        # leave the pair, and zeros are +0.0 as at emission.
        merged_vals += np.float32(0.0)
        nonzero = np.any(merged_vals != 0,
                         axis=tuple(range(1, merged_vals.ndim)))
        self.sparse_grad = SparseGrad(rows=merged_rows[nonzero],
                                      values=merged_vals[nonzero])

    # -- serialisation ------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Serialisable snapshot of the parameter (name + data).

        Gradients are transient (the trainer zeroes them at the start of
        every backward pass), so only the data tensor is captured.
        """
        return {"name": self.name, "data": self.data.copy()}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` in place (the array object is kept,
        so optimisers and layers holding references stay valid)."""
        name = state.get("name")
        if name is not None and name != self.name:
            raise ValueError(
                f"checkpoint parameter name {name!r} does not match {self.name!r}")
        data = np.asarray(state["data"], dtype=np.float32)
        if data.shape != self.data.shape:
            raise ValueError(
                f"checkpoint shape {data.shape} does not match parameter "
                f"{self.name} shape {self.data.shape}")
        self.data[...] = data
        self.sparse_grad = None
        if not self.sparse:
            self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"
