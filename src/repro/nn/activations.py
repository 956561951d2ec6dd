"""Pointwise activation modules.

Each activation caches what its backward pass needs.  ``TruncatedExp`` is the
clamped exponential Instant-NGP uses to map the raw density-head output to a
non-negative volumetric density with bounded gradients.

Activations participate in the compute-precision policy and the workspace
arena: under the float64 reference policy (the default) every op sequence is
value-identical to the pre-policy implementation — ``Sigmoid`` still runs
its exponent in float64 — while the float32 policy keeps the whole chain in
single precision.  With an arena attached the per-batch outputs, masks and
backward products come from named reusable buffers, so steady-state
iterations allocate nothing here.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn.parameter import Parameter
from repro.utils.precision import PrecisionPolicy, resolve_policy
from repro.utils.workspace import WorkspaceArena, arena_buffer


class _Activation:
    """Base class: parameter-free module with cached forward state."""

    #: Arena used for per-batch buffers (None = allocate fresh arrays).
    arena: Optional[WorkspaceArena] = None
    #: Unique buffer-name prefix inside the arena (set via :meth:`set_arena`).
    name: Optional[str] = None
    #: Compute-precision policy (float64 reference by default).
    policy: PrecisionPolicy = resolve_policy(None)

    def set_arena(self, arena: Optional[WorkspaceArena],
                  name: Optional[str] = None) -> None:
        """Attach a workspace arena (and a stable buffer-name prefix)."""
        self.arena = arena
        if name is not None:
            self.name = name

    def set_policy(self, policy) -> None:
        self.policy = resolve_policy(policy)

    def _buf(self, key: str, shape, dtype) -> np.ndarray:
        prefix = self.name if self.name is not None else f"act@{id(self):x}"
        return arena_buffer(self.arena, f"{prefix}/{key}", shape, dtype)

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def parameters(self) -> List[Parameter]:
        return []


class Identity(_Activation):
    """Pass-through activation (used for the final layer of heads)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float32)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return np.asarray(grad_out, dtype=np.float32)


class ReLU(_Activation):
    """Rectified linear unit.

    The forward overwrites a float32 input in place and returns it: in an
    :class:`~repro.nn.mlp.MLP` that input is the preceding ``Linear``'s
    output buffer, which nothing else reads.
    """

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        mask = self._buf("mask", x.shape, bool)
        np.greater(x, 0, out=mask)
        self._mask = mask
        # x * mask matches np.where(mask, x, 0) exactly for finite inputs.
        np.multiply(x, mask, out=x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        grad_out = np.asarray(grad_out, dtype=np.float32)
        grad_in = self._buf("grad_in", grad_out.shape, np.float32)
        np.multiply(grad_out, self._mask, out=grad_in)
        return grad_in


class Sigmoid(_Activation):
    """Logistic sigmoid, used to map the color head output into [0, 1].

    The exponent runs in the policy's compute dtype — float64 under the
    reference policy (the original behaviour), float32 under the fast path —
    and the cached output is float32 under both.
    """

    def __init__(self) -> None:
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        t = self._buf("t", np.shape(x), self.policy.dtype)
        np.clip(x, -30.0, 30.0, out=t)
        np.negative(t, out=t)
        np.exp(t, out=t)
        np.add(t, 1.0, out=t)
        np.divide(1.0, t, out=t)
        out = self._buf("out", t.shape, np.float32)
        np.copyto(out, t, casting="same_kind")
        self._out = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        one_minus = self._buf("one_minus", self._out.shape, np.float32)
        np.subtract(1.0, self._out, out=one_minus)
        grad_in = self._buf("grad_in", self._out.shape, np.float32)
        np.multiply(np.asarray(grad_out, dtype=np.float32), self._out,
                    out=grad_in)
        np.multiply(grad_in, one_minus, out=grad_in)
        return grad_in


class TruncatedExp(_Activation):
    """Exponential with clamped input, the density activation of Instant-NGP.

    The input is clamped to ``[-clamp, clamp]`` in the backward pass so a few
    outlier samples cannot blow up the hash-grid gradients; the forward pass
    clamps as well to keep densities finite.
    """

    def __init__(self, clamp: float = 15.0) -> None:
        self.clamp = float(clamp)
        self._clamped_input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        clamped = self._buf("clamped", x.shape, np.float32)
        np.clip(x, -self.clamp, self.clamp, out=clamped)
        self._clamped_input = clamped
        out = self._buf("out", x.shape, np.float32)
        np.exp(clamped, out=out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._clamped_input is None:
            raise RuntimeError("backward called before forward")
        grad_in = self._buf("grad_in", self._clamped_input.shape, np.float32)
        np.exp(self._clamped_input, out=grad_in)
        np.multiply(np.asarray(grad_out, dtype=np.float32), grad_in,
                    out=grad_in)
        return grad_in
