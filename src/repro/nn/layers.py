"""Fully-connected layer with explicit forward/backward.

Compute is float32 under **both** precision policies — parameters are stored
float32 (mirroring the reference implementation's FP16/FP32 mixed precision)
and the matmuls run at storage precision.  What the precision policy buys
the MLP stack is *dtype discipline*: under the float32 policy every caller
hands the layer float32 activations and gradients, so the defensive
``np.asarray`` casts below are no-ops instead of silent full-batch copies.
The :attr:`Linear.conversions` counter records every such silent copy; the
dtype-discipline test asserts it stays at zero across a float32-policy
training step.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn.parameter import Parameter
from repro.utils.workspace import WorkspaceArena, arena_buffer


class Linear:
    """Affine layer ``y = x @ W + b`` with cached activations for backward.

    Weights are initialised with the He/Kaiming-uniform scheme that the
    tiny-cuda-nn MLPs in Instant-NGP use, which keeps activations well scaled
    for the ReLU networks in the color/density heads.
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True,
                 name: str = "linear"):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.name = name
        bound = np.sqrt(6.0 / in_features)
        weight = rng.uniform(-bound, bound, size=(in_features, out_features))
        self.weight = Parameter(weight, name=f"{name}.weight")
        self.bias: Optional[Parameter] = None
        if bias:
            self.bias = Parameter(np.zeros(out_features), name=f"{name}.bias")
        self._cached_input: Optional[np.ndarray] = None
        self.arena: Optional[WorkspaceArena] = None
        #: Silent dtype conversions (full-batch copies) performed on inputs
        #: or gradients that arrived in a non-float32 dtype.
        self.conversions = 0

    def set_arena(self, arena: Optional[WorkspaceArena]) -> None:
        self.arena = arena

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the affine map and cache the input for backward."""
        if not (isinstance(x, np.ndarray) and x.dtype == np.float32):
            self.conversions += 1
            x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input of shape (N, {self.in_features}), got {x.shape}"
            )
        self._cached_input = x
        out = arena_buffer(self.arena, f"{self.name}/out",
                           (x.shape[0], self.out_features), np.float32)
        np.matmul(x, self.weight.data, out=out)
        if self.bias is not None:
            out += self.bias.data
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients and return the input gradient."""
        if self._cached_input is None:
            raise RuntimeError("backward called before forward")
        if not (isinstance(grad_out, np.ndarray)
                and grad_out.dtype == np.float32):
            self.conversions += 1
            grad_out = np.asarray(grad_out, dtype=np.float32)
        x = self._cached_input
        self.weight.accumulate_grad(np.matmul(x.T, grad_out))
        if self.bias is not None:
            self.bias.accumulate_grad(grad_out.sum(axis=0))
        grad_in = arena_buffer(self.arena, f"{self.name}/grad_in",
                               (grad_out.shape[0], self.in_features),
                               np.float32)
        np.matmul(grad_out, self.weight.data.T, out=grad_in)
        return grad_in

    def parameters(self) -> List[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    @property
    def flops_per_sample(self) -> int:
        """Multiply-accumulate FLOPs for a single input row (2 per MAC)."""
        flops = 2 * self.in_features * self.out_features
        if self.bias is not None:
            flops += self.out_features
        return flops
