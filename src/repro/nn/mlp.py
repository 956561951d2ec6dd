"""Sequential multilayer perceptron container."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.nn.activations import Identity, ReLU, _Activation
from repro.nn.layers import Linear
from repro.nn.parameter import Parameter
from repro.utils.precision import PolicyLike
from repro.utils.workspace import WorkspaceArena


class MLP:
    """A small fully-connected network built from Linear + activation pairs.

    Instant-NGP replaces the 10-layer/256-unit vanilla-NeRF MLP with
    3-layer/64-unit heads; :class:`MLP` covers both by taking an arbitrary
    list of hidden widths.  ``output_activation`` defaults to identity so
    heads can apply their own non-linearity (sigmoid for color, truncated
    exponential for density).
    """

    def __init__(self, in_features: int, hidden_features: Sequence[int],
                 out_features: int, rng: np.random.Generator,
                 hidden_activation=ReLU, output_activation=Identity,
                 name: str = "mlp"):
        self.in_features = in_features
        self.out_features = out_features
        self.name = name
        self.layers: List = []
        widths = [in_features, *hidden_features, out_features]
        for i, (w_in, w_out) in enumerate(zip(widths[:-1], widths[1:])):
            self.layers.append(
                Linear(w_in, w_out, rng=rng, name=f"{name}.linear{i}")
            )
            is_last = i == len(widths) - 2
            activation = output_activation() if is_last else hidden_activation()
            if not isinstance(activation, _Activation):
                raise TypeError("activations must derive from _Activation")
            activation.name = f"{name}.act{i}"
            self.layers.append(activation)
        # The layer stack is fixed after construction, so the parameter list
        # is built once instead of re-concatenated per zero_grad/step.
        self._params: List[Parameter] = []
        for layer in self.layers:
            self._params.extend(layer.parameters())

    def set_arena(self, arena: Optional[WorkspaceArena]) -> None:
        """Thread a workspace arena through every layer and activation."""
        for layer in self.layers:
            layer.set_arena(arena)

    def set_policy(self, policy: PolicyLike) -> None:
        """Set the compute-precision policy of the activations.

        Linear compute stays float32 under both policies (storage
        precision); only dtype-sensitive activations (e.g. the sigmoid's
        exponent) follow the policy.
        """
        for layer in self.layers:
            if isinstance(layer, _Activation):
                layer.set_policy(policy)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the network; each layer caches state for the backward pass."""
        out = x
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad_out`` and return the input gradient."""
        grad = grad_out
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self) -> List[Parameter]:
        """All layer parameters in layer order (cached list — do not mutate)."""
        return self._params

    def zero_grad(self) -> None:
        for param in self._params:
            param.zero_grad()

    # -- serialisation ------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Serialisable snapshot of every layer parameter, in layer order."""
        return {"parameters": [p.state_dict() for p in self.parameters()]}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` into an identically shaped network."""
        params = self.parameters()
        stored = state["parameters"]
        if len(stored) != len(params):
            raise ValueError(
                f"checkpoint has {len(stored)} parameters, network has "
                f"{len(params)}")
        for param, entry in zip(params, stored):
            param.load_state_dict(entry)
