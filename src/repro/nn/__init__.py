"""A tiny NumPy neural-network library with explicit forward/backward passes.

Instant-NGP-style NeRF training only needs very small fully-connected
networks (3 layers x 64 hidden units), so instead of depending on a deep
learning framework the reproduction implements the required pieces directly:

* :class:`~repro.nn.parameter.Parameter` — a named tensor with a gradient
  accumulator.
* :class:`~repro.nn.layers.Linear` and the activations in
  :mod:`repro.nn.activations` — modules with ``forward``/``backward``.
* :class:`~repro.nn.mlp.MLP` — a sequential container used for both the
  density and color heads.
* :class:`~repro.nn.optim.Adam` — the optimiser that consumes the
  accumulated gradients.

The forward methods cache whatever the matching backward pass needs, and
``backward`` both returns the gradient with respect to the input and
accumulates parameter gradients, mirroring the structure of the CUDA kernels
the paper profiles.
"""

from repro.nn.parameter import Parameter, SparseGrad
from repro.nn.layers import Linear
from repro.nn.activations import ReLU, Sigmoid, TruncatedExp, Identity
from repro.nn.mlp import MLP
from repro.nn.optim import Adam

__all__ = [
    "Parameter",
    "SparseGrad",
    "Linear",
    "ReLU",
    "Sigmoid",
    "TruncatedExp",
    "Identity",
    "MLP",
    "Adam",
]
