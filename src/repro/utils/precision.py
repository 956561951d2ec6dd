"""The unified compute-precision policy of the training stack.

The accelerator the paper builds wins much of its speed from narrow
datapaths: FP16 embedding storage and reduced-precision arithmetic on the
grid-interpolation and MLP cores.  The Python reproduction mirrors that with
a single :class:`PrecisionPolicy` that every hot layer consults for its
*compute* dtype — the trilinear weight planes of the grid engine, the
volume renderer's compositing maths, ray sampling, the loss, and the
optimiser updates.

Two policies exist:

* ``float64`` — the **bit-exact reference path**.  This is the default and
  reproduces the pre-policy numerics exactly (every differential test and
  frozen trace is anchored to it).
* ``float32`` — the **fast path**.  All batch-proportional arithmetic runs
  in single precision, roughly halving memory traffic on the hot loop; the
  throughput benchmark documents the measured speedup and PSNR tolerance.

Parameter *storage* is float32 under both policies (mirroring the FP16/FP32
mixed precision of the reference CUDA implementation), as is the
``np.bincount``-based backward scatter of the grid engine, which accumulates
in float64 under both policies because ``np.bincount`` only sums float64
weights — feeding it float64 directly keeps the reduction dtype-stable
instead of paying a hidden internal upcast.

Random draws are policy-independent: jitter and probe points are always
drawn from the generator as float64 (the exact draws of the reference path)
and cast to the compute dtype afterwards, so a float32 run differs from its
float64 twin only by arithmetic precision — never by RNG stream divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

#: Names accepted by :func:`resolve_policy` / ``Instant3DConfig.compute_dtype``.
PRECISION_NAMES = ("float32", "float64")


@dataclass(frozen=True)
class PrecisionPolicy:
    """Selects the compute dtype of every batch-proportional hot-path array.

    Attributes
    ----------
    name:
        ``"float32"`` or ``"float64"``.
    """

    name: str = "float64"

    def __post_init__(self) -> None:
        if self.name not in PRECISION_NAMES:
            raise ValueError(
                f"compute dtype must be one of {PRECISION_NAMES}, got {self.name!r}")

    @property
    def dtype(self) -> np.dtype:
        """The numpy compute dtype (float32 or float64)."""
        return np.dtype(self.name)

    @property
    def complex_dtype(self) -> np.dtype:
        """Complex dtype whose components match :attr:`dtype` (the grid
        engine's F == 2 fast path accumulates feature pairs as one complex)."""
        return np.dtype(np.complex64 if self.name == "float32" else np.complex128)

    @property
    def is_reference(self) -> bool:
        """True for the bit-exact float64 reference policy."""
        return self.name == "float64"

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize


#: The two singleton policies.
FLOAT32 = PrecisionPolicy("float32")
FLOAT64 = PrecisionPolicy("float64")

PolicyLike = Optional[Union[PrecisionPolicy, str, np.dtype, type]]


def resolve_policy(policy: PolicyLike) -> PrecisionPolicy:
    """Normalise ``None`` / name / dtype / policy into a :class:`PrecisionPolicy`.

    ``None`` resolves to the float64 reference policy, so every component
    that is constructed without an explicit policy keeps the pre-policy
    numerics bit-exactly.
    """
    if policy is None:
        return FLOAT64
    if isinstance(policy, PrecisionPolicy):
        return policy
    name = np.dtype(policy).name if not isinstance(policy, str) else policy
    if name == "float32":
        return FLOAT32
    if name == "float64":
        return FLOAT64
    raise ValueError(
        f"compute dtype must be one of {PRECISION_NAMES}, got {policy!r}")
