"""Finite-difference gradient checking for the test-suite.

Because every backward pass in this library is hand-derived, the tests verify
them against central finite differences.  The helper works on any scalar
function of a NumPy array.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def numerical_gradient(fn: Callable[[np.ndarray], float], x: np.ndarray,
                       eps: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a scalar function ``fn`` at ``x``.

    ``fn`` must not mutate its argument.  The computation is O(2 * x.size)
    function evaluations, so callers should keep ``x`` small.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = x[idx]
        x[idx] = original + eps
        f_plus = float(fn(x))
        x[idx] = original - eps
        f_minus = float(fn(x))
        x[idx] = original
        grad[idx] = (f_plus - f_minus) / (2.0 * eps)
        it.iternext()
    return grad
