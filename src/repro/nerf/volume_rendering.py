"""Classical volume rendering (Eq. 1 of the paper) with a hand-derived backward.

Given per-sample densities ``sigma_k`` and colors ``c_k`` along a ray, the
pixel color is

    C = sum_k  T_k * (1 - exp(-sigma_k * delta_k)) * c_k,
    T_k = exp(-sum_{j<k} sigma_j * delta_j)

The backward pass propagates ``dL/dC`` to both ``dL/dc_k`` (trivially
``w_k * dL/dC``) and ``dL/dsigma_k`` using

    dL/dsigma_k = delta_k * [ g_k * (T_k - w_k) - sum_{j>k} g_j * w_j ]

with ``g_j = <dL/dC, c_j>`` — the standard closed form also implemented by
Instant-NGP's CUDA composite kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.utils.precision import PrecisionPolicy, resolve_policy
from repro.utils.workspace import WorkspaceArena, arena_buffer


@dataclass
class RenderOutput:
    """Outputs of one volume-rendering pass over a batch of rays."""

    colors: np.ndarray          # (n_rays, 3) composited pixel colors
    depth: np.ndarray           # (n_rays,) expected termination depth
    accumulation: np.ndarray    # (n_rays,) sum of weights (opacity)
    weights: np.ndarray         # (n_rays, n_samples) per-sample weights
    transmittance: np.ndarray   # (n_rays, n_samples) T_k per sample


class VolumeRenderer:
    """Differentiable volume compositor (Step ❹ of the training pipeline).

    ``white_background`` composites unaccumulated transmittance onto white,
    matching the NeRF-Synthetic evaluation protocol.  ``policy`` selects the
    compositing precision (the float64 default is bit-identical to the
    pre-policy renderer, including its defensive upcast of every input
    plane; float32 keeps policy-dtype inputs copy-free).  With an ``arena``
    every per-batch plane — opacities, transmittance, weights, gradients —
    comes from named reusable buffers, valid until the next pass.
    """

    def __init__(self, white_background: bool = True,
                 policy: Optional[PrecisionPolicy] = None,
                 arena: Optional[WorkspaceArena] = None):
        self.white_background = bool(white_background)
        self.policy = resolve_policy(policy)
        self.arena = arena
        self._cache: Optional[dict] = None

    def _buf(self, key: str, shape) -> np.ndarray:
        return arena_buffer(self.arena, f"vr/{key}", shape, self.policy.dtype)

    # -- forward ----------------------------------------------------------------
    def forward(self, sigmas: np.ndarray, rgbs: np.ndarray, deltas: np.ndarray,
                t_vals: np.ndarray) -> RenderOutput:
        """Composite per-sample features into per-ray pixel values.

        Parameters
        ----------
        sigmas: ``(n_rays, n_samples)`` non-negative densities.
        rgbs:   ``(n_rays, n_samples, 3)`` colors in ``[0, 1]``.
        deltas: ``(n_rays, n_samples)`` sample spacings.
        t_vals: ``(n_rays, n_samples)`` sample distances (for depth output).
        """
        dt = self.policy.dtype
        sigmas = np.asarray(sigmas, dtype=dt)
        rgbs = np.asarray(rgbs, dtype=dt)
        deltas = np.asarray(deltas, dtype=dt)
        t_vals = np.asarray(t_vals, dtype=dt)
        if sigmas.shape != deltas.shape or sigmas.shape != t_vals.shape:
            raise ValueError("sigmas, deltas and t_vals must share shape (n_rays, n_samples)")
        if rgbs.shape != sigmas.shape + (3,):
            raise ValueError("rgbs must have shape (n_rays, n_samples, 3)")

        shape = sigmas.shape
        n_rays = shape[0]
        optical_depth = self._buf("optical_depth", shape)     # sigma_k * delta_k
        np.multiply(sigmas, deltas, out=optical_depth)
        alphas = self._buf("alphas", shape)                   # 1 - exp(-od)
        np.negative(optical_depth, out=alphas)
        np.exp(alphas, out=alphas)
        np.subtract(1.0, alphas, out=alphas)
        # T_k = exp(-sum_{j<k} sigma_j delta_j): exclusive cumulative sum.
        transmittance = self._buf("transmittance", shape)
        np.cumsum(optical_depth, axis=1, out=transmittance)
        np.subtract(transmittance, optical_depth, out=transmittance)
        np.negative(transmittance, out=transmittance)
        np.exp(transmittance, out=transmittance)
        weights = self._buf("weights", shape)
        np.multiply(transmittance, alphas, out=weights)
        colors = self._buf("colors", (n_rays, 3))
        np.einsum("ns,nsc->nc", weights, rgbs, out=colors)
        depth = self._buf("depth", (n_rays,))
        np.einsum("ns,ns->n", weights, t_vals, out=depth)
        accumulation = self._buf("accumulation", (n_rays,))
        np.sum(weights, axis=1, out=accumulation)
        if self.white_background:
            background = self._buf("background", (n_rays,))
            np.subtract(1.0, accumulation, out=background)
            colors += background[:, None]
        self._cache = {
            "sigmas": sigmas,
            "rgbs": rgbs,
            "deltas": deltas,
            "t_vals": t_vals,
            "weights": weights,
            "transmittance": transmittance,
            "alphas": alphas,
        }
        return RenderOutput(
            colors=colors,
            depth=depth,
            accumulation=accumulation,
            weights=weights,
            transmittance=transmittance,
        )

    # -- backward ---------------------------------------------------------------
    def backward(self, grad_colors: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Propagate ``dL/dC`` back to per-sample densities and colors.

        Returns ``(grad_sigmas, grad_rgbs)`` with the shapes of the forward
        inputs.  Handles the white-background term (its gradient flows into
        the weights through the accumulation).
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cache = self._cache
        grad_colors = np.asarray(grad_colors, dtype=self.policy.dtype)
        rgbs = cache["rgbs"]
        weights = cache["weights"]
        transmittance = cache["transmittance"]
        deltas = cache["deltas"]
        shape = weights.shape

        # dL/dc_k = w_k * dL/dC
        grad_rgbs = self._buf("grad_rgbs", shape + (3,))
        np.multiply(weights[:, :, None], grad_colors[:, None, :], out=grad_rgbs)

        # g_k = dL/dw_k = <dL/dC, c_k>  (minus the white-background term,
        # because C += (1 - sum_k w_k) * 1 when compositing onto white).
        g = self._buf("g", shape)
        np.einsum("nc,nsc->ns", grad_colors, rgbs, out=g)
        if self.white_background:
            channel_sum = self._buf("channel_sum", (shape[0],))
            np.sum(grad_colors, axis=1, out=channel_sum)
            g -= channel_sum[:, None]

        gw = self._buf("gw", shape)
        np.multiply(g, weights, out=gw)
        # suffix_k = sum_{j>k} g_j w_j  (exclusive reverse cumulative sum)
        suffix = self._buf("suffix", shape)
        np.cumsum(gw[:, ::-1], axis=1, out=suffix)
        grad_sigmas = self._buf("grad_sigmas", shape)
        np.subtract(suffix[:, ::-1], gw, out=grad_sigmas)     # suffix sums
        np.subtract(transmittance, weights, out=suffix)       # reuse as T - w
        suffix *= g
        np.subtract(suffix, grad_sigmas, out=grad_sigmas)
        grad_sigmas *= deltas
        return grad_sigmas, grad_rgbs
