"""Cross-request ray coalescing over the composable pipeline stages.

The utilization argument of the paper applied to serving: a contiguous
point block streams through the field in ``DEFAULT_CHUNK_POINTS`` chunks,
so N pending render requests for the *same resident scene* are cheapest as
ONE query over the concatenation of their kept samples — one stream of full
chunks instead of N part-filled streams — with the results split back per
request afterwards.

:func:`render_coalesced` runs stages ❶–❷ (sampling, occupancy culling)
per request and compacts each request's kept samples *directly into its
slice of the shared query block* — the concatenation capacity is known
upfront from the bundles' dense ray x sample products, so stage ❸a's
per-request gather lands in place and no second concatenation copy is
paid.  What the composite needs later (``t_vals``/``deltas``/``idx``) is
retained in slot-indexed arena buffers (``serve/<i>/...`` — a bounded name
set, so steady-state serving stays allocation-free).  One stage-❸b field
query covers every request, then stage ❹ composites per request, copying
colors/depth out before the next composite reuses the renderer's planes.

Equivalence: the grid interpolation and activations are per-point, so the
coalesced query computes exactly the per-request results; only the MLP
matmuls see a different batch extent, which can move the last ulp of a BLAS
reduction.  Coalesced and per-request renders therefore agree to reduction
tolerance, not bitwise — the differential tests pin that bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.nerf.cameras import RayBundle
from repro.nerf.pipeline import CullStage, RenderPipeline, SampleStage
from repro.utils.workspace import WorkspaceArena, arena_buffer

__all__ = ["CoalescedView", "DEFAULT_CHUNK_POINTS", "render_coalesced"]

#: Serving-side engine stream chunk (points per stage-❸b call).  Rendering
#: runs forward-only, so chunking the field query is safe (no backward
#: state is needed) and keeps the fused engine's ``(8, L, chunk)`` planes
#: and the MLP activations inside the cache hierarchy — without it a
#: many-request coalesced block slows down super-linearly and batching
#: loses to per-request dispatch instead of beating it.  The grid's own
#: ``POINT_BLOCK`` bounds only the engine temporaries (bit-identically);
#: this chunk also bounds the planes and the MLP activations, whose BLAS
#: rounding may then differ from a solo render within the served-vs-solo
#: check.
DEFAULT_CHUNK_POINTS = 4096


@dataclass
class CoalescedView:
    """One request's rendered rays, scattered back out of a coalesced pass."""

    colors: np.ndarray          # (n_rays, 3), owned copy
    depth: np.ndarray           # (n_rays,), owned copy
    n_rays: int
    n_samples: int
    n_queried: int              # this request's field queries after culling
    n_total: int                # dense rays x samples product


def _retain(arena: Optional[WorkspaceArena], name: str,
            source: np.ndarray) -> np.ndarray:
    """Copy ``source`` into an arena buffer that survives later stage calls."""
    out = arena_buffer(arena, name, source.shape, source.dtype)
    out[...] = source
    return out


def render_coalesced(pipeline: RenderPipeline, bundles: Sequence[RayBundle],
                     arena: Optional[WorkspaceArena] = None
                     ) -> List[CoalescedView]:
    """Render several ray bundles of one scene through a single field query.

    ``pipeline`` must belong to the scene being rendered; ``arena`` holds
    the retained per-request blocks and the concatenated query block
    (typically the serving worker's arena — pass the pipeline's own arena
    only if nothing else interleaves with it).  Rendering is deterministic
    (no stratified jitter), matching evaluation renders.

    The shared query streams :data:`DEFAULT_CHUNK_POINTS` samples at a
    time.  Chunk boundaries are value-neutral up to BLAS reduction order —
    every op in the query is per-point/per-row — so results agree with
    per-request rendering to reduction tolerance.
    """
    if not bundles:
        return []
    dtype = pipeline.policy.dtype
    # Capacity is the dense upper bound, known before any stage runs — so
    # every request's stage-❸a compaction gathers straight into its slice
    # of the shared block instead of into a private buffer that would need
    # concatenating (a second full copy) afterwards.
    capacity = sum(bundle.n_rays for bundle in bundles) * pipeline.n_samples
    points_all = arena_buffer(arena, "serve/points_all", (capacity, 3),
                              dtype)
    dirs_all = arena_buffer(arena, "serve/dirs_all", (capacity, 3), dtype)
    plans: List[CullStage] = []
    offsets = [0]
    for i, bundle in enumerate(bundles):
        sample = pipeline.stage_samples(bundle, rng=None)
        plan = pipeline.stage_cull(sample)
        # Everything the composite needs outlives the next request's stages
        # only if copied out of the pipeline's per-call buffers.
        t_vals = _retain(arena, f"serve/{i}/t_vals", sample.t_vals)
        deltas = _retain(arena, f"serve/{i}/deltas", sample.deltas)
        start = offsets[-1]
        stop = start + plan.n_queried
        idx = plan.idx
        if idx is None:
            points_all[start:stop] = sample.points_unit
            dirs_all[start:stop] = sample.dirs
        elif plan.n_queried:
            idx = _retain(arena, f"serve/{i}/idx", idx)
            np.take(sample.points_unit, idx, axis=0,
                    out=points_all[start:stop], mode="clip")
            np.take(sample.dirs, idx, axis=0, out=dirs_all[start:stop],
                    mode="clip")
        retained_sample = SampleStage(
            t_vals=t_vals, deltas=deltas,
            # The composite never reads the sample positions — they live
            # only in the shared query block.
            points_unit=None, dirs=None,
            n_rays=sample.n_rays, n_samples=sample.n_samples)
        plans.append(CullStage(sample=retained_sample, idx=idx,
                               n_queried=plan.n_queried))
        offsets.append(stop)

    total = offsets[-1]
    sigma_all = rgb_all = None
    if total:
        # The single engine stream all requests share (stage ❸b),
        # indifferent to where request boundaries fall: N part-filled
        # per-request queries become ceil(total / DEFAULT_CHUNK_POINTS)
        # full chunks.
        step = DEFAULT_CHUNK_POINTS
        if step >= total:
            sigma_all, rgb_all = pipeline.stage_query(points_all[:total],
                                                      dirs_all[:total])
        else:
            for start in range(0, total, step):
                stop = min(start + step, total)
                sigma, rgb = pipeline.stage_query(points_all[start:stop],
                                                  dirs_all[start:stop])
                if sigma_all is None:
                    sigma_all = arena_buffer(arena, "serve/sigma_all",
                                             total, sigma.dtype)
                    rgb_all = arena_buffer(arena, "serve/rgb_all",
                                           (total, 3), rgb.dtype)
                sigma_all[start:stop] = sigma
                rgb_all[start:stop] = rgb

    views: List[CoalescedView] = []
    for plan, start, stop in zip(plans, offsets, offsets[1:]):
        sigma = sigma_all[start:stop] if stop > start else None
        rgb = rgb_all[start:stop] if stop > start else None
        render = pipeline.stage_composite(plan, sigma, rgb)
        # Copy out before the next composite reuses the renderer's planes.
        views.append(CoalescedView(
            colors=np.array(render.colors, copy=True),
            depth=np.array(render.depth, copy=True),
            n_rays=plan.sample.n_rays,
            n_samples=plan.sample.n_samples,
            n_queried=plan.n_queried,
            n_total=plan.sample.n_total,
        ))
    return views
