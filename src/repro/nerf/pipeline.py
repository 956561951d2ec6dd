"""The occupancy-culled render pipeline: the full ray lifecycle in one place.

:class:`RenderPipeline` owns Steps ❷–❹ of the training loop for a batch of
rays — stratified point sampling, occupancy-grid culling with **sample
compaction**, the radiance-field query, and masked volume rendering — plus
the matching gradient gather for the backward pass:

1. ``stratified_samples`` draws ``n_samples`` distances per ray and
   ``ray_points`` evaluates the sample positions;
2. the occupancy grid (when one is attached) marks samples in known-empty
   cells, and only the *kept* samples are sent to
   ``DecoupledRadianceField.query`` — this is what keeps embedding-grid
   interpolations per iteration near the paper's ~200k instead of the full
   ``rays x samples`` product;
3. the compacted ``(sigma, rgb)`` results are scattered back into dense
   ``(n_rays, n_samples)`` planes with ``sigma = 0`` for culled samples
   (an empty cell contributes zero extinction, so the composite is exact up
   to the occupancy threshold) and volume-rendered as usual;
4. :meth:`RenderPipeline.backward_to_points` gathers the renderer's dense
   per-sample gradients back down to the kept samples, so back-propagation
   also only touches the points that were actually queried.

Training and evaluation share these stages.  Training runs them over one
ray batch in :meth:`RenderPipeline.render_rays` (which the backward pass
needs); forward-only renders — held-out views and served requests — run
them through :func:`render_coalesced`, which streams the field query in
fixed :data:`DEFAULT_CHUNK_POINTS` chunks.  Without an occupancy grid the
pipeline executes exactly the dense sequence the pre-culling trainer ran —
bit-identical outputs, checked against the frozen reference trainer in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.nerf.cameras import RayBundle
from repro.nerf.occupancy import OccupancyGrid
from repro.nerf.sampling import normalize_points_to_unit_cube, ray_points, stratified_samples
from repro.nerf.volume_rendering import RenderOutput, VolumeRenderer
from repro.utils.precision import PrecisionPolicy, resolve_policy
from repro.utils.workspace import WorkspaceArena, arena_buffer, arena_zeros

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports nerf)
    from repro.core.model import DecoupledRadianceField


@dataclass
class SampleStage:
    """Stage ❶ output: stratified samples and world→unit points for a batch.

    Beware of buffer lifetime under an arena: every array aliases the
    arena's sampling buffers and is only valid until the pipeline samples
    the *next* bundle.  Callers that interleave bundles
    (:func:`render_coalesced`) must copy what they keep into their own
    named buffers.
    """

    t_vals: np.ndarray          # (n_rays, n_samples) sample distances
    deltas: np.ndarray          # (n_rays, n_samples) sample spacings
    points_unit: np.ndarray     # (n_rays * n_samples, 3) unit-cube positions
    dirs: np.ndarray            # (n_rays * n_samples, 3) per-sample directions
    n_rays: int
    n_samples: int

    @property
    def n_total(self) -> int:
        return self.n_rays * self.n_samples


@dataclass
class CullStage:
    """Stage ❷ output: the occupancy-culled query plan for one sample batch.

    ``idx is None`` marks the dense plan (culling off, or nothing cullable):
    the query runs over the full ``points_unit`` block and the composite is
    a plain reshape.  Otherwise ``idx`` holds the kept flat sample indices,
    which both the forward scatter and the backward gather use.
    """

    sample: SampleStage
    idx: Optional[np.ndarray]
    n_queried: int


@dataclass
class PipelineRender:
    """Outputs and query accounting of one pipeline pass over a ray batch."""

    render: RenderOutput
    n_queried: int              # samples that actually reached the field
    n_total: int                # n_rays * n_samples (the dense product)
    occupancy_fraction: float   # occupied-cell fraction of the grid (1.0 dense)


class RenderPipeline:
    """Ray generation → sampling → culling/compaction → query → rendering.

    Parameters
    ----------
    model:
        The radiance field to query (anything with ``query``/``backward``
        compatible with :class:`~repro.core.model.DecoupledRadianceField`).
    scene_bound:
        Half-extent of the world-space cube mapped onto the hash grid's unit
        cube.
    n_samples:
        Samples per ray.
    white_background:
        Composite unaccumulated transmittance onto white (NeRF-Synthetic
        protocol).
    occupancy:
        Sample culling is active when an occupancy grid is attached.  Before
        the grid's first update every sample is kept, so the pipeline is
        always correct.
    policy:
        Compute-precision policy threaded through sampling, compositing and
        the gradient gather (``None`` resolves to the bit-exact float64
        reference).
    arena:
        Optional workspace arena supplying the dense sigma/rgb planes,
        compacted query blocks and renderer buffers — with it attached,
        steady-state passes perform no large allocations.
    """

    def __init__(self, model: "DecoupledRadianceField", scene_bound: float,
                 n_samples: int, white_background: bool = True,
                 occupancy: Optional[OccupancyGrid] = None,
                 policy: Optional[PrecisionPolicy] = None,
                 arena: Optional[WorkspaceArena] = None):
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        self.model = model
        self.scene_bound = float(scene_bound)
        self.n_samples = int(n_samples)
        self.policy = resolve_policy(policy)
        self.arena = arena
        self.renderer = VolumeRenderer(white_background=white_background,
                                       policy=self.policy, arena=arena)
        self.occupancy = occupancy
        self._keep_idx: Optional[np.ndarray] = None    # kept flat indices
        self._backward_ok = False

    def set_arena(self, arena: Optional[WorkspaceArena]) -> None:
        """Attach (or detach) the arena of the stages and the renderer."""
        self.arena = arena
        self.renderer.arena = arena

    # -- state ------------------------------------------------------------------
    @property
    def culling_active(self) -> bool:
        """True when batches are actually filtered through an occupancy grid."""
        return self.occupancy is not None

    @property
    def occupancy_fraction(self) -> float:
        """Occupied-cell fraction of the *active* culling mask (1.0 dense).

        Before the grid holds any data (and for an all-empty grid, which
        ``filter_samples`` treats as keep-everything) this reports 1.0, so
        per-step accounting never shows a bogus "0% occupied" during warm-up.
        """
        if not self.culling_active or not self.occupancy.has_data:
            return 1.0
        fraction = self.occupancy.occupancy_fraction
        return fraction if fraction > 0.0 else 1.0

    # -- composable stages -------------------------------------------------------
    # render_rays runs these five stages in order over one training batch;
    # render_coalesced calls them one by one so the rays of several bundles
    # share one chunked engine stream (gather each bundle's kept block,
    # concatenate, query in chunks, composite per bundle);
    # tests/test_serving.py pins the staged path bit-identical to the
    # monolithic forward.

    def stage_samples(self, bundle: RayBundle,
                      rng: Optional[np.random.Generator] = None) -> SampleStage:
        """Stage ❶: stratified distances and unit-cube sample positions."""
        dtype = self.policy.dtype
        t_vals, deltas = stratified_samples(bundle, self.n_samples, rng=rng,
                                            dtype=dtype, arena=self.arena)
        points, dirs = ray_points(bundle, t_vals, dtype=dtype,
                                  arena=self.arena)
        points_unit = normalize_points_to_unit_cube(points, self.scene_bound,
                                                    dtype=dtype,
                                                    arena=self.arena)
        return SampleStage(t_vals=t_vals, deltas=deltas,
                           points_unit=points_unit, dirs=dirs,
                           n_rays=bundle.n_rays, n_samples=self.n_samples)

    def stage_cull(self, sample: SampleStage) -> CullStage:
        """Stage ❷: occupancy filtering into a dense or compacted query plan."""
        if not self.culling_active:
            return CullStage(sample=sample, idx=None, n_queried=sample.n_total)
        keep = self.occupancy.filter_samples(sample.points_unit)
        if keep.all():
            # Nothing to cull (e.g. before the grid's first update): take the
            # dense plan so no compaction copies are paid.
            return CullStage(sample=sample, idx=None, n_queried=int(keep.size))
        idx = np.flatnonzero(keep)
        return CullStage(sample=sample, idx=idx, n_queried=int(idx.size))

    def stage_gather(self, plan: CullStage
                     ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Stage ❸a: compact the kept samples into contiguous query blocks.

        Dense plans pass the full sample block through untouched; an
        all-culled plan yields ``(None, None)`` (there is nothing to query).
        """
        sample = plan.sample
        if plan.idx is None:
            return sample.points_unit, sample.dirs
        if plan.n_queried == 0:
            return None, None
        kept_points = arena_buffer(self.arena, "pipe/kept_points",
                                   (plan.n_queried, 3),
                                   sample.points_unit.dtype)
        # mode="clip" skips numpy's per-element bounds check; the kept
        # indices come from flatnonzero, so they are in range.
        np.take(sample.points_unit, plan.idx, axis=0, out=kept_points,
                mode="clip")
        kept_dirs = arena_buffer(self.arena, "pipe/kept_dirs",
                                 (plan.n_queried, 3), sample.dirs.dtype)
        np.take(sample.dirs, plan.idx, axis=0, out=kept_dirs, mode="clip")
        return kept_points, kept_dirs

    def stage_query(self, points: Optional[np.ndarray],
                    dirs: Optional[np.ndarray]
                    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Stage ❸b: the radiance-field query over one contiguous block.

        The block need not belong to a single bundle —
        :func:`render_coalesced` passes chunks of several bundles' gathered
        samples, whose result does not depend on where bundle boundaries
        fall.
        """
        if points is None:
            return None, None
        return self.model.query(points, dirs)

    def stage_composite(self, plan: CullStage, sigma: Optional[np.ndarray],
                        rgb: Optional[np.ndarray]) -> RenderOutput:
        """Stage ❹: scatter query results into dense planes and composite."""
        sample = plan.sample
        n_rays, n_samples = sample.n_rays, sample.n_samples
        if plan.idx is None:
            return self.renderer.forward(sigma.reshape(n_rays, n_samples),
                                         rgb.reshape(n_rays, n_samples, 3),
                                         sample.deltas, sample.t_vals)
        dtype = self.policy.dtype
        sigma_plane = arena_zeros(self.arena, "pipe/sigma_plane",
                                  n_rays * n_samples, dtype)
        rgb_plane = arena_zeros(self.arena, "pipe/rgb_plane",
                                (n_rays * n_samples, 3), dtype)
        if plan.n_queried:
            sigma_plane[plan.idx] = sigma
            rgb_plane[plan.idx] = rgb
        return self.renderer.forward(
            sigma_plane.reshape(n_rays, n_samples),
            rgb_plane.reshape(n_rays, n_samples, 3),
            sample.deltas, sample.t_vals,
        )

    # -- forward ----------------------------------------------------------------
    def render_rays(self, bundle: RayBundle,
                    rng: Optional[np.random.Generator] = None) -> PipelineRender:
        """Run the full ray lifecycle for one batch and composite colors.

        ``rng`` enables stratified jitter (training); ``None`` uses bin
        midpoints.  The whole batch is one field query, and
        :meth:`backward_to_points` reads its state: this is the training
        path.  Forward-only renders of a whole view go through
        :func:`render_coalesced`, whose chunks bound the query.
        """
        sample = self.stage_samples(bundle, rng=rng)
        plan = self.stage_cull(sample)
        points, dirs = self.stage_gather(plan)
        sigma, rgb = self.stage_query(points, dirs)
        render = self.stage_composite(plan, sigma, rgb)
        self._keep_idx = plan.idx
        self._backward_ok = True
        return PipelineRender(
            render=render,
            n_queried=plan.n_queried,
            n_total=sample.n_total,
            occupancy_fraction=self.occupancy_fraction,
        )

    # -- backward ---------------------------------------------------------------
    def backward_to_points(self, grad_colors: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """Propagate ``dL/dC`` to the per-point gradients of the *kept* samples.

        Runs the volume renderer's backward over the dense planes, then
        gathers the rows belonging to queried samples — the compacted shapes
        expected by ``DecoupledRadianceField.backward`` for the matching
        :meth:`render_rays` call.  Culled samples receive no gradient: their
        cells are known-empty, so the density branch is not pulled toward
        refilling them.
        """
        if not self._backward_ok:
            raise RuntimeError(
                "backward_to_points requires a preceding render_rays")
        grad_sigmas, grad_rgbs = self.renderer.backward(grad_colors)
        if self._keep_idx is None:
            return grad_sigmas.reshape(-1), grad_rgbs.reshape(-1, 3)
        idx = self._keep_idx
        kept_sigmas = arena_buffer(self.arena, "pipe/kept_grad_sigmas",
                                   idx.size, grad_sigmas.dtype)
        np.take(grad_sigmas.reshape(-1), idx, out=kept_sigmas, mode="clip")
        kept_rgbs = arena_buffer(self.arena, "pipe/kept_grad_rgbs",
                                 (idx.size, 3), grad_rgbs.dtype)
        np.take(grad_rgbs.reshape(-1, 3), idx, axis=0, out=kept_rgbs,
                mode="clip")
        return kept_sigmas, kept_rgbs


#: Points per stage-❸b call of :func:`render_coalesced`.  Rendering runs
#: forward-only, so the field query can be chunked (no backward state is
#: needed); a chunk bounds the grid's ``(8, L, chunk)`` address/weight
#: planes, its engine temporaries and the MLP activations, so a dense
#: held-out view or a many-request batch runs in the buffers a training
#: step already holds.  The MLPs' BLAS rounding may then differ from one
#: whole-view query within the served-vs-solo tolerance.
DEFAULT_CHUNK_POINTS = 4096


@dataclass
class CoalescedView:
    """One bundle's rendered rays, scattered back out of a coalesced pass."""

    colors: np.ndarray          # (n_rays, 3), owned copy
    depth: np.ndarray           # (n_rays,), owned copy
    n_rays: int
    n_queried: int              # this bundle's field queries after culling
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
    """Render ray bundles of one scene through one chunked field query.

    The forward-only render loop: held-out views (one bundle) and served
    requests (several same-scene bundles) both run here.  Stages ❶–❷
    (sampling, culling) run per bundle, and each bundle's kept samples are
    gathered straight into its slice of one shared query block — its
    capacity, the bundles' dense ray x sample product, is known before any
    stage runs, so no concatenation copy is paid.  What the composite needs
    later (``t_vals``/``deltas``/``idx``) is retained in slot-indexed arena
    buffers (``serve/<i>/...``, a bounded name set).  The shared block
    streams through stage ❸b :data:`DEFAULT_CHUNK_POINTS` points at a time,
    indifferent to where bundle boundaries fall, then stage ❹ composites
    per bundle, copying colors/depth out before the next composite reuses
    the renderer's planes.

    ``pipeline`` must belong to the scene being rendered; ``arena`` holds
    the retained blocks and the query block (the serving worker's arena;
    pass the pipeline's own only if nothing else interleaves with it).
    Rendering is deterministic (no stratified jitter).  The grid and the
    activations are per point, so only the MLP matmuls see a different
    batch extent than :meth:`RenderPipeline.render_rays` over one bundle:
    results agree with it to BLAS reduction tolerance, not bitwise.
    """
    if not bundles:
        return []
    dtype = pipeline.policy.dtype
    capacity = sum(bundle.n_rays for bundle in bundles) * pipeline.n_samples
    points_all = arena_buffer(arena, "serve/points_all", (capacity, 3),
                              dtype)
    dirs_all = arena_buffer(arena, "serve/dirs_all", (capacity, 3), dtype)
    plans: List[CullStage] = []
    offsets = [0]
    for i, bundle in enumerate(bundles):
        sample = pipeline.stage_samples(bundle, rng=None)
        plan = pipeline.stage_cull(sample)
        # Everything the composite needs outlives the next bundle's stages
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
            n_queried=plan.n_queried,
            n_total=plan.sample.n_total,
        ))
    return views
