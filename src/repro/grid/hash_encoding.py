"""Multiresolution hash-grid embedding (Instant-NGP's "3D embedding grid").

A :class:`MultiResHashGrid` stacks ``L`` levels (:class:`HashGridLevel`) of
geometrically increasing resolution.  Each level stores ``F`` features per
vertex in a 1-D table (dense for coarse levels, hashed for fine levels).
Querying a batch of 3-D points returns the concatenation of every level's
trilinearly interpolated features — exactly Step ❸-① of the paper's training
pipeline — and records the table addresses that were touched so that the
accelerator simulator and the access-pattern analyses (Figs. 8-10) can replay
them.

The Instant-3D algorithm instantiates two of these grids (a density grid and
a color grid) with different ``size_scale`` factors; see
:mod:`repro.core.decoupled_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.grid.hash_function import _MASK32, PI1, PI2, PI3
from repro.nn.parameter import Parameter, SparseGrad, flat_pair_view
from repro.utils.morton import morton_encode_3d
from repro.utils.precision import PrecisionPolicy, resolve_policy
from repro.utils.workspace import WorkspaceArena, arena_buffer

#: Bytes per stored feature (FP16 in the accelerator and in Instant-NGP).
FEATURE_BYTES = 2

#: Points per engine pass.  A larger query (a dense held-out render) runs
#: as blocks of this many points, each writing its slice of the full
#: planes and output, so the engine's ``q/*`` temporaries stay block-sized
#: while every result bit and the access record are those of one pass.
#: It sits above every training query (at most 6,144 points per branch
#: in perfbench, 4,096 per occupancy refresh), which run in one pass.
POINT_BLOCK = 8192


@dataclass(frozen=True)
class HashGridConfig:
    """Configuration of a multiresolution hash grid.

    Attributes
    ----------
    n_levels:
        Number of resolution levels ``L``.
    n_features_per_level:
        Features stored per vertex ``F`` (Instant-NGP default: 2).
    log2_hashmap_size:
        Log2 of the per-level hash-table entry count ``T`` before
        ``size_scale`` is applied.
    base_resolution:
        Resolution of the coarsest level.
    finest_resolution:
        Resolution of the finest level; the per-level growth factor is
        derived from this (Instant-NGP's ``b``).
    size_scale:
        Multiplier on the hash-table entry count, used to realise the
        paper's grid-size ratios ``S_D : S_C`` (e.g. 0.25 for the color
        grid when ``S_D : S_C = 1 : 0.25``).
    """

    n_levels: int = 8
    n_features_per_level: int = 2
    log2_hashmap_size: int = 14
    base_resolution: int = 16
    finest_resolution: int = 256
    size_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.n_levels < 1:
            raise ValueError("n_levels must be >= 1")
        if self.n_features_per_level < 1:
            raise ValueError("n_features_per_level must be >= 1")
        if not (0.0 < self.size_scale <= 1.0):
            raise ValueError("size_scale must be in (0, 1]")
        if self.base_resolution < 2:
            raise ValueError("base_resolution must be >= 2")
        if self.finest_resolution < self.base_resolution:
            raise ValueError("finest_resolution must be >= base_resolution")

    @property
    def per_level_scale(self) -> float:
        """Geometric growth factor ``b`` between consecutive levels."""
        if self.n_levels == 1:
            return 1.0
        return float(
            np.exp(
                (np.log(self.finest_resolution) - np.log(self.base_resolution))
                / (self.n_levels - 1)
            )
        )

    @property
    def max_table_entries(self) -> int:
        """Per-level table entry budget after applying ``size_scale``."""
        return max(16, int(round((2 ** self.log2_hashmap_size) * self.size_scale)))

    @property
    def n_output_features(self) -> int:
        """Dimensionality of the concatenated embedding (``L * F``)."""
        return self.n_levels * self.n_features_per_level

    def level_resolution(self, level: int) -> int:
        """Grid resolution of ``level`` (0 = coarsest)."""
        return int(np.floor(self.base_resolution * self.per_level_scale ** level))

    def scaled(self, size_scale: float) -> "HashGridConfig":
        """Return a copy of this config with a different ``size_scale``."""
        return HashGridConfig(
            n_levels=self.n_levels,
            n_features_per_level=self.n_features_per_level,
            log2_hashmap_size=self.log2_hashmap_size,
            base_resolution=self.base_resolution,
            finest_resolution=self.finest_resolution,
            size_scale=size_scale,
        )


class GridAccessRecord:
    """Addresses and weights touched by one grid query (one batch of points).

    Backed by the engine's level-major ``(8, L, N)`` corner planes (one
    contiguous ``(N,)`` row per corner and level, so every engine pass
    streams full cache lines): ``address_planes`` holds *global*
    (level-offset) table addresses and ``weight_planes`` the trilinear
    weights.  ``level_offsets`` gives each level's base offset inside the
    concatenated 1-D storage so traces can use globally unique addresses.
    The per-level local ``(N, 8)`` views :attr:`addresses` and
    :attr:`weights` are materialised lazily on first access, keeping trace
    bookkeeping off the query hot path.
    """

    def __init__(self, address_planes: np.ndarray, weight_planes: np.ndarray,
                 level_offsets: List[int], table_sizes: List[int]):
        self.address_planes = address_planes
        self.weight_planes = weight_planes
        self.level_offsets = list(level_offsets)
        self.table_sizes = list(table_sizes)
        self._addresses: Optional[List[np.ndarray]] = None
        self._weights: Optional[List[np.ndarray]] = None

    @property
    def addresses(self) -> List[np.ndarray]:
        """Per-level local ``(N, 8)`` table addresses."""
        if self._addresses is None:
            self._addresses = [
                self.address_planes[:, level, :].T - offset
                for level, offset in enumerate(self.level_offsets)
            ]
        return self._addresses

    @property
    def weights(self) -> List[np.ndarray]:
        """Per-level ``(N, 8)`` trilinear weights."""
        if self._weights is None:
            self._weights = [self.weight_planes[:, level, :].T
                             for level in range(self.n_levels)]
        return self._weights

    @property
    def n_points(self) -> int:
        return int(self.address_planes.shape[2])

    @property
    def n_levels(self) -> int:
        return len(self.table_sizes)

    def flat_addresses(self, level: Optional[int] = None) -> np.ndarray:
        """Global (level-offset) addresses, flattened in access order.

        Access order is point-major within a level: for each point its eight
        corner reads are issued consecutively, matching the grid-core
        pipeline of the accelerator.
        """
        if level is not None:
            return np.ascontiguousarray(
                self.address_planes[:, level, :].T).reshape(-1).astype(
                    np.int64, copy=False)
        parts = [self.flat_addresses(level) for level in range(self.n_levels)]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


class HashGridLevel:
    """Metadata and table view of one resolution level of the grid.

    The level's ``table`` is a view into the owning grid's single backing
    table; it is what checkpoints serialise (``<grid>.level<i>.table``).
    """

    def __init__(self, resolution: int, max_entries: int, n_features: int,
                 rng: np.random.Generator, name: str = "level"):
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        self.resolution = int(resolution)
        self.n_features = int(n_features)
        n_vertices = (self.resolution + 1) ** 3
        # Coarse levels that fit in the table are stored densely
        # (collision-free); finer levels fall back to the spatial hash.
        self.is_dense = n_vertices <= max_entries
        self.table_size = n_vertices if self.is_dense else int(max_entries)
        init = rng.uniform(-1e-4, 1e-4, size=(self.table_size, self.n_features))
        self.table = Parameter(init, name=f"{name}.table")


class MultiResHashGrid:
    """Multiresolution hash-grid encoder with access tracing.

    One engine serves every query: it computes corner addresses and
    trilinear weights for all ``L`` levels into ``(8, L, N)`` corner planes,
    one broadcast numpy call per stage, gathers from the grid's single
    backing feature table, and
    back-propagates with one ``np.bincount`` segment-sum per feature over
    all eight corner planes of the touched addresses.  Its
    :class:`GridAccessRecord` traces feed the accelerator simulator and the
    Figs. 8-10 analyses.  The test suite checks this engine against a
    frozen per-level loop built from the scalar Eq. 3 helpers
    (:mod:`repro.grid.hash_function`, :mod:`repro.grid.interpolation`):
    bit-identical traces, equal embeddings, and gradients within a float64
    tolerance (the fused segment-sum adds in a different order than the
    loop's ``np.add.at``); and it checks the gradients of the full
    training loss against central differences.

    Parameters
    ----------
    config:
        Grid hyper-parameters.
    rng:
        Generator used to initialise the embedding tables.
    name:
        Prefix for parameter names (useful when two grids coexist, e.g. the
        Instant-3D density and color grids).
    policy:
        Compute-precision policy (``None`` resolves to the float64
        reference, which is bit-identical to the pre-policy engine; float32
        halves the weight-plane and accumulation traffic).  Embedding
        storage and outputs are float32 under both, and the bincount
        backward scatter always accumulates in float64 (the only dtype
        ``np.bincount`` reduces in) before the float32 table update.
    arena:
        Optional :class:`~repro.utils.workspace.WorkspaceArena` supplying
        reusable buffers for the query planes and every engine temporary;
        ``None`` allocates fresh arrays per call (the original semantics).
        With an arena attached, the returned embeddings and the access
        record of a query are only valid until the next ``forward`` call.
    sparse:
        Gradient representation of the backward pass.  ``False`` (default)
        scatters into the dense gradient table.  ``True`` makes
        :meth:`backward` emit one compacted ``(unique_addresses,
        accumulated_grads)`` COO pair
        (:class:`~repro.nn.parameter.SparseGrad`) over the grid's backing
        table instead of expanding to dense zeros — the scatter trace is
        deduplicated with a first-touch address map + segment-sum whose
        per-row sums are **bit-identical** to the dense scatter's (both
        sum each row's contributions in the same order) — and flags the
        table for the optimiser's touched-rows-only lazy update.  The
        scatter runs over level ranges (:meth:`_scatter_sparse`), so a
        caller may split it over two threads.  The emitted arrays live in
        the arena (valid for one optimiser step) and the dense ``grad``
        table is never written nor cleared.
    """

    def __init__(self, config: HashGridConfig, rng: np.random.Generator,
                 name: str = "grid",
                 policy: Optional[PrecisionPolicy] = None,
                 arena: Optional[WorkspaceArena] = None,
                 sparse: bool = False):
        if sparse not in (False, True):
            raise ValueError(f"sparse must be a bool, got {sparse!r}")
        self.config = config
        self.name = name
        self.policy = resolve_policy(policy)
        self.arena = arena
        self.levels: List[HashGridLevel] = []
        for level_idx in range(config.n_levels):
            self.levels.append(
                HashGridLevel(
                    resolution=config.level_resolution(level_idx),
                    max_entries=config.max_table_entries,
                    n_features=config.n_features_per_level,
                    rng=rng,
                    name=f"{name}.level{level_idx}",
                )
            )
        # Per-level constants of the engine, precomputed as arrays so a
        # query touches no Python-level per-level loop.  Resolutions live in
        # the compute dtype so the scale multiply stays in-policy; the planes
        # are level-major, so per-level constants are kept as (L, 1) columns.
        self._resolutions = np.array([l.resolution for l in self.levels],
                                     dtype=self.policy.dtype)
        self._max_base = np.array([l.resolution - 1 for l in self.levels],
                                  dtype=np.int64)
        sizes = np.array([l.table_size for l in self.levels], dtype=np.int64)
        self._offsets_arr = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)
        self._level_bounds = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        dense_mask = np.array([l.is_dense for l in self.levels], dtype=bool)
        self._dense_idx = np.flatnonzero(dense_mask)
        self._hash_idx = np.flatnonzero(~dense_mask)
        # Dense levels always form a prefix (level resolutions are
        # nondecreasing while the table budget is constant); the engine's
        # grouped level slices rely on that.
        if self._dense_idx.size and int(self._dense_idx[-1]) != self._dense_idx.size - 1:
            raise RuntimeError("dense levels must form a prefix of the level stack")
        self._dense_strides = np.array(
            [self.levels[i].resolution + 1 for i in self._dense_idx], dtype=np.int64)
        hash_sizes = sizes[self._hash_idx]
        self._hash_all_pow2 = bool(
            ((hash_sizes & (hash_sizes - 1)) == 0).all()) if hash_sizes.size else True
        # One backing Parameter holds every level's rows contiguously — "the
        # hash table" of this grid.  The per-level Parameters are rebound to
        # views into it, so the engine gathers from the backing directly (no
        # per-forward concatenation copy) and the optimiser sees the whole
        # grid as a single table: one gather/scatter set per (sparse) update
        # instead of one per level.  Level-local reads and in-place writes
        # (checkpoints, tests) keep working through the views.
        backing = np.concatenate([level.table.data for level in self.levels],
                                 axis=0)
        self.table = Parameter(backing, name=f"{name}.tables")
        offset = 0
        for level in self.levels:
            level.table.data = self.table.data[offset:offset + level.table_size]
            level.table.grad = self.table.grad[offset:offset + level.table_size]
            offset += level.table_size
        # Voxel-lattice integer dtype: base coordinates and dense-level index
        # arithmetic run in int32 whenever every value fits (they are bounded
        # by the per-level table size) — the float->int32 cast vectorises
        # where float->int64 does not, and the traffic halves.  Integer
        # arithmetic is exact, so this is value-identical to the int64
        # original under both precision policies.
        self._base_dtype = (
            np.int32 if (int(self._level_bounds[-1]) < 2 ** 31
                         and config.finest_resolution < 2 ** 24)
            else np.int64)
        bdt = self._base_dtype
        self._max_base_col = self._max_base.astype(bdt)[:, None]
        self._res_col = self._resolutions[:, None]
        n_dense = self._dense_idx.size
        # Dense levels: per axis, (coord + k) * stride for k in (0, 1) with
        # strides (1, s, s^2), as coord * stride + k * stride; the level's
        # global table offset is folded into the z term.  (3, 2, n_dense, 1).
        s = self._dense_strides.astype(bdt)
        self._dense_axis_strides = np.stack((np.ones_like(s), s, s * s))[
            :, None, :, None]
        self._dense_terms = (np.arange(2, dtype=bdt)[None, :, None, None]
                             * self._dense_axis_strides)
        self._dense_terms[2] += self._offsets_arr[:n_dense].astype(bdt)[:, None]
        # Hashed levels start from coord + k for k in (0, 1).
        self._coord_step = np.arange(2, dtype=bdt)[:, None, None]
        self._hash_offsets_col = self._offsets_arr[n_dense:][:, None]
        # The spatial hash is arithmetic mod 2**32, so when the lattice fits
        # int32 it runs natively in uint32 — the wrapping multiply IS the
        # ``& _MASK32`` of the uint64 original (bit-exact), at half the
        # traffic and without the explicit masking passes.
        self._hash_dtype = (np.uint32 if self._base_dtype == np.int32
                            else np.uint64)
        self._pi_col = np.array([int(pi) for pi in (PI1, PI2, PI3)],
                                dtype=self._hash_dtype)[:, None, None, None]
        self._hash_sizes_col = hash_sizes[:, None]
        self._hash_pow2_mask_col = (hash_sizes - 1).astype(
            self._hash_dtype)[:, None]
        self._record_layout = ([int(offset) for offset in self._offsets_arr],
                               [int(size) for size in sizes])
        self._last_access: Optional[GridAccessRecord] = None
        # The trainable surface is the single backing table.
        self._params: List[Parameter] = [self.table]
        #: Touched (unique, non-zero) table rows across all levels in the
        #: most recent backward; ``None`` until a backward has run.
        self.last_touched_rows: Optional[int] = None
        self.sparse = bool(sparse)
        #: COO backward's first-touch map (mark, slot): table-length arrays,
        #: allocated for sparse grids only.
        self._first_touch: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if self.sparse:
            total = int(self._level_bounds[-1])
            self._first_touch = (np.zeros(total, dtype=bool),
                                 np.zeros(total, dtype=np.int64))
            for param in [self.table] + [level.table for level in self.levels]:
                param.sparse = True
            # A split COO scatter runs levels [0, s) and [s, L): s is the
            # longest level prefix holding at most half the table rows, so
            # each range owns about half the table, as two fused grid cores
            # each hold part of one large table (Sec. 4.6).  Fine levels
            # touch more unique rows per trace entry, so this also balances
            # the two ranges' time better than an even level count.
            bounds = self._level_bounds
            self._split_level = max(1, int(np.searchsorted(
                bounds, bounds[-1] / 2, side="right")) - 1)

    def set_arena(self, arena: Optional[WorkspaceArena]) -> None:
        """Attach (or detach) a workspace arena for query-plane reuse."""
        self.arena = arena

    def _buf(self, key: str, shape, dtype) -> np.ndarray:
        """Engine scratch buffer, namespaced by this grid's name."""
        return arena_buffer(self.arena, f"{self.name}/{key}", shape, dtype)

    # -- engine internals ---------------------------------------------------
    #
    # The engine works in a corner-major, level-major "plane" layout:
    # addresses and weights live in contiguous ``(8, L, N)`` arrays, one
    # plane per cube corner with one contiguous row per level, and corner =
    # 4*dz + 2*dy + dx (:data:`~repro.grid.interpolation.CORNER_OFFSETS`).
    # Viewed as ``(2, 4, L, N)`` — (dz, xy-pair) — each stage of the query is
    # one broadcast numpy call over all axes, levels and corners: the
    # per-axis products are formed once for coord and coord + 1, their xy
    # pairs as a 2x2 broadcast, and the eight corners as one (z, xy)
    # broadcast into the planes.  No ``(N, L, 8, 3)`` corner tensor is ever
    # materialised.

    def _query_into(self, points: np.ndarray, table: np.ndarray,
                          addr_planes: np.ndarray, weight_planes: np.ndarray,
                          out: np.ndarray) -> None:
        """One stacked-kernel query: all levels of all points at once.

        Writes into caller-provided views: ``out`` is ``(N, L*F)`` float32
        embeddings and the planes are level-major ``(8, L, N)`` arrays
        holding, per cube corner, the *global* (level-offset) table address
        (int64) and trilinear weight (compute-dtype) of every
        (level, point) pair.  ``table`` is the backing ``(T, F)`` feature
        table of all levels.  The planes and ``out`` may be point slices
        of larger arrays (one block of a query).  Every temporary comes
        from the workspace arena when one is attached, so steady-state
        queries allocate nothing.
        """
        n = points.shape[0]
        n_levels = len(self.levels)
        n_dense = self._dense_idx.size
        n_hash = n_levels - n_dense
        dt = self.policy.dtype
        bdt = self._base_dtype
        clipped = self._buf("q/clipped", (3, n), dt)
        np.clip(points.T, 0.0, 1.0, out=clipped)
        # Per-axis weights (1 - f, f): axis_w[1] first holds the scaled
        # coordinates, (3, L, N), and becomes the fraction once the base
        # coordinates are extracted.
        axis_w = self._buf("q/axis_w", (2, 3, n_levels, n), dt)
        scaled = axis_w[1]
        np.multiply(self._res_col, clipped[:, None, :], out=scaled)
        # Truncation equals floor here because ``scaled >= 0``.
        base = self._buf("q/base", (3, n_levels, n), bdt)
        np.copyto(base, scaled, casting="unsafe")
        np.minimum(base, self._max_base_col, out=base)
        if self.policy.is_reference:
            np.subtract(scaled, base, out=scaled)
        else:
            # Force the float32 loop (int32 operand would promote to
            # float64); base values are < 2**24, so the cast is exact.
            np.subtract(scaled, base, out=scaled, dtype=np.float32,
                        casting="unsafe")
        np.subtract(1.0, scaled, out=axis_w[0])

        addr4 = addr_planes.reshape(2, 4, n_levels, n)
        if n_dense:
            # Dense (collision-free) levels: linear index with x fastest.
            # All values are bounded by the level's table size, so the
            # arithmetic fits the lattice dtype by construction.
            terms = self._buf("q/dense", (3, 2, n_dense, n), bdt)
            np.multiply(base[:, None, :n_dense], self._dense_axis_strides,
                        out=terms)
            np.add(terms, self._dense_terms, out=terms)
            dxy = self._buf("q/dxy", (2, 2, n_dense, n), bdt)
            np.add(terms[0][None], terms[1][:, None], out=dxy)
            np.add(dxy.reshape(1, 4, n_dense, n), terms[2][:, None],
                   out=addr4[:, :, :n_dense])
        if n_hash:
            # Hashed levels: pi * coord and pi * (coord + 1) per axis.
            hdt = self._hash_dtype
            narrow = hdt == np.uint32       # wrapping multiply == & _MASK32
            hu = self._buf("q/hu", (3, 2, n_hash, n), hdt)
            np.add(base[:, None, n_dense:], self._coord_step, out=hu,
                   casting="unsafe")
            np.multiply(hu, self._pi_col, out=hu)
            if not narrow:
                np.bitwise_and(hu, _MASK32, out=hu)
            hxy = self._buf("q/hxy", (2, 2, n_hash, n), hdt)
            np.bitwise_xor(hu[0][None], hu[1][:, None], out=hxy)
            hz = hu[2]
            if self._hash_all_pow2:
                # ``& (T-1) == % T`` for power-of-two tables, and ``&``
                # distributes over ``^``: mask the six shared products once
                # instead of masking every corner's xor.
                np.bitwise_and(hxy, self._hash_pow2_mask_col, out=hxy)
                np.bitwise_and(hz, self._hash_pow2_mask_col, out=hz)
            # The corner hashes go straight into the int64 address planes
            # (every value is below 2**32), then take the modulo and the
            # level's global table offset in place.
            h = addr4[:, :, n_dense:]
            np.bitwise_xor(hxy.reshape(1, 4, n_hash, n), hz[:, None], out=h)
            if not self._hash_all_pow2:
                np.remainder(h, self._hash_sizes_col, out=h)
            np.add(h, self._hash_offsets_col, out=h)

        wxy = self._buf("q/wxy", (2, 2, n_levels, n), dt)
        np.multiply(axis_w[:, 0][None], axis_w[:, 1][:, None], out=wxy)
        np.multiply(wxy.reshape(1, 4, n_levels, n), axis_w[:, 2][:, None],
                    out=weight_planes.reshape(2, 4, n_levels, n))

        # A block's address rows are strided in the full planes, and
        # np.take copies strided indices into a fresh array: copy each
        # corner's rows into one reused contiguous buffer instead.
        strided = not addr_planes.flags.c_contiguous
        if strided:
            index = self._buf("q/index", (n_levels, n), np.int64)

        def corner_index(corner):
            if strided:
                np.copyto(index, addr_planes[corner])
                return index
            return addr_planes[corner]

        # F == 2 fast path: each table row is one complex64 (the flat pair
        # view), so a corner gather is a single flat take and the weighted
        # accumulation runs on complex planes whose (real, imag) parts are
        # the two features — complex128 under the float64 reference policy,
        # complex64 under float32.  Multiplying by a real weight scales both
        # features with the same compute-dtype products as the generic path.
        flat = (flat_pair_view(table)
                if self.config.n_features_per_level == 2 else None)
        if flat is not None:
            cdt = self.policy.complex_dtype
            acc = self._buf("q/acc", (n_levels, n), cdt)
            tmp = self._buf("q/tmp", (n_levels, n), cdt)
            gathered = self._buf("q/gathered", (n_levels, n), np.complex64)
            for corner in range(8):
                # Addresses are in range by construction (hash mod / dense
                # index + offset), so the gather skips bounds checks.
                np.take(flat, corner_index(corner), out=gathered,
                        mode="clip")
                if corner == 0:
                    np.multiply(weight_planes[corner], gathered, out=acc)
                else:
                    np.multiply(weight_planes[corner], gathered, out=tmp)
                    acc += tmp
            # (L, N) complex planes -> (N, L*F) float32 embeddings.
            out.reshape(n, n_levels, 2)[...] = (
                acc.view(dt).reshape(n_levels, n, 2).transpose(1, 0, 2))
        else:
            f = self.config.n_features_per_level
            acc = self._buf("q/accf", (n_levels, n, f), dt)
            acc.fill(0.0)
            corner_values = self._buf("q/cv", (n_levels, n, f), np.float32)
            tmp = self._buf("q/cvw", (n_levels, n, f), dt)
            for corner in range(8):
                np.take(table, corner_index(corner), axis=0,
                        out=corner_values, mode="clip")
                np.multiply(weight_planes[corner][:, :, None], corner_values,
                            out=tmp)
                acc += tmp
            out.reshape(n, n_levels, f)[...] = acc.transpose(1, 0, 2)

    def point_sort_keys(self, points_unit: np.ndarray) -> np.ndarray:
        """Morton code of each point's finest-level voxel (locality sort key).

        Sorting a batch by these keys makes consecutive points spatial
        neighbours at *every* level of the grid — same-voxel points repeat
        all eight corner addresses back-to-back, and coarse-level addresses
        form long constant runs — which is what the accelerator's
        backward-update merger needs to see addresses recur within its small
        matching window.  The keys are pure metadata: computing them records
        nothing and touches no table.
        """
        points_unit = np.asarray(points_unit, dtype=np.float64)
        if points_unit.ndim != 2 or points_unit.shape[1] != 3:
            raise ValueError(
                f"points must have shape (N, 3), got {points_unit.shape}")
        res = self.levels[-1].resolution
        base = (np.clip(points_unit, 0.0, 1.0) * res).astype(np.int64)
        np.minimum(base, res - 1, out=base)
        return morton_encode_3d(base[:, 0], base[:, 1], base[:, 2])

    # -- forward / backward -------------------------------------------------
    def forward(self, points: np.ndarray) -> np.ndarray:
        """Encode ``(N, 3)`` points in ``[0, 1]^3`` into ``(N, L*F)`` features.

        Queries of more than :data:`POINT_BLOCK` points run in blocks of
        that size, bit-identical to one pass.
        """
        points = np.asarray(points, dtype=self.policy.dtype)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {points.shape}")
        n = points.shape[0]
        n_levels = len(self.levels)
        out = self._buf("out", (n, self.config.n_output_features), np.float32)
        addr_planes = self._buf("addr_planes", (8, n_levels, n), np.int64)
        weight_planes = self._buf("weight_planes", (8, n_levels, n),
                                  self.policy.dtype)
        # Every engine op is per point, so blocks compute the bits of one
        # pass.  A query of at most POINT_BLOCK points, empty ones included,
        # is one pass over the whole planes.
        for lo in range(0, max(n, 1), POINT_BLOCK):
            hi = min(lo + POINT_BLOCK, n)
            self._query_into(points[lo:hi], self.table.data,
                             addr_planes[:, :, lo:hi],
                             weight_planes[:, :, lo:hi], out[lo:hi])
        self._last_access = GridAccessRecord(addr_planes, weight_planes,
                                             *self._record_layout)
        return out

    def backward(self, grad_embeddings: np.ndarray,
                 runner: Optional[Callable] = None) -> None:
        """Back-propagate the concatenated embedding gradient into the tables.

        Must be called after :meth:`forward`; uses the corner planes of the
        most recent query.  Per feature, one ``np.bincount`` over all eight
        corner planes accumulates every level's gradients at the global
        (level-offset) addresses; the float32 sums are added over the whole
        gradient table (dense) or the touched rows are emitted as one COO
        pair (``sparse``, see :meth:`_scatter_sparse`).

        ``runner`` (sparse grids only) is a pair runner, ``runner(first,
        second)`` returning both results, such as
        :meth:`~repro.core.model.DecoupledRadianceField.run_branches`: the
        COO scatter then runs as two level ranges, one per task, whose rows
        the backward concatenates.  ``None`` scatters all levels in one call.
        Either way the emitted pair is bit-identical.
        """
        record = self._last_access
        if record is None:
            raise RuntimeError("backward called before forward")
        grad_embeddings = np.asarray(grad_embeddings, dtype=self.policy.dtype)
        expected = (record.n_points, self.config.n_output_features)
        if grad_embeddings.shape != expected:
            raise ValueError(
                f"grad_embeddings shape {grad_embeddings.shape} does not match {expected}"
            )
        n = grad_embeddings.shape[0]
        n_levels = len(self.levels)
        f = self.config.n_features_per_level
        grad3 = grad_embeddings.reshape(n, n_levels, f)
        if self.sparse:
            self._backward_sparse(record, grad3, runner)
            return
        addr_planes = record.address_planes
        total = int(self._level_bounds[-1])
        acc = self._buf("bwd/acc", (f, total), np.float64)
        flat_addr = addr_planes.reshape(-1)
        for j, contrib in enumerate(self._contributions("bwd", record, grad3,
                                                        0, n_levels)):
            acc[j] = np.bincount(flat_addr, weights=contrib, minlength=total)
        self.last_touched_rows = int(np.count_nonzero(
            self._any_nonzero("bwd", acc)))
        # One contiguous add over the whole table is much cheaper than a
        # gather and scatter of the touched rows (a culled batch touches a
        # scattered half of a small table), and it changes no bit: a
        # bincount sum starts at +0.0, so it is never -0.0, and a dense
        # gradient row (a sum from the zeroed table) plus +0.0 is itself.
        acc32 = self._buf("bwd/acc32", (total, f), np.float32)
        np.copyto(acc32, acc.T, casting="same_kind")
        self.table.grad += acc32

    def _contributions(self, key: str, record: GridAccessRecord,
                       grad3: np.ndarray, lo: int, hi: int):
        """Yield, per feature, the flat float64 scatter weights of levels
        ``[lo, hi)``: corner weight times embedding gradient, laid out like
        ``address_planes[:, lo:hi]`` (corner-major), in one reused buffer.

        The product runs in the compute dtype and is upcast on store:
        float64 is the only weight dtype ``np.bincount`` sums without a
        converted copy.
        """
        n = grad3.shape[0]
        grad = self._buf(f"{key}/grad", (hi - lo, n), grad3.dtype)
        contrib = self._buf(f"{key}/contrib", (8, hi - lo, n), np.float64)
        weights = record.weight_planes[:, lo:hi]
        for j in range(grad3.shape[2]):
            grad[...] = grad3[:, lo:hi, j].T
            np.multiply(weights, grad, out=contrib)
            yield contrib.reshape(-1)

    def _backward_sparse(self, record: GridAccessRecord, grad3: np.ndarray,
                         runner: Optional[Callable]) -> None:
        """Emit the COO gradient, split over ``runner`` when one is given."""
        stored = self.table.sparse_grad
        if stored is not None:
            # A second backward before zero_grad merges into the stored
            # pair, whose arrays may be the arena views this one rewrites.
            self.table.sparse_grad = SparseGrad(rows=stored.rows.copy(),
                                                values=stored.values.copy())
        n_levels = len(self.levels)
        if runner is None:
            rows, vals = self._scatter_sparse(record, grad3, 0, n_levels, 0)
        else:
            split = self._split_level
            (rows0, vals0), (rows1, vals1) = runner(
                lambda: self._scatter_sparse(record, grad3, 0, split, 0),
                lambda: self._scatter_sparse(record, grad3, split, n_levels, 1))
            # The level ranges own ascending, disjoint table blocks, so the
            # concatenated rows are sorted unique.
            n_rows = rows0.size + rows1.size
            rows = self._buf("bwds/rows", n_rows, np.int64)
            np.concatenate((rows0, rows1), out=rows)
            vals = self._buf("bwds/vals", (n_rows, grad3.shape[2]), np.float32)
            np.concatenate((vals0, vals1), out=vals)
        self.last_touched_rows = int(rows.size)
        if rows.size:
            self.table.add_sparse_grad(rows, vals)

    def _scatter_sparse(self, record: GridAccessRecord, grad3: np.ndarray,
                        lo: int, hi: int, part: int
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Deduplicated COO scatter of levels ``[lo, hi)``: first-touch map +
        segment-sum, no sort.  Returns the range's ``(rows, values)``.

        The range's scatter trace (``8 * (hi - lo) * N`` global addresses)
        sets its addresses in the grid's ``bool`` mark array;
        ``flatnonzero`` over the range's table block reads the unique
        addresses back in ascending order, the marks are cleared (all-False
        between calls), and the slot array maps each unique address to its
        rank, so one gather gives every trace entry its unique-id.  One
        ``np.bincount`` per feature over all eight corner planes then
        segment-sums the contributions.  Rows whose float32 gradient is
        all-zero are dropped.

        Every row belongs to one level, so its contributions are summed in
        the same (corner, point) scan order whatever the range: the pair is
        bit-identical to the dense scatter minus its zeros, and the same
        for one range over all levels and for two ranges.  Two ranges touch
        disjoint blocks of the mark/slot map and of the arena (``part``
        names the buffers), so they may run on two threads at once.

        Cost is linear in the trace and touched rows plus one pass over the
        range's block of the mark array.  The returned arrays are arena
        views, valid until the next backward (one optimiser step).
        """
        key = f"bwds{part}"
        f = grad3.shape[2]
        addr = record.address_planes[:, lo:hi]
        if addr.size == 0:
            return (self._buf(f"{key}/rows", 0, np.int64),
                    self._buf(f"{key}/vals", (0, f), np.float32))
        mark, slot = self._first_touch
        mark[addr] = True
        start = int(self._level_bounds[lo])
        unique_addr = np.flatnonzero(mark[start:self._level_bounds[hi]])
        unique_addr += start
        mark[unique_addr] = False
        n_unique = int(unique_addr.size)
        slot[unique_addr] = np.arange(n_unique)
        inverse = self._buf(f"{key}/inverse", addr.shape, np.int64)
        np.take(slot, addr, out=inverse, mode="clip")
        inverse = inverse.reshape(-1)
        vals32 = self._buf(f"{key}/vals32", (n_unique, f), np.float32)
        for j, contrib in enumerate(self._contributions(key, record, grad3,
                                                        lo, hi)):
            vals32[:, j] = np.bincount(inverse, weights=contrib,
                                       minlength=n_unique)
        kept = np.flatnonzero(self._any_nonzero(key, vals32.T))
        rows = self._buf(f"{key}/rows", kept.size, np.int64)
        np.take(unique_addr, kept, out=rows, mode="clip")
        vals = self._buf(f"{key}/vals", (kept.size, f), np.float32)
        np.take(vals32, kept, axis=0, out=vals, mode="clip")
        vals += 0.0       # -0.0 -> +0.0, as in the dense path's zeroed table
        return rows, vals

    def _any_nonzero(self, key: str, columns: np.ndarray) -> np.ndarray:
        """``np.any(columns.T != 0.0, axis=1)`` as one compare + OR per
        feature of the ``(F, n)`` columns, not a reduction per row."""
        keep = self._buf(f"{key}/keep", columns.shape[1], bool)
        nz = self._buf(f"{key}/nz", columns.shape[1], bool)
        np.not_equal(columns[0], 0.0, out=keep)
        for column in columns[1:]:
            np.not_equal(column, 0.0, out=nz)
            keep |= nz
        return keep

    # -- tracing / bookkeeping ------------------------------------------------
    @property
    def last_access(self) -> Optional[GridAccessRecord]:
        """Access record of the most recent :meth:`forward` call."""
        return self._last_access

    @property
    def n_output_features(self) -> int:
        return self.config.n_output_features

    @property
    def total_table_entries(self) -> int:
        return sum(level.table_size for level in self.levels)

    def parameters(self) -> List[Parameter]:
        """The single backing table Parameter (cached list — do not mutate).

        The per-level tables are views into it; exposing one Parameter per
        grid is what lets the optimiser update (or lazily skip) the whole
        grid with a single gather/scatter set.
        """
        return self._params

    def zero_grad(self) -> None:
        for param in self._params:
            param.zero_grad()

    # -- serialisation ------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Serialisable snapshot of every level's feature table."""
        return {"tables": [level.table.state_dict() for level in self.levels]}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` into an identically configured grid."""
        tables = state["tables"]
        if len(tables) != len(self.levels):
            raise ValueError(
                f"checkpoint has {len(tables)} levels, grid has "
                f"{len(self.levels)}")
        for level, entry in zip(self.levels, tables):
            level.table.load_state_dict(entry)
