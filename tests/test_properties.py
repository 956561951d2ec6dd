"""Property-based tests (hypothesis) for core data structures and invariants."""

import functools
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.accelerator.bum import BackPropUpdateMerger
from repro.accelerator.trace import morton_order_record
from repro.accelerator.sram import SRAMBankArray
from repro.core.model import DecoupledRadianceField
from repro.core.schedule import UpdateSchedule
from repro.grid.hash_encoding import HashGridConfig, MultiResHashGrid
from repro.grid.hash_function import spatial_hash
from repro.grid.interpolation import interpolate, trilinear_weights
from repro.io import CheckpointError, load_checkpoint, save_checkpoint
from repro.nerf.cameras import RayBundle
from repro.nerf.losses import mse_loss, mse_to_psnr
from repro.nerf.occupancy import OccupancyGrid
from repro.nerf import pipeline as pipeline_module
from repro.nerf.pipeline import RenderPipeline
from repro.nerf.volume_rendering import VolumeRenderer
from repro.nn.optim import Adam, _state_slot, _touched_rows
from repro.nn.parameter import Parameter
from repro.utils.morton import morton_encode_3d
from repro.utils.precision import FLOAT32, FLOAT64
from repro.utils.seeding import new_rng
from repro.utils.workspace import WorkspaceArena

from helpers import occupy
from oracles import per_level_loop, updates_in_loop


# ---------------------------------------------------------------------------
# Spatial hash (Eq. 3)
# ---------------------------------------------------------------------------
@given(
    coords=arrays(np.int64, (20, 3), elements=st.integers(min_value=0, max_value=2**20)),
    table_size=st.integers(min_value=1, max_value=2**20),
)
@settings(max_examples=50, deadline=None)
def test_spatial_hash_always_in_range(coords, table_size):
    h = spatial_hash(coords, table_size)
    assert np.all(h >= 0) and np.all(h < table_size)


@given(
    x=st.integers(min_value=0, max_value=2**16),
    y=st.integers(min_value=0, max_value=2**16),
    z=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=50, deadline=None)
def test_spatial_hash_deterministic(x, y, z):
    coords = np.array([[x, y, z]])
    assert spatial_hash(coords, 4096)[0] == spatial_hash(coords, 4096)[0]


# ---------------------------------------------------------------------------
# Trilinear interpolation
# ---------------------------------------------------------------------------
@given(frac=arrays(np.float64, (10, 3), elements=st.floats(0.0, 1.0)))
@settings(max_examples=50, deadline=None)
def test_trilinear_weights_are_a_partition_of_unity(frac):
    w = trilinear_weights(frac)
    assert np.all(w >= -1e-12)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)


@given(
    frac=arrays(np.float64, (6, 3), elements=st.floats(0.0, 1.0)),
    value=st.floats(min_value=-10.0, max_value=10.0),
)
@settings(max_examples=50, deadline=None)
def test_interpolating_constant_field_returns_constant(frac, value):
    weights = trilinear_weights(frac)
    corner_values = np.full((6, 8, 2), value)
    out = interpolate(corner_values, weights)
    np.testing.assert_allclose(out, value, atol=1e-9)


# ---------------------------------------------------------------------------
# Volume rendering (Eq. 1)
# ---------------------------------------------------------------------------
@given(
    sigmas=arrays(np.float64, (4, 6), elements=st.floats(0.0, 50.0)),
    rgbs=arrays(np.float64, (4, 6, 3), elements=st.floats(0.0, 1.0)),
)
@settings(max_examples=40, deadline=None)
def test_volume_rendering_output_bounded(sigmas, rgbs):
    t_vals = np.tile(np.linspace(0.1, 1.0, 6), (4, 1))
    deltas = np.full((4, 6), 0.15)
    out = VolumeRenderer(white_background=True).forward(sigmas, rgbs, deltas, t_vals)
    assert np.all(out.colors >= -1e-9)
    assert np.all(out.colors <= 1.0 + 1e-9)
    assert np.all(out.weights >= -1e-12)
    assert np.all(out.accumulation <= 1.0 + 1e-9)


@given(sigmas=arrays(np.float64, (3, 5), elements=st.floats(0.0, 20.0)))
@settings(max_examples=40, deadline=None)
def test_transmittance_is_monotone_non_increasing(sigmas):
    rgbs = np.ones((3, 5, 3)) * 0.5
    t_vals = np.tile(np.linspace(0.1, 1.0, 5), (3, 1))
    deltas = np.full((3, 5), 0.2)
    out = VolumeRenderer(white_background=False).forward(sigmas, rgbs, deltas, t_vals)
    assert np.all(np.diff(out.transmittance, axis=1) <= 1e-12)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------
@given(
    pred=arrays(np.float64, (5, 3), elements=st.floats(0.0, 1.0)),
    target=arrays(np.float64, (5, 3), elements=st.floats(0.0, 1.0)),
)
@settings(max_examples=50, deadline=None)
def test_mse_loss_non_negative_and_zero_iff_equal(pred, target):
    loss, grad = mse_loss(pred, target)
    assert loss >= 0.0
    assert grad.shape == pred.shape
    loss_same, _ = mse_loss(pred, pred)
    assert loss_same == 0.0


@given(mse=st.floats(min_value=1e-9, max_value=1.0))
@settings(max_examples=50, deadline=None)
def test_psnr_monotone_in_mse(mse):
    assert mse_to_psnr(mse) <= mse_to_psnr(mse / 2.0) + 1e-9


# ---------------------------------------------------------------------------
# Update schedules
# ---------------------------------------------------------------------------
@given(
    freq=st.floats(min_value=0.05, max_value=1.0),
    n=st.integers(min_value=1, max_value=400),
)
@settings(max_examples=50, deadline=None)
def test_schedule_update_count_matches_frequency(freq, n):
    schedule = UpdateSchedule(freq)
    updates = updates_in_loop(schedule, n)
    # floor((i+1)f) - floor(if) summed telescopes to floor(nf).
    assert updates == int(np.floor(n * freq + 1e-9)) or updates == int(np.floor(n * freq))


# ---------------------------------------------------------------------------
# Accelerator components
# ---------------------------------------------------------------------------
@given(
    addresses=arrays(np.int64, st.integers(1, 300),
                     elements=st.integers(min_value=0, max_value=63)),
    entries=st.integers(min_value=1, max_value=32),
    timeout=st.integers(min_value=1, max_value=32),
)
@settings(max_examples=50, deadline=None)
def test_bum_write_count_bounds(addresses, entries, timeout):
    result = BackPropUpdateMerger(n_entries=entries, timeout_cycles=timeout).process(addresses)
    n_unique = len(np.unique(addresses))
    assert n_unique <= result.n_sram_writes <= result.n_updates
    assert result.n_merged == result.n_updates - result.n_sram_writes


@given(
    addresses=arrays(np.int64, st.integers(1, 200),
                     elements=st.integers(min_value=0, max_value=1023)),
    n_banks=st.sampled_from([4, 8, 16, 32]),
)
@settings(max_examples=50, deadline=None)
def test_sram_batch_cycles_bounded_by_batch_size(addresses, n_banks):
    sram = SRAMBankArray(n_banks=n_banks)
    cycles = sram.cycles_for_batch(addresses)
    assert 1 <= cycles <= addresses.size


# ---------------------------------------------------------------------------
# Sparse (COO) grid backward
# ---------------------------------------------------------------------------
_COO_GRID = HashGridConfig(n_levels=4, n_features_per_level=2,
                           log2_hashmap_size=10, base_resolution=4,
                           finest_resolution=32)


@given(
    points=arrays(np.float64, st.tuples(st.integers(0, 120), st.just(3)),
                  elements=st.floats(0.0, 1.0)),
    grad_seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_coo_backward_is_the_dense_scatter_minus_its_zeros(points, grad_seed):
    grad = new_rng(grad_seed).standard_normal(
        (len(points), _COO_GRID.n_output_features))
    dense = MultiResHashGrid(_COO_GRID, rng=new_rng(0))
    dense.forward(points)
    dense.zero_grad()
    dense.backward(grad)
    coo = MultiResHashGrid(_COO_GRID, rng=new_rng(0), sparse=True)
    coo.forward(points)
    coo.zero_grad()
    coo.backward(grad)
    rows = np.flatnonzero(np.any(dense.table.grad != 0.0, axis=1))
    sparse = coo.table.sparse_grad
    got_rows = np.zeros(0, np.int64) if sparse is None else sparse.rows
    np.testing.assert_array_equal(got_rows, rows)
    if sparse is not None:                # bit-equal, sign of zero included
        np.testing.assert_array_equal(sparse.values.view(np.uint32),
                                      dense.table.grad[rows].view(np.uint32))


# ---------------------------------------------------------------------------
# Row-split lazy Adam
# ---------------------------------------------------------------------------
_TABLE_ROWS = 48


@st.composite
def _row_sets(draw):
    """A sorted unique row set of the table (possibly empty or one row)."""
    rows = draw(st.sets(st.integers(0, _TABLE_ROWS - 1), max_size=_TABLE_ROWS))
    return np.array(sorted(rows), dtype=np.int64)


def _set_rows_grad(param, rows, seed):
    param.zero_grad()
    if rows.size:
        param.add_sparse_grad(rows, new_rng(seed).standard_normal(
            (rows.size, 2)).astype(np.float32))


def _split_step(opt, param, split):
    """``opt.step()`` with the sparse parameter's touched rows updated as
    the two slices ``[split:]`` then ``[:split]``."""
    opt._step_count += 1
    bias1 = 1.0 - opt.beta1 ** opt._step_count
    bias2 = 1.0 - opt.beta2 ** opt._step_count
    rows, vals = _touched_rows(param)
    if rows.size == 0:
        return
    state = (_state_slot(opt._m, 0, param.data),
             _state_slot(opt._v, 0, param.data),
             _state_slot(opt._last_step, 0, param.data, dtype=np.int32))
    opt._step_rows(state, param, rows[split:], vals[split:], bias1, bias2, 1)
    opt._step_rows(state, param, rows[:split], vals[:split], bias1, bias2, 0)


@given(history=st.lists(_row_sets(), max_size=3), rows=_row_sets(),
       split_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**16),
       arena=st.booleans())
@settings(max_examples=80, deadline=None)
def test_row_split_lazy_adam_equals_unsplit(history, rows, split_frac, seed,
                                            arena):
    init = new_rng(seed).standard_normal((_TABLE_ROWS, 2))
    optimizers = []
    for _ in range(2):
        param = Parameter(init, "table")
        param.sparse = True
        opt = Adam([param], lr=1e-2)
        if arena:
            opt.set_arena(WorkspaceArena())
        optimizers.append((opt, param))
    # Earlier steps leave rows with different pending decay (k >= 1).
    for step, earlier in enumerate(history):
        for opt, param in optimizers:
            _set_rows_grad(param, earlier, seed + step + 1)
            opt.step()
    (whole, whole_param), (split, split_param) = optimizers
    before = split_param.data.copy()
    state_before = {name: getattr(split, name)[0].copy()
                    for name in ("_m", "_v", "_last_step")
                    if 0 in getattr(split, name)}
    for param in (whole_param, split_param):
        _set_rows_grad(param, rows, seed)
    whole.step()
    _split_step(split, split_param, int(round(split_frac * rows.size)))

    np.testing.assert_array_equal(split_param.data.view(np.uint32),
                                  whole_param.data.view(np.uint32))
    for name in ("_m", "_v", "_last_step"):
        assert getattr(whole, name).keys() == getattr(split, name).keys()
        for index, array in getattr(whole, name).items():
            np.testing.assert_array_equal(
                getattr(split, name)[index].view(np.uint32),
                array.view(np.uint32))
    # Untouched rows never move: parameter, moments and last-touch step.
    untouched = np.setdiff1d(np.arange(_TABLE_ROWS), rows)
    np.testing.assert_array_equal(split_param.data[untouched],
                                  before[untouched])
    for name, array in state_before.items():
        np.testing.assert_array_equal(getattr(split, name)[0][untouched],
                                      array[untouched])


# ---------------------------------------------------------------------------
# Grid engine vs the frozen per-level loop oracle
# ---------------------------------------------------------------------------
@st.composite
def _grid_configs(draw):
    """Random grids: dense/hashed level mixes, power-of-two and scaled
    (non-power-of-two) tables, F in {1, 2, 3}."""
    base = draw(st.integers(2, 8))
    return HashGridConfig(
        n_levels=draw(st.integers(1, 5)),
        n_features_per_level=draw(st.integers(1, 3)),
        log2_hashmap_size=draw(st.integers(6, 11)),
        base_resolution=base,
        finest_resolution=draw(st.integers(base, 64)),
        size_scale=draw(st.sampled_from([1.0, 0.5, 0.3, 0.77])),
    )


_UNIT_OR_EDGE = st.one_of(st.floats(0.0, 1.0),
                          st.sampled_from([0.0, 1.0, -0.25, 1.5]))


@given(
    config=_grid_configs(),
    points=arrays(np.float64, st.tuples(st.integers(0, 40), st.just(3)),
                  elements=_UNIT_OR_EDGE),
    arena=st.booleans(),
    policy=st.sampled_from([FLOAT64, FLOAT32]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_grid_engine_equals_per_level_loop(config, points, arena, policy,
                                           seed):
    grid = MultiResHashGrid(config, rng=new_rng(seed), policy=policy,
                            arena=WorkspaceArena() if arena else None)
    grad = new_rng(seed + 1).standard_normal(
        (len(points), config.n_output_features))
    out = grid.forward(points).copy()
    out_loop, record, grad_loop = per_level_loop(grid, points, grad)
    trace = grid.last_access
    assert trace.level_offsets == record.level_offsets
    assert trace.table_sizes == record.table_sizes
    np.testing.assert_array_equal(trace.flat_addresses(),
                                  record.flat_addresses())
    for level in range(config.n_levels):
        np.testing.assert_array_equal(trace.addresses[level],
                                      record.addresses[level])
        np.testing.assert_array_equal(trace.weight_planes[:, level, :].T,
                                      record.weights[level])
    atol = 1e-10 if policy is FLOAT64 else 1e-5
    np.testing.assert_allclose(out.astype(np.float64),
                               out_loop.astype(np.float64), atol=atol)
    grid.backward(grad)
    if policy is FLOAT64:
        np.testing.assert_allclose(grid.table.grad, grad_loop,
                                   rtol=1e-5, atol=1e-7)
    else:
        np.testing.assert_allclose(grid.table.grad, grad_loop, atol=1e-4)
    # Chunking and the arena are bookkeeping only: bit-identical results.
    plain = MultiResHashGrid(config, rng=new_rng(seed), policy=policy)
    np.testing.assert_array_equal(plain.forward(points), out)
    plain.backward(grad)
    np.testing.assert_array_equal(plain.table.grad, grid.table.grad)


@given(
    config=_grid_configs(),
    points=arrays(np.float64, st.tuples(st.integers(0, 40), st.just(3)),
                  elements=_UNIT_OR_EDGE),
    copies=st.lists(st.tuples(st.integers(0, 39),
                              st.sampled_from([0.0, 1e-7, -1e-7])),
                    max_size=20),
    policy=st.sampled_from([FLOAT64, FLOAT32]),
)
@settings(max_examples=60, deadline=None)
def test_morton_order_record_moves_whole_points_stably(config, points,
                                                        copies, policy):
    """The trace-side order permutes points, nothing else: each point's
    8 x L addresses move together with their weights, every level keeps its
    address multiset, and same-voxel points keep their batch order."""
    if len(points):                 # (near-)duplicates share a voxel key
        extra = [points[i % len(points)] + jitter for i, jitter in copies]
        points = np.vstack([points] + [np.reshape(extra, (-1, 3))])
    grid = MultiResHashGrid(config, rng=new_rng(0), policy=policy)
    grid.forward(points)
    record = grid.last_access
    res = grid.levels[-1].resolution
    ordered = morton_order_record(record, res)

    # Recover the permutation from the point rows (equal rows in batch
    # order: their addresses and weights are equal too).
    unused = list(range(record.n_points))
    order = []
    for row in ordered.points:
        match = next(j for j in unused
                     if np.array_equal(record.points[j], row))
        unused.remove(match)
        order.append(match)
    order = np.asarray(order, dtype=np.int64)
    assert not unused
    np.testing.assert_array_equal(ordered.address_planes,
                                  record.address_planes[:, :, order])
    np.testing.assert_array_equal(ordered.weight_planes,
                                  record.weight_planes[:, :, order])
    for level in range(config.n_levels):
        np.testing.assert_array_equal(np.sort(ordered.flat_addresses(level)),
                                      np.sort(record.flat_addresses(level)))
    voxels = np.minimum((np.clip(record.points.astype(np.float64), 0.0, 1.0)
                         * res).astype(np.int64), res - 1)
    keys = morton_encode_3d(voxels[:, 0], voxels[:, 1], voxels[:, 2])
    assert np.all(np.diff(keys[order]) >= 0)
    for key in np.unique(keys):
        same = order[keys[order] == key]
        assert np.all(np.diff(same) > 0)


# ---------------------------------------------------------------------------
# Checkpoint integrity under arbitrary byte corruption
# ---------------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _saved_checkpoint():
    """A small mixed payload and the bytes of its saved checkpoint file."""
    payload = {"weights": np.arange(12, dtype=np.float32).reshape(6, 2),
               "moments": {"m": np.full(5, 0.25), "steps": 7},
               "history": [1.5, np.arange(3)],
               "name": "scene"}
    with tempfile.TemporaryDirectory() as tmp:
        raw = save_checkpoint(Path(tmp) / "c.npz", payload,
                              kind="t").read_bytes()
    return payload, raw


def _assert_same_tree(got, expected):
    assert type(got) is type(expected)
    if isinstance(expected, dict):
        assert got.keys() == expected.keys()
        for key in expected:
            _assert_same_tree(got[key], expected[key])
    elif isinstance(expected, list):
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            _assert_same_tree(a, b)
    elif isinstance(expected, np.ndarray):
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
    else:
        assert got == expected


@given(
    edits=st.lists(st.tuples(st.sampled_from(["flip", "overwrite"]),
                             st.integers(0, 2**31 - 1),
                             st.integers(0, 255)), max_size=3),
    truncate=st.one_of(st.none(), st.integers(0, 2**31 - 1)),
)
@settings(max_examples=300, deadline=None)
def test_corrupt_checkpoint_loads_intact_or_raises_checkpoint_error(edits,
                                                                    truncate):
    """Byte flips, overwrites and truncations either leave a payload equal
    to the original or raise a ``CheckpointError`` (corruption included) —
    never a raw zipfile/numpy exception and never silently wrong data."""
    payload, raw = _saved_checkpoint()
    buf = bytearray(raw)
    for kind, pos, value in edits:
        pos %= len(buf)
        if kind == "flip":
            buf[pos] ^= 1 << (value % 8)
        else:
            buf[pos] = value
    if truncate is not None:
        del buf[truncate % len(buf):]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.npz"
        path.write_bytes(bytes(buf))
        try:
            loaded = load_checkpoint(path, expected_kind="t")
        except CheckpointError:          # CheckpointCorruptError included
            return
    _assert_same_tree(loaded.payload, payload)


# ---------------------------------------------------------------------------
# Coalesced serving renders
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def coalescing_pipeline(tiny_config, tiny_dataset):
    """A culled pipeline whose grid marks only the scene's central cells
    occupied, so rays can be made fully culled by moving their origin."""
    grid = OccupancyGrid(seed=0)
    occupy(grid, new_rng(0).uniform(0.3, 0.7, size=(2048, 3)))
    pipeline = RenderPipeline(DecoupledRadianceField(tiny_config, seed=0),
                              tiny_dataset.scene_bound, n_samples=8,
                              occupancy=grid, arena=WorkspaceArena())
    return pipeline, tiny_dataset.test_views[0].camera.all_rays()


@given(
    requests=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 400),
                                st.booleans()), min_size=1, max_size=5),
    chunk=st.integers(1, 64),
)
@settings(max_examples=30, deadline=None)
def test_coalesced_render_matches_solo_renders(coalescing_pipeline, requests,
                                               chunk):
    """Any mix of request bundles, all-culled ones included, renders the
    same coalesced as alone, wherever the shared query's chunk boundaries
    fall (``DEFAULT_CHUNK_POINTS`` shrunk so that blocks cross them)."""
    pipeline, rays = coalescing_pipeline
    bundles = []
    for start, length, culled in requests:
        start %= rays.n_rays
        stop = min(start + length, rays.n_rays)
        origins = rays.origins[start:stop]
        if culled:                         # every sample in an empty corner
            origins = np.full_like(origins, -40.0)
        bundles.append(RayBundle(origins=origins,
                                 directions=rays.directions[start:stop],
                                 near=rays.near, far=rays.far))
    with mock.patch.object(pipeline_module, "DEFAULT_CHUNK_POINTS", chunk):
        views = pipeline_module.render_coalesced(pipeline, bundles,
                                                 arena=WorkspaceArena())
    assert len(views) == len(bundles)
    for (_, _, culled), bundle, view in zip(requests, bundles, views):
        solo = pipeline.render_rays(bundle, rng=None)
        if culled:
            assert view.n_queried == 0
        assert view.n_queried == solo.n_queried
        assert view.n_total == solo.n_total
        np.testing.assert_allclose(view.colors, solo.render.colors,
                                   rtol=0, atol=1e-8)
        np.testing.assert_allclose(view.depth, solo.render.depth,
                                   rtol=0, atol=1e-8)
