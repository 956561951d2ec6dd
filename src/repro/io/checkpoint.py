"""Versioned single-file checkpointing for training state.

A checkpoint is **one** ``.npz`` file with two members.  ``__data__`` is a
``uint8`` array holding every :class:`numpy.ndarray` leaf of the state tree,
raw and bit-exact, each at a 64-byte-aligned offset.  ``__manifest__`` is a
JSON *manifest* that records the tree structure, each array's offset, dtype,
shape and CRC32, the scalar leaves (including the arbitrary-precision
integers of numpy bit-generator states), a format version and caller
metadata.  The format needs no pickle (``allow_pickle=False`` throughout),
so checkpoints are safe to load from untrusted sources and stable across
Python versions.  A load reads the data member once and hands out views
into it.

Round-trip guarantees, which the interrupt/resume differential tests build
on:

* arrays are byte-identical (the data member stores raw buffers);
* Python ``float`` scalars round-trip exactly (JSON uses ``repr``-based
  shortest representations that parse back to the same double);
* ``int`` scalars of any magnitude round-trip exactly (JSON integers are
  unbounded), which covers PCG64's 128-bit state words.

Integrity and fault tolerance (see ``docs/reliability.md``):

* every array's CRC32 is recorded in the manifest under ``"digests"`` at
  save and verified on load; a mismatch (or an unreadable archive, a
  manifest without digests, or an array whose recorded layout runs past
  the data member) raises :class:`CheckpointCorruptError`;
* ``save_checkpoint(..., keep_generations=N)`` rotates the previous file
  to ``path.g1`` (and ``.g1`` to ``.g2``, ...) before the atomic replace,
  keeping the newest ``N`` snapshots;
* when the primary file is corrupt (or missing) and generation files
  exist, :func:`load_checkpoint` quarantines the bad file (renamed to
  ``*.corrupt``) and falls back to the newest generation that verifies,
  so a torn write degrades the scene to its previous snapshot instead of
  losing it.

Layered on the generic :func:`save_checkpoint` / :func:`load_checkpoint`
pair are trainer-level helpers used by
:class:`~repro.training.fleet.SceneFleet` for preemptible scheduling:
:func:`save_trainer_checkpoint` captures a
:class:`~repro.training.trainer.Trainer` (model parameters, both Adam
optimisers, occupancy grid, RNG streams, iteration counters) plus its
:class:`~repro.training.trainer.TrainingHistory`, and
:func:`load_trainer_checkpoint` restores them into a freshly constructed
trainer so the run continues bit-identically.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
import zipfile
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

import numpy as np

from repro.reliability.faults import fault_point

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.training.trainer import Trainer, TrainingHistory

#: Identifies the file format inside the manifest.
CHECKPOINT_FORMAT = "repro-checkpoint"
#: Bumped whenever the manifest layout changes incompatibly.
#: Version history:
#:   1 — original layout (hash grids exposed one Parameter per level, so
#:       optimiser moments were keyed/shaped per level);
#:   2 — each grid's levels are backed by a single master-table Parameter:
#:       optimiser state holds one table-sized moment array per grid;
#:   3 — every manifest records per-array CRC32 ``"digests"`` and trainer
#:       histories carry ``health_counters``.  Both arrived during version
#:       2, so a version-2 file may lack either;
#:   4 — every array lives in one ``uint8`` data member at the offset,
#:       dtype and shape the manifest's ``"layout"`` records, instead of
#:       one npz member per array;
#:   5 — a hash grid's state is its one backing table
#:       (``{"table": <parameter state>}``) instead of one table per level.
CHECKPOINT_VERSION = 5
#: Oldest version this library can still restore.  Older files are
#: rejected up front with a clear error: version-1 optimiser state cannot
#: be mapped onto the master-table parameters, a version-2 file cannot be
#: verified, a version-3 file keeps one npz member per array, and a
#: version-4 file stores each grid level's table separately.
CHECKPOINT_MIN_VERSION = 5
#: npz member that stores the JSON manifest.
_MANIFEST_KEY = "__manifest__"
#: npz member that stores every array's bytes.
_DATA_KEY = "__data__"
#: Alignment of each array's offset inside the data member.
_ALIGN = 64
#: Manifest placeholder key referencing an array of the data member.
_ARRAY_KEY = "__npz__"
#: What reading a damaged archive raises.  Beyond plain I/O and decode
#: errors, a corrupted zip layer surfaces as ``BadZipFile`` (CRC or header
#: mismatch), ``EOFError`` (empty file), ``NotImplementedError`` (flipped
#: compression-method bits) or ``RuntimeError`` (flipped encryption flag).
_ARCHIVE_ERRORS = (OSError, ValueError, EOFError, zlib.error,
                   zipfile.BadZipFile, NotImplementedError, RuntimeError)

PathLike = Union[str, Path]


#: Upper bound on the generation chain, purely a sanity cap.
_MAX_GENERATIONS = 64
#: Serialises the per-process temp-name counter.
_TMP_COUNTER = itertools.count()


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, malformed, or of an unsupported version."""


class NonFiniteCheckpointError(CheckpointError):
    """Refused to persist a state tree containing non-finite values.

    Raised by :func:`save_checkpoint` (unless ``allow_non_finite=True``)
    when any floating array leaf holds a NaN or infinity.  A checkpoint is
    the durable copy of a scene — persisting a numerically poisoned state
    would outlive the diverged run and re-poison every later restore, so
    the refusal is the default.
    """


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file exists but fails integrity verification.

    Raised for unreadable archives, undecodable manifests and CRC32 digest
    mismatches — the failures a torn write or silent media corruption
    produces.  Structural problems (wrong kind, unsupported version) stay
    plain :class:`CheckpointError`: they are caller bugs, not data loss,
    and must not trigger generation fallback.
    """


@dataclass
class CheckpointIOStats:
    """Process-wide counters for the integrity/fallback machinery."""

    fallback_loads: int = 0
    quarantined_files: int = 0


_IO_STATS = CheckpointIOStats()


def io_stats() -> CheckpointIOStats:
    """A snapshot copy of the process-wide checkpoint I/O counters.

    Counters are cumulative for the process; callers that need deltas
    (e.g. :class:`~repro.serving.residency.ResidencyManager`) snapshot
    before and after an operation.
    """
    return replace(_IO_STATS)


@dataclass
class Checkpoint:
    """A loaded checkpoint: the state tree plus its manifest header."""

    payload: Dict[str, Any]
    kind: str
    version: int
    metadata: Dict[str, Any] = field(default_factory=dict)
    #: 0 when the primary file verified; ``k`` when the load fell back to
    #: the ``path.g{k}`` generation after quarantining newer candidates.
    fallback_generation: int = 0


def _raw_bytes(array: np.ndarray) -> np.ndarray:
    """The array's bytes as a flat ``uint8`` view (copied if not C-ordered)."""
    return np.require(array, requirements="C").reshape(-1).view(np.uint8)


def generation_path(path: PathLike, k: int) -> Path:
    """The ``k``-th retained generation of ``path`` (``k >= 1``)."""
    path = Path(path)
    return path.with_name(f"{path.name}.g{k}")


def _list_generations(path: Path) -> List[Path]:
    """Existing generation files, newest (``.g1``) first."""
    out: List[Path] = []
    for k in range(1, _MAX_GENERATIONS + 1):
        candidate = generation_path(path, k)
        if not candidate.exists():
            break
        out.append(candidate)
    return out


def _rotate_generations(path: Path, keep_generations: int) -> None:
    """Shift ``path -> .g1 -> .g2 -> ...`` keeping the newest generations.

    Callers serialise saves per path (the service holds the scene lock),
    so the rotation itself needs no locking.
    """
    oldest = generation_path(path, keep_generations - 1)
    if oldest.exists():
        oldest.unlink()
    for k in range(keep_generations - 2, 0, -1):
        source = generation_path(path, k)
        if source.exists():
            os.replace(source, generation_path(path, k + 1))
    os.replace(path, generation_path(path, 1))


def _quarantine(path: Path) -> Path:
    """Rename a corrupt file to ``*.corrupt`` (uniquified) for post-mortems."""
    target = path.with_name(f"{path.name}.corrupt")
    suffix = 0
    while target.exists():
        suffix += 1
        target = path.with_name(f"{path.name}.corrupt{suffix}")
    os.replace(path, target)
    _IO_STATS.quarantined_files += 1
    return target


def _flatten(node: Any, arrays: Dict[str, np.ndarray], path: str,
             allow_non_finite: bool = True) -> Any:
    """Split a state tree into a JSON-able skeleton and an array table.

    With ``allow_non_finite=False``, floating leaves (arrays and scalars)
    are additionally screened for NaN/inf and refused with
    :class:`NonFiniteCheckpointError`.
    """
    if isinstance(node, np.ndarray):
        if node.dtype == object:
            # Their bytes are object pointers, not data: the data member
            # could store them but no load could restore them.
            raise CheckpointError(
                f"object-dtype arrays cannot be checkpointed "
                f"(at {path or '<root>'})")
        if not allow_non_finite and np.issubdtype(node.dtype, np.floating) \
                and not np.isfinite(node).all():
            raise NonFiniteCheckpointError(
                f"refusing to persist non-finite array at "
                f"{path or '<root>'} (pass allow_non_finite=True to "
                f"override for post-mortem dumps)")
        key = f"a{len(arrays)}"
        arrays[key] = node
        return {_ARRAY_KEY: key}
    if isinstance(node, np.generic):           # numpy scalar: keep its dtype
        return _flatten(np.asarray(node), arrays, path, allow_non_finite)
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if not isinstance(key, str):
                raise CheckpointError(
                    f"checkpoint dict keys must be strings, got {key!r} at "
                    f"{path or '<root>'}")
            if key == _ARRAY_KEY:
                raise CheckpointError(
                    f"{_ARRAY_KEY!r} is reserved by the checkpoint format "
                    f"(at {path or '<root>'})")
            out[key] = _flatten(value, arrays, f"{path}.{key}" if path else key,
                                allow_non_finite)
        return out
    if isinstance(node, (list, tuple)):
        return [_flatten(value, arrays, f"{path}[{i}]", allow_non_finite)
                for i, value in enumerate(node)]
    if node is None or isinstance(node, (bool, int, float, str)):
        if not allow_non_finite and isinstance(node, float) \
                and not np.isfinite(node):
            raise NonFiniteCheckpointError(
                f"refusing to persist non-finite scalar at "
                f"{path or '<root>'} (pass allow_non_finite=True to "
                f"override for post-mortem dumps)")
        return node
    raise CheckpointError(
        f"unsupported type {type(node).__name__} at {path or '<root>'}")


def _unflatten(node: Any, data) -> Any:
    """Rebuild the state tree, materialising array placeholders from npz."""
    if isinstance(node, dict):
        if set(node.keys()) == {_ARRAY_KEY}:
            return data[node[_ARRAY_KEY]]
        return {key: _unflatten(value, data) for key, value in node.items()}
    if isinstance(node, list):
        return [_unflatten(value, data) for value in node]
    return node


def save_checkpoint(path: PathLike, payload: Dict[str, Any], *,
                    kind: str = "state",
                    metadata: Optional[Dict[str, Any]] = None,
                    keep_generations: int = 1,
                    allow_non_finite: bool = False) -> Path:
    """Write ``payload`` (a nested dict of arrays and scalars) to ``path``.

    ``kind`` tags what the payload holds (e.g. ``"trainer"``) and is checked
    on load; ``metadata`` is an arbitrary JSON-able dict stored alongside —
    use it for provenance (scene name, seed, iteration) rather than state.
    Parent directories are created as needed; the file lands whole, at
    exactly ``path`` (no implicit ``.npz`` suffix appended).

    The write is **atomic**: the archive is built in a same-directory temp
    file and renamed over ``path``, so a crash or preemption mid-save never
    truncates an existing checkpoint — readers see either the old snapshot
    or the new one, which is what lets the fleet checkpoint on a cadence
    without a window where the only recoverable state is a partial file.
    The temp name embeds pid, thread id and a monotonic counter, so
    concurrent saves of the same path from different threads never collide
    on the temp file.

    Every array is streamed into the one data member, so a save holds no
    copy of the whole file.  The manifest records each array's offset,
    dtype, shape and CRC32 digest, verified by :func:`load_checkpoint`.
    With ``keep_generations=N`` (N > 1) the previous file is rotated to
    ``path.g1`` (``.g1`` to ``.g2``, ...) before the replace, so a later
    corruption of the primary file can fall back to an older verified
    snapshot.

    Non-finite floating values in the payload are **refused** by default
    (:class:`NonFiniteCheckpointError`) — a NaN-poisoned state must not
    become the scene's durable copy.  ``allow_non_finite=True`` overrides
    the screen for deliberate post-mortem dumps.
    """
    if not 1 <= keep_generations <= _MAX_GENERATIONS:
        raise ValueError(f"keep_generations must be in "
                         f"[1, {_MAX_GENERATIONS}], got {keep_generations}")
    path = Path(path)
    arrays: Dict[str, np.ndarray] = {}
    tree = _flatten(payload, arrays, "", allow_non_finite)
    meta_tree = _flatten(metadata or {}, arrays, "metadata")
    raw: Dict[str, np.ndarray] = {}
    layout: Dict[str, Dict[str, Any]] = {}
    size = 0
    for key, array in arrays.items():
        raw[key] = _raw_bytes(array)
        offset = -(-size // _ALIGN) * _ALIGN
        layout[key] = {"offset": offset,
                       "dtype": np.lib.format.dtype_to_descr(array.dtype),
                       "shape": list(array.shape)}
        size = offset + raw[key].size
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "kind": str(kind),
        "metadata": meta_tree,
        "payload": tree,
        "layout": layout,
        "digests": {key: zlib.crc32(data) for key, data in raw.items()},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.parent / (f".{path.name}.tmp{os.getpid()}-"
                              f"{threading.get_ident()}-{next(_TMP_COUNTER)}")
    try:
        with zipfile.ZipFile(tmp_path, "w") as archive:
            with archive.open(f"{_MANIFEST_KEY}.npy", "w",
                              force_zip64=True) as member:
                np.lib.format.write_array(
                    member, np.array(json.dumps(manifest)),
                    allow_pickle=False)
            with archive.open(f"{_DATA_KEY}.npy", "w",
                              force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(
                    member, {"descr": "|u1", "fortran_order": False,
                             "shape": (size,)})
                written = 0
                for key, data in raw.items():
                    offset = layout[key]["offset"]
                    member.write(bytes(offset - written))
                    member.write(data)
                    written = offset + data.size
        if keep_generations > 1 and path.exists():
            _rotate_generations(path, keep_generations)
        os.replace(tmp_path, path)
    finally:
        if tmp_path.exists():
            tmp_path.unlink()
    # After the replace: raise-kinds model a post-write failure (the retry
    # harmlessly re-saves the same state); truncate/corrupt kinds model a
    # torn write of the final file and drive the generation-fallback path.
    fault_point("checkpoint.save", path)
    return path


def _verified_views(path: Path, blob: np.ndarray, layout: Any,
                    digests: Dict[str, Any]) -> Dict[str, np.ndarray]:
    """Each array of the data member ``blob``, CRC32-checked, as a view.

    A layout that does not parse, names other arrays than the digests, or
    places an array outside ``blob`` is corruption like a digest mismatch.
    """
    if blob.dtype != np.uint8 or blob.ndim != 1:
        raise CheckpointCorruptError(
            f"corrupt checkpoint {path}: data member is {blob.dtype} "
            f"{blob.shape}, not a flat uint8 array")
    if not isinstance(layout, dict) or set(layout) != set(digests):
        raise CheckpointCorruptError(
            f"corrupt checkpoint {path}: manifest layout does not list "
            f"exactly the digested arrays")
    members: Dict[str, np.ndarray] = {}
    for key, entry in layout.items():
        try:
            dtype = np.lib.format.descr_to_dtype(entry["dtype"])
            shape = tuple(int(n) for n in entry["shape"])
            offset = int(entry["offset"])
            expected = int(digests[key])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CheckpointCorruptError(
                f"corrupt checkpoint {path}: bad layout of array {key!r}: "
                f"{exc!r}") from exc
        end = offset + dtype.itemsize * math.prod(shape)
        if offset < 0 or min(shape, default=0) < 0 or end > blob.size:
            raise CheckpointCorruptError(
                f"corrupt checkpoint {path}: array {key!r} at bytes "
                f"{offset}..{end} lies outside the {blob.size}-byte data "
                f"member")
        raw = blob[offset:end]
        if zlib.crc32(raw) != expected:
            raise CheckpointCorruptError(
                f"corrupt checkpoint {path}: CRC32 mismatch on array {key!r}")
        members[key] = raw.view(dtype).reshape(shape)
    return members


def _read_verified(path: Path, expected_kind: Optional[str]) -> Checkpoint:
    """Read one file, reading its data member once, and verify every array.

    Corruption-class failures (unreadable archive, undecodable manifest,
    digest mismatch, bad array layout, dangling array reference) raise
    :class:`CheckpointCorruptError`; structural mismatches (format, version,
    kind) stay :class:`CheckpointError`.
    """
    try:
        archive = np.load(path, allow_pickle=False)
    except _ARCHIVE_ERRORS as exc:
        raise CheckpointCorruptError(
            f"could not read checkpoint {path}: {exc}") from exc
    with archive as data:
        if _MANIFEST_KEY not in data.files:
            raise CheckpointCorruptError(
                f"{path} is not a repro checkpoint (missing {_MANIFEST_KEY})")
        try:
            manifest = json.loads(str(data[_MANIFEST_KEY][()]))
        except _ARCHIVE_ERRORS as exc:
            raise CheckpointCorruptError(
                f"corrupt manifest in {path}: {exc}") from exc
        if manifest.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"{path} has unknown format {manifest.get('format')!r}")
        version = int(manifest.get("version", -1))
        if not CHECKPOINT_MIN_VERSION <= version <= CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path} has unsupported checkpoint version {version} "
                f"(this library supports {CHECKPOINT_MIN_VERSION}.."
                f"{CHECKPOINT_VERSION}; older files use a layout this "
                f"library no longer reads)")
        kind = manifest.get("kind", "state")
        if expected_kind is not None and kind != expected_kind:
            raise CheckpointError(
                f"{path} holds a {kind!r} checkpoint, expected "
                f"{expected_kind!r}")
        digests = manifest.get("digests")
        if digests is None:
            raise CheckpointCorruptError(
                f"corrupt checkpoint {path}: manifest has no digests")
        try:
            blob = data[_DATA_KEY]
        except (KeyError, *_ARCHIVE_ERRORS) as exc:
            raise CheckpointCorruptError(
                f"corrupt data member in {path}: {exc!r}") from exc
        members = _verified_views(path, blob, manifest.get("layout"), digests)
        try:
            payload = _unflatten(manifest["payload"], members)
            metadata = _unflatten(manifest.get("metadata", {}), members)
        except (KeyError, ValueError) as exc:
            raise CheckpointCorruptError(
                f"corrupt checkpoint {path}: {exc}") from exc
    return Checkpoint(payload=payload, kind=kind, version=version,
                      metadata=metadata)


def load_checkpoint(path: PathLike, *,
                    expected_kind: Optional[str] = None,
                    fallback_generations: bool = True) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`CheckpointError` if the file is not a repro checkpoint,
    its version is newer than this library understands, or ``expected_kind``
    does not match the stored kind; :class:`CheckpointCorruptError` if the
    file fails integrity verification.

    When the primary file is corrupt (or missing) and ``path.g1``,
    ``path.g2``, ... generation files exist (``fallback_generations=True``,
    the default), the bad file is quarantined (renamed ``*.corrupt``) and
    the newest generation that verifies is returned instead, with
    :attr:`Checkpoint.fallback_generation` recording which one.  Without
    generation files the original error propagates and nothing is renamed.
    """
    path = Path(path)
    fault_point("checkpoint.load", path)
    generations = _list_generations(path) if fallback_generations else []
    if not path.exists() and not generations:
        raise CheckpointError(f"checkpoint file not found: {path}")
    primary_error: Optional[CheckpointCorruptError] = None
    if path.exists():
        try:
            return _read_verified(path, expected_kind)
        except CheckpointCorruptError as exc:
            if not generations:
                raise
            primary_error = exc
            _quarantine(path)
    for k, gen_path in enumerate(generations, start=1):
        try:
            checkpoint = _read_verified(gen_path, expected_kind)
        except CheckpointCorruptError:
            _quarantine(gen_path)
            continue
        _IO_STATS.fallback_loads += 1
        checkpoint.fallback_generation = k
        return checkpoint
    raise CheckpointCorruptError(
        f"checkpoint {path} is corrupt and none of its "
        f"{len(generations)} retained generation(s) verified"
    ) from primary_error


# -- trainer-level helpers ----------------------------------------------------
TRAINER_KIND = "trainer"


def save_trainer_checkpoint(path: PathLike, trainer: "Trainer",
                            history: Optional["TrainingHistory"] = None,
                            metadata: Optional[Dict[str, Any]] = None,
                            keep_generations: int = 1,
                            allow_non_finite: bool = False) -> Path:
    """Checkpoint one trainer (and optionally its history) to a single file.

    The snapshot restores bit-identically: model parameters, both optimiser
    states (moments + step counts), the occupancy grid (density planes,
    counters and probe-RNG state) and the pixel/sample RNG streams.  Under
    ``sparse_updates=True`` the optimisers' deferred lazy-moment decay is
    flushed into the snapshot (canonical plain moment arrays — no per-row
    counters on disk) and the manifest records the mode, which
    :meth:`Trainer.load_state_dict` checks against the restoring config.
    """
    meta = {"scene": trainer.dataset.name, "iteration": int(trainer.iteration),
            "sparse_updates": bool(trainer.config.sparse_updates)}
    if metadata:
        meta.update(metadata)
    return save_checkpoint(path, {"trainer": trainer.state_dict(history=history)},
                           kind=TRAINER_KIND, metadata=meta,
                           keep_generations=keep_generations,
                           allow_non_finite=allow_non_finite)


def load_trainer_checkpoint(path: PathLike, trainer: "Trainer",
                            history: Optional["TrainingHistory"] = None
                            ) -> Dict[str, Any]:
    """Restore a :func:`save_trainer_checkpoint` file into ``trainer``.

    ``trainer`` must be freshly built from the same configuration, dataset
    and seed as the checkpointed one.  When ``history`` is given it is
    filled from the stored history (the checkpoint must contain one).
    Returns the checkpoint's metadata dict.
    """
    checkpoint = load_checkpoint(path, expected_kind=TRAINER_KIND)
    try:
        trainer.load_state_dict(checkpoint.payload["trainer"], history=history)
    except (KeyError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint {path} does not match this trainer: {exc}") from exc
    return checkpoint.metadata
