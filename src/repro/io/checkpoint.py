"""Versioned single-file checkpointing for training state.

A checkpoint is **one** flat file: a fixed header (magic, manifest and
data lengths, the manifest's CRC32), a JSON *manifest*, zero padding to a
64-byte boundary and the *data region*: every :class:`numpy.ndarray` leaf
of the state tree, raw and bit-exact, at a 64-byte-aligned offset with
zero padding between arrays.  The manifest records the tree structure,
each array's offset, dtype, shape and CRC32, the scalar leaves (including
the arbitrary-precision integers of numpy bit-generator states), a format
version and caller metadata.  No pickle is involved, so checkpoints are
safe to load from untrusted sources and stable across Python versions.  A
load reads the file with one ``readinto`` and hands out writable views.

Round-trip guarantees, which the interrupt/resume differential tests build
on:

* arrays are byte-identical (the data member stores raw buffers);
* Python ``float`` scalars round-trip exactly (JSON uses ``repr``-based
  shortest representations that parse back to the same double);
* ``int`` scalars of any magnitude round-trip exactly (JSON integers are
  unbounded), which covers PCG64's 128-bit state words.

Integrity and fault tolerance (see ``docs/reliability.md``):

* every byte of the file is checked on load (the magic, the declared
  size, the manifest's CRC32, the zero padding and each array's CRC32,
  recorded under the manifest's ``"digests"``); a failure, a manifest
  without digests or an array whose layout runs past the data region
  raises :class:`CheckpointCorruptError`;
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
import struct
import threading
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
#: Bumped whenever the file layout changes incompatibly.  Version history
#: (details in ``docs/reliability.md``): 1 — one Parameter per grid level;
#: 2 — one master-table Parameter per grid; 3 — per-array CRC32
#: ``"digests"`` and history ``health_counters`` (both arrived during
#: version 2, so a version-2 file may lack either); 4 — one ``uint8`` npz
#: data member placed by the manifest's ``"layout"``; 5 — a grid's state is
#: its one backing table (``{"table": ...}``); 6 — one flat file (header,
#: manifest, aligned data region) instead of an npz zip.
CHECKPOINT_VERSION = 6
#: Oldest version this library can still restore.  Older files (layouts
#: above; a version-2 file cannot even be verified) are refused up front
#: with a plain :class:`CheckpointError`.
CHECKPOINT_MIN_VERSION = 6
#: First bytes of every checkpoint file.
_MAGIC = b"\x89RCKPT\r\n"
#: The fixed header: magic, manifest length, data length, manifest CRC32.
_HEADER = struct.Struct("<8sQQI")
#: First bytes of an npz (zip) file, i.e. of every version <= 5 checkpoint.
_ZIP_SIGNATURE = b"PK\x03\x04"
#: Alignment of the data region and of each array's offset inside it.
_ALIGN = 64
#: Manifest placeholder key referencing an array of the data region.
_ARRAY_KEY = "__npz__"

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

    Raised for unreadable or truncated files, a bad magic, nonzero padding
    and CRC32 mismatches — the failures a torn write or silent media
    corruption produces.  Structural problems (wrong kind, unsupported
    version) stay plain :class:`CheckpointError`: they are caller bugs, not
    data loss, and must not trigger generation fallback.
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


def _corrupt(path: Path, problem: str) -> CheckpointCorruptError:
    """The error for ``path`` failing an integrity check."""
    return CheckpointCorruptError(f"corrupt checkpoint {path}: {problem}")


def _aligned(n: int) -> int:
    """``n`` rounded up to a multiple of :data:`_ALIGN`."""
    return -(-n // _ALIGN) * _ALIGN


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
            # Their bytes are object pointers, not data: the data region
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
    """Rebuild the state tree, materialising array placeholders."""
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
    exactly ``path`` (no suffix appended).

    The write is **atomic**: the file is written in a same-directory temp
    file and renamed over ``path``, so a crash or preemption mid-save never
    truncates an existing checkpoint — readers see either the old snapshot
    or the new one, which is what lets the fleet checkpoint on a cadence
    without a window where the only recoverable state is a partial file.
    The temp name embeds pid, thread id and a monotonic counter, so
    concurrent saves of the same path from different threads never collide
    on the temp file.

    The header, the manifest (each array's offset, dtype, shape and CRC32)
    and the arrays are written one by one, so a save holds no copy of the
    whole file.  With ``keep_generations=N`` (N > 1) the previous file is
    rotated to ``path.g1`` (``.g1`` to ``.g2``, ...) before the replace, so
    a later corruption of the primary file can fall back to an older
    verified snapshot.

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
        offset = _aligned(size)
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
    manifest_bytes = json.dumps(manifest).encode()
    header = _HEADER.pack(_MAGIC, len(manifest_bytes), size,
                          zlib.crc32(manifest_bytes))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.parent / (f".{path.name}.tmp{os.getpid()}-"
                              f"{threading.get_ident()}-{next(_TMP_COUNTER)}")
    try:
        with open(tmp_path, "wb") as handle:
            head = header + manifest_bytes
            handle.write(head + bytes(_aligned(len(head)) - len(head)))
            written = 0
            for key, data in raw.items():
                offset = layout[key]["offset"]
                handle.write(bytes(offset - written))
                handle.write(data)
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
    """Each array of the data region ``blob``, CRC32-checked, as a view.

    A layout that does not parse, names other arrays than the digests, or
    places an array outside ``blob`` is corruption like a digest mismatch;
    so is a nonzero byte between (or after) the arrays.
    """
    if not isinstance(layout, dict) or set(layout) != set(digests):
        raise _corrupt(path, "manifest layout does not list exactly the "
                             "digested arrays")
    members: Dict[str, np.ndarray] = {}
    spans = []
    for key, entry in layout.items():
        try:
            dtype = np.lib.format.descr_to_dtype(entry["dtype"])
            shape = tuple(int(n) for n in entry["shape"])
            offset = int(entry["offset"])
            expected = int(digests[key])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise _corrupt(path, f"bad layout of {key!r}: {exc!r}") from exc
        end = offset + dtype.itemsize * math.prod(shape)
        if offset < 0 or min(shape, default=0) < 0 or end > blob.size:
            raise _corrupt(path, f"array {key!r} at {offset}..{end} lies "
                                 f"outside the {blob.size}-byte data region")
        raw = blob[offset:end]
        if zlib.crc32(raw) != expected:
            raise _corrupt(path, f"CRC32 mismatch on array {key!r}")
        members[key] = raw.view(dtype).reshape(shape)
        spans.append((offset, end))
    cursor = 0
    for offset, end in sorted(spans) + [(blob.size, blob.size)]:
        if offset > cursor and blob[cursor:offset].any():
            raise _corrupt(path, f"nonzero padding at data bytes "
                                 f"{cursor}..{offset}")
        cursor = max(cursor, end)
    return members


def _read_verified(path: Path, expected_kind: Optional[str]) -> Checkpoint:
    """Read one file with one ``readinto`` and verify every byte of it.

    Checks run in file order: magic, declared size, manifest CRC32 and
    padding; format, version and kind; each array's CRC32 and padding.  A
    failed integrity check raises :class:`CheckpointCorruptError`; a
    structural mismatch (an npz file of version <= 5, format, version,
    kind) stays :class:`CheckpointError`.
    """
    try:
        with open(path, "rb") as handle:
            buf = bytearray(os.fstat(handle.fileno()).st_size)
            # A short read leaves zeros: the CRCs catch any that matter.
            handle.readinto(buf)
    except OSError as exc:
        raise _corrupt(path, f"unreadable: {exc}") from exc
    if buf.startswith(_ZIP_SIGNATURE):
        raise CheckpointError(
            f"{path} is an npz file: checkpoints of format versions <= 5 "
            f"are no longer read; re-create it with the current code")
    if not buf.startswith(_MAGIC) or len(buf) < _HEADER.size:
        raise _corrupt(path, "not a repro checkpoint (bad magic or "
                             "truncated header)")
    _, manifest_size, data_size, manifest_crc = _HEADER.unpack_from(buf)
    manifest_end = _HEADER.size + manifest_size
    data_start = _aligned(manifest_end)
    if len(buf) != data_start + data_size:
        raise _corrupt(path, f"{len(buf)} bytes, the header declares "
                             f"{data_start + data_size}")
    manifest_bytes = memoryview(buf)[_HEADER.size:manifest_end]
    if zlib.crc32(manifest_bytes) != manifest_crc:
        raise _corrupt(path, "CRC32 mismatch on the manifest")
    if any(buf[manifest_end:data_start]):
        raise _corrupt(path, "nonzero padding after the manifest")
    try:
        manifest = json.loads(manifest_bytes.tobytes())
    except ValueError as exc:
        raise _corrupt(path, f"undecodable manifest: {exc}") from exc
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path} has unknown format {manifest.get('format')!r}")
    version = int(manifest.get("version", -1))
    if not CHECKPOINT_MIN_VERSION <= version <= CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path} has unsupported checkpoint version {version} (this "
            f"library reads {CHECKPOINT_MIN_VERSION}..{CHECKPOINT_VERSION})")
    kind = manifest.get("kind", "state")
    if expected_kind is not None and kind != expected_kind:
        raise CheckpointError(
            f"{path} holds a {kind!r} checkpoint, expected {expected_kind!r}")
    digests = manifest.get("digests")
    if digests is None:
        raise _corrupt(path, "manifest has no digests")
    blob = np.frombuffer(buf, dtype=np.uint8, offset=data_start)
    members = _verified_views(path, blob, manifest.get("layout"), digests)
    try:
        payload = _unflatten(manifest["payload"], members)
        metadata = _unflatten(manifest.get("metadata", {}), members)
    except (KeyError, ValueError) as exc:
        raise _corrupt(path, str(exc)) from exc
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
