"""Static scans of ``src/`` for dead code.

* Every name a module under ``src/`` imports is referenced in it.  A
  deletion that leaves its import behind fails here.  Package
  ``__init__`` modules are skipped: their imports are the public
  re-exports.  Names inside string annotations (``"Trainer"``) and names
  listed in ``__all__`` count as references.
* Every function and class defined under ``src/`` has a caller in
  ``src/``, ``benchmarks/``, ``examples/`` or ``perfbench/``, so code that
  only tests call is caught.  A reference is a name, an attribute or an
  identifier string (``getattr`` and tracer patch targets); package
  ``__init__`` re-exports and a module's own ``__all__`` entries do not
  count.  :data:`TEST_ONLY_ALLOWED` names the deliberate exceptions.
* Every field of a ``@dataclass`` class under ``src/`` is read in
  ``src/``, ``benchmarks/``, ``examples/`` or ``perfbench/``: as an
  attribute load or as an identifier string.  Writes, constructor keywords
  and annotations are not reads.  The scan matches names, so a field that
  shares its name with one read elsewhere still passes.
  :data:`UNREAD_FIELDS_ALLOWED` names the deliberate exceptions.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = sorted(path for path in SRC.rglob("*.py")
                 if path.name != "__init__.py")
CALLER_FILES = MODULES + sorted(
    path for directory in ("benchmarks", "examples", "perfbench")
    for path in (ROOT / directory).rglob("*.py"))

#: Definitions under ``src/`` that no production caller references, each
#: with the reason it stays.
TEST_ONLY_ALLOWED = {
    "replay_trace": "public BUM replay hook for recorded training traces",
    "spatial_hash": "scalar Eq. 3 hash, the grid engine's frozen oracle",
    "dense_index": "scalar dense-level index, the engine's frozen oracle",
    "trilinear_weights": "scalar trilinear weights, the engine's oracle",
    "interpolate": "scalar corner interpolation, the engine's oracle",
    "interpolate_backward": "scalar interpolation backward, the oracle's",
    "JobHandle.cancel": "public serving API, see docs/reliability.md",
    "train_fleet": "public one-call fleet entry, like train_scene",
    "new_rng": "public seeding helper, used in the README",
    "morton_order_record": "hardware-model trace order the BUM is scored on",
    "fault_injection": "public chaos-testing context manager, in the README",
}

#: Dataclass fields under ``src/`` that no production code reads, each with
#: the reason it stays.
UNREAD_FIELDS_ALLOWED = {
    "CheckpointIOStats.quarantined_files":
        "recovery diagnostic: files a load renamed to *.corrupt",
    "Checkpoint.fallback_generation":
        "recovery diagnostic: which generation a fallback load restored",
}


def _imported(tree):
    """Every name an import binds in the module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


def _annotation_names(annotation):
    """Names used by an annotation, string annotations parsed."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from _annotation_names(ast.parse(node.value, mode="eval"))


def _referenced(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            names.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            names.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            names.update(_annotation_names(node.annotation))
    return names


def _all_lists(tree):
    """The value nodes of the module's ``__all__`` assignments."""
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets)]


def test_no_unused_imports():
    assert len(MODULES) > 50          # the scan sees the package
    unused = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        referenced = _referenced(tree)
        for value in _all_lists(tree):
            referenced.update(ast.literal_eval(value))
        names = sorted(name for name in _imported(tree)
                       if name not in referenced)
        if names:
            unused[str(path.relative_to(SRC))] = names
    assert not unused, f"unused imports: {unused}"


def _definitions(tree, prefix=""):
    """``(qualified name, name)`` of every function and class, methods and
    nested definitions included; dunder methods are called implicitly."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield prefix + node.name, node.name
            yield from _definitions(node, f"{prefix}{node.name}.")
        else:
            yield from _definitions(node, prefix)


def _callers(tree):
    """Names, attributes and identifier strings a module uses.  Its own
    ``__all__`` entries only declare names, so they are not uses."""
    names = _referenced(tree)
    declared = {id(node) for value in _all_lists(tree) for node in ast.walk(value)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier() and id(node) not in declared:
            names.add(node.value)
    return names


def test_no_test_only_code():
    used = set()
    for path in CALLER_FILES:
        used |= _callers(ast.parse(path.read_text(), filename=str(path)))
    unused = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        unused.update(qualified for qualified, name in _definitions(tree)
                      if name not in used)
    assert unused - set(TEST_ONLY_ALLOWED) == set(), \
        "only tests reference these; delete them or allowlist them"
    assert set(TEST_ONLY_ALLOWED) - unused == set(), \
        "these allowlisted names have production callers now"


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (isinstance(target, ast.Name) and target.id == "dataclass") or (
        isinstance(target, ast.Attribute) and target.attr == "dataclass")


def _dataclass_fields(tree):
    """``(qualified name, name)`` of every field of a ``@dataclass``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                _is_dataclass(d) for d in node.decorator_list):
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and "ClassVar" not in ast.unparse(stmt.annotation)):
                    yield f"{node.name}.{stmt.target.id}", stmt.target.id


def _reads(tree):
    """Attribute loads and identifier strings (``getattr`` targets)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
    return names


def test_no_unread_dataclass_fields():
    read = set()
    for path in CALLER_FILES:
        read |= _reads(ast.parse(path.read_text(), filename=str(path)))
    fields = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        fields.update(_dataclass_fields(tree))
    assert len(fields) > 100          # the scan sees the dataclasses
    unread = {qualified for qualified, name in fields.items()
              if name not in read}
    assert unread - set(UNREAD_FIELDS_ALLOWED) == set(), \
        "no production code reads these fields; delete or allowlist them"
    assert set(UNREAD_FIELDS_ALLOWED) - unread == set(), \
        "these allowlisted fields are read now"
