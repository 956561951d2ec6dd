"""Every name a module under ``src/`` imports is referenced in it.

A deletion that leaves its import behind fails here.  Package
``__init__`` modules are skipped: their imports are the public
re-exports.  Names inside string annotations (``"Trainer"``) and names
listed in ``__all__`` count as references.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(path for path in SRC.rglob("*.py")
                 if path.name != "__init__.py")


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
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def test_no_unused_imports():
    assert len(MODULES) > 50          # the scan sees the package
    unused = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        referenced = _referenced(tree)
        names = sorted(name for name in _imported(tree)
                       if name not in referenced)
        if names:
            unused[str(path.relative_to(SRC))] = names
    assert not unused, f"unused imports: {unused}"
