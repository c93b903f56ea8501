"""Read from the source with ``ast``: the engine's modules import only the
layers below them, so the enumeration oracle stays independent of what it
checks, and only the batch layer names the memo."""

import ast
from pathlib import Path

import pytest

import gapsecretary

PACKAGE = Path(gapsecretary.__file__).parent

# the package modules each engine module must not import; None forbids all
FORBIDDEN = {
    "kernels": None,
    "exact": {"kernels", "batch", "montecarlo"},
    "batch": {"montecarlo"},
}


def _package_imports(module: str) -> set[str]:
    """The package modules, or names of the package itself, that a module's
    source imports anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = "gapsecretary" if node.level else None
            base = ".".join(filter(None, (package, node.module)))
            names = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "gapsecretary":
                found.add(parts[1] if len(parts) > 1 else "gapsecretary")
    return found


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_engine_layer_imports(module):
    imported = _package_imports(module)
    forbidden = FORBIDDEN[module]
    bad = imported if forbidden is None else imported & forbidden
    assert not bad, f"{module} imports {sorted(bad)}"


def test_imports_are_read():
    assert _package_imports("batch") == {"core", "generators", "kernels"}
    assert _package_imports("exact") == {"core"}
    assert {"batch", "exact", "kernels"} <= _package_imports("montecarlo")


def _names(module: str) -> set[str]:
    """Every name a module's source reads, binds, imports or takes as an
    attribute."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_only_batch_names_the_memo():
    # the memo is dropped by the batch layer's draws alone
    naming = sorted(p.stem for p in PACKAGE.glob("*.py") if "_last_batch" in _names(p.stem))
    assert naming == ["batch"]
