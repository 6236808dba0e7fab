"""The package's layering, read from the import statements of its source.

The exact engine (``cp2ricci.exact``) and the numerical engine meet only in
``cli``: no other module imports ``exact``, and nothing under ``exact``
imports a numerical module or numpy, whose fixed-width integers would wrap
where exact arithmetic must not.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cp2ricci"
NUMERICAL = ["charts", "frames", "shape", "curvature", "classify", "ambient"]


def _module(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _within(name: str, module: str) -> bool:
    return name == module or name.startswith(module + ".")


def imports(path: Path) -> set[str]:
    """Absolute names of every module that ``path`` imports, relative
    imports resolved; ``from m import n`` yields m and m.n, since n may be a
    submodule."""
    package = _module(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join([*base, *([node.module] if node.module else [])])
            names.add(module)
            names.update(f"{module}.{a.name}" for a in node.names)
    return names


SOURCES = sorted(PACKAGE.rglob("*.py"))
EXACT = [p for p in SOURCES if _within(_module(p), "cp2ricci.exact")]
OUTSIDE = [p for p in SOURCES if p not in EXACT and p.name != "cli.py"]


def test_imports_resolve_relative_names():
    # cli: ``from . import classify`` and ``from .exact.checks import ...``;
    # exact/checks: ``from .mpoly import ...``.
    assert {"cp2ricci.classify", "cp2ricci.exact.checks"} <= imports(PACKAGE / "cli.py")
    assert "cp2ricci.exact.mpoly" in imports(PACKAGE / "exact" / "checks.py")
    assert len(EXACT) >= 5 and len(OUTSIDE) >= 8


@pytest.mark.parametrize("path", OUTSIDE, ids=_module)
def test_only_cli_and_the_exact_engine_import_it(path):
    assert not [n for n in imports(path) if _within(n, "cp2ricci.exact")]


@pytest.mark.parametrize("path", EXACT, ids=_module)
def test_the_exact_engine_imports_no_numerical_module(path):
    forbidden = [f"cp2ricci.{m}" for m in NUMERICAL] + ["numpy"]
    assert not [n for n in imports(path) if any(_within(n, m) for m in forbidden)]
