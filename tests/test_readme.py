"""The README agrees with the package: its custom-chart example runs as written, and its CLI
synopsis and module map name what the parser, the surface and check tables and ``src`` hold, and its
test section names every table of test cases."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from cp2ricci import cli
from cp2ricci.exact.checks import ALL_CHECKS

README = Path(__file__).resolve().parents[1] / "README.md"
NUMBER = r"-?(?:nan|inf|\d+\.?\d*(?:e[-+]?\d+)?)"


def _section(title: str) -> str:
    """The README text under the heading ``## title``, up to the next such heading."""
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_cli_synopsis_names_every_symbolic_check_and_surface_as_the_parser_help_does():
    # ... and every check target as the parser's choices, in their order.
    synopsis = re.search(r"```sh\n(.*?)```", _section("Command-line interface"), re.S).group(1)
    checks = re.search(r"^cp2ricci symbolic +\[(.*) \| all\]$", synopsis, re.M).group(1).split()
    surfaces = re.search(r"^cp2ricci scan +\((.*)\)$", synopsis, re.M).group(1)
    assert checks == list(ALL_CHECKS)
    assert [s.split(":")[0].split("[")[0] for s in surfaces.split(" | ")] == list(cli.SURFACES)
    (sub,) = (a for a in cli.build_parser()._actions if a.dest == "command")
    assert set(re.findall(r"^cp2ricci (\w+)", synopsis, re.M)) == set(sub.choices)

    def action(command: str, dest: str):
        return next(a for a in sub.choices[command]._actions if a.dest == dest)

    assert re.findall(r"^cp2ricci check (\w+)", synopsis, re.M) == action("check", "target").choices
    assert action("scan", "surface").help == surfaces
    assert action("symbolic", "names").help == f"subset to run (default all): {', '.join(checks)}, or 'all'"


def test_install_and_test_names_every_case_table():
    # Every module-level *_CASES table under tests/ is named where the README counts the tables.
    modules = [ast.parse(p.read_text()).body for p in (README.parent / "tests").glob("*.py")]
    targets = [t for body in modules for node in body if isinstance(node, ast.Assign) for t in node.targets]
    tables = sorted({n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name) and n.id.endswith("_CASES")})
    assert "CLI_CASES" in tables and [t for t in tables if f"`{t}`" not in _section("Install and test")] == []


def test_module_map_has_one_row_per_module():
    package = README.parent / "src" / "cp2ricci"
    modules = [p.stem for p in package.glob("*.py") if p.stem != "__init__"]
    modules += [p.name for p in package.iterdir() if (p / "__init__.py").is_file()]
    rows = re.findall(r"^\| `cp2ricci\.(\w+)` \|", _section("Module map"), re.M)
    assert sorted(rows) == sorted(modules)


def test_custom_chart_example_prints_a_finite_shape_operator_and_flags_no_grid_point():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    example = next(b for b in blocks if "SurfaceChart(" in b)
    flags = "\nfrom cp2ricci import cli\nprint(*cli._grid_points(chart, 4)[1])"
    out = subprocess.run(
        [sys.executable, "-c", example + flags],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(README.parent / "src")},
    ).stdout
    *shape, grid = out.strip().splitlines()
    values = [float(x) for x in re.findall(NUMBER, "\n".join(shape))]
    assert len(values) == 9 and len(shape) == 3, out
    assert np.isfinite(np.reshape(values, (3, 3))).all(), out
    assert grid.split() == ["ok"] * 4**3, out  # the array predicate flags no point of the sample box
