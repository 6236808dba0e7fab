"""The README's custom-chart example runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"
NUMBER = r"-?(?:nan|inf|\d+\.?\d*(?:e[-+]?\d+)?)"


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
