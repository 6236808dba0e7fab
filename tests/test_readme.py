"""The README's custom-chart example runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"
NUMBER = r"-?(?:nan|inf|\d+\.?\d*(?:e[-+]?\d+)?)"


def test_custom_chart_example_prints_a_finite_shape_operator():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    example = next(b for b in blocks if "SurfaceChart(" in b)
    out = subprocess.run(
        [sys.executable, "-c", example],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(README.parent / "src")},
    ).stdout
    values = [float(x) for x in re.findall(NUMBER, out)]
    assert len(values) == 9 and len(out.strip().splitlines()) == 3, out
    assert np.isfinite(np.reshape(values, (3, 3))).all(), out
