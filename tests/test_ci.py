"""The CLI expectations of the tier-1 workflow hold in-process.

Every step of ``.github/workflows/tier1.yml`` that runs ``cp2ricci`` is
replayed through ``cli.main``: each invocation must exit with 0, or N where a
``test "$status" -eq N`` line follows it (an argparse error exits through
``SystemExit``), and each ``cmp`` of two files must find them equal.
``$RUNNER_TEMP`` is a fresh temporary directory and redirections are
dropped.
"""

import re
import shlex
from pathlib import Path

import pytest

from cp2ricci import cli

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
STATUS = re.compile(r'test "\$status" -eq (\d+)')


def _steps() -> dict[str, list[list]]:
    """Step name -> its ``cp2ricci`` and ``cmp`` lines in order, each as
    [words, expected status] (status None for ``cmp``)."""
    steps: dict[str, list[list]] = {}
    name = None
    for raw in WORKFLOW.read_text().splitlines():
        line = raw.strip()
        if line.startswith("- name:"):
            name = line.removeprefix("- name:").strip()
            continue
        line = line.removeprefix("run:").strip()
        if line.startswith(("cp2ricci ", "cmp ")):
            words = shlex.split(line)
            cut = next((k for k, w in enumerate(words) if w == "||" or w.endswith(">")), None)
            expected = 0 if words[0] == "cp2ricci" else None
            steps.setdefault(name, []).append([words[:cut], expected])
        elif (m := STATUS.fullmatch(line)) and name in steps:
            steps[name][-1][1] = int(m[1])
    return steps


STEPS = _steps()


def test_the_workflow_runs_the_cli():
    assert len(STEPS) >= 10
    assert any(words[0] == "cmp" for lines in STEPS.values() for words, _ in lines)


@pytest.mark.parametrize(
    "name", list(STEPS), ids=lambda n: re.sub(r"\W+", "-", n).strip("-").lower()
)
def test_workflow_step_holds(name, tmp_path):
    for words, expected in STEPS[name]:
        args = [w.replace("$RUNNER_TEMP", str(tmp_path)) for w in words[1:]]
        if words[0] == "cmp":
            a, b = (Path(x) if Path(x).is_absolute() else ROOT / x for x in args)
            assert a.read_bytes() == b.read_bytes(), f"{words}"
        else:
            try:
                status = cli.main(args)
            except SystemExit as exc:
                status = exc.code
            assert status == expected, f"{words}"
