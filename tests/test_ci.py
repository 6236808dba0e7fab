"""The CLI expectations of the tier-1 workflow hold in-process.

Every step of ``.github/workflows/tier1.yml`` that runs ``cp2ricci`` is
replayed through ``cli.main``: each invocation must exit with 0, or N where a
``test "$status" -eq N`` line follows it (an argparse error exits through
``SystemExit``), and each ``cmp`` of two files must find them equal.
``$RUNNER_TEMP`` is a fresh temporary directory.  A ``2> FILE`` redirection
writes the invocation's standard error to FILE, every warning included
(shown each time it is raised), and the step's ``test ! -s FILE``,
``grep -q Traceback FILE`` and ``head -c N FILE`` lines are checked on it;
other redirections are dropped.  Each ``python3 benchmarks/run.py`` line is
not run but checked: it names a workload of the benchmark runner, or all,
and a trace mode of 0 or 1.
"""

import contextlib
import functools
import importlib.util
import io
import re
import shlex
import warnings
from pathlib import Path

import pytest

from cp2ricci import cli

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
STATUS = re.compile(r'test "\$status" -eq (\d+)')
# A check on a file the step wrote, as (pattern naming the file, predicate
# of the match and the file's text).
FILE_CHECKS = [
    (re.compile(r'test ! -s "(?P<file>[^"]+)"'), lambda m, text: text == ""),
    (
        re.compile(r'if grep -q Traceback "(?P<file>[^"]+)"; then exit 1; fi'),
        lambda m, text: "Traceback" not in text,
    ),
    (
        re.compile(r'test "\$\(head -c (?P<n>\d+) "(?P<file>[^"]+)"\)" = "(?P<head>[^"]*)"'),
        lambda m, text: text.encode()[: int(m["n"])] == m["head"].encode(),
    ),
]


def _steps() -> dict[str, list[list]]:
    """Step name -> its replayed lines in order: ["cp2ricci", words, expected
    status, stderr file or None], ["cmp", words] and ["file", line, match,
    predicate]."""
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
            err = words[cut + 1] if cut is not None and words[cut] == "2>" else None
            if words[0] == "cmp":
                steps.setdefault(name, []).append(["cmp", words[:cut]])
            else:
                steps.setdefault(name, []).append(["cp2ricci", words[:cut], 0, err])
        elif (m := STATUS.fullmatch(line)) and name in steps:
            steps[name][-1][2] = int(m[1])
        else:
            for pattern, holds in FILE_CHECKS:
                if m := pattern.fullmatch(line):
                    steps.setdefault(name, []).append(["file", line, m, holds])
    return steps


STEPS = _steps()


def _main(args: list[str]) -> tuple[int, str]:
    """``cli.main(args)``: its exit status and its standard error, warnings
    included."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            status = cli.main(args)
        except SystemExit as exc:
            status = exc.code
    shown = (warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
    return status, err.getvalue() + "".join(shown)


def _replay(name: str, tmp: Path) -> None:
    def path(word: str) -> Path:
        p = Path(word.replace("$RUNNER_TEMP", str(tmp)))
        return p if p.is_absolute() else ROOT / p

    for kind, *line in STEPS[name]:
        if kind == "cmp":
            words = line[0]
            a, b = (path(x) for x in words[1:])
            assert a.read_bytes() == b.read_bytes(), f"{words}"
        elif kind == "file":
            text, match, holds = line
            assert holds(match, path(match["file"]).read_text()), f"{name}: {text}"
        else:
            words, expected, err = line
            status, stderr = _main([w.replace("$RUNNER_TEMP", str(tmp)) for w in words[1:]])
            assert status == expected, f"{words}"
            if err is not None:
                path(err).write_text(stderr)


def test_the_workflow_runs_the_cli():
    assert len(STEPS) >= 10
    assert any(kind == "cmp" for lines in STEPS.values() for kind, *_ in lines)
    used = {line[3] for lines in STEPS.values() for line in lines if line[0] == "file"}
    assert used == {holds for _, holds in FILE_CHECKS}  # every kind of file check is replayed
    # the golden crosscheck reports and the sphere check near the cut locus
    for name in ("crosscheck_g2.json", "crosscheck_g5.json"):
        assert ["cmp", ["cmp", f"$RUNNER_TEMP/{name}", f"tests/data/{name}"]] in (
            STEPS["Crosscheck report matches the golden file"]
        )
    # the flag-heavy crosscheck reports, which exit 1, against their golden files
    steps = STEPS["Crosscheck reports with flagged stencils match the golden files"]
    for k, step in enumerate(("037", "1e-200")):
        name = f"crosscheck_g2_step{step}.json"
        argv = ["cp2ricci", "crosscheck", "--grid", "2", "--step", "0.37" if step == "037" else step]
        assert steps[2 * k : 2 * k + 2] == [
            ["cp2ricci", [*argv, "--out", f"$RUNNER_TEMP/{name}"], 1, None],
            ["cmp", ["cmp", f"$RUNNER_TEMP/{name}", f"tests/data/{name}"]],
        ]
    assert len(steps) == 4
    argv = ["cp2ricci", "check", "sphere", "--radius", "1.57", "--grid", "3"]
    assert STEPS["Sphere check near the cut locus passes"] == [
        ["cp2ricci", [*argv, "--out", "$RUNNER_TEMP/check_sphere_r157_g3.json"], 0, None],
        ["cmp", ["cmp", "$RUNNER_TEMP/check_sphere_r157_g3.json", "tests/data/check_sphere_r157_g3.json"]],
    ]
    # a stencil step far above the chart scale: the builtin chart jets stay quiet
    argv = ["cp2ricci", "crosscheck", "--grid", "2", "--step", "1e300"]
    steps = STEPS["Crosscheck with a step far above the chart scale fails without warnings"]
    assert steps[0] == ["cp2ricci", argv, 1, "$RUNNER_TEMP/step300.err"]
    assert steps[1][1] == 'test ! -s "$RUNNER_TEMP/step300.err"'
    # crosscheck at its default, acceptance, size: the array masks run sin and
    # cos over whole stencils and stay quiet
    steps = STEPS["Crosscheck at its acceptance size passes without warnings"]
    assert steps[0] == ["cp2ricci", ["cp2ricci", "crosscheck"], 0, "$RUNNER_TEMP/cc.err"]
    assert steps[1][1] == 'test ! -s "$RUNNER_TEMP/cc.err"'
    # a singular stencil metric (step 0.3) and a stencil neighbour in the singular
    # locus (step 0.37): flagged rows pass through the batched kernels quietly
    steps = STEPS["Crosscheck with a singular stencil metric or stencil neighbour fails without warnings"]
    for line, step in zip(steps[0::2], ("0.3", "0.37")):
        argv = ["cp2ricci", "crosscheck", "--grid", "2", "--step", step]
        assert line == ["cp2ricci", argv, 1, f"$RUNNER_TEMP/step{step.replace('.', '')}.err"]
    assert [line[0] for line in steps] == ["cp2ricci", "file"] * 2
    # the golden perturbed scan
    assert ["cmp", ["cmp", "$RUNNER_TEMP/scan.csv", "tests/data/scan_perturbed_g4.csv"]] in (
        STEPS["Perturbed scan smoke"]
    )
    # epsilon and seed are given only inline, and only as many as the factory takes
    argv = ["cp2ricci", "scan", "perturbed-ruled:0.05,3", "--epsilon", "0.3", "--grid", "2"]
    assert STEPS["Perturbation option outside the surface is a usage error"] == [["cp2ricci", argv, 2, None]]
    argv = ["cp2ricci", "scan", "perturbed-ruled:0.05,3,4", "--grid", "2"]
    assert STEPS["Surface with too many arguments is a usage error"] == [["cp2ricci", argv, 2, None]]


def test_every_golden_file_is_compared_by_the_workflow():
    compared = {line[0][2] for lines in STEPS.values() for kind, *line in lines if kind == "cmp"}
    golden = {f"tests/data/{p.name}" for p in (ROOT / "tests" / "data").iterdir()}
    assert golden and golden <= compared


def test_the_workflow_benchmark_steps_name_a_workload_and_a_trace_mode():
    spec = importlib.util.spec_from_file_location("benchmark_run", ROOT / "benchmarks" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    lines = [raw.strip().removeprefix("run:").strip() for raw in WORKFLOW.read_text().splitlines()]
    runs = [shlex.split(line)[2:] for line in lines if line.startswith("python3 benchmarks/run.py ")]
    assert runs
    for args in runs:
        opts = {w: args[k + 1] for k, w in enumerate(args[:-1]) if w.startswith("--")}
        assert opts.get("--workload") in (*run.WORKLOAD_NAMES, "all"), args
        assert opts.get("--trace", "0") in ("0", "1"), args


@pytest.mark.parametrize(
    "name", list(STEPS), ids=lambda n: re.sub(r"\W+", "-", n).strip("-").lower()
)
def test_workflow_step_holds(name, tmp_path):
    _replay(name, tmp_path)


def test_a_warning_fails_a_step_that_expects_empty_stderr(monkeypatch, tmp_path):
    parse = cli.parse_surface

    @functools.wraps(parse)
    def noisy(*args, **kwargs):
        warnings.warn("injected", RuntimeWarning)
        return parse(*args, **kwargs)

    monkeypatch.setattr(cli, "parse_surface", noisy)
    with pytest.raises(AssertionError, match="test ! -s"):
        _replay("Perturbed scan near the float maximum passes without warnings", tmp_path)
