"""The tier-1 workflow runs what the repository states.

``.github/workflows/tier1.yml`` runs the Tier-1 tests by ROADMAP's "Tier-1
verify" command, a console-script smoke of a few ``CLI_CASES`` rows of
``tests/test_cli.py`` through the installed entry point, and the benchmark.
The CLI expectations themselves live in ``CLI_CASES`` alone.  Each smoke line
``expect N cp2ricci ARGS`` runs ``cp2ricci ARGS`` and requires exit status N.
Each ``python3 benchmarks/run.py`` line is not run but checked: it names a
workload of the benchmark runner, or all, and a trace mode of 0 or 1.
"""

import importlib.util
import re
import shlex
from pathlib import Path

from test_cli import CLI_CASES

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _step(name: str) -> list[str]:
    """The stripped, non-empty ``run:`` lines of the workflow step ``name``."""
    lines = WORKFLOW.read_text().splitlines()
    start = lines.index(f"      - name: {name}") + 1
    end = next((k for k in range(start, len(lines)) if lines[k].startswith("      - ")), len(lines))
    run = (line.strip().removeprefix("run:").strip() for line in lines[start:end])
    return [line for line in run if line not in ("", "|")]


def test_the_tier1_step_runs_the_roadmap_verify_command():
    (command,) = re.findall(r"^\*\*Tier-1 verify:\*\* `(.+)`$", (ROOT / "ROADMAP.md").read_text(), re.M)
    assert _step("Tier-1 tests") == [command]


def test_each_console_smoke_line_is_a_cli_case():
    # Each expect line is a CLI_CASES row with its status; each --out file is
    # compared with the row's golden file.  The smoke exits 0, 1 and 2.
    cases = {tuple(argv): (status, golden) for argv, status, golden in CLI_CASES}
    definition, *lines = _step("Console-script smoke")
    assert definition.startswith("expect() {")
    statuses, written, compared = set(), [], []
    for words in map(shlex.split, lines):
        if words[0] == "cmp":
            compared.append(words[1:])
            continue
        assert words[0] == "expect" and words[2] == "cp2ricci", words
        status, argv = int(words[1]), words[3:]
        if "--out" in argv:
            k = argv.index("--out")
            argv, out = argv[:k] + argv[k + 2 :], argv[k + 1]
            written.append([out, f"tests/data/{cases[tuple(argv)][1]}"])
        assert cases[tuple(argv)][0] == status, words
        statuses.add(status)
    assert statuses == {0, 1, 2} and written and compared == written


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
