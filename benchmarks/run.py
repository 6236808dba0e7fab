"""cp2ricci benchmark: closed-loop workloads, end-to-end metrics and a
per-layer trace.

Run from the repository root::

    python3 benchmarks/run.py --workload ruled-check --seed 0 --seconds 10 --trace 0
    python3 benchmarks/run.py --workload all

Load is one caller on one thread in a closed loop: each iteration starts
after the previous verdict has been checked.  One warm-up iteration is run
and dropped before timing; the timed loop then runs for about ``--seconds``
(at least one iteration).  BLAS runs single-threaded.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``: the
median iteration time in units of ``workloads.reference`` (``verdict_ref``;
see ``workloads`` for why), set-up measured in fresh interpreters
(``import cp2ricci.cli`` plus one ``ricci_selfcheck``, median of several),
peak RSS and the pass fraction.  It also prints the median iteration in
seconds, the throughput and the failed fraction.  ``--trace 1`` alternates untraced
iterations with iterations under ``tracer.Tracer`` and prints the per-layer
metrics.  Every iteration is gated (see ``workloads``); on the scan
the CSV's SHA-256 must also agree across iterations and across runs of the
same source and seed (kept in ``benchmarks/out/csv_digests.json``).  Spans
and a full record with provenance are written to ``benchmarks/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a missed gate shows
as ``"correct": false`` and exit code 1.  The exit code is 2 when the package
source is missing or the arguments are invalid.  ``--workload all`` exits 1
when any workload failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("ruled-check", "perturbed-scan", "oracles", "symbolic")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 7

SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import cp2ricci.cli
t1 = time.perf_counter()
cp2ricci.curvature.ricci_selfcheck()
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(runs: int, importtime: bool) -> list[dict[str, float]]:
    """Set-up cost in fresh interpreters; one unmeasured run first fills the
    bytecode and file caches."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", SETUP_CHILD]
    samples = []
    for k in range(runs + 1):
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120, check=True
        )
        import_s, selfcheck_s = (float(x) for x in proc.stdout.split())
        sample = {"import_s": import_s, "selfcheck_s": selfcheck_s}
        for line in proc.stderr.splitlines():  # "import time: self | cumulative | name"
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "cp2ricci.exact.identities":
                sample["identities_import_s"] = int(fields[0].split(":")[1]) * 1e-6
        if k:
            samples.append(sample)
    return samples


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cp2ricci").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the repository rooted at ROOT; None outside one (an enclosing
    repository's HEAD would be the wrong commit)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def read_first(path: str, prefix: str = "") -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line
    except OSError:
        pass
    return None


def load1() -> float | None:
    line = read_first("/proc/loadavg")
    return float(line.split()[0]) if line else None


def provenance(fingerprint: str) -> dict:
    import cp2ricci
    import numpy

    cpu = read_first("/proc/cpuinfo", "model name")
    return {
        "package_version": cp2ricci.__version__,
        "git_commit": git_commit(),
        "source_sha256": fingerprint,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.split(":", 1)[1].strip() if cpu else platform.processor() or None,
        "blas_threads": 1,
    }


def check_digest(fingerprint: str, scan: str, digest: str) -> str | None:
    """Record the CSV digest for this source and scan (seed and grid), or
    report a mismatch with the digest an earlier run recorded."""
    path = OUT / "csv_digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    previous = known.setdefault(fingerprint, {}).setdefault(scan, digest)
    if previous != digest:
        return f"CSV digest {digest} differs from {previous} of an earlier run"
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return None


def percentile(values, q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q)) if len(values) else 0.0


def layer_metrics(analysis, ids, workload, bytes_per_iter, untraced, traced, setup) -> dict:
    a = analysis

    def per_iter(fn) -> float:
        return float(statistics.median(fn(k) for k in ids))

    def per_point(fn) -> float:
        return per_iter(fn) / workload.points if workload.points else 0.0

    shape_ms = a.durations("shape.shape_operator") * 1e3
    metrics = {
        "frames.build_frame.calls_per_point": per_point(lambda k: a.calls("frames.build_frame", k)),
        "frames.self_s": per_iter(lambda k: a.layer_self("frames", k)),
        "frames.rank_deficient": per_iter(lambda k: a.exits("frames", "RankDeficient", k)),
        "shape.self_s": per_iter(lambda k: a.layer_self("shape", k)),
        "shape.shape_operator.ms_p50": percentile(shape_ms, 50),
        "shape.shape_operator.ms_p99": percentile(shape_ms, 99),
        "shape.asymmetry_exceeded": per_iter(lambda k: a.exits("shape", "AsymmetryExceeded", k)),
        "ambient.vectors_per_point": per_point(lambda k: a.count("ambient.vectors", k)),
        "charts.evaluate.calls_per_point": per_point(lambda k: a.calls("charts.evaluate", k)),
        "charts.partials.calls_per_point": per_point(lambda k: a.calls("charts.partials", k)),
        "charts.self_s": per_iter(lambda k: a.layer_self("charts", k)),
        "curvature.ricci_matrix.calls": per_iter(lambda k: a.calls("curvature.ricci_matrix", k)),
        "curvature.ricci_matrix.self_s": per_iter(
            lambda k: a.function_self("curvature.ricci_matrix", k)
        ),
        "curvature.selfcheck_s": statistics.median(s["selfcheck_s"] for s in setup),
        "curvature.min_sectional.self_s": per_iter(
            lambda k: a.function_self("curvature.min_sectional", k)
        ),
        "curvature.intrinsic_riemann.self_s": per_iter(
            lambda k: a.function_self("curvature.intrinsic_riemann", k)
        ),
        "curvature.crosscheck_point.ms_p50": percentile(
            a.durations("curvature.crosscheck_point") * 1e3, 50
        ),
        "classify.self_s": per_iter(lambda k: a.layer_self("classify", k)),
        "classify.hopf_point": per_iter(lambda k: a.exits("classify", "HopfPoint", k)),
    }
    for name in ("kappa", "f_emergence", "f_derivative", "resultant", "mu1", "mu0"):
        metrics[f"exact.check.{name}_s"] = per_iter(
            lambda k, n=name: a.inclusive(f"exact.checks.check_{n}", k)
        )
    metrics.update(
        {
            "exact.bareiss_det_s": per_iter(lambda k: a.inclusive("exact.resultant.bareiss_det", k)),
            "exact.mpoly.mul_calls": per_iter(lambda k: a.count("exact.mpoly.mul", k)),
            "exact.exact_divide.calls": per_iter(lambda k: a.calls("exact.mpoly.exact_divide", k)),
            "exact.identities_import_s": statistics.median(
                s["identities_import_s"] for s in setup
            ),
            "report.serialize_s": per_iter(lambda k: a.layer_self("report", k)),
            "report.bytes": float(statistics.median(bytes_per_iter)),
            "cli.self_s": per_iter(lambda k: a.layer_self("cli", k)),
            "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
        }
    )
    return metrics


def run_all(args) -> int:
    """Run every workload, each in a fresh process; 1 if any failed."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        if subprocess.run(cmd, cwd=ROOT, timeout=900).returncode:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cp2ricci" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: no package source under {SRC} or no {SPEC.name}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if args.workload == "all":
        return run_all(args)

    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})  # before numpy loads
    sys.path.insert(0, str(SRC))
    import cp2ricci

    if Path(cp2ricci.__file__).resolve().parent != SRC / "cp2ricci":
        print(f"error: cp2ricci imported from {cp2ricci.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    fingerprint = source_fingerprint()
    record: dict = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds}
    record["provenance"] = provenance(fingerprint)
    record["load1_before"], record["reference_s_before"] = load1(), workloads.reference()

    setup = measure_setup(SETUP_RUNS, importtime=bool(args.trace))
    runner = workloads.Runner(workload, args.seed)
    warm_problems = [f"warm-up: {p}" for p in runner.warm().problems]  # gated, not timed
    if args.trace:
        # Untraced and traced iterations alternate, so drift in machine speed
        # during the run cancels out of the overhead ratio.
        tracer = Tracer()
        untraced: list[float] = []
        traced: list[float] = []
        ids: list[int] = []
        begin = time.perf_counter()
        while not traced or (
            time.perf_counter() - begin + 0.5 * (untraced[-1] + traced[-1]) < args.seconds
        ):
            untraced.append(runner.timed())
            ids.append(len(runner.outcomes))
            with tracer.installed():
                traced.append(runner.timed(tracer))
        analysis = tracer.analysis()
        tracer.save(str(OUT / f"spans_{workload.name}_{args.seed}.npz"))
        nbytes = [runner.outcomes[k].out_bytes for k in ids]
        metrics = layer_metrics(analysis, ids, workload, nbytes, untraced, traced, setup)
        record["iteration_s"] = {"untraced": untraced, "traced": traced}
    else:
        times, refs = runner.loop(args.seconds)
        metrics = {
            "setup_s": statistics.median(s["import_s"] + s["selfcheck_s"] for s in setup),
            "verdict_ref": statistics.median(t / r for t, r in zip(times, refs)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["iteration_s"], record["reference_s"] = times, refs
    record["load1_after"], record["reference_s_after"] = load1(), workloads.reference()

    attempted = sum(o.ops for o in runner.outcomes)
    failed = sum(o.failed for o in runner.outcomes)
    problems = warm_problems + [p for o in runner.outcomes for p in o.problems]
    digests = sorted({o.csv_sha256 for o in runner.outcomes if o.csv_sha256})
    if digests:
        record["csv_sha256"] = digests
        scan = f"seed {args.seed} grid {workloads.SCAN_GRID}"
        mismatch = (
            f"CSV digests differ across iterations: {digests}"
            if len(digests) > 1
            else check_digest(fingerprint, scan, digests[0])
        )
        if mismatch:
            problems.append(mismatch)
    if not args.trace:
        metrics["pass_frac"] = 1.0 - failed / attempted
    names = [(m["name"], m["unit"]) for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n, _ in names if n not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": unit} for n, unit in names},
    }
    record.update(result, setup=setup, problems=problems[:50])
    out_path = OUT / f"BENCH_{workload.name}_{args.seed}_trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    samples = len(record["iteration_s"]) if not args.trace else len(ids)
    print(f"workload {workload.name} seed {args.seed}: {samples} timed iterations after a warm-up")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for key in ("load1", "reference_s"):
        print(f"{key} before {record[key + '_before']} after {record[key + '_after']}")
    if digests:
        print(f"csv_sha256 {digests[0]}")
    for problem in problems[:20]:
        print(f"MISS {problem}", file=sys.stderr)
    for n, unit in names:
        print(f"{n:40s} {metrics[n]:.6g} {unit}")
    if not args.trace:
        times = record["iteration_s"]
        print(f"{'verdict_s':40s} {statistics.median(times):.6g} s (median of {len(times)})")
        alias = "checks_per_s" if workload.points == 0 else "points_per_s"
        print(f"{alias:40s} {workload.ops * len(times) / sum(times):.6g} 1/s")
        print(f"{'failed_frac':40s} {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
