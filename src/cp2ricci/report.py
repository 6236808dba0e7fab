"""Machine-readable run reports and scan rows.

One JSON object per run: {command, config, reports[], summary}.  Exact
symbolic results are reported with the distinct marker ``"exact-zero"``,
never as the float 0.0, so regression diffs preserve the exact/approximate
distinction.  Non-finite floats, such as the infinite residual of a check
with no usable point, are written as ``null``, so every JSON file is standard
JSON; the copy that nulls them is made only when a first strict dump meets
one, so a finite report is dumped once and never copied.  Scan rows serialize
to CSV with a fixed documented header; all floats are written with shortest
round-trip formatting, so output is reproducible bit-for-bit for fixed inputs
on one platform.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, NamedTuple

EXACT_ZERO = "exact-zero"

SCAN_COLUMNS = [
    "u",
    "v",
    "theta",
    "maxRicci",
    "meanCurvSq",
    "deficit",
    "alpha",
    "hopfDefect",
    "traceA",
    "flags",
]


@dataclass
class CheckReport:
    """Outcome of one named check: status plus residual and payload.

    Reports computed on one grid share a ``grid_key`` (not serialized), so
    ``run_report`` counts each flagged point of that grid once."""

    name: str
    status: str  # "pass" | "fail"
    max_abs_residual: float | str
    details: dict[str, Any] = field(default_factory=dict)
    grid_key: str | None = field(default=None, compare=False)

    def to_dict(self) -> dict[str, Any]:
        return {
            "checkName": self.name,
            "status": self.status,
            "maxAbsResidual": self.max_abs_residual,
            "details": self.details,
        }


def passed(reports: list[CheckReport]) -> bool:
    return all(r.status == "pass" for r in reports)


def run_report(command: str, config: dict[str, Any], reports: list[CheckReport]) -> dict[str, Any]:
    """The run's JSON object; ``summary.errors`` sums the point-level error
    counts (``details["errors"]``) of its grids: once per ``grid_key``, and
    once per report without one."""
    statuses = [r.status for r in reports]
    errors: dict[Any, int] = {}
    for k, r in enumerate(reports):
        key = k if r.grid_key is None else r.grid_key
        errors[key] = max(errors.get(key, 0), r.details.get("errors", 0))
    return {
        "command": command,
        "config": config,
        "reports": [r.to_dict() for r in reports],
        "summary": {
            "total": len(reports),
            "passed": statuses.count("pass"),
            "failed": statuses.count("fail"),
            "errors": sum(errors.values()),
        },
    }


def _finite_or_none(v: Any) -> Any:
    """A copy of v with every non-finite float, however nested, made None."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _finite_or_none(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite_or_none(x) for x in v]
    return v


def _json(obj: Any) -> str:
    """``obj`` as indented standard JSON, every non-finite float written as null.
    A strict dump of a report raises ``ValueError`` only on such a float; only
    then is the ``_finite_or_none`` copy made and dumped."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False)
    except ValueError:
        return json.dumps(_finite_or_none(obj), indent=2, allow_nan=False)


def report_to_json(report: dict[str, Any]) -> str:
    """Standard JSON: non-finite residuals and details are written as null."""
    return _json(report)


class ScanRow(NamedTuple):
    """One grid point of a scan; parameter names follow the chart order."""

    u: float
    v: float
    theta: float
    max_ricci: float
    mean_curv_sq: float
    deficit: float
    alpha: float
    hopf_defect: float
    trace_a: float
    flags: str = "ok"

    def values(self) -> list[Any]:
        return list(self)

    def to_dict(self) -> dict[str, Any]:
        return dict(zip(SCAN_COLUMNS, self))


def _fmt(x: Any) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return repr(x)
    return str(x)


def scan_to_csv(rows: list[ScanRow]) -> str:
    lines = [",".join(SCAN_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def scan_to_json(rows: list[ScanRow]) -> str:
    return _json([r.to_dict() for r in rows]) + "\n"
