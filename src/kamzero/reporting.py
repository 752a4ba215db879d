"""Report emission: stable JSON plus plot-ready CSV traces."""

from __future__ import annotations

import json
import math
import os

EXIT_CODES = {
    "TorusConverged": 0,
    "NoTorusWitnessed": 2,
    "ResonantSample": 3,
    "BudgetExhausted": 4,
}

TRACE_COLUMNS = ("m", "eps_measured", "xF_norm", "residual", "delta0")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    if hasattr(obj, "item"):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None     # JSON (RFC 8259) has no Infinity or NaN
    return obj


def report_json(payload):
    """Stable JSON text: sorted keys, non-finite floats as null."""
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def trace_csv(report):
    lines = [",".join(TRACE_COLUMNS)]
    for rec in report.steps:
        lines.append("%d,%.17g,%.17g,%.17g,%.17g"
                     % (rec.m, rec.eps_measured, rec.xF_norm, rec.residual, rec.delta0))
    return "\n".join(lines) + "\n"


def emit_report(report, outdir):
    """Write run.json (stable key order) and the eps-trace CSV run_trace.csv.

    Returns (exit_code, json_path).  Verdicts map to exit codes 0/2/3/4 so
    shell pipelines can branch on the dichotomy outcome.
    """
    os.makedirs(outdir, exist_ok=True)
    jpath = os.path.join(outdir, "run.json")
    with open(jpath, "w") as fh:
        fh.write(report_json(report.as_dict()))
    with open(os.path.join(outdir, "run_trace.csv"), "w") as fh:
        fh.write(trace_csv(report))
    return EXIT_CODES[report.verdict], jpath


def emit_measure_report(report, outdir, basename):
    from .measure import rows_to_csv

    os.makedirs(outdir, exist_ok=True)
    jpath = os.path.join(outdir, basename + ".json")
    with open(jpath, "w") as fh:
        fh.write(report_json(report.as_dict()))
    with open(os.path.join(outdir, basename + ".csv"), "w") as fh:
        fh.write(rows_to_csv(report.rows))
    return 0, jpath
