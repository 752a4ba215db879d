"""kamzero benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload nls-torus --seed 0 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports ``kamzero`` from
``src/`` and reads ``configs/``.  Workloads: nls-torus, synthetic-sweep,
measure-ladder, or ``all`` to run each in its own fresh process.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
outside-in tracer (perfbench/tracer.py) and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch output goes
to ``.perfbench_out/<workload>/`` in the checkout, spans of a traced run to
``spans.csv`` there.
"""

from __future__ import annotations

import os

# One problem at a time on one core: BLAS must not start threads of its own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("nls-torus", "synthetic-sweep", "measure-ladder")

END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MB"),
    ("problem_s_p50", "s"), ("problem_s_p90", "s"), ("problems_per_s", "1/s"),
)

# (metric, unit); the metric name is <span name>.<field>
PER_LAYER = (
    ("series.poisson_bracket.calls", "count"),
    ("series.poisson_bracket.self_s", "s"),
    ("series.poisson_bracket.max_call_s", "s"),
    ("series.poisson_bracket.terms_in", "count"),
    ("series.poisson_bracket.terms_out", "count"),
    ("series.poisson_bracket.rows_generated", "count"),
    ("series.poisson_bracket.useful_ratio", "ratio"),
    ("series.poisson_bracket.precut_mass", "l1"),
    ("series.vector_field_norm.calls", "count"),
    ("series.vector_field_norm.self_s", "s"),
    ("series.vector_field_norm.terms_in", "count"),
    ("series.add.self_s", "s"),
    ("series.prune.self_s", "s"),
    ("series.prune.mass", "l1"),
    ("series.split_low_high.self_s", "s"),
    ("series.fourier_truncate.self_s", "s"),
    ("series.lie_transform.calls", "count"),
    ("series.lie_transform.self_s", "s"),
    ("homological.solve_homological.calls", "count"),
    ("homological.solve_homological.self_s", "s"),
    ("homological.solve_homological.solves", "count"),
    ("homological.check_nonresonance.calls", "count"),
    ("homological.check_nonresonance.self_s", "s"),
    ("homological.check_nonresonance.violations", "count"),
    ("homological.hom_residual.self_s", "s"),
    ("matrixkit.solve_dense.calls", "count"),
    ("matrixkit.solve_dense.self_s", "s"),
    ("matrixkit.det_modulus.calls", "count"),
    ("matrixkit.det_modulus.self_s", "s"),
    ("matrixkit.op_norm.calls", "count"),
    ("matrixkit.op_norm.self_s", "s"),
    ("driver.run.self_s", "s"),
    ("driver.kam_step.calls", "count"),
    ("driver.kam_step.self_s", "s"),
    ("driver.no_torus_witness.calls", "count"),
    ("driver.no_torus_witness.self_s", "s"),
    ("driver.make_synthetic_problem.self_s", "s"),
    ("measure.estimate_excluded.calls", "count"),
    ("measure.estimate_excluded.self_s", "s"),
    ("measure.lipschitz_quotients.self_s", "s"),
    ("nls.build_nls.self_s", "s"),
    ("nls.birkhoff_transform.self_s", "s"),
    ("nls.to_kam_form.self_s", "s"),
    ("reporting.emit_report.self_s", "s"),
    ("reporting.emit_report.bytes", "B"),
    ("reporting.emit_measure_report.self_s", "s"),
    ("reporting.emit_measure_report.bytes", "B"),
    ("cli.cmd_run.self_s", "s"),
    ("cli.cmd_measure.self_s", "s"),
    ("config.parse_config.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def _import_package():
    """Import kamzero from this checkout's src/, or exit non-zero without a result."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import kamzero
    except ImportError as err:
        sys.exit("perfbench: cannot import kamzero from %s: %s" % (src, err))
    if not os.path.abspath(kamzero.__file__).startswith(os.path.join(src, "")):
        sys.exit("perfbench: kamzero resolved outside %s: %s" % (src, kamzero.__file__))
    return kamzero


def _p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(res):
    walls = [p.wall for p in res.passes]
    times = [t for p in res.passes for t in p.problems]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(res.setups),
        "solve_s": statistics.median(p.wall - p.setup for p in res.passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "problem_s_p50": statistics.median(times),
        "problem_s_p90": _p90(times),
        "problems_per_s": len(times) / sum(walls),
    }


def per_layer(tracer, passes):
    """Layer metrics per pass of the workload (a maximum stays a maximum)."""
    stats = tracer.layer_stats()
    out = {"trace.overhead_s": tracer.overhead / passes}
    for name, _ in PER_LAYER:
        span, _, fld = name.rpartition(".")
        if span in stats:
            value = stats[span].get(fld, 0)
            out[name] = value if fld == "max_call_s" else value / passes
    pb = stats["series.poisson_bracket"]
    rows = pb.get("rows_generated", 0)
    out["series.poisson_bracket.useful_ratio"] = pb.get("terms_out", 0) / rows if rows else 0.0
    return out


def environment():
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "machine": platform.machine()}


def run_one(args):
    kamzero = _import_package()
    sys.path.insert(0, HERE)
    import workloads
    from tracer import Tracer

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    out = os.path.join(ROOT, ".perfbench_out", args.workload)
    os.makedirs(out, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(kamzero)
    ctx = workloads.Context(ROOT, out, args.seed, args.seconds, reference, tracer)
    res = workloads.WORKLOADS[args.workload](ctx)

    if tracer:
        metrics = per_layer(tracer, len(res.passes))
        units = dict(PER_LAYER)
        tracer.write_spans(os.path.join(out, "spans.csv"))
    else:
        metrics = end_to_end(res)
        units = dict(END_TO_END)

    failed = {problem for problem, _, _ in res.failures}
    unexpected = [f for f in res.failures if not f[2]]
    env = environment()
    print("# %s seed=%d seconds=%g trace=%d passes=%d problems=%d"
          % (args.workload, args.seed, args.seconds, args.trace, len(res.passes),
             sum(len(p.problems) for p in res.passes)))
    print("# env " + " ".join("%s=%s" % kv for kv in env.items()))
    for problem, reason, known in res.failures:
        print("# failed %s: %s%s" % (problem, reason, " [known defect]" if known else ""))
    print("# failed_frac = %.4f (%d of %d)" % (len(failed) / res.attempted, len(failed), res.attempted))
    if tracer:
        print("# traced wall_s = %.6g s (median pass; compare with a --trace 0 run)"
              % statistics.median(p.wall for p in res.passes))
    for name, value in metrics.items():
        print("%s = %.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": res.attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
