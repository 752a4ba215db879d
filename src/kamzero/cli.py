"""Command-line entry points: run, nls-build, measure, check."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import driver, measure, nls
from .config import ConfigError, parse_config
from .homological import BudgetExhausted, ResonantParameter
from .reporting import EXIT_CODES, emit_measure_report, emit_report, report_json
from .series import _WEIGHT_A, _WEIGHT_P, Budgets, DomainParams, SeriesDims


def _budgets(cfg):
    return Budgets(**cfg["budgets"])


def _domain(base):
    return DomainParams(base.s1, base.r1, _WEIGHT_A, _WEIGHT_P)


def _grid(cfg):
    return measure.ParameterGrid(*(cfg["grid"][key] for key in ("lo", "hi", "samples_per_axis")))


def _model(cfg, xi_index=None):
    m = cfg["model"]
    xi = m["xi"] if xi_index is None else _grid(cfg).sample(xi_index)
    return nls.NlsModel(m["sites"], m["jmax"], xi)


def _argument_problem(cfg, command, xi_index, max_steps):
    """Why the command, --xi-index or --max-steps does not fit the config, or None."""
    mode = cfg["run"]["mode"]
    if command != "run" and mode == "synthetic":
        return "%s needs an NLS model ([run] mode = nls)" % command
    if max_steps is not None and (command not in ("run", "check") or max_steps < 1):
        return "--max-steps takes a step count >= 1, for run and check only (got %d)" % max_steps
    if xi_index is not None and (command not in ("run", "nls-build") or mode == "synthetic"):
        return "--xi-index picks a [grid] sample of the NLS model for run and nls-build"
    if command == "measure" or xi_index is not None:
        try:
            count = _grid(cfg).size
            if not 0 <= (xi_index or 0) < count:
                return "--xi-index %d is outside the %d [grid] samples" % (xi_index, count)
            _model(cfg, xi_index or 0)
        except ValueError as err:
            return "[grid] %s" % err


def _base_params(cfg, n, b):
    return driver.BaseParams(n=n, b=b, **cfg["schedule"])


def _build_problem(cfg, xi_index):
    if cfg["run"]["mode"] == "nls":
        model = _model(cfg, xi_index)
        _, kf = nls.build_nls(model, _budgets(cfg))
        base = _base_params(cfg, model.n, 1)
        return kf.N0, kf.R0, kf.dims, base
    sec = cfg["synthetic"]
    # zero modes 1..b: ``config._range_problems`` bounds the weight of mode max(jmax, b)
    dims = SeriesDims(sec["n"], (), tuple(range(1, 1 + sec["b"])), sec["jmax"])
    base = _base_params(cfg, sec["n"], sec["b"])
    N0, R0 = driver.make_synthetic_problem(
        dims, _budgets(cfg), sec["eps0"], seed=cfg["run"]["seed"],
        inject_z0=sec["inject_z0"], n_high=sec["n_high"], dp=_domain(base))
    return N0, R0, dims, base


def cmd_run(cfg, outdir, xi_index, max_steps):
    N0, R0, dims, base = _build_problem(cfg, xi_index)
    report = driver.run(N0, R0, base, dims, _domain(base),
                        max_steps=max_steps or cfg["run"]["max_steps"])
    code, jpath = emit_report(report, outdir)
    print("%s -> %s (exit %d)" % (report.verdict, jpath, code))
    return code


def cmd_nls_build(cfg, outdir, xi_index):
    model = _model(cfg, xi_index)
    bk, kf = nls.build_nls(model, _budgets(cfg))
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "hamiltonian.txt"), "w") as fh:
        fh.write(kf.R0.to_text())
    info = {
        "sites": list(model.sites),
        "jmax": model.jmax,
        "xi": [float(v) for v in model.xi],
        "alpha": [float(v) for v in kf.fmap.alpha],
        "A": [[float(v) for v in row] for row in kf.fmap.A],
        "omega": [float(v) for v in kf.N0.omega],
        "Omega": {str(j): float(v) for j, v in sorted(kf.N0.Omega.items())},
        "Gbar_sites": [[float(bk.Gbar[i, j]) for j in model.sites] for i in model.sites],
        "max_resonant_leftover": bk.max_resonant_leftover,
        "constant_dropped": {"re": kf.constant_dropped.real, "im": kf.constant_dropped.imag},
        "expansion_dropped": kf.expansion_dropped,
        "terms": len(kf.R0),
        "notes": kf.notes,
    }
    path = os.path.join(outdir, "model.json")
    with open(path, "w") as fh:
        fh.write(report_json(info))
    print("wrote %s and hamiltonian.txt" % path)
    return 0


def cmd_measure(cfg, outdir):
    model = _model(cfg)
    fmap = nls.frequency_map(model, _budgets(cfg))
    g = cfg["grid"]
    grid = _grid(cfg)
    base = _base_params(cfg, model.n, 1)
    gammas = [base.gamma1]
    while len(gammas) < g["gamma_ladder"]:
        gammas.append(gammas[-1] * 0.5)
    rungs = [driver.schedule(1, replace(base, gamma1=gamma)) for gamma in gammas]
    try:
        reps = measure.estimate_ladder(fmap, rungs, model.kam_dims(), grid, kmax=g["kmax"])
    except BudgetExhausted as err:
        print("BudgetExhausted: %s" % err, file=sys.stderr)
        return EXIT_CODES["BudgetExhausted"]
    except ValueError as err:
        # a box the frequency map overflows on
        print("argument error: [grid] %s" % err, file=sys.stderr)
        return 5
    for gamma, rep in zip(gammas, reps):
        emit_measure_report(rep, outdir, basename="measure_gamma_%g" % gamma)
    path = os.path.join(outdir, "measure_ladder.json")
    with open(path, "w") as fh:
        fh.write(report_json({"%g" % gamma: rep.fractions for gamma, rep in zip(gammas, reps)}))
    print("wrote %s" % path)
    return 0


def cmd_check(cfg, outdir, max_steps):
    model = _model(cfg)
    bk, kf = nls.build_nls(model, _budgets(cfg))
    dims = kf.dims
    results = {
        "even_k_blocks": [self_describe(v) for v in nls.parity_check(kf.R0, dims, "even_k_blocks")],
        "odd_k_blocks": [self_describe(v) for v in nls.parity_check(kf.R0, dims, "odd_k_blocks")],
        "zero_mode_linear": [self_describe(v) for v in nls.parity_check(kf.R0, dims, "zero_mode_linear")],
        "grading_violations": [self_describe(v) for v in nls.grading_violations(kf.R0, model.sites)],
        "index_classes": nls.classify_index_vectors(kf.R0, dims).value_sets(),
        "birkhoff_resonant_leftover": bk.max_resonant_leftover,
    }
    if max_steps:
        base = _base_params(cfg, model.n, 1)
        steps = driver.iterate(kf.N0, kf.R0, base, dims, _domain(base))
        per_step = []
        try:
            for _, (m, _, _, R, rec) in zip(range(max_steps), steps):
                per_step.append({
                    "m": m,
                    "zero_mode_linear": [self_describe(v) for v in
                                         nls.parity_check(R, dims, "zero_mode_linear")],
                    "delta0": rec.delta0,
                })
        except (driver.BudgetExhausted, ResonantParameter) as err:
            per_step.append({"m": len(per_step) + 1, "stopped": str(err)})
        results["steps"] = per_step
    ok = not any(results[k] for k in ("even_k_blocks", "zero_mode_linear",
                                      "grading_violations"))
    results["ok"] = ok
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "check.json")
    with open(path, "w") as fh:
        fh.write(report_json(results))
    print("%s -> %s" % ("PASS" if ok else "FAIL", path))
    return 0 if ok else 1


def self_describe(violation):
    key, mag = violation
    return {"k": list(key.k), "alpha": list(key.alpha),
            "beta": [list(p) for p in key.beta],
            "gamma": [list(p) for p in key.gamma], "magnitude": mag}


def main(argv=None):
    ap = argparse.ArgumentParser(prog="kamzero",
                                 description="Taylor-Fourier normal-form engine")
    ap.add_argument("command", choices=("run", "nls-build", "measure", "check"))
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--xi-index", type=int, default=None,
                    help="pick a parameter sample from the [grid] section")
    ap.add_argument("--max-steps", type=int, default=None)
    args = ap.parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    except ConfigError as err:
        for p in err.problems:
            print("config error: %s" % p, file=sys.stderr)
        return 5
    except OSError as err:
        print("config error: %s" % err, file=sys.stderr)
        return 5
    problem = _argument_problem(cfg, args.command, args.xi_index, args.max_steps)
    if problem:
        print("argument error: %s" % problem, file=sys.stderr)
        return 5
    outdir = args.out or cfg["output"]["dir"]
    if args.command == "run":
        return cmd_run(cfg, outdir, args.xi_index, args.max_steps)
    if args.command == "nls-build":
        return cmd_nls_build(cfg, outdir, args.xi_index)
    if args.command == "measure":
        return cmd_measure(cfg, outdir)
    return cmd_check(cfg, outdir, args.max_steps)


if __name__ == "__main__":
    sys.exit(main())
