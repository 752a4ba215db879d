"""The benchmark's workloads and the checks on their outputs.

Every workload drives the kamzero command-line layer in this process, one
problem at a time (closed loop, no extra threads), and repeats whole passes
until the requested seconds are used up (at least one pass).  Problem
construction (``nls.build_nls`` or ``driver.make_synthetic_problem``) is
timed through a hook, so set-up and solve time can be told apart without
editing the package.

A workload returns an ``Outcome``: pass timings, every construction time,
per-problem times, and the failures found by the output checks.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import traceback
from dataclasses import dataclass, field

import numpy as np

from kamzero import cli, driver, nls
from kamzero.reporting import EXIT_CODES

from tracer import clock, hook

# Acceptance tolerances of the output checks.
EPS_RTOL = 1e-8          # eps trace against the reference: equal up to rounding
RESIDUAL_REL = 1e-3      # certified residual of each step below 1e-3 eps_m
MIN_SETUPS = 3           # constructions timed per run, for a median set-up time

# synthetic-sweep: program seeds 0..PER_SHAPE-1 of each shape, 120 problems,
# each checked against the recorded verdict table; the benchmark seed sets
# the order they run in.  Program seeds drawn from the benchmark seed instead
# gave a 13 % quartile spread of the sweep time from seed to seed and a 2x
# swing of peak RSS (a few problems take 1.3 s and 140 MB), wider than any
# bound the benchmark may set.
SHAPES = (("synthetic", 1), ("synthetic", 2), ("no_torus", 1), ("no_torus", 2))
PER_SHAPE = 30


@dataclass
class Pass:
    wall: float               # seconds for the whole pass
    setup: float              # construction seconds inside the pass
    problems: list            # seconds per problem, construction to verdict


@dataclass
class Outcome:
    passes: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)   # (problem, reason, known defect)
    observed: dict = field(default_factory=dict)   # what record_reference.py stores

    def fail(self, problem, reason, known=False):
        self.failures.append((problem, reason, known))


@dataclass
class Context:
    root: str
    out: str                  # scratch output directory inside the checkout
    seed: int
    seconds: float
    reference: dict
    tracer: object = None     # perfbench.tracer.Tracer when tracing


def _passes(seconds):
    """Pass numbers until ``seconds`` are used up; each pass starts collected."""
    start = clock()
    i = 0
    while i == 0 or clock() - start < seconds:
        gc.collect()
        yield i
        i += 1


def _quiet():
    return contextlib.redirect_stdout(io.StringIO())


def _config(ctx, name):
    return os.path.join(ctx.root, "configs", name + ".cfg")


def _top_up_setups(ctx, builds, config):
    """Time extra constructions through ``nls-build`` until MIN_SETUPS.

    Skipped when tracing: set-up time is not reported then, and the extra
    builds would leak into the per-pass layer counts."""
    while len(builds) < MIN_SETUPS and not ctx.tracer:
        with _quiet():
            code = cli.main(["nls-build", "--config", config,
                             "--out", os.path.join(ctx.out, "nls-build")])
        if code != 0:
            raise RuntimeError("nls-build exited with %d" % code)


def _residual_problems(report):
    bad = []
    for step in report["steps"]:
        if not step["residual"] <= RESIDUAL_REL * step["eps_measured"]:
            bad.append("step %d residual %.3g above %.0e eps_m = %.3g"
                       % (step["m"], step["residual"], RESIDUAL_REL,
                          RESIDUAL_REL * step["eps_measured"]))
    return bad


def _source_digest(root):
    h = hashlib.sha256()
    src = os.path.join(root, "src", "kamzero")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    with open(os.path.join(root, "configs", "nls.cfg"), "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# nls-torus
# ---------------------------------------------------------------------------

def nls_torus(ctx):
    """``kamzero run configs/nls.cfg``: build, then iterate to a verdict."""
    res = Outcome()
    config = _config(ctx, "nls")
    outdir = os.path.join(ctx.out, "run")
    builds = []
    last = {}

    def keep_last(dt, args, result):
        last["R"], last["dims"] = result[1], args[3]

    with hook(nls, "build_nls", lambda dt, a, r: builds.append(dt)), \
            hook(driver, "kam_step", keep_last):
        for i in _passes(ctx.seconds):
            if ctx.tracer:
                ctx.tracer.problem = i
            first = len(builds)
            t0 = clock()
            with _quiet():
                code = cli.main(["run", "--config", config, "--out", outdir])
            wall = clock() - t0
            res.passes.append(Pass(wall, sum(builds[first:]), [wall]))
            res.attempted += 1
            for reason in _check_nls(ctx, res, code, outdir, last):
                res.fail("nls-torus pass %d" % i, reason)
            last.clear()
        _top_up_setups(ctx, builds, config)
    res.setups = builds
    return res


def _check_nls(ctx, res, code, outdir, last):
    with open(os.path.join(outdir, "run.json"), "rb") as fh:
        raw = fh.read()
    report = json.loads(raw)
    steps = report["steps"]
    obs = {"verdict": report["verdict"], "m": report["verdict_info"].get("m"),
           "exit_code": code,
           "eps_measured": [s["eps_measured"] for s in steps],
           "eps_next": [s["eps_next"] for s in steps]}
    res.observed = obs
    ref = ctx.reference.get("nls-torus")
    bad = []
    if ref is not None:
        for key in ("verdict", "m", "exit_code"):
            if obs[key] != ref[key]:
                bad.append("%s %r, reference %r" % (key, obs[key], ref[key]))
        for key in ("eps_measured", "eps_next"):
            if len(obs[key]) != len(ref[key]) or not all(
                    math.isclose(a, b, rel_tol=EPS_RTOL, abs_tol=0.0)
                    for a, b in zip(obs[key], ref[key])):
                bad.append("%s trace %r, reference %r (rtol %g)"
                           % (key, obs[key], ref[key], EPS_RTOL))
    if code != EXIT_CODES.get(report["verdict"]):
        bad.append("exit code %d does not match verdict %s" % (code, report["verdict"]))
    bad += _residual_problems(report)
    if "R" not in last:
        bad.append("no iteration step ran")
    else:
        viol = nls.parity_check(last["R"], last["dims"], "zero_mode_linear")
        if viol:
            bad.append("%d zero-mode linear parity violations on the final R" % len(viol))
    # run.json must be byte-identical between runs of the same code
    digests_path = os.path.join(ctx.out, "run_json_sha256.json")
    digests = {}
    if os.path.exists(digests_path):
        with open(digests_path) as fh:
            digests = json.load(fh)
    source = _source_digest(ctx.root)
    digest = hashlib.sha256(raw).hexdigest()
    if digests.setdefault(source, digest) != digest:
        bad.append("run.json differs from an earlier run of the same code")
    with open(digests_path, "w") as fh:
        json.dump(digests, fh)
    return bad


# ---------------------------------------------------------------------------
# synthetic-sweep
# ---------------------------------------------------------------------------

def sweep_problems(seed):
    """(shape, b, program seed) for every problem of one pass, in run order."""
    problems = [(shape, b, ps) for shape, b in SHAPES for ps in range(PER_SHAPE)]
    return [problems[i] for i in np.random.default_rng(seed).permutation(len(problems))]


def _known_overflow(exc):
    """The b = 2 schedule overflow: m ** (32 b^4) in a KamParams.gamma_* property."""
    if not isinstance(exc, OverflowError):
        return False
    last = traceback.extract_tb(exc.__traceback__)[-1]
    return last.name.startswith("gamma_") and last.filename.endswith("driver.py")


def synthetic_sweep(ctx):
    """120 synthetic problems, each built and run to a verdict."""
    res = Outcome()
    problems = sweep_problems(ctx.seed)
    texts = {}
    for shape, _ in SHAPES:
        with open(_config(ctx, shape)) as fh:
            texts[shape] = fh.read()
    table = ctx.reference.get("synthetic-sweep", {})
    outdir = os.path.join(ctx.out, "run")
    builds = []
    with hook(driver, "make_synthetic_problem", lambda dt, a, r: builds.append(dt)):
        for _ in _passes(ctx.seconds):
            first = len(builds)
            times = []
            for idx, (shape, b, ps) in enumerate(problems):
                if ctx.tracer:
                    ctx.tracer.problem = idx
                label = "%s-b%d-seed%d" % (shape, b, ps)
                t0 = clock()
                code = error = None
                try:
                    cfg = cli.parse_config(texts[shape] + "\n[run]\nseed = %d\n[synthetic]\nb = %d\n"
                                           % (ps, b))
                    with _quiet():
                        code = cli.cmd_run(cfg, outdir, None, None)
                except Exception as exc:  # a crashing problem is counted, not fatal
                    error = exc
                times.append(clock() - t0)
                res.attempted += 1
                obs, bad, known = _check_problem(error, code, outdir, table.get(label))
                res.observed[label] = obs
                for reason in bad:
                    res.fail(label, reason, known)
            # the pass is its problems' time; the output checks are not timed
            res.passes.append(Pass(sum(times), sum(builds[first:]), times))
    res.setups = builds
    return res


def _check_problem(error, code, outdir, ref):
    """(observation, failure reasons, whether the failure is the known defect)."""
    if error is not None:
        obs = {"error": type(error).__name__}
        known = _known_overflow(error) and (ref is None or ref == obs)
        where = traceback.extract_tb(error.__traceback__)[-1]
        return obs, ["%s: %s (in %s)" % (type(error).__name__, error, where.name)], known
    with open(os.path.join(outdir, "run.json")) as fh:
        report = json.load(fh)
    obs = {"verdict": report["verdict"], "m": report["verdict_info"].get("m")}
    bad = []
    if report["verdict"] not in EXIT_CODES:
        bad.append("undocumented verdict %r" % report["verdict"])
    elif code != EXIT_CODES[report["verdict"]]:
        bad.append("exit code %d for verdict %s" % (code, report["verdict"]))
    bad += _residual_problems(report)
    # a reference error entry is the known defect; a verdict in its place is a fix
    if ref is not None and "error" not in ref and obs != ref:
        bad.append("verdict %r, reference %r" % (obs, ref))
    return obs, bad, False


# ---------------------------------------------------------------------------
# measure-ladder
# ---------------------------------------------------------------------------

def measure_ladder(ctx):
    """``kamzero measure configs/nls.cfg``: three gamma rungs on a 100x100 grid."""
    res = Outcome()
    config = _config(ctx, "nls")
    outdir = os.path.join(ctx.out, "measure")
    builds = []
    with hook(nls, "build_nls", lambda dt, a, r: builds.append(dt)):
        for i in _passes(ctx.seconds):
            if ctx.tracer:
                ctx.tracer.problem = i
            first = len(builds)
            t0 = clock()
            with _quiet():
                code = cli.main(["measure", "--config", config, "--out", outdir])
            wall = clock() - t0
            res.passes.append(Pass(wall, sum(builds[first:]), [wall]))
            res.attempted += 1
            for reason in _check_measure(ctx, res, code, outdir):
                res.fail("measure-ladder pass %d" % i, reason)
        _top_up_setups(ctx, builds, config)
    res.setups = builds
    return res


def _check_measure(ctx, res, code, outdir):
    bad = [] if code == 0 else ["exit code %d" % code]
    with open(os.path.join(outdir, "measure_ladder.json")) as fh:
        gammas = sorted(json.load(fh), key=float, reverse=True)
    obs = {}
    for g in gammas:
        with open(os.path.join(outdir, "measure_gamma_%s.json" % g)) as fh:
            rep = json.load(fh)
        obs[g] = {k: rep[k] for k in ("fractions", "bounds", "per_step_bound",
                                      "cumulative_ok", "n_samples")}
        if not rep["cumulative_ok"]:
            bad.append("gamma %s: cumulative_ok is false" % g)
    res.observed = obs
    ref = ctx.reference.get("measure-ladder")
    if ref is None:
        return bad
    if sorted(obs) != sorted(ref):
        return bad + ["gamma rungs %s, reference %s" % (sorted(obs), sorted(ref))]
    for g, want in ref.items():
        got = obs[g]
        one_sample = 1.0 / want["n_samples"]
        for fam, f in want["fractions"].items():
            if abs(got["fractions"].get(fam, math.nan) - f) > one_sample + 1e-12:
                bad.append("gamma %s %s fraction %r, reference %r"
                           % (g, fam, got["fractions"].get(fam), f))
        for fam, v in want["bounds"].items():
            if not math.isclose(got["bounds"].get(fam, math.nan), v, rel_tol=EPS_RTOL):
                bad.append("gamma %s %s bound %r, reference %r" % (g, fam, got["bounds"].get(fam), v))
        if not math.isclose(got["per_step_bound"], want["per_step_bound"], rel_tol=EPS_RTOL):
            bad.append("gamma %s per-step bound %r, reference %r"
                       % (g, got["per_step_bound"], want["per_step_bound"]))
        if got["n_samples"] != want["n_samples"]:
            bad.append("gamma %s n_samples %d, reference %d" % (g, got["n_samples"], want["n_samples"]))
    return bad


WORKLOADS = {
    "nls-torus": nls_torus,
    "synthetic-sweep": synthetic_sweep,
    "measure-ladder": measure_ladder,
}
