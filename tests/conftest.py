import numpy as np
import pytest

from kamzero.nls import NlsModel, build_nls
from kamzero.series import Budgets


# canonical desk-scale instance: two tangential sites, eight modes, the
# constant mode as the single zero-frequency direction
XI = np.array([4e-3, 3e-3])


@pytest.fixture(scope="session")
def nls_build():
    model = NlsModel(sites=(1, 2), jmax=8, xi=XI, taylor_depth=2)
    budgets = Budgets(degree_max=6, k_max=512)
    bk, kf = build_nls(model, budgets)
    return model, bk, kf


# the benchmark's synthetic sweep: both shipped synthetic shapes at b = 1, 2
# and program seeds 0-29, 120 problems
SWEEP_SHAPES = (("synthetic", 1), ("synthetic", 2), ("no_torus", 1), ("no_torus", 2))
SWEEP_SEEDS = range(30)


@pytest.fixture(scope="session")
def sweep_gate_calls(tmp_path_factory):
    """Every solver-gate, solver and escape-witness call of one sweep pass,
    and each problem's verdict.

    Returns {"checks": [(args, failures)], "solves": [(args, kwargs)],
    "witnesses": [(args, kwargs, (escaped, record))], "verdicts": {label:
    {"verdict": .., "m": ..}}}, the calls recorded where ``driver`` makes
    them and the labels ``<shape>-b<b>-seed<seed>`` as the benchmark names
    its problems.
    """
    import json
    import os
    from unittest import mock

    from kamzero import cli, driver

    configs = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "configs")
    calls = {"checks": [], "solves": [], "witnesses": [], "verdicts": {}}
    check, solve, witness = driver.check_nonresonance, driver.solve_homological, driver.no_torus_witness

    def traced_check(*args):
        out = check(*args)
        calls["checks"].append((args, out))
        return out

    def traced_solve(*args, **kwargs):
        calls["solves"].append((args, kwargs))
        return solve(*args, **kwargs)

    def traced_witness(*args, **kwargs):
        out = witness(*args, **kwargs)
        calls["witnesses"].append((args, kwargs, out))
        return out

    outdir = str(tmp_path_factory.mktemp("sweep"))
    with mock.patch.object(driver, "check_nonresonance", traced_check), \
            mock.patch.object(driver, "solve_homological", traced_solve), \
            mock.patch.object(driver, "no_torus_witness", traced_witness):
        for shape, b in SWEEP_SHAPES:
            with open(os.path.join(configs, shape + ".cfg")) as fh:
                text = fh.read()
            for seed in SWEEP_SEEDS:
                cfg = cli.parse_config(text + "\n[run]\nseed = %d\n[synthetic]\nb = %d\n"
                                       % (seed, b))
                cli.cmd_run(cfg, outdir, None, None)
                with open(os.path.join(outdir, "run.json")) as fh:
                    report = json.load(fh)
                calls["verdicts"]["%s-b%d-seed%d" % (shape, b, seed)] = {
                    "verdict": report["verdict"], "m": report["verdict_info"].get("m")}
    return calls
