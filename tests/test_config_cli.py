import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from kamzero.cli import main
from kamzero.config import ConfigError, parse_config
from kamzero.reporting import EXIT_CODES, report_json

MINIMAL_NLS = """
[run]
mode = nls

[model]
sites = 1 2
jmax = 6
xi = 0.004 0.003
"""

SYNTH = """
[run]
mode = synthetic
seed = 2
max_steps = 4

[synthetic]
n = 2
b = 1
jmax = 6
eps0 = 1e-6
n_high = 0

[schedule]
s1 = 0.6
r1 = 0.25
gamma1 = 0.05
tau = 3.5

[budgets]
degree_max = 6
k_max = 4096
"""


def test_parse_minimal_nls_config():
    cfg = parse_config(MINIMAL_NLS)
    assert cfg["run"]["mode"] == "nls"
    assert cfg["model"]["sites"] == (1, 2)
    assert cfg["model"]["xi"] == (0.004, 0.003)
    assert cfg["schedule"]["tau"] == 3.5  # default


def test_tau_constraint_violation():
    text = MINIMAL_NLS + "\n[schedule]\ntau = 2.0\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("tau" in p for p in err.value.problems)


def test_missing_xi_is_field_error():
    text = "[run]\nmode = nls\n\n[model]\nsites = 1 2\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("xi" in p for p in err.value.problems)


def test_unknown_key_reports_line_number():
    text = "[run]\nmode = synthetic\nbogus = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any(p.startswith("line 3:") and "bogus" in p for p in err.value.problems)


def test_type_mismatch_reports_line():
    text = "[run]\nmode = synthetic\nseed = xyz\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any(p.startswith("line 3:") for p in err.value.problems)


def test_exit_code_table():
    assert EXIT_CODES == {"TorusConverged": 0, "NoTorusWitnessed": 2,
                          "ResonantSample": 3, "BudgetExhausted": 4}


def test_report_round_trip(tmp_path):
    from kamzero.driver import (BaseParams, make_synthetic_problem, run)
    from kamzero.reporting import emit_report
    from kamzero.series import Budgets, SeriesDims

    dims = SeriesDims(2, (), (1,), 6)
    base = BaseParams(n=2, b=1, tau=3.5, s1=0.6, r1=0.25, gamma1=0.05)
    N, R = make_synthetic_problem(dims, Budgets(6, 4096), 1e-6, seed=2,
                                  n_high=0, dp=base.domain)
    rep = run(N, R, base, dims, max_steps=4)
    code, jpath = emit_report(rep, str(tmp_path))
    assert code == EXIT_CODES[rep.verdict]
    parsed = json.loads(open(jpath).read())
    assert parsed == json.loads(report_json(rep.as_dict()))
    trace = open(os.path.join(tmp_path, "run_trace.csv")).read().splitlines()
    assert trace[0] == "m,eps_measured,xF_norm,residual,delta0"
    assert len(trace) == len(rep.steps) + 1


def test_cli_run_deterministic(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(SYNTH)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "run.json").read_bytes() == (out2 / "run.json").read_bytes()


def test_cli_nls_build_and_check(tmp_path):
    cfg = tmp_path / "nls.cfg"
    cfg.write_text(MINIMAL_NLS + "\n[budgets]\ndegree_max = 4\nk_max = 128\n"
                   "\n[schedule]\ngamma1 = 0.005\nr1 = 0.02\n")
    out = tmp_path / "o"
    assert main(["nls-build", "--config", str(cfg), "--out", str(out)]) == 0
    info = json.loads((out / "model.json").read_text())
    assert info["alpha"] == [1.0, 4.0]
    assert (out / "hamiltonian.txt").read_text().startswith("# tfseries")
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == 0
    chk = json.loads((out / "check.json").read_text())
    assert chk["ok"] is True
    assert chk["zero_mode_linear"] == []
    # check's stepping branch runs the same iteration as run: its first step
    # reports what step 1 of run.json reports
    assert main(["check", "--config", str(cfg), "--out", str(out), "--max-steps", "1"]) == 0
    steps = json.loads((out / "check.json").read_text())["steps"]
    main(["run", "--config", str(cfg), "--out", str(out), "--max-steps", "1"])
    rep = json.loads((out / "run.json").read_text())
    assert len(steps) == 1 and "stopped" not in steps[0]
    assert steps[0]["m"] == rep["steps"][0]["m"] == 1
    assert steps[0]["delta0"] == rep["steps"][0]["delta0"]
    assert steps[0]["zero_mode_linear"] == []


def test_cli_bad_config_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[run]\nmode = warp\n")
    assert main(["run", "--config", str(cfg)]) == 5


def test_unreadable_config_is_config_error(tmp_path, capsys):
    # a missing file once ended in a FileNotFoundError traceback
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 5
    assert "config error: " in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path)]) == 5


def test_empty_trace_is_valid_json(tmp_path):
    from kamzero.driver import IterationReport
    from kamzero.reporting import emit_report

    rep = IterationReport("BudgetExhausted", {"m": 0}, [], {})
    code, jpath = emit_report(rep, str(tmp_path))
    assert code == 4
    parsed = json.loads(open(jpath).read())
    assert parsed["steps"] == []
    trace = open(os.path.join(tmp_path, "run_trace.csv")).read().splitlines()
    assert trace == ["m,eps_measured,xF_norm,residual,delta0"]


def test_cli_measure(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(MINIMAL_NLS + """
[budgets]
degree_max = 4
k_max = 64

[grid]
lo = 0.001 0.001
hi = 0.01 0.01
samples_per_axis = 20
kmax = 6
gamma_ladder = 2
""")
    out = tmp_path / "o"
    assert main(["measure", "--config", str(cfg), "--out", str(out)]) == 0
    ladder = json.loads((out / "measure_ladder.json").read_text())
    assert len(ladder) == 2
    csvs = [p for p in os.listdir(out) if p.endswith(".csv")]
    assert csvs
    head = open(out / csvs[0]).read().splitlines()[0]
    assert head == "family,k,l,threshold,excluded_fraction,analytic_bound"


def test_cli_measure_deterministic(tmp_path):
    # two measure runs write the same bytes to every file, as two runs of
    # ``run`` do to run.json
    cfg = tmp_path / "m.cfg"
    cfg.write_text(MINIMAL_NLS + """
[budgets]
degree_max = 4
k_max = 64

[grid]
lo = 0.001 0.001
hi = 0.01 0.01
samples_per_axis = 40
kmax = 8
gamma_ladder = 3
""")
    outs = [tmp_path / "o1", tmp_path / "o2"]
    for out in outs:
        assert main(["measure", "--config", str(cfg), "--out", str(out)]) == 0
    names = sorted(os.listdir(outs[0]))
    assert len(names) == 7 and sorted(os.listdir(outs[1])) == names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_cli_measure_ladder_writes_the_files_of_one_call_per_rung(tmp_path):
    # the CLI counts both rungs from one sort per k-row block; the files are
    # those of one estimate_excluded call per rung, emitted in turn
    from dataclasses import replace

    from kamzero import cli, driver, measure, nls
    from kamzero.reporting import emit_measure_report

    text = MINIMAL_NLS + """
[grid]
lo = 0.001 0.001
hi = 0.01 0.01
samples_per_axis = 30
kmax = 8
gamma_ladder = 2
"""
    (tmp_path / "m.cfg").write_text(text)
    out, ref = tmp_path / "o", tmp_path / "ref"
    assert main(["measure", "--config", str(tmp_path / "m.cfg"), "--out", str(out)]) == 0
    cfg = parse_config(text)
    model = cli._model(cfg)
    _, kf = nls.build_nls(model, cli._budgets(cfg))
    fmap = kf.fmap
    base = cli._base_params(cfg, model.n, 1)
    ladder = {}
    for gamma in (base.gamma1, base.gamma1 / 2):
        rep = measure.estimate_excluded(fmap, driver.schedule(1, replace(base, gamma1=gamma)),
                                        kf.dims, cli._grid(cfg), kmax=8.0)
        emit_measure_report(rep, str(ref), basename="measure_gamma_%g" % gamma)
        ladder["%g" % gamma] = rep.fractions
    (ref / "measure_ladder.json").write_text(report_json(ladder))
    names = sorted(os.listdir(ref))
    assert sorted(os.listdir(out)) == names and len(names) == 5
    for name in names:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    assert any(len((out / n).read_text().splitlines()) > 1 for n in names if n.endswith(".csv"))


def test_cli_measure_runs_no_birkhoff_transform(tmp_path, monkeypatch):
    # measure reads the frequency map from the quartic alone; its files are
    # those of the map that build_nls hands to the iteration
    from dataclasses import replace

    from kamzero import cli, driver, measure, nls
    from kamzero.reporting import emit_measure_report

    text = MINIMAL_NLS + """
[grid]
lo = 0.001 0.001
hi = 0.01 0.01
samples_per_axis = 20
kmax = 6
gamma_ladder = 2
"""
    (tmp_path / "m.cfg").write_text(text)
    cfg = parse_config(text)
    _, kf = nls.build_nls(cli._model(cfg), cli._budgets(cfg))
    base = cli._base_params(cfg, kf.dims.n, 1)
    gammas = (base.gamma1, base.gamma1 / 2)
    reps = measure.estimate_ladder(kf.fmap, [driver.schedule(1, replace(base, gamma1=g))
                                             for g in gammas], kf.dims, cli._grid(cfg), kmax=6.0)
    ref = tmp_path / "ref"
    for gamma, rep in zip(gammas, reps):
        emit_measure_report(rep, str(ref), basename="measure_gamma_%g" % gamma)
    (ref / "measure_ladder.json").write_text(
        report_json({"%g" % g: rep.fractions for g, rep in zip(gammas, reps)}))

    def refuse(*args, **kwargs):
        raise AssertionError("measure ran a Hamiltonian build stage")

    monkeypatch.setattr(nls, "birkhoff_transform", refuse)
    monkeypatch.setattr(nls, "to_kam_form", refuse)
    out = tmp_path / "o"
    assert main(["measure", "--config", str(tmp_path / "m.cfg"), "--out", str(out)]) == 0
    names = sorted(os.listdir(ref))
    assert sorted(os.listdir(out)) == names and len(names) == 5
    for name in names:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


def test_the_readme_lists_every_config_key_with_its_type_and_default():
    from kamzero.config import _SCHEMA, _parse_value

    with open(os.path.join(os.path.dirname(SHIPPED), "README.md")) as fh:
        rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \| (.+?) \| (.+?) \|$", fh.read(),
                          flags=re.M)
    listed = {(section, key): (kind.replace("`", ""), default)
              for section, key, kind, default in rows}
    assert len(listed) == len(rows)
    assert set(listed) == {(section, key) for section, keys in _SCHEMA.items() for key in keys}
    for section, keys in _SCHEMA.items():
        for key, (kind, default) in keys.items():
            text_kind, text_default = listed[section, key]
            assert text_kind == (" or ".join(kind) if isinstance(kind, tuple) else kind), key
            if default in (None, ()):
                assert text_default == "—", key
            else:
                assert _parse_value(kind, text_default) == default, key


def test_the_readme_library_sketch_runs_to_a_torus(capsys):
    with open(os.path.join(os.path.dirname(SHIPPED), "README.md")) as fh:
        text = fh.read()
    sketch, = re.findall(r"^## Library sketch\n\n```python\n(.*?)^```$", text,
                         flags=re.M | re.S)
    exec(compile(sketch, "README.md", "exec"), {})
    assert capsys.readouterr().out == "TorusConverged\n"


@pytest.mark.parametrize("key", ["k_max", "degree_max"])
def test_budget_beyond_key_range_is_config_error(tmp_path, key):
    # int16 keys: an in-budget sum of two columns must not wrap
    cfg = tmp_path / "big.cfg"
    cfg.write_text(re.sub(r"^%s = \d+$" % key, "%s = 40000" % key, SYNTH, flags=re.M))
    with pytest.raises(ConfigError) as err:
        parse_config(cfg.read_text())
    assert any("[budgets]" in p and "16383" in p for p in err.value.problems)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 5


def test_oversized_condition_lattice_is_budget_exhausted(tmp_path):
    # n = 4 caps the condition check at |k| <= 64: an 11.5M-point lattice
    cfg = tmp_path / "n4.cfg"
    cfg.write_text(SYNTH.replace("n = 2", "n = 4").replace("tau = 3.5", "tau = 5.5"))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CODES["BudgetExhausted"]
    rep = json.loads((out / "run.json").read_text())
    assert rep["verdict"] == "BudgetExhausted"
    assert rep["verdict_info"]["m"] == 1
    assert "11548161 points" in rep["verdict_info"]["reason"]


def test_oversized_measure_lattice_is_budget_exhausted(tmp_path, capsys):
    # [grid] kmax = 2000 in dimension 2 asks for an 8,004,001-point lattice
    cfg = tmp_path / "m.cfg"
    cfg.write_text(MINIMAL_NLS + """
[budgets]
degree_max = 4
k_max = 64

[grid]
lo = 0.001 0.001
hi = 0.01 0.01
samples_per_axis = 4
kmax = 2000
""")
    out = tmp_path / "o"
    assert main(["measure", "--config", str(cfg), "--out", str(out)]) == EXIT_CODES["BudgetExhausted"]
    err = capsys.readouterr().err
    assert "BudgetExhausted" in err
    assert "the k-lattice |k| <= 2000 in dimension 2 has 8004001 points" in err


def test_oversized_measure_grid_is_budget_exhausted(tmp_path, capsys):
    # 220 k-rows at kmax = 10 times 302^2 samples is just over the cell cap
    cfg = tmp_path / "m.cfg"
    cfg.write_text(MINIMAL_NLS + """
[budgets]
degree_max = 4
k_max = 64

[grid]
lo = 0.001 0.001
hi = 0.01 0.01
samples_per_axis = 302
kmax = 10
""")
    out = tmp_path / "o"
    assert main(["measure", "--config", str(cfg), "--out", str(out)]) == EXIT_CODES["BudgetExhausted"]
    err = capsys.readouterr().err
    assert "the measure grid has 220 k-rows x 91204 samples = 20064880 cells" in err
    assert not out.exists()


@pytest.mark.parametrize("hi,code", [("1e155", 0), ("1e200", 5)])
def test_a_box_the_frequency_map_overflows_on_is_an_argument_error(tmp_path, capsys, hi, code):
    # at [grid] hi = 1e200 the neighbour differences of omega square to inf
    # in the Lipschitz norm: the run once exited 0 with RuntimeWarnings and
    # "lipschitz_min": null in every report; at 1e155 everything is finite
    with open(os.path.join(SHIPPED, "nls.cfg")) as fh:
        text = fh.read() + "\n[grid]\nhi = %s %s\nsamples_per_axis = 20\n" % (hi, hi)
    cfg = tmp_path / "box.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["measure", "--config", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("argument error: [grid] the frequency map overflows on the box")
        assert not out.exists()
    else:
        assert err == "" and len(list(out.iterdir())) == 7
        for path in out.glob("measure_gamma_*.json"):
            rep = json.loads(path.read_text())
            assert 0 < rep["lipschitz_min"] <= rep["lipschitz_max"] < math.inf


SHIPPED =os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


@pytest.mark.parametrize("section,key,value", [
    ("synthetic", "eps0", "nan"), ("schedule", "tau", "inf"), ("schedule", "s1", "inf"),
    ("budgets", "prune_rel", "nan"),
    ("synthetic", "n", "-1"), ("synthetic", "n", "0"), ("run", "seed", "-1"),
    ("synthetic", "n_high", "-3"), ("synthetic", "eps0", "0"), ("synthetic", "eps0", "-1e-6")])
def test_non_finite_float_is_config_error(tmp_path, section, key, value):
    # each of these once ended in a traceback (LinAlgError, ZeroDivisionError,
    # ValueError) or, for the NaN prune cut, in a TorusConverged verdict; the
    # out-of-range rows either raised (a negative n or seed; n = 0) or ran
    # as given (n_high < 0 dropped low terms, eps0 <= 0
    # was used as it came)
    with open(os.path.join(SHIPPED, "synthetic.cfg")) as fh:
        text = fh.read() + "\n[%s]\n%s = %s\n" % (section, key, value)
    lineno = len(text.splitlines())
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    want = "line %d:" % lineno if value in ("nan", "inf") else "[%s] %s " % (section, key)
    assert any(p.startswith(want) and key in p for p in err.value.problems)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 5


@pytest.mark.parametrize("section,key,value", [
    ("run", "max_lie_order", "8"), ("run", "max_lie_order", "0"),
    ("run", "max_lie_order", "-1"), ("run", "max_lie_order", "1"),
    ("schedule", "check_k_cap", "64"), ("schedule", "check_k_cap", "0"),
    ("schedule", "check_k_cap", "-2"), ("schedule", "check_k_cap", "0.5"),
    ("schedule", "r_floor_rel", "0.01"), ("budgets", "prune_rel", "1e-16"), ("model", "n", "2")])
def test_removed_keys_are_unknown(tmp_path, section, key, value):
    # the Lie-order cap, the gate's |k| cap, the radius floor and the prune
    # tolerance are constants of the driver, and [model] n restated the
    # number of sites: none is a key, at its old default or at a value that
    # was once out of range (a check_k_cap below 1 skipped every |k| >= 1
    # check, max_lie_order <= 0 was used as it came, and max_lie_order = 1
    # still added the order-2 term)
    with open(os.path.join(SHIPPED, "nls.cfg")) as fh:
        text = fh.read() + "\n[%s]\n%s = %s\n" % (section, key, value)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "line %d: unknown key '%s' in [%s]" % (len(text.splitlines()), key, section) \
        in err.value.problems
    cfg = tmp_path / "removed.cfg"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 5


@pytest.mark.parametrize("section,key,value", [
    ("domain", "a", "0.1"), ("domain", "p", "1.0"), ("synthetic", "zero_mode", "1"),
    ("synthetic", "zero_mode", "-2"), ("synthetic", "block_scale", "0"),
    ("synthetic", "n_low", "12"), ("synthetic", "n_low", "-1"), ("model", "taylor_depth", "2"),
    ("model", "taylor_depth", "-1"), ("grid", "k_lo", "0"), ("grid", "k_lo", "10"),
    ("grid", "k_lo", "12"), ("grid", "k_lo", "-1"), ("run", "mode", "measure")])
def test_settings_that_became_constants_are_config_errors(tmp_path, section, key, value):
    # no config set the domain weights a = 0.1 and p = 1.0, the synthetic
    # zero mode 1, block_scale 0 or n_low 12, the Taylor depth 2 or k_lo 0:
    # they are constants now, and mode = measure (an alias of nls) is gone.
    # Each is an error at its line, at its old default or at a value that
    # was once out of range
    with open(os.path.join(SHIPPED, "%s.cfg" % ("synthetic" if section == "synthetic"
                                                else "nls"))) as fh:
        text = fh.read() + "\n[%s]\n%s = %s\n" % (section, key, value)
    lineno = len(text.splitlines())
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    if section == "domain":
        assert "line %d: unknown section [domain]" % (lineno - 1) in err.value.problems
    else:
        assert any(p.startswith("line %d: " % lineno) and "'%s'" % key in p
                   for p in err.value.problems)
    cfg = tmp_path / "removed.cfg"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 5


# the overflow is this test's input: the warnings it raises on the way to
# the verdict are expected
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("eps0", ["1e30", "1e100"])
def test_an_overflowing_step_is_budget_exhausted(tmp_path, eps0):
    # R_2 overflowed on step 1's outgoing domain: eps_next was inf at eps0 =
    # 1e30 (caught only at m = 2, as a Fourier budget overrun) and NaN at
    # 1e100 (a ValueError traceback in step 2's truncation)
    with open(os.path.join(SHIPPED, "synthetic.cfg")) as fh:
        text = fh.read() + "\n[synthetic]\neps0 = %s\n" % eps0
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CODES["BudgetExhausted"]
    rep = json.loads((out / "run.json").read_text())
    assert rep["verdict"] == "BudgetExhausted" and rep["verdict_info"]["m"] == 1
    assert rep["verdict_info"]["reason"].startswith(
        "step 1: the vector-field norm of R_2 on the outgoing domain D(s = ")
    # the radius never grows: the outgoing domain keeps r1 = 0.25, where eta
    # r1 / 8 would be 3.125e8 at eps0 = 1e30
    assert "r = 0.25)" in rep["verdict_info"]["reason"]
    assert not rep["steps"]


@pytest.mark.parametrize("section,key,value,code", [
    ("schedule", "s1", "1e3", 4), ("schedule", "r1", "1e160", 5), ("schedule", "r1", "1e-200", 5),
    ("synthetic", "jmax", "8000", 5), ("synthetic", "b", "8000", 5), ("schedule", "r1", "1e-153", 5)])
def test_extreme_domain_values_end_in_an_exit_code(tmp_path, section, key, value, code):
    # finite values that parse: s1 = 1e3 once ended in a ValueError for a
    # NaN truncation budget, r1 = 1e160 in an OverflowError, r1 = 1e-200 in a
    # ZeroDivisionError, and r1 = 1e-153 (whose floor radius 1e-155 squares
    # to a subnormal) in an OverflowError at step 2.  At jmax or b = 8000 the
    # top mode's weight j e^(0.1 j) is inf.  A radius whose square is not a
    # positive normal float, or an infinite top mode weight, is a config
    # error; a norm of R0 that overflows on the starting domain is
    # BudgetExhausted
    with open(os.path.join(SHIPPED, "synthetic.cfg")) as fh:
        text = fh.read() + "\n[%s]\n%s = %s\n" % (section, key, value)
    if code == 5:
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any(p.startswith("[%s] " % section) and key in p for p in err.value.problems)
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == code
    if code == EXIT_CODES["BudgetExhausted"]:
        rep = json.loads((out / "run.json").read_text())
        assert rep["verdict"] == "BudgetExhausted" and rep["verdict_info"]["m"] == 1
        assert "starting domain" in rep["verdict_info"]["reason"] and not rep["steps"]


@pytest.mark.parametrize("key,value", [("kmax", "-3"), ("kmax", "0"), ("gamma_ladder", "0")])
def test_empty_condition_set_is_config_error(tmp_path, capsys, key, value):
    # on nls.cfg ([grid] kmax = 10) an empty condition set once gave a measure
    # report with every fraction and bound 0.0, and gamma_ladder = 0 silently
    # ran one rung; all exited 0
    with open(os.path.join(SHIPPED, "nls.cfg")) as fh:
        text = fh.read() + "\n[grid]\n%s = %s\n" % (key, value)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["measure", "--config", str(cfg), "--out", str(out)]) == 5
    assert "config error: [grid] %s" % key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("sites", "1 9"), ("sites", "1 1")])
def test_bad_model_is_config_error(tmp_path, key, value):
    # a site beyond jmax = 8 once ended in a ValueError traceback; a repeated
    # site (site 0 never got a factor) built a wrong model and exited 0
    with open(os.path.join(SHIPPED, "nls.cfg")) as fh:
        text = fh.read() + "\n[model]\n%s = %s\n" % (key, value)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any(p.startswith("[model] %s" % key) for p in err.value.problems)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["nls-build", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 5


def test_b2_synthetic_run_ends_in_a_verdict(tmp_path):
    # at b = 2 the step-4 threshold gamma_m / 4 ** 512 once overflowed a float
    # and the run ended in a traceback (exit 1)
    with open(os.path.join(SHIPPED, "synthetic.cfg")) as fh:
        text = fh.read() + "\n[run]\nseed = 1\n[synthetic]\nb = 2\n"
    cfg = tmp_path / "b2.cfg"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
    with open(tmp_path / "out" / "run.json") as fh:
        report = json.load(fh)
    assert report["verdict"] == "BudgetExhausted" and report["verdict_info"]["m"] == 4


@pytest.mark.parametrize("args", [["--xi-index", "10000"], ["--xi-index", "-1"],
                                  ["--max-steps", "-2"], ["--max-steps", "0"]])
def test_bad_run_options_are_argument_errors(tmp_path, capsys, args):
    # on nls.cfg (100 x 100 grid) these once ended in an IndexError traceback,
    # ran the last grid sample, ran no step and reported BudgetExhausted at
    # m = -2 (exit 4), or fell back to the config's max_steps
    out = tmp_path / "out"
    assert main(["run", "--config", os.path.join(SHIPPED, "nls.cfg"), "--out", str(out)] + args) == 5
    assert "argument error: " in capsys.readouterr().err
    assert not out.exists()


SMALL_NLS = MINIMAL_NLS + "\n[budgets]\ndegree_max = 4\nk_max = 64\n"
GRID = "\n[grid]\nlo = 0.001 0.001\nhi = 0.01 0.01\nsamples_per_axis = 4\n"
TEXTS = {"nls": SMALL_NLS, "grid": SMALL_NLS + GRID, "synthetic": SYNTH,
         "1d-grid": SMALL_NLS + GRID.replace("0.001 0.001", "0.001")}


@pytest.mark.parametrize("command,config,args", [
    ("run", "nls", ["--xi-index", "0"]),          # no [grid] box: was ignored
    ("nls-build", "nls", ["--xi-index", "0"]),
    ("run", "synthetic", ["--xi-index", "0"]),    # synthetic: was ignored
    ("measure", "grid", ["--xi-index", "0"]),     # these three: ignored
    ("measure", "grid", ["--max-steps", "2"]),
    ("nls-build", "grid", ["--max-steps", "1"]),
    ("run", "1d-grid", ["--xi-index", "0"]),      # was a ValueError traceback
    ("measure", "nls", []),                       # was a ValueError traceback
    ("nls-build", "synthetic", []),               # these three: IndexError
    ("measure", "synthetic", []),
    ("check", "synthetic", []),
])
def test_options_that_do_not_fit_are_argument_errors(tmp_path, capsys, command, config, args):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TEXTS[config])
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)] + args) == 5
    assert "argument error: " in capsys.readouterr().err
    assert not out.exists()


def test_xi_index_picks_the_grid_sample(tmp_path):
    from kamzero.measure import ParameterGrid

    cfg = tmp_path / "c.cfg"
    cfg.write_text(SMALL_NLS + GRID)
    out = tmp_path / "out"
    assert main(["nls-build", "--config", str(cfg), "--out", str(out), "--xi-index", "5"]) == 0
    xi = ParameterGrid([0.001, 0.001], [0.01, 0.01], 4).samples()[5]
    assert json.loads((out / "model.json").read_text())["xi"] == xi.tolist()


def test_python_dash_m_kamzero_runs_the_cli():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-m", "kamzero", "--help"], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: kamzero")


def test_every_json_output_is_strict_json(tmp_path):
    # RFC 8259 has no Infinity or NaN: a step that solves no divisor has an
    # infinite margin (step 3 of nls.cfg), written as null
    def strict(text):
        def refuse(name):
            raise ValueError("non-JSON constant %s" % name)
        return json.loads(text, parse_constant=refuse)

    nls_cfg = os.path.join(SHIPPED, "nls.cfg")
    for name in ("nls", "synthetic", "no_torus"):
        assert main(["run", "--config", os.path.join(SHIPPED, name + ".cfg"),
                     "--out", str(tmp_path / name)]) in EXIT_CODES.values()
    assert main(["measure", "--config", nls_cfg, "--out", str(tmp_path / "measure")]) == 0
    assert main(["check", "--config", nls_cfg, "--max-steps", "3",
                 "--out", str(tmp_path / "check")]) == 0
    assert main(["nls-build", "--config", nls_cfg, "--out", str(tmp_path / "build")]) == 0
    paths = sorted(tmp_path.rglob("*.json"))
    assert len(paths) == 3 + 4 + 1 + 1
    for path in paths:
        strict(path.read_text())
    steps = strict((tmp_path / "nls" / "run.json").read_text())["steps"]
    assert [s["min_divisor_margin"] is None for s in steps] == [False, False, True]
