import hashlib
import json
import math
import os
from dataclasses import replace
from fractions import Fraction

from unittest import mock

import numpy as np
import pytest

from kamzero import driver, series
from kamzero.cli import _build_problem
from kamzero.config import parse_config
from kamzero.driver import (BaseParams, BudgetExhausted, PremiseFailed,
                            StepRecord, _eval_gradients, _zero_mode_tables,
                            delta0, dichotomy, kam_step, make_synthetic_problem,
                            no_torus_witness, run, schedule, scheduled_eps)
from kamzero.homological import FAMILIES, NormalForm, ResonantParameter, _scale_tau
from kamzero.series import Budgets, DomainParams, SeriesDims, TFSeries, vector_field_norm
from series_ref import from_terms, make_key, reality_defect

DIMS = SeriesDims(2, (), (1,), 6)
BUD = Budgets(6, 4096)
DP0 = DomainParams(0.6, 0.25, 0.1, 1.0)
BASE = BaseParams(n=2, b=1, tau=3.5, s1=0.6, r1=0.25, gamma1=0.05, eps1=1e-6)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_gamma_schedule():
    assert schedule(1, BASE).gamma_m == pytest.approx(BASE.gamma1)
    assert schedule(2, BASE).gamma_m == pytest.approx(0.75 * BASE.gamma1)
    for m in range(1, 12):
        g = schedule(m, BASE).gamma_m
        assert BASE.gamma1 / 2 < g <= BASE.gamma1


def test_radius_never_grows():
    # eta = eps^(1/3) passes 8 above eps = 512, where eta r / 8 would pass r;
    # below, the floor 0.01 r1 holds the radius up
    r1 = schedule(1, BASE).r_m
    for eps in (1e-300, 1e-9, 1.0, 512.0, 1e3, 1e6, 1e30):
        r_m = schedule(2, BASE, eps_m=eps, r_prev=r1).r_m
        assert driver._R_FLOOR_REL * r1 <= r_m <= r1
    assert schedule(2, BASE, eps_m=1e6, r_prev=r1).r_m == r1
    assert schedule(3, BASE, eps_m=1e6, r_prev=0.5 * r1).r_m == 0.5 * r1


def test_eta_and_K():
    p = schedule(3, BASE, eps_m=1e-9)
    assert p.eta_m == pytest.approx((1e-9) ** (1.0 / 3.0))
    assert p.K_m == pytest.approx(abs(math.log(1e-9)) / (p.s_m - p.s_next))


def test_s_schedule_monotone_with_floor():
    vals = [schedule(m, BASE).s_m for m in range(1, 30)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > BASE.s1 / 2 for v in vals)
    # gap halves every step
    gaps = [a - b for a, b in zip(vals, vals[1:])]
    for a, b in zip(gaps, gaps[1:]):
        assert a / b == pytest.approx(2.0)


def test_eps_recursion_formula_oracle():
    # direct evaluation for m = 2, b = 1, n = 2, gamma1 = 0.1, eps1 = 1e-8,
    # s-gap = s1 / 8
    base = BaseParams(n=2, b=1, tau=3.5, s1=1.0, r1=0.25, gamma1=0.1, eps1=1e-8)
    gap = base.s1 / 8.0
    expect = (base.gamma1 ** -6) * 1 ** 64 * gap ** (-3) * (1e-8) ** (4.0 / 3.0)
    assert scheduled_eps(2, base) == pytest.approx(expect, rel=1e-12)
    assert schedule(1, base).s_m - schedule(2, base).s_m == pytest.approx(gap)


def test_gamma_family_schedules():
    p = schedule(2, BASE)
    b4 = BASE.b ** 4
    assert _scale_tau(p, "R1") == pytest.approx((p.gamma_m / 2 ** (18 * b4), 3 * BASE.tau))
    assert _scale_tau(p, "R3") == pytest.approx((p.gamma_m / 2 ** (32 * b4), 4 * BASE.tau))
    assert _scale_tau(p, "R4") == pytest.approx((p.gamma_m / 2 ** (8 * b4), 2 * BASE.tau))
    assert _scale_tau(p, "KL") == (p.gamma_m, BASE.tau)
    p1 = schedule(1, BASE)
    assert {_scale_tau(p1, f)[0] for f in FAMILIES} == {p1.gamma_m}
    # at b = 2, m = 4, m ** (32 b^4) = 2^1024 overflows a float: the thresholds
    # must underflow to the correctly rounded value instead (a subnormal at
    # m = 4, zero at m = 5)
    for m in (4, 5):
        p = schedule(m, replace(BASE, b=2))
        for family, e in (("R1", 18), ("R3", 32), ("R4", 8)):
            exact = float(Fraction(p.gamma_m) / m ** (e * 2 ** 4))
            assert _scale_tau(p, family)[0] == pytest.approx(exact, rel=1e-15, abs=0)
    assert 0 < _scale_tau(schedule(4, replace(BASE, b=2)), "R3")[0] < 2.0 ** -1022
    assert _scale_tau(schedule(5, replace(BASE, b=2)), "R3")[0] == 0.0


# ---------------------------------------------------------------------------
# kam_step
# ---------------------------------------------------------------------------

def test_step_with_zero_perturbation():
    N, _ = make_synthetic_problem(DIMS, BUD, 1e-6, seed=0, dp=DP0)
    R = TFSeries.zero(DIMS, BUD)
    params = schedule(1, BASE, eps_m=1e-6)
    dp = DomainParams(params.s_m, params.r_m, DP0.a, DP0.p)
    N1, R1, rec = kam_step(N, R, params, DIMS, dp, vector_field_norm(R, dp))
    assert not R1.terms
    assert rec.eps_measured == 0.0 and rec.eps_next == 0.0
    assert np.array_equal(N1.omega, N.omega)


def test_step_contracts_and_drift_bounded():
    N, R = make_synthetic_problem(DIMS, BUD, 1e-6, seed=2, n_high=0, dp=DP0)
    eps0 = vector_field_norm(R, DP0)
    params = schedule(1, BASE, eps_m=eps0)
    dp = DomainParams(params.s_m, params.r_m, DP0.a, DP0.p)
    N1, R1, rec = kam_step(N, R, params, DIMS, dp, eps0)
    assert R.real and R1.real
    assert rec.eps_next <= eps0 ** 1.15
    assert rec.freq_drift <= 10.0 * eps0
    assert rec.residual <= 1e-9 * eps0


def test_budget_exhausted_when_K_exceeds_budget():
    N, R = make_synthetic_problem(DIMS, Budgets(6, 16), 1e-6, seed=2, dp=DP0)
    params = schedule(1, BASE, eps_m=1e-6)  # K ~ 184 > 16
    dp = DomainParams(params.s_m, params.r_m, DP0.a, DP0.p)
    with pytest.raises(BudgetExhausted):
        kam_step(N, R, params, DIMS, dp, vector_field_norm(R, dp))


def test_normal_form_accumulation_is_exact():
    # stored sums equal the sum of the per-step increments bit-exactly
    N, R = make_synthetic_problem(DIMS, BUD, 1e-6, seed=4, n_high=0,
                                  inject_z0=1e-7, dp=DP0)
    from kamzero.homological import extract_hat, solve_homological
    from kamzero.series import fourier_truncate, split_low_high
    eps = vector_field_norm(R, DP0)
    hats = []
    Ncur = N
    r_prev = None
    for m in (1, 2):
        params = schedule(m, BASE, eps_m=eps, r_prev=r_prev)
        dp = DomainParams(params.s_m, params.r_m, DP0.a, DP0.p)
        low, _ = split_low_high(R)
        low, _, _ = fourier_truncate(low, params.K_m, dp, sigma=params.s_gap)
        hats.append(extract_hat(low, DIMS))
        Ncur, R, rec = kam_step(Ncur, R, params, DIMS, dp, eps)
        eps = rec.eps_next
        r_prev = params.r_m
        assert Ncur.Nz0[0] == N.Nz0[0] + sum(h.Nz0[0] for h in hats)
        assert Ncur.Nzb0[0] == N.Nzb0[0] + sum(h.Nzb0[0] for h in hats)


# ---------------------------------------------------------------------------
# delta0 and the dichotomy
# ---------------------------------------------------------------------------

def test_delta0_values():
    N = NormalForm.zero(2, 2)
    assert delta0(N) == 0.0
    N.Nz0 = np.array([3.0, 0.0], dtype=complex)
    N.Nzb0 = np.array([0.0, 4.0], dtype=complex)
    assert delta0(N) == pytest.approx(5.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        N.Nz0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        N.Nzb0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        oracle = math.sqrt(sum(abs(v) ** 2 for v in N.Nz0)
                           + sum(abs(v) ** 2 for v in N.Nzb0))
        assert delta0(N) == pytest.approx(oracle)


def _rec(m, eps_measured, eps_next, d0):
    return StepRecord(m=m, eps_measured=eps_measured,
                      eps_next=eps_next, xF_norm=0.0, residual=0.0,
                      freq_drift=0.0, delta0=d0, dropped_mass=0.0, prune_mass=0.0,
                      prune_vf_bound=0.0, vf_trunc_bound=0.0,
                      vf_trunc_terms=0, skip_bound=0.0, skip_rows=0, lie_order=1,
                      tail_ratio=0.0, min_divisor_margin=1.0, K_m=1.0,
                      gamma_m=0.05, s_m=0.5, r_m=0.1)


def test_dichotomy_rules():
    base = BASE
    # zero perturbation: converged immediately
    assert dichotomy([_rec(1, 0.0, 0.0, 0.0)], base) == "TorusConverged"
    # delta0 strictly above 20 eps^{7/6}: no-torus candidate
    eps = 1e-6
    thr = 20.0 * eps ** (7.0 / 6.0)
    assert dichotomy([_rec(1, eps, 1e-9, 2 * thr)], base) == "NoTorusCandidate"
    # sitting exactly on the boundary decides nothing
    assert dichotomy([_rec(1, eps, 1e-9, thr)], base) is None
    # below threshold three times with eps under the floor: converged
    recs = [_rec(m, eps, 1e-16, 0.0) for m in (1, 2, 3)]
    assert dichotomy(recs, base) == "TorusConverged"
    # below threshold but eps still large: undecided
    recs = [_rec(m, eps, 1e-9, 0.0) for m in (1, 2, 3)]
    assert dichotomy(recs, base) is None


# ---------------------------------------------------------------------------
# escape witness
# ---------------------------------------------------------------------------

def _witness_nf(c, b=1):
    N = NormalForm.zero(2, b)
    N.omega = np.array([np.sqrt(3.0), np.sqrt(2.0)])
    N.Omega = {j: float(j * j) for j in DIMS.tail_modes}
    N.Nz0 = np.full(b, c, dtype=complex)
    N.Nzb0 = np.full(b, c, dtype=complex)
    return N


def test_witness_trivial_flow_stays_put():
    N = _witness_nf(0.0)
    R = TFSeries.zero(DIMS, BUD)
    escaped, rec = no_torus_witness(N, R, DIMS, 1e-6)
    assert not escaped
    assert rec.final_norm == 0.0
    assert max(rec.norms) <= 2.0 * (1e-6) ** (7.0 / 6.0)


def test_witness_matches_linear_oracle():
    # A0 = 0, g0 = 0: X(1) = X(0) + alpha0; escape iff the constant drive
    # clears the 2 eps^{7/6} gate
    eps = 1e-6
    c = 1e4 * 20.0 * eps ** (7.0 / 6.0) / math.sqrt(2.0)
    N = _witness_nf(c)
    R = TFSeries.zero(DIMS, BUD)
    escaped, rec = no_torus_witness(N, R, DIMS, eps)
    assert escaped
    d0 = delta0(N)
    assert rec.final_norm == pytest.approx(d0, rel=1e-12)
    assert rec.final_norm == pytest.approx(rec.linear_oracle_norm, rel=0.05)
    assert rec.tilde_final_norm >= d0 / 4.0 - 3.0 * eps ** (7.0 / 6.0)


def test_witness_coupled_mode_agrees_when_drive_dominates():
    # with the perturbation gradient independent of the trajectory scale the
    # frozen and coupled flows agree to the quadrature error
    eps = 1e-6
    c = 1e4 * 20.0 * eps ** (7.0 / 6.0) / math.sqrt(2.0)
    N = _witness_nf(c)
    R = from_terms(DIMS, BUD, {make_key(2, k=(1, 0), beta={1: 1}): 1e-9 + 0j,
                               make_key(2, k=(-1, 0), gamma={1: 1}): 1e-9 + 0j})
    esc_f, rec_f = no_torus_witness(N, R, DIMS, eps)
    coupled = _coupled_witness_norm(N, R, DIMS)
    assert esc_f and coupled > rec_f.threshold
    assert rec_f.path == "closed_form"
    assert coupled == pytest.approx(rec_f.final_norm, rel=1e-3)


def _zero_mode_gradients(R, dims, x, z, zb):
    """Per-term loop over R.terms: (dR/dz0, dR/dzbar0, dR/dy) at y = 0 and
    tail = 0: the reference for the witness gradient tables, and the right
    side of the coupled flow."""
    pos = {m: i for i, m in enumerate(dims.zero_modes)}
    gz = np.zeros(len(pos), dtype=complex)
    gzb = np.zeros(len(pos), dtype=complex)
    gy = np.zeros(dims.n, dtype=complex)

    def mono(beta, gamma):
        out = 1.0 + 0j
        for m, e in beta:
            out *= z[pos[m]] ** e
        for m, e in gamma:
            out *= zb[pos[m]] ** e
        return out

    def lowered(exps, m):
        return tuple((mm, e - (mm == m)) for mm, e in exps if e - (mm == m))

    for key, c in R.terms.items():
        if any(m not in pos for m, _ in key.beta + key.gamma):
            continue
        c = c * np.exp(1j * np.dot(key.k, x))
        if sum(key.alpha) == 1:
            gy[key.alpha.index(1)] += c * mono(key.beta, key.gamma)
        if sum(key.alpha):
            continue
        for m, e in key.beta:
            gz[pos[m]] += e * c * mono(lowered(key.beta, m), key.gamma)
        for m, e in key.gamma:
            gzb[pos[m]] += e * c * mono(key.beta, lowered(key.gamma, m))
    return gz, gzb, gy


def _coupled_witness_norm(N, R, dims, steps=400):
    """|X0(1)| of the witness subsystem with the angles flowing too: RK4 on
    dx/dt = omega + R_y and dX0/dt = alpha0 + A0 X0 + (i dR/dzbar0, -i dR/dz0),
    all at y = 0, tail = 0, from x = 0, X0 = 0."""
    n, b = dims.n, N.b
    alpha0 = np.concatenate([1j * N.Nzb0, -1j * N.Nz0])
    A0 = np.block([[1j * N.Nz0zb0, 2j * N.Nzb0zb0], [-2j * N.Nz0z0, -1j * N.Nz0zb0.T]])

    def rhs(state):
        gz, gzb, gy = _zero_mode_gradients(R, dims, state[:n].real, state[n:n + b], state[n + b:])
        return np.concatenate([N.omega + gy.real,
                               alpha0 + A0 @ state[n:] + np.concatenate([1j * gzb, -1j * gz])])

    h = 1.0 / steps
    state = np.zeros(n + 2 * b, dtype=complex)
    for _ in range(steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return float(np.linalg.norm(state[n:]))


@pytest.mark.parametrize("b", [1, 2])
def test_witness_tables_match_per_term_loop(b):
    dims = SeriesDims(2, (), tuple(range(1, b + 1)), 6)
    rng = np.random.default_rng(b)
    # the small problem has gradients of one term and of none
    for n_low, n_high in ((30, 20), (6, 3)):
        _, R = make_synthetic_problem(dims, BUD, 1e-3, DP0, seed=4, n_low=n_low, n_high=n_high)
        for _ in range(5):
            z = 0.1 * (rng.standard_normal(b) + 1j * rng.standard_normal(b))
            zb = 0.1 * (rng.standard_normal(b) + 1j * rng.standard_normal(b))
            gz, gzb, _ = _zero_mode_gradients(R, dims, np.zeros(2), z, zb)
            tables = _zero_mode_tables(R, dims)
            assert len(tables[2]) == 2 * b
            # the stacked order: dR/dzbar0, then dR/dz0
            got = _eval_gradients(tables, np.concatenate([z, zb]))
            assert np.allclose(got, np.concatenate([gzb, gz]), rtol=1e-12, atol=1e-15)


# sha256 prefix of the frozen witness norms on R0 of the no_torus shape with
# builder-default degree-3/4 terms at eps0 = 1e-2, so the z0-dependent
# gradients move the trajectory; recorded with the former one-table-per-gradient
# evaluation, which the stacked table reproduces bit for bit
PINNED_NORMS = {1: "a7704db975115eed", 2: "fe0e02e8b854e5be"}


@pytest.mark.parametrize("b,seed", [(1, 2), (2, 3)])
def test_witness_norms_are_pinned(b, seed):
    with open(os.path.join(CONFIGS, "no_torus.cfg")) as fh:
        cfg = parse_config(fh.read() + "\n[run]\nseed = %d\n[synthetic]\nb = %d\n"
                           "n_high = 8\neps0 = 0.01\n" % (seed, b))
    N0, R0, dims, _ = _build_problem(cfg, None)
    assert all(hi > lo for lo, hi in _zero_mode_tables(R0, dims)[2])
    escaped, rec = no_torus_witness(N0, R0, dims, 1e-6)
    assert escaped
    digest = hashlib.sha256(np.asarray(rec.norms).tobytes()).hexdigest()[:16]
    assert digest == PINNED_NORMS[b]


def _rk4_witness(*args, **kwargs):
    """The witness with the closed form switched off: an infinite margin
    never clears the threshold, so RK4 decides."""
    with mock.patch.object(driver, "_WITNESS_MARGIN", np.inf):
        return no_torus_witness(*args, **kwargs)


def test_closed_form_witness_equals_rk4_on_the_sweep(sweep_gate_calls):
    witnesses = sweep_gate_calls["witnesses"]
    assert len(witnesses) > 40
    for args, kwargs, (escaped, rec) in witnesses:
        assert rec.path == "closed_form"
        assert rec.final_norm == rec.linear_oracle_norm
        esc_rk4, rk4 = _rk4_witness(*args, **kwargs)
        assert rk4.path == "rk4"
        assert escaped == esc_rk4
        assert rec.final_norm == pytest.approx(rk4.final_norm, rel=1e-12)
        assert rec.bound == rk4.bound


def test_sweep_verdicts_match_the_benchmark_reference(sweep_gate_calls):
    # the verdict table the benchmark checks its sweep against, read only;
    # its error entries record a known schedule overflow, skipped as the
    # benchmark skips them
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "reference.json")) as fh:
        table = json.load(fh)["synthetic-sweep"]
    verdicts = sweep_gate_calls["verdicts"]
    assert set(verdicts) == set(table) and len(table) == 120
    checked = [label for label, ref in table.items() if "error" not in ref]
    assert len(checked) >= 100
    assert {label: verdicts[label] for label in checked} == {label: table[label]
                                                             for label in checked}


def test_nls_run_matches_the_benchmark_reference(tmp_path):
    # the nls-torus entry the benchmark checks its run against, read only,
    # with the benchmark's check: verdict, m, exit code, and both eps traces
    # at rel 1e-8
    from kamzero import cli

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "reference.json")) as fh:
        ref = json.load(fh)["nls-torus"]
    code = cli.main(["run", "--config", os.path.join(CONFIGS, "nls.cfg"), "--out", str(tmp_path)])
    report = json.loads((tmp_path / "run.json").read_text())
    assert (report["verdict"], report["verdict_info"]["m"], code) == (ref["verdict"], ref["m"],
                                                                       ref["exit_code"])
    for key in ("eps_measured", "eps_next"):
        trace = [s[key] for s in report["steps"]]
        assert len(trace) == len(ref[key])
        assert all(math.isclose(a, b, rel_tol=1e-8, abs_tol=0.0) for a, b in zip(trace, ref[key]))


def test_runs_do_not_depend_on_the_summation_order(tmp_path, monkeypatch):
    # _CHUNK_ROWS sets how a bracket's product rows are split into blocks,
    # and so the order in which a key's rows are summed.  With no magnitude
    # cut inside brackets and Lie series, a smaller chunk may move a run only
    # by rounding: the shipped configs and the 120 sweep problems keep their
    # verdict, m, Lie orders and solve counts, and each eps within 1e-12
    # eps_measured of its step; nls-build's R0, whose Birkhoff brackets take
    # the same stream, keeps its keys above 1e-12 max|c| and each
    # coefficient within 1e-12 max|c|
    from conftest import SWEEP_SEEDS, SWEEP_SHAPES
    from kamzero import cli, nls

    texts = {}
    for name in ("nls", "synthetic", "no_torus"):
        with open(os.path.join(CONFIGS, name + ".cfg")) as fh:
            texts[name] = fh.read()
    jobs = list(texts.values()) + [
        texts[shape] + "\n[run]\nseed = %d\n[synthetic]\nb = %d\n" % (seed, b)
        for shape, b in SWEEP_SHAPES for seed in SWEEP_SEEDS]

    def runs():
        reports = []
        for text in jobs:
            cli.cmd_run(parse_config(text), str(tmp_path), None, None)
            reports.append(json.loads((tmp_path / "run.json").read_text()))
        return reports

    def r0():
        cfg = parse_config(texts["nls"])
        return nls.build_nls(cli._model(cfg), cli._budgets(cfg))[1].R0

    shipped, shipped_r0 = runs(), r0()
    monkeypatch.setattr(series, "_CHUNK_ROWS", 4096)
    chunked, chunked_r0 = runs(), r0()
    tol = 1e-12 * shipped_r0.max_abs()
    for S, T in ((shipped_r0, chunked_r0), (chunked_r0, shipped_r0)):
        assert np.all(np.abs(S.coefs - T.coefficients_at(S.rows)) <= tol)
    assert np.array_equal(shipped_r0.rows[np.abs(shipped_r0.coefs) > tol],
                          chunked_r0.rows[np.abs(chunked_r0.coefs) > tol])
    assert len(shipped) == 123
    for a, b in zip(shipped, chunked):
        assert a["verdict"] == b["verdict"]
        assert a["verdict_info"].get("m") == b["verdict_info"].get("m")
        assert len(a["steps"]) == len(b["steps"])
        for s, t in zip(a["steps"], b["steps"]):
            assert (s["lie_order"], s["solve_counts"]) == (t["lie_order"], t["solve_counts"])
            for key in ("eps_measured", "eps_next"):
                assert abs(s[key] - t[key]) <= 1e-12 * s["eps_measured"]


def test_verdicts_do_not_depend_on_the_product_order(tmp_path, monkeypatch):
    # every bracket of these runs reaches the accumulator as one block, so
    # reversing each block's rows reverses the order in which each key's
    # products are summed.  The verdict, m and every step's Lie order hold on
    # the shipped configs and the 120 sweep problems.  Solve counts (41 runs
    # differ) and eps_next (70 runs move beyond 1e-12 of it) are not compared:
    # they wait for a rounding floor under the solver's key selection and the
    # eps measurement
    from conftest import SWEEP_SEEDS, SWEEP_SHAPES
    from kamzero import cli

    texts = {}
    for name in ("nls", "synthetic", "no_torus"):
        with open(os.path.join(CONFIGS, name + ".cfg")) as fh:
            texts[name] = fh.read()
    jobs = list(texts.values()) + [
        texts[shape] + "\n[run]\nseed = %d\n[synthetic]\nb = %d\n" % (seed, b)
        for shape, b in SWEEP_SHAPES for seed in SWEEP_SEEDS]

    def outcomes():
        out = []
        for text in jobs:
            cli.cmd_run(parse_config(text), str(tmp_path), None, None)
            rep = json.loads((tmp_path / "run.json").read_text())
            out.append((rep["verdict"], rep["verdict_info"].get("m"),
                        [s["lie_order"] for s in rep["steps"]]))
        return out

    shipped = outcomes()
    add, blocks = series._Accumulator.add, []

    def reversed_add(self, words, coefs):
        blocks.append(len(coefs))
        return add(self, [w[::-1] for w in words], coefs[::-1])

    monkeypatch.setattr(series._Accumulator, "add", reversed_add)
    assert outcomes() == shipped
    assert len(shipped) == 123 and sum(n > 1 for n in blocks) > 900


@pytest.mark.parametrize("drive", [0.1, 0.9, 1.1, 10.0])
def test_closed_form_witness_decides_both_ways_like_rk4(drive):
    # a drive |alpha0| of the given multiple of the threshold, a nonzero A0
    # and a small nonlinear R: the bound decides, on either side
    eps = 1e-6
    thr = 2.0 * eps ** (7.0 / 6.0)
    N = _witness_nf(drive * thr / math.sqrt(2.0))
    N.Nz0zb0 = np.array([[0.05 + 0j]])
    N.Nz0z0 = np.array([[0.02j]])
    N.Nzb0zb0 = N.Nz0z0.conj()
    R = from_terms(DIMS, BUD, {make_key(2, k=(1, 0), beta={1: 2}, gamma={1: 1}): 1e-3 + 0j,
                               make_key(2, k=(-1, 0), beta={1: 1}, gamma={1: 2}): 1e-3 + 0j})
    escaped, rec = no_torus_witness(N, R, DIMS, eps)
    esc_rk4, rk4 = _rk4_witness(N, R, DIMS, eps)
    assert rec.path == "closed_form" and 0.0 < rec.bound < 1e-6 * thr
    assert escaped == esc_rk4 == (drive > 1.0)
    assert rec.final_norm == pytest.approx(rk4.final_norm, rel=1e-12)


def test_witness_falls_back_to_rk4_where_r_steers():
    # R's zero-mode gradient at x0 = 0 is -alpha0: an O(delta0) drive that the
    # bound cannot bound below rho / 2, so RK4 decides, and R cancels the
    # escape that N's constant drive alone would give
    eps = 1e-6
    c = 1e4 * 20.0 * eps ** (7.0 / 6.0) / math.sqrt(2.0)
    N = _witness_nf(c)
    R = from_terms(DIMS, BUD, {make_key(2, k=(1, 0), beta={1: 1}): -c + 0j,
                               make_key(2, k=(-1, 0), gamma={1: 1}): -c + 0j,
                               make_key(2, k=(1, 0), beta={2: 1}): 0.5 + 0j})
    escaped, rec = no_torus_witness(N, R, DIMS, eps)
    assert rec.path == "rk4" and rec.bound > 0.5 * 2.0 * delta0(N)
    assert not escaped and rec.final_norm < 1e-6 * rec.threshold
    # without R's zero-mode gradient terms the drive escapes, decided in closed form
    free = from_terms(DIMS, BUD, {make_key(2, k=(1, 0), beta={2: 1}): 0.5 + 0j})
    escaped0, rec0 = no_torus_witness(N, free, DIMS, eps)
    assert escaped0 and rec0.path == "closed_form" and rec0.bound == 0.0
    assert rec0.final_norm == pytest.approx(delta0(N), rel=1e-12)


def test_witness_premise_guard():
    N = _witness_nf(0.1)
    N.Nz0z0 = np.array([[5.0 + 0j]])  # ||A0|| far from small
    R = TFSeries.zero(DIMS, BUD)
    with pytest.raises(PremiseFailed):
        no_torus_witness(N, R, DIMS, 1e-6)


# ---------------------------------------------------------------------------
# synthetic problems
# ---------------------------------------------------------------------------

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

# sha256 prefix of R.rows.tobytes() + R.coefs.tobytes() per (shape, b, seed):
# the shipped synthetic/no_torus configs (n_high = 0; at jmax = 6 their mode
# universe, and so R, does not depend on b) and the builder's defaults
# (n_high = 8) with random quadratic blocks
PINNED_R = {
    ("synthetic", 0): "6def1eac19d3fa78", ("synthetic", 1): "a1ad04fb688e0c5e",
    ("synthetic", 2): "5ecde79e1f804064", ("no_torus", 0): "4104db09f1fdac6c",
    ("no_torus", 1): "33366fa46bacce4a", ("no_torus", 2): "0d13fdbc19ac87ee",
    ("defaults", 1, 0): "8b39b5eddfaf79c3", ("defaults", 1, 1): "96c80d3df7c49675",
    ("defaults", 1, 2): "befa4c94e6213e8f", ("defaults", 2, 0): "1c99deb77a827d7b",
    ("defaults", 2, 1): "49a372e92eb1560b", ("defaults", 2, 2): "995139652f100897",
}


@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_synthetic_problems_are_pinned(b, seed):
    def digest(R):
        return hashlib.sha256(R.rows.tobytes() + R.coefs.tobytes()).hexdigest()[:16]

    for shape in ("synthetic", "no_torus"):
        with open(os.path.join(CONFIGS, shape + ".cfg")) as fh:
            cfg = parse_config(fh.read() + "\n[run]\nseed = %d\n[synthetic]\nb = %d\n" % (seed, b))
        assert digest(_build_problem(cfg, None)[1]) == PINNED_R[shape, seed]
    dims = SeriesDims(2, (), tuple(range(1, 1 + b)), 6)
    _, R = make_synthetic_problem(dims, BUD, 1e-6, DP0, seed=seed, block_scale=1e-3)
    assert digest(R) == PINNED_R["defaults", b, seed]


def test_step_ledger_sums_the_bracket_masses(tmp_path, monkeypatch):
    # every bracket that feeds R_next ({N, F} from the solver, then the two
    # Lie chains) records its budget mass; each step record carries their
    # sum as dropped_mass.  The step's one magnitude cut is the prune of
    # R_next at its end (prune_mass); brackets and the NLS front end cut
    # nothing by magnitude
    from kamzero import cli, driver, nls, series

    # {y_1, G} with dyadic G = e^{i x_1} + 2^-20 e^{2 i x_1} is
    # -i e^{i x_1} - 2^-19 i e^{2 i x_1}: the second term, below the
    # step's prune tolerance 1e-5 max|c|, stays in the bracket, and no mass
    # is recorded
    monkeypatch.setattr(driver, "_PRUNE_REL", 1e-5)
    y1 = from_terms(DIMS, BUD, {make_key(2, alpha=(1, 0)): 1.0})
    G = from_terms(DIMS, BUD, {make_key(2, k=(1, 0)): 1.0, make_key(2, k=(2, 0)): 2.0 ** -20})
    cut = series.poisson_bracket(y1, G)
    assert dict(cut.terms) == {make_key(2, k=(1, 0)): -1j, make_key(2, k=(2, 0)): -2.0 ** -19 * 1j}
    assert series.truncated_mass(cut) == 0.0

    steps, pruned, step_prunes = [], [], []
    prune = series.TFSeries.prune

    def counted_prune(self, rel):
        pruned.append(prune(self, rel))
        return pruned[-1]
    monkeypatch.setattr(series.TFSeries, "prune", counted_prune)

    def record(module, name, bracket_of):
        orig = getattr(module, name)

        def wrapped(*args, **kwargs):
            result = orig(*args, **kwargs)
            steps[-1].append(series.truncated_mass(bracket_of(result)))
            return result
        monkeypatch.setattr(module, name, wrapped)

    kam_step = driver.kam_step

    def step(*args, **kwargs):
        steps.append([])
        start = len(pruned)
        result = kam_step(*args, **kwargs)
        step_prunes.append(pruned[start:])
        return result
    monkeypatch.setattr(driver, "kam_step", step)
    record(driver, "solve_homological", lambda res: res[2].bracket)
    record(driver, "poisson_bracket", lambda res: res)
    record(series, "poisson_bracket", lambda res: res)
    cfg = os.path.join(CONFIGS, "synthetic.cfg")
    outs = [tmp_path / "o1", tmp_path / "o2"]
    for out in outs:
        steps.clear()
        step_prunes.clear()
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    records = json.loads((outs[-1] / "run.json").read_text())["steps"]
    assert len(records) == len(steps) == len(step_prunes) == 3
    for rec, masses, prunes in zip(records, steps, step_prunes):
        assert math.isclose(rec["dropped_mass"], sum(masses), rel_tol=1e-12)
        assert not {"precut_mass", "cut_mass"} & set(rec)
        assert len(prunes) == 1
        assert rec["prune_mass"] == prunes[0]
    assert all(rec["prune_mass"] > 0 and rec["prune_vf_bound"] > 0 for rec in records)
    assert (outs[0] / "run.json").read_bytes() == (outs[1] / "run.json").read_bytes()

    # the NLS front end: neither the Birkhoff Lie transform nor the KAM form
    # prunes, even under a coarse prune tolerance
    pruned.clear()
    model = nls.NlsModel((1, 2), 6, np.array([4e-3, 3e-3]))
    bk, kf = nls.build_nls(model, Budgets(6, 2048))
    assert pruned == []
    assert "prune_mass" not in bk.H.meta and not hasattr(kf, "prune_mass")


def test_prune_vf_bound_bounds_the_move_of_eps_next(tmp_path, monkeypatch):
    # the end-of-step prune is the one magnitude cut left in a step; with it
    # made a no-op, step 1's eps_next moves by at most the summed majorants
    # of the terms it would drop (vector_field_norm is subadditive)
    from kamzero import cli

    reports = []
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(series.TFSeries, "prune", lambda self, rel: 0.0)
        out = tmp_path / str(patched)
        cli.main(["run", "--config", os.path.join(CONFIGS, "nls.cfg"), "--max-steps", "1",
                  "--out", str(out)])
        reports.append(json.loads((out / "run.json").read_text())["steps"][0])
    pruned, kept = reports
    assert pruned["prune_mass"] > 0 and kept["prune_mass"] == 0.0
    assert kept["prune_vf_bound"] == pruned["prune_vf_bound"] > 0
    assert kept["eps_measured"] == pruned["eps_measured"]
    assert abs(kept["eps_next"] - pruned["eps_next"]) <= pruned["prune_vf_bound"]


@pytest.mark.parametrize("shape", ["synthetic", "no_torus", "nls"])
def test_vf_truncation_keeps_the_runs_of_the_shipped_configs(tmp_path, monkeypatch, shape):
    # each step drops R's terms of smallest vector-field majorant up to
    # _VF_TRUNC_REL * eps_m (1e-12), and forms {R, F} without the products
    # whose summed majorant bounds fit the same budget; _VF_TRUNC_REL = 0 is
    # the exact run.  The verdicts must agree.  Where R is roundoff
    # (synthetic m >= 2, no_torus m = 2) the solver may solve fewer blocks;
    # on the NLS run every step solves the same ones.
    from kamzero import cli

    formed = []     # product rows formed by each step's {R, F}, default run
    bracket, add = driver.poisson_bracket, series._Accumulator.add

    def counted(F, G, dp=None, budget=0.0):
        if not budget:
            return bracket(F, G, dp, budget)
        rows = []
        with monkeypatch.context() as patch:
            patch.setattr(series._Accumulator, "add",
                          lambda acc, words, coefs: rows.append(len(coefs)) or add(acc, words, coefs))
            out = bracket(F, G, dp, budget)
        formed.append(sum(rows))
        return out
    monkeypatch.setattr(driver, "poisson_bracket", counted)
    reports = []
    for rel in (driver._VF_TRUNC_REL, 0.0):
        monkeypatch.setattr(driver, "_VF_TRUNC_REL", rel)
        out = tmp_path / str(rel)
        cli.main(["run", "--config", os.path.join(CONFIGS, shape + ".cfg"), "--out", str(out)])
        reports.append(json.loads((out / "run.json").read_text()))
    trunc, exact = reports
    assert trunc["verdict"] == exact["verdict"]
    assert trunc["verdict_info"]["m"] == exact["verdict_info"]["m"]
    assert len(trunc["steps"]) == len(exact["steps"])
    assert all(s["vf_trunc_bound"] == 0.0 and s["vf_trunc_terms"] == 0 for s in exact["steps"])
    assert all(s["skip_bound"] == 0.0 and s["skip_rows"] == 0 for s in exact["steps"])
    assert any(s["vf_trunc_terms"] for s in trunc["steps"])
    # no bracket of these runs forms a product outside the degree and
    # Fourier budgets (F solves R's degree <= 2 part, and K_m > k_max ends a
    # run first), so no step truncates any mass; a change that makes the
    # budgets bind shows here
    assert all(s["dropped_mass"] == 0.0 for report in reports for s in report["steps"])
    # every S1 plans its skip and leaves rows out: nls steps 1-2, synthetic
    # 1-3, no_torus 1-2
    assert len(formed) == {"nls": 2, "synthetic": 3, "no_torus": 2}[shape]
    assert [s["m"] for s in trunc["steps"] if s["skip_rows"] > 0] == list(range(1, len(formed) + 1))
    # vf_trunc_bound certifies the distance of R on the step's own domain,
    # skip_bound that of {R, F} on the outgoing one, where eps_next is
    # measured; neither covers the higher Lie orders formed from them, and
    # a term dropped from R can weigh up to (r_m / r_next)^2 more on the
    # outgoing domain.  So the eps comparison is an empirical differential
    # check against the bounds summed over the run so far; on these configs
    # eps moves by at most 0.15 of that sum (synthetic step 1: 8.9e-20
    # against 6.0e-19), since eps falls by orders of magnitude per step.
    dropped = 0.0
    for s, e in zip(trunc["steps"], exact["steps"]):
        for bound in ("vf_trunc_bound", "skip_bound"):
            assert s[bound] <= 1e-12 * s["eps_measured"] * (1 + 1e-12)
        assert abs(s["eps_measured"] - e["eps_measured"]) <= dropped
        dropped += s["vf_trunc_bound"] + s["skip_bound"]
        assert abs(s["eps_next"] - e["eps_next"]) <= dropped
    if shape == "nls":
        assert [s["solve_counts"] for s in trunc["steps"]] == [s["solve_counts"] for s in exact["steps"]]
        # steps 1 and 2 bracket {R, F}; step 2 forms under a tenth of its rows
        skipped = [s["skip_rows"] for s in trunc["steps"][:2]]
        assert len(formed) == 2 and min(skipped) > 0
        assert skipped[1] > 9 * formed[1]
        # whole rows of R, then single products, are left out: 90,277 of
        # 1,899,498 and 24,088 of 4,045,252 rows formed
        assert formed[0] <= 100_000 and formed[1] <= 30_000


def test_the_row_cut_forms_few_more_rows_than_the_product_plan(nls_build, monkeypatch):
    # step 1's S1 = {R, F} on the nls problem: cutting whole rows of R ahead
    # of the product plan forms at most 1.15x the rows of the plan alone
    # (the cut patched away), leaves out products within the budget only,
    # and differentiates under half of R's rows; the formed rows and
    # skip_rows add up to the whole bracket's products either way
    _, _, kf = nls_build
    base = BaseParams(n=2, b=1, tau=3.5, s1=0.6, r1=0.02, gamma1=0.005, eps_floor=1e-5)
    calls, bracket = [], driver.poisson_bracket

    def recorded(F, G, dp=None, budget=0.0):
        if budget > 0.0:
            calls.append((F, G, dp, budget))
        return bracket(F, G, dp, budget)
    with monkeypatch.context() as patch:
        patch.setattr(driver, "poisson_bracket", recorded)
        run(kf.N0, kf.R0, base, kf.dims, DomainParams(0.6, 0.02, 0.1, 1.0), max_steps=1)
    (R, F, dp, budget), = calls
    add, derivatives = series._Accumulator.add, series._derivatives

    def formed(share, budget):
        rows, differentiated = [], []

        def differentiate(S, lo, codec, cols, pair, src):
            differentiated.append(len(np.unique(src)))
            return derivatives(S, lo, codec, cols, pair, src)

        def added(acc, words, coefs):
            rows.append(len(coefs))
            return add(acc, words, coefs)
        with monkeypatch.context() as patch:
            patch.setattr(series, "_ROW_SHARE", share)
            patch.setattr(series, "_derivatives", differentiate)
            patch.setattr(series._Accumulator, "add", added)
            out = series.poisson_bracket(R, F, dp, budget)
        return out, sum(rows), max(differentiated)
    two, rows_two, diff_two = formed(series._ROW_SHARE, budget)
    alone, rows_alone, diff_alone = formed(0.0, budget)
    _, whole, diff_whole = formed(series._ROW_SHARE, 0.0)
    assert 0 < rows_two <= 1.15 * rows_alone
    assert diff_alone == diff_whole == len(R) and 2 * diff_two < diff_whole
    for out, rows in ((two, rows_two), (alone, rows_alone)):
        assert 0.0 < out.meta["skip_bound"] <= budget
        assert rows + out.meta["skip_rows"] == whole


def test_halved_brackets_of_the_nls_run_have_real_operands(tmp_path, monkeypatch):
    # a product of two real-flagged operands is formed from half of the
    # first one, which trusts the flags: on the NLS run every such operand
    # must be real to roundoff
    from kamzero import cli

    defects = []
    products = series._products

    def audited(out, A, B, pairs, *args):
        if A.real and B.real:
            defects.extend(reality_defect(S) / S.max_abs() for S in (A, B))
        return products(out, A, B, pairs, *args)
    monkeypatch.setattr(series, "_products", audited)
    cli.main(["run", "--config", os.path.join(CONFIGS, "nls.cfg"), "--max-steps", "2",
              "--out", str(tmp_path)])
    assert len(json.loads((tmp_path / "run.json").read_text())["steps"]) == 2
    # the step-1 bracket {R, F} and step 2's
    assert len(defects) >= 4
    assert max(defects) <= 1e-10


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_zero_perturbation_converges_immediately():
    N, _ = make_synthetic_problem(DIMS, BUD, 1e-6, seed=0, dp=DP0)
    R = TFSeries.zero(DIMS, BUD)
    rep = run(N, R, BASE, DIMS, DP0, max_steps=3)
    assert rep.verdict == "TorusConverged"
    assert rep.verdict_info["m"] == 1


def test_run_resonant_sample():
    N, R = make_synthetic_problem(DIMS, BUD, 1e-6, seed=3, n_high=0, dp=DP0)
    N.omega = np.array([1.0, 1.0])  # rational: <k, omega> = 0 at (1, -1)
    rep = run(N, R, BASE, DIMS, DP0, max_steps=3)
    assert rep.verdict == "ResonantSample"
    assert rep.verdict_info["family"] == "KL"


def test_run_synthetic_torus_converged():
    N, R = make_synthetic_problem(DIMS, BUD, 1e-6, seed=2, n_high=0, dp=DP0)
    rep = run(N, R, BASE, DIMS, DP0, max_steps=5)
    assert rep.verdict == "TorusConverged"
    assert all(r.delta0 == 0.0 for r in rep.steps)
    # cumulative drift constant matches items summed from the trace
    assert rep.constants["freq_drift_sum"] == pytest.approx(
        sum(r.freq_drift for r in rep.steps))


def test_run_nls_full_pipeline_converges():
    from kamzero.nls import NlsModel, build_nls

    model = NlsModel(sites=(1, 2), jmax=6, xi=np.array([4e-3, 3e-3]))
    bk, kf = build_nls(model, Budgets(6, 2048))
    base = BaseParams(n=2, b=1, tau=3.5, s1=0.6, r1=0.02, gamma1=0.005,
                      eps_floor=1e-5)
    rep = run(kf.N0, kf.R0, base, kf.dims,
              DomainParams(0.6, 0.02, 0.1, 1.0), max_steps=3)
    assert rep.verdict == "TorusConverged"
    assert all(r.delta0 <= 1e-12 for r in rep.steps)


def test_run_no_torus_witnessed():
    eps0 = 1e-6
    thr = 20.0 * eps0 ** (7.0 / 6.0)
    c = 1e4 * thr / math.sqrt(2.0)
    N, R = make_synthetic_problem(DIMS, BUD, eps0, seed=2, n_high=0,
                                  inject_z0=c, dp=DP0)
    rep = run(N, R, BASE, DIMS, DP0, max_steps=5)
    assert rep.verdict == "NoTorusWitnessed"
    assert rep.verdict_info["delta0"] > 0
    assert rep.verdict_info["final_norm"] > rep.verdict_info["threshold"]
    # delta0 stabilizes once accumulated: successive estimates differ by at
    # most a multiple of the entering perturbation size
    d0s = [r.delta0 for r in rep.steps]
    if len(d0s) >= 2:
        for prev, cur, rec in zip(d0s, d0s[1:], rep.steps[1:]):
            assert abs(cur - prev) <= 10.0 * rec.eps_measured
