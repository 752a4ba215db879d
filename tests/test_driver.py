import hashlib
import math
import os
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from kamzero.cli import _build_problem
from kamzero.config import parse_config
from kamzero.driver import (BaseParams, BudgetExhausted, PremiseFailed,
                            StepRecord, _eval_gradients, _zero_mode_tables,
                            delta0, dichotomy, kam_step, make_synthetic_problem,
                            no_torus_witness, run, schedule, scheduled_eps)
from kamzero.homological import NormalForm, ResonantParameter
from kamzero.series import (Budgets, DomainParams, SeriesDims, TFSeries,
                            make_key, vector_field_norm)

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
    assert p.gamma_1m == pytest.approx(p.gamma_m / 2 ** (18 * b4))
    assert p.gamma_3m == pytest.approx(p.gamma_m / 2 ** (32 * b4))
    assert p.gamma_4m == pytest.approx(p.gamma_m / 2 ** (8 * b4))
    p1 = schedule(1, BASE)
    assert p1.gamma_1m == p1.gamma_3m == p1.gamma_4m == p1.gamma_m
    # at b = 2, m = 4, m ** (32 b^4) = 2^1024 overflows a float: the thresholds
    # must underflow to the correctly rounded value instead (a subnormal at
    # m = 4, zero at m = 5)
    for m in (4, 5):
        p = schedule(m, replace(BASE, b=2))
        for name, e in (("gamma_1m", 18), ("gamma_3m", 32), ("gamma_4m", 8)):
            exact = float(Fraction(p.gamma_m) / m ** (e * 2 ** 4))
            assert getattr(p, name) == pytest.approx(exact, rel=1e-15, abs=0)
    assert 0 < schedule(4, replace(BASE, b=2)).gamma_3m < 2.0 ** -1022
    assert schedule(5, replace(BASE, b=2)).gamma_3m == 0.0


# ---------------------------------------------------------------------------
# kam_step
# ---------------------------------------------------------------------------

def test_step_with_zero_perturbation():
    N, _ = make_synthetic_problem(DIMS, BUD, 1e-6, seed=0, dp=DP0)
    R = TFSeries.zero(DIMS, BUD)
    params = schedule(1, BASE, eps_m=1e-6)
    dp = DomainParams(params.s_m, params.r_m, DP0.a, DP0.p)
    N1, R1, rec = kam_step(N, R, params, DIMS, dp)
    assert not R1.terms
    assert rec.eps_measured == 0.0 and rec.eps_next == 0.0
    assert np.array_equal(N1.omega, N.omega)


def test_step_contracts_and_drift_bounded():
    N, R = make_synthetic_problem(DIMS, BUD, 1e-6, seed=2, n_high=0, dp=DP0)
    eps0 = vector_field_norm(R, DP0)
    params = schedule(1, BASE, eps_m=eps0)
    dp = DomainParams(params.s_m, params.r_m, DP0.a, DP0.p)
    N1, R1, rec = kam_step(N, R, params, DIMS, dp, eps_measured=eps0)
    assert rec.eps_next <= eps0 ** 1.15
    assert rec.freq_drift <= 10.0 * eps0
    assert rec.residual <= 1e-9 * eps0


def test_budget_exhausted_when_K_exceeds_budget():
    N, R = make_synthetic_problem(DIMS, Budgets(6, 16), 1e-6, seed=2, dp=DP0)
    params = schedule(1, BASE, eps_m=1e-6)  # K ~ 184 > 16
    dp = DomainParams(params.s_m, params.r_m, DP0.a, DP0.p)
    with pytest.raises(BudgetExhausted):
        kam_step(N, R, params, DIMS, dp)


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
        Ncur, R, rec = kam_step(Ncur, R, params, DIMS, dp, eps_measured=eps)
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
    return StepRecord(m=m, eps_scheduled=eps_measured, eps_measured=eps_measured,
                      eps_next=eps_next, xF_norm=0.0, residual=0.0,
                      freq_drift=0.0, delta0=d0, dropped_mass=0.0, lie_order=1,
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
    params = schedule(1, BASE, eps_m=1e-6)
    escaped, rec = no_torus_witness(N, R, params, DIMS, eps_prev=1e-6)
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
    params = schedule(1, BASE, eps_m=eps)
    escaped, rec = no_torus_witness(N, R, params, DIMS, eps_prev=eps)
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
    R = TFSeries(DIMS, BUD, {make_key(2, k=(1, 0), beta={1: 1}): 1e-9 + 0j,
                             make_key(2, k=(-1, 0), gamma={1: 1}): 1e-9 + 0j})
    params = schedule(1, BASE, eps_m=eps)
    esc_f, rec_f = no_torus_witness(N, R, params, DIMS, eps_prev=eps, mode="frozen")
    esc_c, rec_c = no_torus_witness(N, R, params, DIMS, eps_prev=eps, mode="coupled")
    assert esc_f and esc_c
    assert rec_c.final_norm == pytest.approx(rec_f.final_norm, rel=1e-3)
    with pytest.raises(ValueError):
        no_torus_witness(N, R, params, DIMS, eps_prev=eps, mode="bogus")


def _zero_mode_gradients(R, dims, x, z, zb):
    """Per-term loop over R.terms: (dR/dz0, dR/dzbar0, dR/dy) at y = 0 and
    tail = 0, the reference for the witness gradient tables."""
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


@pytest.mark.parametrize("b", [1, 2])
def test_witness_tables_match_per_term_loop(b):
    dims = SeriesDims(2, (), tuple(range(1, b + 1)), 6)
    rng = np.random.default_rng(b)
    # the small problem has gradients of one term and of none
    for n_low, n_high in ((30, 20), (6, 3)):
        _, R = make_synthetic_problem(dims, BUD, 1e-3, seed=4, n_low=n_low, n_high=n_high)
        coupled = _zero_mode_tables(R, dims)
        assert len(coupled[3]) == 2 * b + 2
        for _ in range(5):
            x = rng.uniform(0, 2 * np.pi, size=2)
            z = 0.1 * (rng.standard_normal(b) + 1j * rng.standard_normal(b))
            zb = 0.1 * (rng.standard_normal(b) + 1j * rng.standard_normal(b))
            gz, gzb, gy = _zero_mode_gradients(R, dims, x, z, zb)
            X = np.concatenate([z, zb])
            # the stacked order: dR/dzbar0, dR/dz0, then (coupled) dR/dy
            got = _eval_gradients(coupled, X, x)
            frozen = _eval_gradients(_zero_mode_tables(R, dims, x), X)
            assert np.allclose(got, np.concatenate([gzb, gz, gy]), rtol=1e-12, atol=1e-15)
            assert np.allclose(frozen, np.concatenate([gzb, gz]), rtol=1e-12, atol=1e-15)


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
    N0, R0, dims, base = _build_problem(cfg, None)
    assert all(hi > lo for lo, hi in _zero_mode_tables(R0, dims, np.zeros(2))[3])
    escaped, rec = no_torus_witness(N0, R0, schedule(1, base, eps_m=1e-6), dims,
                                    eps_prev=1e-6)
    assert escaped
    digest = hashlib.sha256(np.asarray(rec.norms).tobytes()).hexdigest()[:16]
    assert digest == PINNED_NORMS[b]


def test_witness_premise_guard():
    N = _witness_nf(0.1)
    N.Nz0z0 = np.array([[5.0 + 0j]])  # ||A0|| far from small
    R = TFSeries.zero(DIMS, BUD)
    params = schedule(1, BASE, eps_m=1e-6)
    with pytest.raises(PremiseFailed):
        no_torus_witness(N, R, params, DIMS, eps_prev=1e-6)


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
    _, R = make_synthetic_problem(dims, BUD, 1e-6, seed=seed, block_scale=1e-3)
    assert digest(R) == PINNED_R["defaults", b, seed]


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
