"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
failure report) and asserts the criterion.  The random instances are seeded
and frozen; nothing here is tuned at runtime.
"""

import json
import math
import time

import numpy as np
import pytest

from kamzero.driver import (BaseParams, iterate, make_synthetic_problem,
                            no_torus_witness, realify, run, schedule)
from kamzero.homological import (NormalForm, check_nonresonance,
                                 solve_homological)
from kamzero.matrixkit import kron, vec
from kamzero.measure import ParameterGrid, estimate_excluded
from kamzero.nls import (grading_violations, parity_check, parity_v0,
                         parity_weighted)
from kamzero.reporting import emit_report
from kamzero.series import (Budgets, DomainParams, SeriesDims, TFSeries,
                            fourier_truncate, poisson_bracket, split_low_high,
                            vector_field_norm, weighted_norm)
from series_ref import from_terms, key_degree, make_key, product


def _report(num, ok, desc):
    print("ACCEPTANCE %02d: %s - %s" % (num, "PASS" if ok else "FAIL", desc))
    assert ok, "criterion %d failed: %s" % (num, desc)


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_series(rng, dims, bud, nterms=15, degmax=4, kspread=2):
    terms = {}
    modes = dims.modes
    while len(terms) < nterms:
        k = tuple(int(v) for v in rng.integers(-kspread, kspread + 1, size=dims.n))
        nz = rng.integers(0, degmax + 1)
        na = rng.integers(0, (degmax - nz) // 2 + 1)
        alpha = [0] * dims.n
        for _ in range(na):
            alpha[rng.integers(0, dims.n)] += 1
        bmap, gmap = {}, {}
        for _ in range(nz):
            m = modes[rng.integers(0, len(modes))]
            tgt = bmap if rng.random() < 0.5 else gmap
            tgt[m] = tgt.get(m, 0) + 1
        key = make_key(dims.n, k, tuple(alpha), bmap, gmap)
        terms[key] = complex(rng.standard_normal(), rng.standard_normal())
    return from_terms(dims, bud, terms)


def test_criterion_01_kronecker_vec_identities():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        A, B, C, D = (_crandn(rng, 2, 2) for _ in range(4))
        worst = max(worst, np.abs(kron(A, B) @ kron(C, D) - kron(A @ C, B @ D)).max())
        A3 = _crandn(rng, 2, 3)
        B3 = _crandn(rng, 3, 2)
        C3 = _crandn(rng, 2, 2)
        worst = max(worst, np.abs(vec(A3 @ B3 @ C3) - kron(C3.T, A3) @ vec(B3)).max())
        A9, B9, X9 = (_crandn(rng, 3, 3) for _ in range(3))
        worst = max(worst, np.abs(
            vec(A9 @ X9 + X9 @ B9)
            - (kron(np.eye(3), A9) + kron(B9.T, np.eye(3))) @ vec(X9)).max())
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-12 and elapsed < 1.0,
            "Kronecker/vec identities: max err %.2e in %.2fs" % (worst, elapsed))


def test_criterion_02_poisson_algebra():
    dims = SeriesDims(2, (), (1,), 6)
    bud = Budgets(8, 16)
    dp = DomainParams(0.5, 0.3)
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    antisym_exact = True
    jacobi_ok = True
    leibniz_ok = True
    for _ in range(100):
        F = _random_series(rng, dims, bud, nterms=8)
        G = _random_series(rng, dims, bud, nterms=8)
        H = _random_series(rng, dims, bud, nterms=8)
        fg = poisson_bracket(F, G)
        gf = poisson_bracket(G, F)
        keys = set(fg.terms) | set(gf.terms)
        antisym_exact &= all(fg.terms.get(k, 0j) == -gf.terms.get(k, 0j) for k in keys)
        antisym_exact &= poisson_bracket(F, F).terms == {}
        # budget truncation acts key by key, so once the inner brackets and
        # products drop nothing, both identities hold exactly inside the
        # budgets, whatever the outer brackets drop
        inner = [poisson_bracket(G, H), poisson_bracket(H, F), fg]
        outer = [poisson_bracket(F, inner[0]), poisson_bracket(G, inner[1]),
                 poisson_bracket(H, inner[2])]
        total = outer[0] + outer[1] + outer[2]
        floor = 1e-12 * sum(vector_field_norm(s, dp) for s in outer)
        jacobi_ok &= all(s.meta["dropped_mass"] == 0.0 for s in inner)
        jacobi_ok &= vector_field_norm(total, dp) <= floor
        gh, fh = product(G, H), poisson_bracket(F, H)
        lhs = poisson_bracket(F, gh)
        t1 = product(fg, H)
        t2 = product(G, fh)
        lfloor = 1e-12 * sum(vector_field_norm(s, dp) for s in (lhs, t1, t2))
        leibniz_ok &= all(s.meta["dropped_mass"] == 0.0 for s in (gh, fg, fh))
        leibniz_ok &= vector_field_norm(lhs - t1 - t2, dp) <= lfloor
    elapsed = time.perf_counter() - t0
    _report(2, antisym_exact and jacobi_ok and leibniz_ok and elapsed < 10.0,
            "Poisson algebra: antisym exact=%s jacobi=%s leibniz=%s in %.1fs"
            % (antisym_exact, jacobi_ok, leibniz_ok, elapsed))


def test_criterion_03_homological_residual():
    bud = Budgets(6, 16)
    worst_rel = 0.0
    count = 0
    for b in (1, 2):
        dims = SeriesDims(2, (), tuple(range(1, 1 + b)), 8)
        got = 0
        seed = 0
        while got < 10 and seed < 40:
            seed += 1
            rng = np.random.default_rng(300 + 13 * seed + b)
            N = NormalForm.zero(2, b)
            N.omega = 1.0 + rng.random(2)
            N.Omega = {j: float(j * j) for j in dims.tail_modes}
            S = _crandn(rng, b, b)
            N.Nz0z0 = 0.01 * (S + S.T)
            N.Nzb0zb0 = N.Nz0z0.conj()
            M = _crandn(rng, b, b)
            N.Nz0zb0 = 0.01 * (M + M.conj().T)
            N.Nz0 = 0.005 * _crandn(rng, b)
            N.Nzb0 = N.Nz0.conj()
            base = BaseParams(n=2, b=b, tau=3.5, s1=0.8, r1=0.3, gamma1=1e-3)
            params = schedule(1, base, eps_m=1e-4)
            R = realify(_random_series(rng, dims, bud, nterms=40, degmax=2,
                                       kspread=3)) * 1e-4
            R_low, _ = split_low_high(R)
            R_low, _, _ = fourier_truncate(R_low, 6.0)
            if check_nonresonance(N, params, dims):
                continue
            dp = DomainParams(params.s_m, 0.3)
            F, hat, rep = solve_homological(N, R_low, params, dims, dp=dp)
            worst_rel = max(worst_rel, rep.residual / vector_field_norm(R_low, dp))
            count += 1
            got += 1
    # block/diagonal equivalence: all zero-mode blocks zero
    dims = SeriesDims(2, (), (1,), 8)
    rng = np.random.default_rng(399)
    N = NormalForm.zero(2, 1)
    N.omega = 1.0 + rng.random(2)
    N.Omega = {j: float(j * j) for j in dims.tail_modes}
    base = BaseParams(n=2, b=1, tau=3.5, s1=0.8, r1=0.3, gamma1=1e-3)
    params = schedule(1, base, eps_m=1e-4)
    R = realify(_random_series(rng, dims, bud, nterms=40, degmax=2, kspread=3)) * 1e-4
    R_low, _ = split_low_high(R)
    F, hat, _ = solve_homological(N, R_low, params, dims, DomainParams(params.s_m, 0.3))
    equiv = 0.0
    for key, c in R_low.terms.items():
        kw = np.dot(key.k, N.omega)
        shift = sum(N.Omega.get(m, 0.0) * e for m, e in key.beta)
        shift -= sum(N.Omega.get(m, 0.0) * e for m, e in key.gamma)
        div = 1j * (kw + shift)
        if abs(div) < 1e-12:
            continue
        equiv = max(equiv, abs(F.terms.get(key, 0j) - c / div) / abs(c / div))
    _report(3, count >= 20 and worst_rel <= 1e-9 and equiv <= 1e-12,
            "homological residual: %d instances, worst rel %.2e, "
            "block/diag dev %.2e" % (count, worst_rel, equiv))


def test_criterion_04_fourier_tail_bound():
    dims = SeriesDims(2, (), (1,), 6)
    bud = Budgets(6, 64)
    dp = DomainParams(0.5, 0.3)
    rng = np.random.default_rng(104)
    ok = True
    detail = []
    for trial in range(5):
        R = _random_series(rng, dims, bud, nterms=60, kspread=20)
        for K in (4, 8, 16):
            _, tail, rep = fourier_truncate(R, K, dp, sigma=dp.s / 2)
            bound = (4.0 ** dims.n) * K ** dims.n * math.exp(-K * dp.s / 2) \
                * weighted_norm(R, dp)
            ok &= rep.tail_norm <= bound
            detail.append(rep.ratio)
    _report(4, ok, "Fourier tail bound: max measured/bound ratio %.3e"
            % max(detail))


def test_criterion_05_kam_contraction():
    dims = SeriesDims(2, (), (1,), 6)
    bud = Budgets(6, 4096)
    base = BaseParams(n=2, b=1, tau=3.5, s1=0.6, r1=0.25, gamma1=0.05)
    N, R = make_synthetic_problem(dims, bud, 1e-6, seed=2, n_high=0, dp=base.domain)
    contraction_ok = True
    epslist = [vector_field_norm(R, base.domain)]
    drift = 0.0
    for _, (m, params, N, R, rec) in zip(range(3), iterate(N, R, base, dims)):
        contraction_ok &= rec.eps_next <= rec.eps_measured ** 1.1
        drift += rec.freq_drift
        epslist.append(rec.eps_next)
    drift_ok = drift <= 10.0 * sum(epslist[:-1])
    _report(5, contraction_ok and drift_ok,
            "KAM contraction: eps trace %s, drift %.2e"
            % (["%.2e" % e for e in epslist], drift))


def test_criterion_06_birkhoff_step(nls_build):
    model, bk, kf = nls_build
    # all quartics with an index relation and distinct multisets eliminated
    leftover = bk.max_resonant_leftover
    # surviving pattern proportional to (2 + delta_ij), single constant
    vals = []
    for i in range(1, model.jmax + 1):
        for j in range(i, model.jmax + 1):
            vals.append(bk.Gbar[i, j] / (2 + (1 if i == j else 0)))
    vals = np.array(vals)
    spread = (vals.max() - vals.min()) / vals.max()
    # momentum grading of the remainder: both conserved mod-2 classes
    grading_ok = (not parity_v0(bk.K).any() and not parity_weighted(bk.K, ()).any()
                  and all(key_degree(k) >= 6 and key_degree(k) % 2 == 0 for k in bk.K.terms))
    _report(6, leftover <= 1e-12 and spread <= 1e-10 and grading_ok,
            "Birkhoff step: leftover %.2e, Gbar spread %.2e, grading %s"
            % (leftover, spread, grading_ok))


def test_criterion_07_nls_parity(nls_build):
    model, bk, kf = nls_build
    dims = kf.dims
    base = BaseParams(n=2, b=1, tau=3.5, s1=0.6, r1=0.02, gamma1=0.005)
    R = kf.R0
    worst = [0.0, 0.0, 0.0]

    def z0_mean_defect(series):
        viol = parity_check(series, dims, "zero_mode_linear", tol=0.0)
        return max((v for _, v in viol), default=0.0)

    worst[0] = z0_mean_defect(R)
    for _, (m, _, _, R, _) in zip(range(2), iterate(kf.N0, R, base, dims)):
        worst[m] = z0_mean_defect(R)
    # negative control: an even-|k| zero-mode term must be flagged
    bad = make_key(2, k=(1, 1), beta={0: 1})
    spiked = from_terms(R.dims, R.budgets, {**R.terms, bad: 1e-3 + 0j}, real=R.real)
    flagged = any(key == bad for key, _ in
                  parity_check(spiked, dims, "even_k_blocks"))
    ok = max(worst) <= 1e-12 and flagged
    _report(7, ok, "NLS parity: z0 means %s, negative control flagged=%s"
            % (["%.1e" % w for w in worst], flagged))


def test_criterion_08_delta0_dichotomy():
    dims = SeriesDims(2, (), (1,), 6)
    bud = Budgets(6, 4096)
    eps = 1e-6
    d0 = 1e4 * 20.0 * eps ** (7.0 / 6.0)
    c = d0 / math.sqrt(2.0)
    N = NormalForm.zero(2, 1)
    N.omega = np.array([np.sqrt(3.0), np.sqrt(2.0)])
    N.Omega = {j: float(j * j) for j in dims.tail_modes}
    N.Nz0 = np.array([c + 0j])
    N.Nzb0 = np.array([c + 0j])
    R = TFSeries.zero(dims, bud)
    escaped, rec = no_torus_witness(N, R, dims, eps)
    lower = d0 / 4.0 - 3.0 * eps ** (7.0 / 6.0)
    oracle_ok = abs(rec.tilde_final_norm - rec.linear_oracle_norm) \
        <= 0.05 * rec.linear_oracle_norm
    chain_ok = rec.tilde_final_norm >= lower
    # delta0 = 0: the zero-mode coordinates stay inside 2 eps^{7/6}
    N0 = NormalForm.zero(2, 1)
    N0.omega = N.omega
    N0.Omega = dict(N.Omega)
    stay, rec0 = no_torus_witness(N0, R, dims, eps)
    stays_ok = (not stay) and max(rec0.norms) <= 2.0 * eps ** (7.0 / 6.0)
    _report(8, escaped and oracle_ok and chain_ok and stays_ok,
            "delta0 dichotomy: escape=%s |X~(1)|=%.3e >= %.3e, oracle dev "
            "%.2e, zero case bounded=%s"
            % (escaped, rec.tilde_final_norm, lower,
               abs(rec.tilde_final_norm - rec.linear_oracle_norm), stays_ok))


def test_criterion_09_measure_scaling(nls_build):
    model, bk, kf = nls_build
    fmap = kf.fmap
    grid = ParameterGrid(np.array([1e-3, 1e-3]), np.array([1e-2, 1e-2]), 100)
    fracs = []
    gamma = 0.004
    for _ in range(4):
        base = BaseParams(n=2, b=1, tau=3.5, s1=0.6, r1=0.02, gamma1=gamma)
        params = schedule(1, base, eps_m=1e-4)
        rep = estimate_excluded(fmap, params, kf.dims, grid, families=("KL",),
                                kmax=10.0)
        fracs.append(rep.fractions["KL"])
        gamma *= 0.5
    ratios = [lo / hi for hi, lo in zip(fracs, fracs[1:])]
    ok = fracs[0] > 0.01 and all(0.3 <= r <= 0.7 for r in ratios)
    _report(9, ok, "measure scaling: fractions %s ratios %s"
            % (["%.4f" % f for f in fracs], ["%.3f" % r for r in ratios]))


def test_criterion_10_determinism(tmp_path):
    dims = SeriesDims(2, (), (1,), 6)
    bud = Budgets(6, 4096)
    base = BaseParams(n=2, b=1, tau=3.5, s1=0.6, r1=0.25, gamma1=0.05)
    blobs = []
    for tag in ("a", "b"):
        N, R = make_synthetic_problem(dims, bud, 1e-6, seed=7, dp=base.domain)
        rep = run(N, R, base, dims, max_steps=3)
        _, jpath = emit_report(rep, str(tmp_path / tag))
        blobs.append(open(jpath, "rb").read())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 100
    _report(10, ok, "determinism: %d identical bytes" % len(blobs[0]))
