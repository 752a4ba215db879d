import math

import numpy as np
import pytest

from kamzero.nls import (NlsModel, birkhoff_transform, build_nls,
                         classify_index_vectors, g_tensor, grading_violations,
                         index_solvability, momentum_signed, parity_check,
                         parity_v0, parity_weighted, quartic_hamiltonian,
                         to_kam_form)
from kamzero.series import (Budgets, DomainParams, TFSeries, key_degree,
                            make_key, vector_field_norm)


def _phi(j, x):
    if j == 0:
        return np.full_like(x, 1.0 / math.sqrt(2.0 * math.pi))
    return np.cos(j * x) / math.sqrt(math.pi)


def quadrature_g(i, j, k, l, npts=2048):
    x = np.linspace(0.0, 2.0 * math.pi, npts, endpoint=False)
    vals = _phi(i, x) * _phi(j, x) * _phi(k, x) * _phi(l, x)
    return float(vals.sum() * (2.0 * math.pi / npts))


# ---------------------------------------------------------------------------
# coupling tensor
# ---------------------------------------------------------------------------

def test_g_tensor_constant_mode():
    assert g_tensor(0, 0, 0, 0) == pytest.approx(1.0 / (2.0 * math.pi))


def test_g_tensor_vanishes_without_sign_relation():
    assert g_tensor(1, 1, 1, 4) == 0.0
    assert g_tensor(1, 2, 0, 6) == 0.0  # 1 +- 2 +- 0 +- 6 never vanishes


def test_g_tensor_against_quadrature():
    rng = np.random.default_rng(0)
    for _ in range(60):
        idx = tuple(int(v) for v in rng.integers(0, 7, size=4))
        assert g_tensor(*idx) == pytest.approx(quadrature_g(*idx), abs=1e-10)
    # the collected action coupling is the raw tensor divided by 4:
    # G_iijj = 4 * (2 + delta_ij) / (16 pi) for i, j >= 1
    for i, j in [(1, 2), (2, 5), (3, 3)]:
        pattern = (2 + (1 if i == j else 0)) / (16.0 * math.pi)
        assert g_tensor(i, i, j, j) == pytest.approx(4.0 * pattern, rel=1e-12)


# ---------------------------------------------------------------------------
# partial Birkhoff transform
# ---------------------------------------------------------------------------

def test_birkhoff_eliminates_and_collects(nls_build):
    model, bk, kf = nls_build
    assert bk.max_resonant_leftover <= 1e-12
    # surviving |q1|^2 |q2|^2 coefficient carries the action coupling
    key = make_key(0, beta={1: 1, 2: 1}, gamma={1: 1, 2: 1})
    coef = bk.quartic.coefficient(key)
    assert coef.real == pytest.approx(4.0 * bk.Gbar[1, 2], rel=1e-12)
    # the explicitly non-resonant monomial q1 q3 qbar2^2 (1 + 3 - 2 - 2 = 0,
    # {1,3} != {2,2}) is gone
    bad = make_key(0, beta={1: 1, 3: 1}, gamma={2: 2})
    assert abs(bk.H.coefficient(bad)) <= 1e-12
    lam, G = quartic_hamiltonian(model, Budgets(6, 512))
    assert abs(G.coefficient(bad)) > 1e-3  # it was present before


def test_gbar_pattern_and_mass_identity(nls_build):
    model, bk, kf = nls_build
    jm = model.jmax
    vals = []
    for i in range(1, jm + 1):
        for j in range(i, jm + 1):
            vals.append(bk.Gbar[i, j] / (2 + (1 if i == j else 0)))
    vals = np.array(vals)
    assert vals.max() - vals.min() <= 1e-10 * vals.max()
    assert vals[0] == pytest.approx(1.0 / (16.0 * math.pi), rel=1e-12)
    # zero-mode couplings: 1/(8 pi) whether one index is 0 or both
    assert bk.Gbar[0, 0] == pytest.approx(1.0 / (8.0 * math.pi), rel=1e-12)
    for j in range(1, jm + 1):
        assert bk.Gbar[0, j] == pytest.approx(1.0 / (8.0 * math.pi), rel=1e-12)
    # collected-action identity: Gbar as a quadratic form in the actions
    # x_j = |q_j|^2 equals (1/16pi) sum_{j>=1} x_j^2 + (1/8pi) (sum_j x_j)^2
    rng = np.random.default_rng(1)
    x = rng.random(jm + 1)
    lhs = x @ bk.Gbar @ x
    rhs = (1.0 / (16.0 * math.pi)) * np.sum(x[1:] ** 2) \
        + (1.0 / (8.0 * math.pi)) * np.sum(x) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_k_part_momentum_gradings(nls_build):
    model, bk, kf = nls_build
    assert len(bk.K) > 0
    for key in bk.K.terms:
        assert key_degree(key) >= 6
        assert key_degree(key) % 2 == 0
        assert parity_v0(key) == 0
        assert parity_weighted(key, ()) == 0
    # the signed integer momentum is NOT conserved by the folded cosine
    # modes: witness terms exist (selection rule 2 - 5 + 4 - 1 = 0 products);
    # only the mod-2 classes above survive, which is what the vanishing
    # lemmas use
    assert any(momentum_signed(key, ()) != 0 for key in bk.K.terms)


def test_birkhoff_zero_divisor_unreachable():
    # momentum plus equal power sums force equal multisets; scan every
    # eliminated quartic of a small model for a vanishing divisor
    model = NlsModel(sites=(1,), jmax=6, xi=np.array([1e-3]))
    lam, G = quartic_hamiltonian(model, Budgets(4, 8))
    for key in G.terms:
        bm = [m for m, e in key.beta for _ in range(e)]
        gm = [m for m, e in key.gamma for _ in range(e)]
        if tuple(bm) != tuple(gm):
            div = sum(m * m for m in bm) - sum(m * m for m in gm)
            assert div != 0


# ---------------------------------------------------------------------------
# action-angle form
# ---------------------------------------------------------------------------

def test_frequency_map_affine_part(nls_build):
    model, bk, kf = nls_build
    xi = model.xi
    affine = kf.alpha + kf.A @ xi
    assert np.abs(kf.N0.omega - affine).max() <= 50.0 * float(xi @ xi)
    assert np.array_equal(kf.alpha, np.array([1.0, 4.0]))
    # normal frequencies stay at j^2 (tail couplings of order xi remain in R)
    assert kf.N0.Omega == {j: float(j * j) for j in kf.dims.tail_modes}
    assert kf.notes["normal_shift_B"] == 0.0


def test_perturbation_shrinks_with_xi():
    from kamzero.series import split_low_high

    bud = Budgets(6, 512)
    dp = DomainParams(0.6, 0.01, 0.1, 1.0)
    big = NlsModel(sites=(1, 2), jmax=6, xi=np.array([4e-3, 3e-3]))
    small = NlsModel(sites=(1, 2), jmax=6, xi=np.array([2e-3, 1.5e-3]))
    _, kf_big = build_nls(big, bud)
    _, kf_small = build_nls(small, bud)
    # every low-degree coefficient carries at least one power of xi, so the
    # low part halves at least; the xi-free quartic tail couplings kept in R
    # (normal frequencies unshifted) cap the full-norm ratio just under 2
    lb = vector_field_norm(split_low_high(kf_big.R0)[0], dp)
    ls = vector_field_norm(split_low_high(kf_small.R0)[0], dp)
    assert lb >= 2.0 * ls
    nb = vector_field_norm(kf_big.R0, dp)
    ns = vector_field_norm(kf_small.R0, dp)
    assert nb >= 1.9 * ns


def test_parity_checks_on_fresh_build(nls_build):
    model, bk, kf = nls_build
    assert parity_check(kf.R0, kf.dims, "zero_mode_linear") == []
    assert parity_check(kf.R0, kf.dims, "even_k_blocks") == []
    assert parity_check(kf.R0, kf.dims, "odd_k_blocks") == []
    assert grading_violations(kf.R0, model.sites) == []


def test_parity_negative_control(nls_build):
    model, bk, kf = nls_build
    bad = make_key(2, k=(1, 1), beta={0: 1})  # |k| even, zero-mode linear
    spiked = TFSeries(kf.dims, kf.R0.budgets, {**kf.R0.terms, bad: 1e-3 + 0j}, real=True)
    viol = parity_check(spiked, kf.dims, "even_k_blocks")
    assert any(key == bad for key, _ in viol)


def test_constant_term_dropped(nls_build):
    model, bk, kf = nls_build
    assert kf.R0.coefficient(make_key(2)) == 0j
    assert kf.constant_dropped != 0


# ---------------------------------------------------------------------------
# index-vector combinatorics
# ---------------------------------------------------------------------------

def test_classified_families(nls_build):
    model, bk, kf = nls_build
    # classify on the quartic-order slice: degree <= 4 terms only
    slice4 = TFSeries(kf.dims, kf.R0.budgets, {
        key: c for key, c in kf.R0.terms.items() if key_degree(key) + 2 * sum(key.alpha) <= 4})
    classes = classify_index_vectors(slice4, kf.dims)
    vs = classes.value_sets()
    assert set(vs["V1"]) <= {-3, -1, 1, 3} and set(vs["V1"]) & {-1, 1}
    assert set(vs["V2"]) <= {-2, 0, 2}
    assert set(vs["V3"]) <= {-3, -1, 1, 3}
    assert set(vs["V4"]) <= {-2, 0, 2}


def test_index_solvability_parity_test(nls_build):
    model, bk, kf = nls_build
    classes = classify_index_vectors(kf.R0, kf.dims)
    # odd + even can never cancel
    assert not index_solvability(classes.V1, classes.V2)
    assert not index_solvability(classes.V3, classes.V4, classes.V4)
    # all-zero vectors cancel trivially
    assert index_solvability([(0, 0)], [(0, 0)])
    assert not index_solvability(set())
