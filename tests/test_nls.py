import itertools
import math

import numpy as np
import pytest

from kamzero.nls import (NlsModel, _gbinom, action_couplings, birkhoff_transform,
                         build_nls, classify_index_vectors, frequency_map, g_tensor,
                         grading_violations, parity_check, parity_v0, parity_weighted,
                         quartic_hamiltonian, to_kam_form)
from kamzero.series import (Budgets, DomainParams, TFSeries, _degrees, lie_transform,
                            vector_field_norm)
from series_ref import from_terms, key_degree, key_kabs, make_key, reality_defect


def _phi(j, x):
    if j == 0:
        return np.full_like(x, 1.0 / math.sqrt(2.0 * math.pi))
    return np.cos(j * x) / math.sqrt(math.pi)


def quadrature_g(i, j, k, l, npts=2048):
    x = np.linspace(0.0, 2.0 * math.pi, npts, endpoint=False)
    vals = _phi(i, x) * _phi(j, x) * _phi(k, x) * _phi(l, x)
    return float(vals.sum() * (2.0 * math.pi / npts))


@pytest.mark.parametrize("sites,depth", [((1, 9), 2), ((1, 1), 2), ((1, 2), -1)])
def test_model_rejects_bad_sites_and_depth(sites, depth):
    with pytest.raises(ValueError):
        NlsModel(sites=sites, jmax=8, xi=np.array([1e-3, 1e-3]), taylor_depth=depth)


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


def scalar_quartic(model, budgets):
    """The quartic G built one ``g_tensor`` call per pair of index pairs
    i <= j, k <= l: the reference for ``quartic_hamiltonian``."""
    width = model.jmax + 1
    pairs = [(i, j) for i in range(width) for j in range(i, width)]
    cols, coefs = [], []
    for (i, j) in pairs:
        for (k, l) in pairs:
            g = g_tensor(i, j, k, l)
            if g != 0.0:
                cols.append((i, j, width + k, width + l))
                coefs.append(0.25 * (1 if i == j else 2) * (1 if k == l else 2) * g)
    G = np.zeros((len(cols), 2 * width), dtype=np.int16)
    np.add.at(G, (np.arange(len(cols))[:, None], np.array(cols)), 1)
    return TFSeries.from_rows(model.flat_dims(), budgets, G, coefs, real=True)


@pytest.mark.parametrize("jmax", range(1, 9))
def test_quartic_is_the_scalar_build_bit_for_bit(jmax):
    model = NlsModel((1,), jmax, xi=np.array([1e-3]))
    budgets = Budgets(6, 512)
    G = quartic_hamiltonian(model, budgets)[1]
    ref = scalar_quartic(model, budgets)
    assert np.array_equal(G.rows, ref.rows)
    assert G.coefs.tobytes() == ref.coefs.tobytes()


# ---------------------------------------------------------------------------
# partial Birkhoff transform
# ---------------------------------------------------------------------------

def test_birkhoff_eliminates_and_collects(nls_build):
    model, bk, kf = nls_build
    assert bk.max_resonant_leftover <= 1e-12
    # surviving |q1|^2 |q2|^2 coefficient carries the action coupling
    key = make_key(0, beta={1: 1, 2: 1}, gamma={1: 1, 2: 1})
    coef = bk.quartic.terms.get(key, 0j)
    assert coef.real == pytest.approx(4.0 * bk.Gbar[1, 2], rel=1e-12)
    # the explicitly non-resonant monomial q1 q3 qbar2^2 (1 + 3 - 2 - 2 = 0,
    # {1,3} != {2,2}) is gone
    bad = make_key(0, beta={1: 1, 3: 1}, gamma={2: 2})
    assert abs(bk.H.terms.get(bad, 0j)) <= 1e-12
    lam, G = quartic_hamiltonian(model, Budgets(6, 512))
    assert abs(G.terms.get(bad, 0j)) > 1e-3  # it was present before


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


def momentum_signed(series, sites):
    """Signed integer momentum -sum_b k_b j_b + sum_m m (beta_m - gamma_m) per row.

    Conserved for exponential mode bases; for the folded cosine basis only
    its mod-2 class survives, so it is a diagnostic, not an invariant.
    """
    n, modes = series.dims.n, np.array(series.dims.modes)
    return (-(series.rows[:, :n] @ np.asarray(sites, dtype=int))
            + series.rows[:, 2 * n:] @ np.concatenate([modes, -modes]))


def test_k_part_momentum_gradings(nls_build):
    model, bk, kf = nls_build
    assert len(bk.K) > 0
    for key in bk.K.terms:
        assert key_degree(key) >= 6
        assert key_degree(key) % 2 == 0
    assert not parity_v0(bk.K).any()
    assert not parity_weighted(bk.K, ()).any()
    # the signed integer momentum is NOT conserved by the folded cosine
    # modes: witness terms exist (selection rule 2 - 5 + 4 - 1 = 0 products);
    # only the mod-2 classes above survive, which is what the vanishing
    # lemmas use
    assert momentum_signed(bk.K, ()).any()


def _recorded_brackets(monkeypatch):
    """The (A, B) operands of every ``poisson_bracket`` call ``nls`` makes
    from now on, in call order."""
    from kamzero import nls

    calls = []
    bracket = nls.poisson_bracket

    def recorded(A, B, *args, **kwargs):
        calls.append((A, B))
        return bracket(A, B, *args, **kwargs)
    monkeypatch.setattr(nls, "poisson_bracket", recorded)
    return calls


def test_birkhoff_zero_divisor_unreachable(monkeypatch):
    # momentum plus equal power sums force equal multisets; scan every
    # eliminated quartic of a small model for a vanishing divisor, and check
    # the generator, read from the arguments of the first bracket {Lambda,
    # F}, against Python's complex division c / (i div)
    model = NlsModel(sites=(1,), jmax=6, xi=np.array([1e-3]))
    lam, G = quartic_hamiltonian(model, Budgets(4, 8))
    brackets = _recorded_brackets(monkeypatch)
    birkhoff_transform(model, Budgets(4, 8))
    ((L, F),) = brackets        # degree_max 4: {Lambda, F} is the only bracket
    assert np.array_equal(L.rows, lam.rows) and L.coefs.tobytes() == lam.coefs.tobytes()
    for key, c in G.terms.items():
        bm = [m for m, e in key.beta for _ in range(e)]
        gm = [m for m, e in key.gamma for _ in range(e)]
        if tuple(bm) != tuple(gm):
            div = sum(m * m for m in bm) - sum(m * m for m in gm)
            assert div != 0
            assert F.terms[key] == c / (1j * div)
        else:
            assert key not in F.terms
    assert len(F) == sum(key.beta != key.gamma for key in G.terms)


def _couplings_of_transformed(H):
    """Gbar read from the degree-4 action rows of the transformed H: the
    extraction the Birkhoff step used before it read the quartic instead."""
    width = H.cols.shape[0] // 2
    pairs = (_degrees(H.cols, 0) == 4) & np.all(H.cols[:width] == H.cols[width:], axis=0)
    count = np.cumsum(H.cols[:width, pairs], axis=0)
    i, j = np.argmax(count >= 1, axis=0), np.argmax(count >= 2, axis=0)
    Gbar = np.zeros((width, width))
    Gbar[i, j] = Gbar[j, i] = H.coefs[pairs].real / np.where(i == j, 1, 4)
    return Gbar


BIRKHOFF_MODELS = [((1, 2), 6, 2, 6), ((1, 3), 5, 1, 8), ((2,), 7, 3, 6), ((1, 2, 4), 6, 2, 6),
                   ((1, 2, 4), 5, 1, 8), ((3, 5), 10, 2, 6)]


@pytest.mark.parametrize("sites,jmax,depth,degree_max", BIRKHOFF_MODELS)
def test_lie_transform_leaves_the_action_couplings_exact(sites, jmax, depth, degree_max):
    # {Lambda, F} holds only non-action monomials and every other increment
    # has degree >= 6, so the quartic's action couplings are those of H bit
    # for bit, and the frequency map needs no transform
    model = NlsModel(sites, jmax, xi=np.full(len(sites), 1e-3), taylor_depth=depth)
    budgets = Budgets(degree_max, 512)
    bk = birkhoff_transform(model, budgets)
    Gbar = action_couplings(quartic_hamiltonian(model, budgets)[1])
    assert np.array_equal(_couplings_of_transformed(bk.H), Gbar)
    assert np.array_equal(bk.Gbar, Gbar)
    fmap, kf_map = frequency_map(model, budgets), to_kam_form(model, bk, budgets).fmap
    assert np.array_equal(fmap.alpha, kf_map.alpha) and np.array_equal(fmap.A, kf_map.A)
    assert fmap.Omega == kf_map.Omega == {j: float(j * j) for j in model.kam_dims().tail_modes}
    assert np.all(fmap.A > 0)


@pytest.mark.parametrize("sites,jmax,depth,degree_max",
                         BIRKHOFF_MODELS + [((1, 2), 6, 2, 4), ((1, 2), 5, 2, 10)])
def test_birkhoff_is_the_lie_transform_of_lambda_plus_g(monkeypatch, sites, jmax, depth,
                                                        degree_max):
    # the sum from the known first bracket T = {Lambda, F} against the plain
    # Lie transform of Lambda + G to the order the degree budget reaches:
    # equal up to rounding, key by key
    model = NlsModel(sites, jmax, xi=np.full(len(sites), 1e-3), taylor_depth=depth)
    budgets = Budgets(degree_max, 512)
    brackets = _recorded_brackets(monkeypatch)
    bk = birkhoff_transform(model, budgets)
    F = brackets[0][1]
    lam, G = quartic_hamiltonian(model, budgets)
    ref = lie_transform(lam + G, F, max(2, (degree_max - 2) // 2))
    tol = 1e-15 * ref.max_abs()
    at_ref, at_H = bk.H.coefficients_at(ref.rows), ref.coefficients_at(bk.H.rows)
    assert np.abs(bk.H.coefs - at_H).max() <= tol
    assert np.abs(ref.coefs - at_ref).max() <= tol
    # a key on one side only is a sum that rounded to zero on the other
    assert np.abs(bk.H.coefs[at_H == 0]).max(initial=0.0) <= tol
    assert np.abs(ref.coefs[at_ref == 0]).max(initial=0.0) <= tol
    assert bk.max_resonant_leftover <= 1e-12
    assert len(brackets) == 1 + (degree_max - 4) // 2


# ---------------------------------------------------------------------------
# action-angle form
# ---------------------------------------------------------------------------

def test_frequency_map_affine_part(nls_build):
    model, bk, kf = nls_build
    xi = model.xi
    affine = kf.fmap.omega(xi)
    assert np.abs(kf.N0.omega - affine).max() <= 50.0 * float(xi @ xi)
    assert np.array_equal(kf.fmap.alpha, np.array([1.0, 4.0]))
    # normal frequencies stay at j^2 (tail couplings of order xi remain in R)
    assert kf.N0.Omega == {j: float(j * j) for j in kf.dims.tail_modes}
    assert kf.notes["normal_shift_B"] == 0.0


def test_perturbation_shrinks_with_xi():
    from kamzero.series import split_low_high

    bud = Budgets(6, 512)
    dp = DomainParams(0.6, 0.01)
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


# one term per check that the check must flag, at a coefficient far above
# its 1e-12 relative cut
SPIKES = {
    "even_k_blocks": make_key(2, k=(1, 1), beta={0: 1}),       # |k| even, z-degree odd
    "odd_k_blocks": make_key(2, k=(1, 0)),                      # |k| odd, z-degree even
    "zero_mode_linear": make_key(2, beta={0: 1}),               # k = 0 zero-mode mean
    "grading_violations": make_key(2, k=(0, 1), gamma={3: 1}),  # site-weighted class odd
}


def _spiked(kf, keys):
    return from_terms(kf.dims, kf.R0.budgets, {**kf.R0.terms, **{key: 1e-3 + 0j for key in keys}},
                      real=True)


def test_parity_negative_control(nls_build):
    model, bk, kf = nls_build
    for which, key in SPIKES.items():
        spiked = _spiked(kf, [key])
        if which == "grading_violations":
            viol = grading_violations(spiked, model.sites)
        else:
            viol = parity_check(spiked, kf.dims, which)
        assert viol == [(key, 1e-3)], which


# ---------------------------------------------------------------------------
# per-key references for the row code
# ---------------------------------------------------------------------------

def _degz(key):
    return sum(e for _, e in key.beta + key.gamma)


def _site_sum(key, sites):
    return sum(kb * jb for kb, jb in zip(key.k, sites))


def ref_parity_v0(key):
    return (sum(key.k) + _degz(key)) % 2


def ref_parity_weighted(key, sites):
    return (_site_sum(key, sites) + sum(m * e for m, e in key.beta + key.gamma)) % 2


def ref_momentum_signed(key, sites):
    return (-_site_sum(key, sites) + sum(m * e for m, e in key.beta)
            - sum(m * e for m, e in key.gamma))


def ref_grading_violations(series, sites, tol=0.0):
    return [(key, abs(c)) for key, c in series.terms.items()
            if abs(c) > tol and (ref_parity_v0(key) or ref_parity_weighted(key, sites))]


def ref_parity_check(R, dims, which, tol=1e-12):
    scale = max(R.max_abs(), 1.0)
    bad = []
    for key, c in R.terms.items():
        degz, kabs = _degz(key), key_kabs(key)
        zf = sum(e for m, e in key.beta + key.gamma if m in dims.zero_modes)
        hit = {"even_k_blocks": degz % 2 == 1 and kabs % 2 == 0,
               "odd_k_blocks": degz % 2 == 0 and kabs % 2 == 1,
               "zero_mode_linear": degz == 1 and zf == 1 and sum(key.alpha) == 0 and kabs == 0}
        if abs(c) > tol * scale and hit[which]:
            bad.append((key, abs(c)))
    return bad


def ref_classify(R):
    fam = {"V1": set(), "V2": set(), "V3": set(), "V4": set()}
    for key in R.terms:
        degz, na, kabs = _degz(key), sum(key.alpha), key_kabs(key)
        if degz == 1 and na == 0:
            fam["V1"].add(key.k)
        elif degz == 0 and na == 1 and kabs > 0:
            fam["V2"].add(key.k)
        elif degz == 1 and na == 1:
            fam["V3"].add(key.k)
        elif degz == 0 and na == 0 and kabs > 0:
            fam["V4"].add(key.k)
    return fam


# terms no check may flag: a k = 0 y z0 term (an action factor, so not
# zero-mode linear) and a k = 0 y mean (V2 needs |k| > 0)
NEAR_MISSES = [make_key(2, alpha=(1, 0), beta={0: 1}), make_key(2, alpha=(0, 1))]


def test_row_checks_match_per_key_reference(nls_build):
    model, bk, kf = nls_build
    spiked = _spiked(kf, [*SPIKES.values(), *NEAR_MISSES])
    # an even-|k| zero-mode term under the cut 1e-12 * max(max|c|, 1); scaled
    # by 1e6 it stays under that relative cut but exceeds 1e-12 itself
    tiny = from_terms(kf.dims, kf.R0.budgets, {**spiked.terms, make_key(2, k=(2, 0), beta={0: 1}): 1e-14},
                      real=True)
    for series, sites in ((kf.R0, model.sites), (spiked, model.sites), (tiny, model.sites),
                          (tiny * 1e6, model.sites), (bk.K, ()), (bk.H, ())):
        keys = list(series.terms)
        assert parity_v0(series).tolist() == [ref_parity_v0(key) for key in keys]
        assert parity_weighted(series, sites).tolist() == [ref_parity_weighted(key, sites)
                                                           for key in keys]
        assert momentum_signed(series, sites).tolist() == [ref_momentum_signed(key, sites)
                                                           for key in keys]
        assert grading_violations(series, sites) == ref_grading_violations(series, sites)
        for which in ("even_k_blocks", "odd_k_blocks", "zero_mode_linear"):
            for tol in (1e-12, 0.0):
                assert (parity_check(series, series.dims, which, tol)
                        == ref_parity_check(series, series.dims, which, tol))
        classes = classify_index_vectors(series, series.dims)
        assert {name: getattr(classes, name) for name in ("V1", "V2", "V3", "V4")} \
            == ref_classify(series)
    # the spikes make every check on the spiked copy nonempty
    assert all(parity_check(spiked, kf.dims, which) for which in list(SPIKES)[:3])
    assert grading_violations(spiked, model.sites)


def ref_kam_expansion(model, H, budgets):
    """The substitution term by term: (R0, omega, constant, expansion drops)."""
    n, sites, depth, xi = model.n, model.sites, model.taylor_depth, model.xi
    site_pos = {j: b for b, j in enumerate(sites)}
    out, const, dropped = {}, 0j, 0.0
    for key, c in H.terms.items():
        if key_degree(key) == 2 and key.beta == key.gamma:
            continue
        a, ap, bmap, gmap = [0] * n, [0] * n, {}, {}
        for exps, at_site, rest in ((key.beta, a, bmap), (key.gamma, ap, gmap)):
            for m, e in exps:
                if m in site_pos:
                    at_site[site_pos[m]] = e
                else:
                    rest[m] = e
        kvec = tuple(ap[b] - a[b] for b in range(n))
        options = []
        for b in range(n):
            h = 0.5 * (a[b] + ap[b])
            if h == 0:
                options.append([(0, 1.0, 1.0)])
                continue
            options.append([(t, _gbinom(h, t) * xi[b] ** (h - t),
                             abs(_gbinom(h, t)) * xi[b] ** h / 4.0 ** t) for t in range(depth + 1)])
            dropped += abs(c) * abs(_gbinom(h, depth + 1)) * xi[b] ** h / 4.0 ** (depth + 1)
        for combo in itertools.product(*options):
            w = ev = 1.0
            for _, wt, evt in combo:
                w, ev = w * wt, ev * evt
            coef = c * w
            if coef == 0:
                continue
            newkey = make_key(n, k=kvec, alpha=[t for t, _, _ in combo], beta=bmap, gamma=gmap)
            if key_degree(newkey) > budgets.degree_max or key_kabs(newkey) > budgets.k_max:
                dropped += abs(c) * ev
            elif newkey == make_key(n):
                const += coef
            else:
                out[newkey] = out.get(newkey, 0j) + coef
    ymeans = [make_key(n, alpha=[int(i == b) for i in range(n)]) for b in range(n)]
    for b, j in enumerate(sites):
        out[ymeans[b]] = out.get(ymeans[b], 0j) + model.lam(j)
        const += model.lam(j) * xi[b]
    omega = np.array([out.pop(key, 0j).real for key in ymeans])
    R0 = from_terms(model.kam_dims(), budgets, out, real=True)
    return R0, omega, const, dropped


@pytest.mark.parametrize("depth", [0, 2])
def test_kam_form_matches_per_term_expansion(depth):
    # k_max = 4 makes the Fourier budget drop terms too, not only the degree
    model = NlsModel(sites=(1, 3), jmax=4, xi=np.array([2e-3, 1e-3]), taylor_depth=depth)
    budgets = Budgets(6, 4)
    bk, kf = build_nls(model, budgets)
    R0, omega, const, dropped = ref_kam_expansion(model, bk.H, budgets)
    assert list(kf.R0.terms) == list(R0.terms)
    for key, c in R0.terms.items():
        got = kf.R0.terms[key]
        assert abs(got - c) <= 1e-15 * abs(c)
        assert np.signbit([got.real, got.imag]).tolist() == np.signbit([c.real, c.imag]).tolist()
    assert np.array_equal(kf.N0.omega, omega)
    assert kf.constant_dropped == const
    assert kf.expansion_dropped == dropped


def test_constant_term_dropped(nls_build):
    model, bk, kf = nls_build
    assert kf.R0.terms.get(make_key(2), 0j) == 0j
    assert kf.constant_dropped != 0


def test_kam_form_is_exactly_real(nls_build):
    # the Birkhoff Lie transform's brackets of two real series are formed as
    # P + M(P), so its H and the action-angle substitution R0 are real to
    # the last bit, not only to roundoff
    model, bk, kf = nls_build
    assert bk.H.real and kf.R0.real
    assert reality_defect(bk.H) == 0.0
    assert reality_defect(kf.R0) == 0.0


# ---------------------------------------------------------------------------
# index-vector combinatorics
# ---------------------------------------------------------------------------

def test_classified_families(nls_build):
    model, bk, kf = nls_build
    # classify on the quartic-order slice: degree <= 4 terms only
    slice4 = from_terms(kf.dims, kf.R0.budgets, {
        key: c for key, c in kf.R0.terms.items() if key_degree(key) + 2 * sum(key.alpha) <= 4})
    classes = classify_index_vectors(slice4, kf.dims)
    vs = classes.value_sets()
    assert set(vs["V1"]) <= {-3, -1, 1, 3} and set(vs["V1"]) & {-1, 1}
    assert set(vs["V2"]) <= {-2, 0, 2}
    assert set(vs["V3"]) <= {-3, -1, 1, 3}
    assert set(vs["V4"]) <= {-2, 0, 2}


def index_solvability(*families):
    """Whether k + l + ... = 0 can be solved picking one vector per family.

    Decided by the v0-pairing parity test: the sum of the k . v0 values must
    be able to reach zero; families whose members all have odd pairing can
    never cancel against families of even pairing in odd number.  Empty
    input counts as solvable (the empty sum).
    """
    parities = {0}
    for fam in families:
        fam = list(fam)
        if not fam:
            return False
        vals = {sum(vec) % 2 for vec in fam}
        parities = {(p + v) % 2 for p in parities for v in vals}
    return 0 in parities


def test_index_solvability_parity_test(nls_build):
    model, bk, kf = nls_build
    classes = classify_index_vectors(kf.R0, kf.dims)
    # odd + even can never cancel
    assert not index_solvability(classes.V1, classes.V2)
    assert not index_solvability(classes.V3, classes.V4, classes.V4)
    # all-zero vectors cancel trivially
    assert index_solvability([(0, 0)], [(0, 0)])
    assert not index_solvability(set())
