import math

import numpy as np
import pytest

from kamzero.series import (Budgets, DomainParams, SeriesDims, TFSeries, _Codec,
                            fourier_truncate, lie_transform, mode_weight,
                            poisson_bracket, split_low_high,
                            vector_field_norm, vf_truncate, weighted_norm)
from kamzero.driver import realify
from series_ref import (from_terms, from_text, key_kabs, make_key, monomial, product,
                        reality_defect, validate)

DIMS = SeriesDims(2, (1, 2), (0,), 6)
BUD = Budgets(6, 16)
DP = DomainParams(0.5, 0.3, 0.1, 1.0)


def mono(c, k=(), alpha=(), beta=(), gamma=(), dims=DIMS, bud=BUD):
    return monomial(dims, bud, c, k=k, alpha=alpha, beta=beta, gamma=gamma)


def random_series(rng, nterms=20, degmax=4, dims=DIMS, bud=BUD):
    terms = {}
    modes = dims.modes
    while len(terms) < nterms:
        k = tuple(int(v) for v in rng.integers(-2, 3, size=dims.n))
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


# ---------------------------------------------------------------------------
# poisson_bracket
# ---------------------------------------------------------------------------

def test_canonical_pair():
    # the angle itself is not a series; the canonical pairing {x1, y1} = 1
    # is tested through its exponential: {e^{i x1}, y1} = i e^{i x1}
    F = mono(1.0, k=(1, 0))
    G = mono(1.0, alpha=(1, 0))
    br = poisson_bracket(F, G)
    assert br.terms == {make_key(2, k=(1, 0)): 1j}


def test_oscillator_divisor_identity():
    # {Lambda, q1^2 qbar2^2} = -i (2 l1 - 2 l2) q1^2 qbar2^2 with the two
    # oscillators carried by tail modes 3 and 4
    l1, l2 = 9.0, 16.0
    lam = mono(l1, beta={3: 1}, gamma={3: 1}) + mono(l2, beta={4: 1}, gamma={4: 1})
    g = mono(1.0, beta={3: 2}, gamma={4: 2})
    br = poisson_bracket(lam, g)
    key = make_key(2, beta={3: 2}, gamma={4: 2})
    assert br.terms.keys() == {key}
    assert br.terms[key] == pytest.approx(-1j * (2 * l1 - 2 * l2))


def test_antisymmetry_exact_and_self_bracket_zero():
    rng = np.random.default_rng(0)
    for _ in range(50):
        F = random_series(rng)
        G = random_series(rng)
        fg = poisson_bracket(F, G)
        gf = poisson_bracket(G, F)
        keys = set(fg.terms) | set(gf.terms)
        assert all(fg.terms.get(k, 0j) == -gf.terms.get(k, 0j) for k in keys)
        assert poisson_bracket(F, F).terms == {}


# Budget truncation acts key by key: when the inner brackets and products
# drop nothing, the truncated Jacobi and Leibniz identities hold exactly
# inside the budgets, whatever the outer brackets drop.  (Mass an inner
# bracket drops is amplified by the outer one, so no multiple of the dropped
# mass bounds the defect.)

def test_jacobi_identity_within_dropped_mass():
    rng = np.random.default_rng(1)
    for _ in range(20):
        F, G, H = (random_series(rng, nterms=10) for _ in range(3))
        inner = [poisson_bracket(G, H), poisson_bracket(H, F), poisson_bracket(F, G)]
        assert [s.meta["dropped_mass"] for s in inner] == [0.0] * 3
        outer = [poisson_bracket(F, inner[0]), poisson_bracket(G, inner[1]),
                 poisson_bracket(H, inner[2])]
        total = outer[0] + outer[1] + outer[2]
        scale = sum(vector_field_norm(s, DP) for s in outer)
        assert vector_field_norm(total, DP) <= 1e-12 * scale


def test_leibniz_rule_within_dropped_mass():
    rng = np.random.default_rng(2)
    for _ in range(20):
        F, G, H = (random_series(rng, nterms=8, degmax=2) for _ in range(3))
        gh, fg, fh = product(G, H), poisson_bracket(F, G), poisson_bracket(F, H)
        assert [s.meta["dropped_mass"] for s in (gh, fg, fh)] == [0.0] * 3
        lhs = poisson_bracket(F, gh)
        t1 = product(fg, H)
        t2 = product(G, fh)
        scale = sum(vector_field_norm(s, DP) for s in (lhs, t1, t2))
        assert vector_field_norm(lhs - t1 - t2, DP) <= 1e-12 * scale


def test_the_reference_product_drops_the_sums_at_the_keys_outside_the_budgets():
    # as in a bracket, the dropped mass is the l1 of the summed coefficients
    # at the removed keys: z^2 * z and z * (-z^2) cancel on z^3, so only the
    # -1 of z^4 counts, where the summed |ca cb| would read 3
    dims, bud = SeriesDims(1, (), (1,), 1), Budgets(2, 4)
    z, zz = make_key(1, beta={1: 1}), make_key(1, beta={1: 2})
    out = product(from_terms(dims, bud, {zz: 1.0, z: 1.0}),
                  from_terms(dims, bud, {z: 1.0, zz: -1.0}))
    assert out.terms == {zz: 1.0}
    assert out.meta["dropped_mass"] == 1.0


def test_bracket_cuts_no_coefficient_by_magnitude(monkeypatch):
    # coefficients over eight decades: a bracket is exact up to rounding
    # whatever the step's prune tolerance says (only the end of a KAM step
    # prunes), so driver._PRUNE_REL = 1e-4 and 0 give bit-identical rows and
    # coefficients
    from kamzero import driver

    rng = np.random.default_rng(12)
    F, G = ({key: c * 10.0 ** (-8 * rng.random()) for key, c in
             random_series(rng, nterms=30).terms.items()} for _ in range(2))
    brackets = []
    for rel in (1e-4, 0.0):
        monkeypatch.setattr(driver, "_PRUNE_REL", rel)
        brackets.append(poisson_bracket(from_terms(DIMS, BUD, F), from_terms(DIMS, BUD, G)))
    out, ref = brackets
    mags = np.abs(ref.coefs)
    assert mags.min() < 1e-4 * mags.max()       # a relative cut would bite
    assert np.array_equal(out.rows, ref.rows)
    assert out.coefs.tobytes() == ref.coefs.tobytes()
    assert not {"pruned_mass", "cut_mass"} & set(out.meta)


def test_codes_split_into_words_beyond_63_bits():
    # four Fourier columns spanning [-2 k_max - 1, 2 k_max] need 64 bits
    lo = np.array([-32767] * 4 + [0] * 3, dtype=np.int64)
    hi = np.array([32766] * 4 + [2] * 3, dtype=np.int64)
    codec = _Codec(lo, hi)
    assert len(codec.words) == 2
    rng = np.random.default_rng(13)
    cols = rng.integers(lo[:, None], hi[:, None] + 1, size=(7, 500)).astype(np.int16)
    words = codec.encode(cols, lo)
    assert all(w.min() >= 0 for w in words)
    assert np.array_equal(codec.decode(words), cols)
    order = np.lexsort(words[::-1])
    assert np.array_equal(order, np.lexsort(cols[::-1]))


def test_codec_ranges_must_contain_zero():
    # the float64 encode is exact only for entries within a radix of 0
    for lo, hi in (([-3, 1], [2, 4]), ([-3, -5], [2, -1])):
        with pytest.raises(ValueError, match="contain 0"):
            _Codec(np.array(lo), np.array(hi))


def test_reality_preserved_by_bracket():
    rng = np.random.default_rng(3)
    for _ in range(10):
        F = realify(random_series(rng, nterms=12))
        G = realify(random_series(rng, nterms=12))
        assert reality_defect(F) < 1e-15
        br = poisson_bracket(F, G)
        assert br.real
        assert reality_defect(br) < 1e-13 * max(br.max_abs(), 1.0)
        # the flag propagates through the Lie transform's brackets and sums
        lt = lie_transform(F, G * 1e-2, 3)
        assert lt.real and reality_defect(lt) == 0.0


def test_bracket_dimension_mismatch():
    other = SeriesDims(2, (1, 2), (0,), 5)
    with pytest.raises(ValueError):
        poisson_bracket(mono(1.0, k=(1, 0)), mono(1.0, k=(1, 0), dims=other))


def test_mixed_budgets_raise():
    # {F, G} = -2i e^{5 i x1} has |k| = 5: under G's k_max = 4 it would be
    # dropped, under F's k_max = 100 kept, so no budget is right for both
    F = mono(1.0, k=(3, 0), alpha=(1, 0), bud=Budgets(6, 100))
    G = mono(1.0, k=(2, 0), bud=Budgets(6, 4))
    assert poisson_bracket(F, mono(1.0, k=(2, 0), bud=F.budgets)).terms == {
        make_key(2, k=(5, 0)): -2j}
    for op in (lambda a, b: a + b, lambda a, b: a - b, poisson_bracket):
        for a, b in ((F, G), (G, F)):
            with pytest.raises(ValueError, match="budgets"):
                op(a, b)


@pytest.mark.parametrize("scalar", [np.complex64(1j), np.complex128(1j), np.complex64(0.5 - 2j)])
def test_complex_numpy_scalars_clear_the_real_flag(scalar):
    # a real-flagged product would be halved by the next bracket as if it
    # were still real
    rng = np.random.default_rng(5)
    F, G = (realify(random_series(rng, nterms=12)) for _ in range(2))
    S = F * scalar
    assert not S.real and not (scalar * F).real
    plain = TFSeries(S.dims, S.budgets, S.cols, S.coefs)
    for br, ref in ((poisson_bracket(S, G), poisson_bracket(plain, G)),
                    (poisson_bracket(G, S), poisson_bracket(G, plain))):
        assert br.rows.tobytes() == ref.rows.tobytes()
        assert br.coefs.tobytes() == ref.coefs.tobytes()
    for real in (np.float32(2.0), np.complex64(2.0), np.complex128(-0.5), 3):
        assert (F * real).real


def test_bad_budgets_raise_instead_of_dropping_or_forming_everything():
    # a NaN budget made vf_truncate drop every term and a bracket form every
    # row; a positive bracket budget without a domain failed inside
    # mode_weight
    F = mono(1.0, k=(1, 0), alpha=(1, 0)) + mono(0.5, beta={0: 1}) + mono(0.25j, k=(0, 1))
    G = mono(1.0, k=(-1, 0), gamma={3: 1})
    assert len(F) == 3
    for bad in (math.nan, -1.0):
        with pytest.raises(ValueError, match="budget"):
            vf_truncate(F, DP, bad)
    for bad in (math.nan, -1e-30, -math.inf):
        with pytest.raises(ValueError, match="budget"):
            poisson_bracket(F, G, DP, bad)
    with pytest.raises(ValueError, match="dp"):
        poisson_bracket(F, G, None, 1.0)
    # the budgets that stay: 0 keeps or forms everything, inf leaves it all out
    assert vf_truncate(F, DP, 0.0)[0] is F
    assert poisson_bracket(F, G, None, 0.0).terms == poisson_bracket(F, G).terms
    assert not poisson_bracket(F, G, DP, math.inf).terms


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_weighted_norm_single_fourier_term():
    F = mono(2.0 - 1.0j, k=(1, -2))
    assert weighted_norm(F, DP) == pytest.approx(abs(2.0 - 1.0j) * math.exp(3 * DP.s))


def test_weighted_norm_single_normal_variable():
    # the sup of |z_j| over the weighted ball sum w_j^2 |z_j|^2 <= r^2 is
    # r / w_j: sample the ball boundary and compare
    j = 4
    F = mono(1.0, beta={j: 1})
    val = weighted_norm(F, DP)
    w = mode_weight(j, DP)
    assert val == pytest.approx(DP.r / w)
    rng = np.random.default_rng(4)
    modes = DIMS.modes
    ws = np.array([mode_weight(m, DP) for m in modes])
    best = 0.0
    for _ in range(200):
        z = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
        z *= DP.r / np.linalg.norm(ws * z)
        best = max(best, abs(z[modes.index(j)]))
    assert best <= val + 1e-12
    assert best > 0.8 * val  # the extremum is approached by sampling


def test_weighted_norm_zero_homogeneity_triangle():
    rng = np.random.default_rng(5)
    assert weighted_norm(TFSeries.zero(DIMS, BUD), DP) == 0.0
    F = random_series(rng)
    G = random_series(rng)
    assert weighted_norm(F * (-2.5), DP) == pytest.approx(2.5 * weighted_norm(F, DP))
    assert weighted_norm(F + G, DP) <= weighted_norm(F, DP) + weighted_norm(G, DP) + 1e-12


def _vector_field_norm_reference(F, dp):
    """Slow per-term re-summation of the four partial-derivative norms."""
    n = F.dims.n
    modes = F.dims.modes

    def wnorm(terms):
        tot = 0.0
        for key, c in terms.items():
            val = abs(c) * math.exp(key_kabs(key) * dp.s) * dp.r ** (2 * sum(key.alpha))
            for m, e in key.beta + key.gamma:
                val *= (dp.r / mode_weight(m, dp)) ** e
            tot += val
        return tot

    def d_alpha(terms, b):
        out = {}
        for key, c in terms.items():
            if key.alpha[b]:
                al = list(key.alpha)
                al[b] -= 1
                nk = key._replace(alpha=tuple(al))
                out[nk] = out.get(nk, 0j) + c * key.alpha[b]
        return out

    def d_x(terms, b):
        return {k: c * 1j * k.k[b] for k, c in terms.items() if k.k[b]}

    def d_mode(terms, j, barred):
        out = {}
        for key, c in terms.items():
            src = dict(key.gamma if barred else key.beta)
            if src.get(j, 0):
                e = src[j]
                src[j] -= 1
                pruned = tuple(sorted((m, x) for m, x in src.items() if x))
                nk = key._replace(gamma=pruned) if barred else key._replace(beta=pruned)
                out[nk] = out.get(nk, 0j) + c * e
        return out

    ynorm = max((wnorm(d_alpha(F.terms, b)) for b in range(n)), default=0.0)
    xnorm = max((wnorm(d_x(F.terms, b)) for b in range(n)), default=0.0)
    zsq = sum(mode_weight(j, dp) ** 2 * wnorm(d_mode(F.terms, j, False)) ** 2 for j in modes)
    zbsq = sum(mode_weight(j, dp) ** 2 * wnorm(d_mode(F.terms, j, True)) ** 2 for j in modes)
    return ynorm + xnorm / dp.r ** 2 + math.sqrt(zbsq) / dp.r + math.sqrt(zsq) / dp.r


def test_vector_field_norm_examples_and_oracle():
    assert vector_field_norm(mono(1.0, alpha=(1, 0)), DP) == pytest.approx(1.0)
    assert vector_field_norm(mono(7.0), DP) == 0.0  # x-independent constant
    rng = np.random.default_rng(6)
    for _ in range(10):
        F = random_series(rng, nterms=15, degmax=2)
        assert vector_field_norm(F, DP) == pytest.approx(
            _vector_field_norm_reference(F, DP), rel=1e-12)


# ---------------------------------------------------------------------------
# split / truncate
# ---------------------------------------------------------------------------

def test_split_low_high():
    R = mono(1.0, alpha=(1, 0)) + mono(2.0, beta={0: 1, 3: 1}, gamma={4: 1})
    low, high = split_low_high(R)
    assert set(low.terms) == {make_key(2, alpha=(1, 0))}
    assert set(high.terms) == {make_key(2, beta={0: 1, 3: 1}, gamma={4: 1})}
    only4 = mono(1.0, beta={3: 2}, gamma={4: 2})
    low4, high4 = split_low_high(only4)
    assert not low4.terms and len(high4.terms) == 1
    rng = np.random.default_rng(7)
    R = random_series(rng, nterms=30)
    lo, hi = split_low_high(R)
    rec = lo + hi
    assert rec.terms == R.terms  # bit-exact recombination


def test_fourier_truncate():
    rng = np.random.default_rng(8)
    R = random_series(rng, nterms=30)
    trunc, tail, rep = fourier_truncate(R, BUD.k_max)
    assert not tail.terms and rep is None
    single = mono(1.0, k=(3, 2))  # |k| = 5
    t, tl, _ = fourier_truncate(single, 4)
    assert not t.terms and len(tl.terms) == 1
    # exponential tail certificate at sigma = s/2 with C = 4^n
    trunc, tail, rep = fourier_truncate(R, 2, DP, sigma=DP.s / 2)
    assert (trunc + tail).terms == R.terms
    assert rep.tail_norm <= rep.bound
    assert rep.ratio <= 1.0
    with pytest.raises(ValueError):
        fourier_truncate(R, 2, DP, sigma=DP.s)


# ---------------------------------------------------------------------------
# lie transform
# ---------------------------------------------------------------------------

def test_lie_transform_identity_on_zero_generator():
    rng = np.random.default_rng(9)
    H = random_series(rng)
    out = lie_transform(H, TFSeries.zero(DIMS, BUD), 4)
    assert out.terms == H.terms


def test_lie_transform_single_bracket_by_hand():
    # H = y1, F = eps e^{i x1}:  H o X_F = y1 + {y1, F} = y1 - i eps e^{i x1}
    eps = 1e-3
    H = mono(1.0, alpha=(1, 0))
    F = mono(eps, k=(1, 0))
    out = lie_transform(H, F, 1)
    assert out.terms[make_key(2, alpha=(1, 0))] == pytest.approx(1.0)
    assert out.terms[make_key(2, k=(1, 0))] == pytest.approx(-1j * eps)


def test_lie_transform_preserves_bracket():
    # || {A o Phi, B o Phi} - {A, B} o Phi || small at truncation order
    rng = np.random.default_rng(10)
    eps = 1e-3
    F = random_series(rng, nterms=6, degmax=2) * eps
    A = random_series(rng, nterms=6, degmax=2)
    B = random_series(rng, nterms=6, degmax=2)
    order = 6
    lhs = poisson_bracket(lie_transform(A, F, order), lie_transform(B, F, order))
    rhs = lie_transform(poisson_bracket(A, B), F, order)
    defect = vector_field_norm(lhs - rhs, DP)
    scale = vector_field_norm(poisson_bracket(A, B), DP) + 1.0
    # symplecticity up to the first neglected Lie order
    assert defect <= scale * (50 * eps) ** (order - 1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_text_round_trip_and_ordering():
    rng = np.random.default_rng(11)
    F = random_series(rng, nterms=25)
    G = from_text(F.to_text())
    assert G.terms == F.terms
    assert G.dims == F.dims
    assert G.budgets == F.budgets
    # the lines follow MonomialKey order, not row order: the z_3 row (its
    # z_0 column 0) sorts before the z_0 row, its line after
    H = mono(1.0, beta={3: 1}) + mono(2.0, beta={0: 1})
    assert [key.beta for key in H.terms] == [((3, 1),), ((0, 1),)]
    assert H.to_text().splitlines()[1:] == ["k=(0,0) a=(0,0) b={0:1} g={} c=2,0",
                                            "k=(0,0) a=(0,0) b={3:1} g={} c=1,0"]


def test_validate_rejects_site_modes():
    # a row has one column per mode of DIMS.modes, so no row can hold mode 1
    # (tangential): the key packer refuses it and a wider row is rejected
    with pytest.raises(ValueError):
        from_terms(DIMS, BUD, {make_key(2, beta={1: 1}): 1.0 + 0j})
    with pytest.raises(ValueError):
        TFSeries.from_rows(DIMS, BUD, np.zeros((1, 2 * DIMS.n + 2 * len(DIMS.modes) + 1)), [1.0])
    with pytest.raises(ValueError, match="budgets"):
        validate(mono(1.0, k=(BUD.k_max, 1)))


def test_budgets_reject_key_overflow():
    # two in-budget int16 key columns are added before the budget filter:
    # k_max = 40000 turned {e^{i20000x}, y e^{i20000x}} into k = -25536, and
    # degree_max = 20000 turned z^17000 z^17000 into an exponent of -31536
    with pytest.raises(ValueError, match="16383"):
        Budgets(k_max=40000)
    with pytest.raises(ValueError, match="16383"):
        Budgets(degree_max=20000)
    with pytest.raises(ValueError):
        Budgets(degree_max=16384)
    dims = SeriesDims(1, (), (1,), 2)
    bud = Budgets(degree_max=6, k_max=16383)
    F = monomial(dims, bud, 1.0, k=(8000,))
    H = monomial(dims, bud, 1.0, k=(8383,), alpha=(1,))
    assert list(poisson_bracket(F, H).terms) == [make_key(1, k=(16383,))]


def test_brackets_whose_products_leave_the_int16_keys_raise():
    # rows built by hand beyond the budgets: k = 30000 in both operands
    # makes k = 60000, which the int16 decode would wrap to -5536; -16384
    # in both makes -32768, an int16 whose negation (the mirror's k) and
    # |k| wrap.  Plain or halved, the bracket raises
    dims = SeriesDims(1, (), (1,), 2)
    for k in (30000, -16384):
        F = monomial(dims, BUD, 1.0, k=(k,))
        H = monomial(dims, BUD, 1.0, k=(k,), alpha=(1,))
        for A, B in ((F, H), (realify(F), realify(H))):
            with pytest.raises(ValueError, match="int16"):
                poisson_bracket(A, B)
    # at +-32767 the product is formed, and the Fourier budget cuts it
    F = monomial(dims, BUD, 1.0, k=(16383,))
    H = monomial(dims, BUD, 1.0, k=(16384,), alpha=(1,))
    out = poisson_bracket(F, H)
    assert not out.terms and out.meta["dropped_mass"] == 16383.0
