"""Property tests for the series algebra against a pure-Python dict reference.

The reference below stores a series as ``{MonomialKey: complex}`` and forms
brackets, sums, prunes, splits and Fourier truncations term by term, so it
shares no code with the vectorized kernels in ``kamzero.series``.

Dyadic coefficients (small integers over 4) make every product and sum
exact in floating point: there the kernel must reproduce the reference key
for key and bit for bit.  With general floating-point coefficients the two
sum the same products in different orders, so a coefficient may differ by
rounding, bounded by 1e-14 of the l1 mass of its summands.
"""

import contextlib
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kamzero import series as kseries
from kamzero.driver import realify
from kamzero.series import (_WEIGHT_A, _WEIGHT_P, Budgets, DomainParams, MonomialKey,
                            SeriesDims, TFSeries, fourier_truncate, lie_transform, mode_weight,
                            poisson_bracket, split_low_high, vector_field_norm, vf_majorants,
                            vf_truncate, weighted_norm)
from series_ref import (from_terms, from_text, key_degree, key_kabs, make_key, product,
                        reality_defect, row_bounds, row_decode, row_degrees, row_kabs,
                        row_term_weights, row_vf_parts)

DIMS = SeriesDims(2, (1, 2), (0,), 5)         # modes (0, 3, 4, 5)
BUD = Budgets(degree_max=6, k_max=6)
RTOL = 1e-14

# derandomized and without an example database: the same examples on every run
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# the dict reference
# ---------------------------------------------------------------------------

def _bump(mapping, mode, delta):
    exps = dict(mapping)
    exps[mode] = exps.get(mode, 0) + delta
    return tuple(sorted((m, e) for m, e in exps.items() if e))


def _derivatives(terms, n, modes):
    """Per conjugate variable: {derivative key: coefficient}, keyed by name."""
    out = {}
    for key, c in terms.items():
        for b in range(n):
            if key.k[b]:
                out.setdefault(("x", b), []).append((key, c * 1j * key.k[b]))
            if key.alpha[b]:
                alpha = list(key.alpha)
                alpha[b] -= 1
                out.setdefault(("y", b), []).append(
                    (key._replace(alpha=tuple(alpha)), c * key.alpha[b]))
        for m, e in key.beta:
            out.setdefault(("z", m), []).append((key._replace(beta=_bump(key.beta, m, -1)), c * e))
        for m, e in key.gamma:
            out.setdefault(("zb", m), []).append((key._replace(gamma=_bump(key.gamma, m, -1)), c * e))
    return out


def _key_product(a, b):
    beta = dict(a.beta)
    for m, e in b.beta:
        beta[m] = beta.get(m, 0) + e
    gamma = dict(a.gamma)
    for m, e in b.gamma:
        gamma[m] = gamma.get(m, 0) + e
    return MonomialKey(tuple(x + y for x, y in zip(a.k, b.k)),
                       tuple(x + y for x, y in zip(a.alpha, b.alpha)),
                       tuple(sorted(beta.items())), tuple(sorted(gamma.items())))


def _ref_products(pairs, budgets):
    """Sum of ca * cb * factor over ``(terms_a, terms_b, factor)``, each terms a
    list of (key, coefficient), as (sums, l1 mass of each sum's summands,
    dropped l1 mass): the sums at the keys within the budgets, and the l1
    mass of the sums at the keys outside them."""
    sums, mass = {}, {}
    for terms_a, terms_b, factor in pairs:
        for ka, ca in terms_a:
            for kb, cb in terms_b:
                key = _key_product(ka, kb)
                c = ca * cb * factor
                sums[key] = sums.get(key, 0j) + c
                mass[key] = mass.get(key, 0.0) + abs(c)
    inside = {k for k in sums if key_degree(k) <= budgets.degree_max
              and key_kabs(k) <= budgets.k_max}
    dropped = math.fsum(abs(c) for k, c in sums.items() if k not in inside)
    return {k: c for k, c in sums.items() if c != 0 and k in inside}, mass, dropped


def _bracket_pairs(F, G, dims):
    """The ``(terms_a, terms_b, factor)`` derivative pairs whose products sum to {F, G}."""
    df = _derivatives(F, dims.n, dims.modes)
    dg = _derivatives(G, dims.n, dims.modes)
    pairs = []
    for b in range(dims.n):
        pairs += [(("x", b), ("y", b), 1.0), (("y", b), ("x", b), -1.0)]
    for m in dims.modes:
        pairs += [(("z", m), ("zb", m), 1j), (("zb", m), ("z", m), -1j)]
    return [(df.get(fv, ()), dg.get(gv, ()), factor) for fv, gv, factor in pairs]


def _product_pairs(F, G):
    """The one ``(terms_a, terms_b, factor)`` pair whose products sum to F * G."""
    return [(list(F.items()), list(G.items()), 1.0)]


def ref_bracket(F, G, dims, budgets):
    """{F, G} as (sums, l1 mass of each sum's summands, dropped l1 mass)."""
    return _ref_products(_bracket_pairs(F, G, dims), budgets)


def ref_multiply(F, G, budgets):
    """F * G as (sums, l1 mass of each sum's summands, dropped l1 mass)."""
    return _ref_products(_product_pairs(F, G), budgets)


def ref_add(F, G):
    out = dict(F)
    for key, c in G.items():
        out[key] = out.get(key, 0j) + c
    return {k: c for k, c in out.items() if c != 0}


def ref_prune(F, rel):
    cut = rel * max((abs(c) for c in F.values()), default=0.0)
    kept = {k: c for k, c in F.items() if abs(c) >= cut}
    return kept, sum(abs(c) for k, c in F.items() if k not in kept)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def _keys(dims, kspread, degree_max):
    exps = st.dictionaries(st.sampled_from(dims.modes), st.integers(1, 2), max_size=2)
    raw = st.tuples(st.tuples(*[st.integers(-kspread, kspread)] * dims.n),
                    st.tuples(*[st.integers(0, 1)] * dims.n), exps, exps)
    return raw.map(lambda t: make_key(dims.n, *t)).filter(
        lambda key: key_degree(key) <= degree_max)


DYADIC = st.builds(lambda re, im: complex(re / 4, im / 4),
                   st.integers(-8, 8), st.integers(-8, 8)).filter(lambda c: c != 0)
FLOATS = st.builds(complex, st.floats(-4, 4), st.floats(-4, 4)).filter(lambda c: abs(c) > 1e-3)


def series(coefs=DYADIC, dims=DIMS, budgets=BUD, kspread=2, max_size=8, degree_max=None):
    degree_max = budgets.degree_max if degree_max is None else degree_max
    terms = st.dictionaries(_keys(dims, kspread, degree_max), coefs,
                            min_size=1, max_size=max_size)
    return terms.map(lambda t: from_terms(dims, budgets, t))


def _dict(S):
    return dict(S.terms)


# ---------------------------------------------------------------------------
# agreement with the reference
# ---------------------------------------------------------------------------

def _boundary(deg_a, deg_b, k_a, k_b):
    """Operands whose extreme terms have degrees deg_a, deg_b and |k| = k_a,
    k_b; their bracket holds a row of degree deg_a + deg_b - 2 (their product
    one of deg_a + deg_b) and |k| = k_a + k_b."""
    F = {make_key(2, k=(k_a, 0), alpha=(1, 0), beta={3: deg_a - 2}): 0.5 + 0.25j,
         make_key(2, k=(0, -1), beta={0: 1}): -0.75}
    G = {make_key(2, k=(0, k_b), alpha=(1, 0), gamma={4: deg_b - 2}): 1.25,
         make_key(2, k=(1, 0), gamma={0: 1}): 0.25j}
    return from_terms(DIMS, BUD, F), from_terms(DIMS, BUD, G)


# operands at the budgets and one over (products the budgets cut): bracket
# degree 6 and 7, product degree 6 and 7, |k| 6 and 7
BOUNDARY = [_boundary(4, 4, 1, 1), _boundary(5, 4, 1, 1), _boundary(4, 2, 1, 1),
            _boundary(4, 3, 1, 1), _boundary(2, 2, 3, 3), _boundary(2, 2, 4, 3)]


def at_the_budgets(test):
    for F, G in BOUNDARY:
        test = example(F, G)(test)
    return test


@SETTINGS
@given(series(), series())
@at_the_budgets
def test_bracket_matches_reference_exactly_on_dyadic_coefficients(F, G):
    out = poisson_bracket(F, G)
    ref, _, dropped = ref_bracket(_dict(F), _dict(G), DIMS, BUD)
    if _dict(F) == _dict(G):
        ref, dropped = {}, 0.0   # the self-bracket is zero by definition
    assert _dict(out) == ref
    assert math.isclose(out.meta["dropped_mass"], dropped, rel_tol=1e-12, abs_tol=1e-300)


@SETTINGS
@given(series(FLOATS), series(FLOATS))
def test_bracket_matches_reference_within_rounding(F, G):
    out = _dict(poisson_bracket(F, G))
    ref, mass, _ = ref_bracket(_dict(F), _dict(G), DIMS, BUD)
    if _dict(F) == _dict(G):
        assert not out
        return
    for key in set(out) | set(ref):
        got, want = out.get(key, 0j), ref.get(key, 0j)
        # a key absent on one side must have cancelled on the other
        assert abs(got - want) <= RTOL * mass.get(key, 0.0)


@SETTINGS
@given(series(FLOATS), series(FLOATS))
def test_add_matches_reference_bit_for_bit(F, G):
    assert _dict(F + G) == ref_add(_dict(F), _dict(G))
    assert _dict(F - F) == {}


@SETTINGS
@given(series(FLOATS, max_size=12), st.booleans(), st.booleans())
def test_adding_an_empty_series_is_the_sorted_sum_bit_for_bit(F, real_f, real_z):
    # an empty side skips the sort: the result is the concatenate and
    # ``_canonical`` of both sides, with its own meta
    F.real, F.meta = real_f, {"dropped_mass": 0.5}
    zero = TFSeries.zero(DIMS, BUD, real=real_z)
    for a, b in ((F, zero), (zero, F), (zero, zero)):
        cols, coefs = kseries._canonical(np.concatenate([a.cols, b.cols], axis=1),
                                         np.concatenate([a.coefs, b.coefs]))
        out = a + b
        assert out.cols.dtype == cols.dtype and np.array_equal(out.cols, cols)
        assert out.coefs.dtype == coefs.dtype
        assert out.coefs.view(np.uint64).tolist() == coefs.view(np.uint64).tolist()
        assert out.real == (a.real and b.real)
        assert out.meta == {} and out.meta is not a.meta and out.meta is not b.meta


@SETTINGS
@given(series(FLOATS, max_size=12), st.sampled_from([0.0, 0.1, 0.5, 1.0]))
def test_prune_matches_reference(F, rel):
    kept, removed = ref_prune(_dict(F), rel)
    G = TFSeries(F.dims, F.budgets, F.cols, F.coefs, F.real)
    mass = G.prune(rel)
    assert _dict(G) == kept
    assert math.isclose(mass, removed, rel_tol=1e-12, abs_tol=1e-300)


def _assert_stored(S):
    """The storage contract: one C-ordered int16 array of key columns whose
    rows ascend strictly, no zero coefficient, and ``rows`` the transposed
    view of the columns (an empty array shares no memory, so there the
    shape and strides tell)."""
    width = 2 * S.dims.n + 2 * len(S.dims.modes)
    assert S.cols.dtype == np.int16 and S.cols.flags.c_contiguous
    assert S.cols.shape == (width, len(S)) and S.coefs.shape == (len(S),)
    rows = S.rows.tolist()
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert np.all(S.coefs != 0)
    assert S.rows.shape == S.cols.shape[::-1] and S.rows.strides == S.cols.strides[::-1]
    assert not len(S) or np.shares_memory(S.rows, S.cols)


@SETTINGS
@given(series(FLOATS, max_size=12), series(FLOATS, max_size=12), st.sampled_from([0.1, 0.5, 1.0]))
def test_every_operation_keeps_the_storage_contract(F, G, share):
    dp = DomainParams(0.5, 0.3)
    real_f, real_g = realify(F), realify(G)
    assert real_f.real and real_g.real
    pruned = F.copy()
    pruned.prune(share)
    results = [F, TFSeries.zero(DIMS, BUD), realify(F),
               TFSeries.from_rows(DIMS, BUD, np.tile(F.rows[::-1], (2, 1)),
                                  np.tile(F.coefs[::-1], 2)),
               TFSeries.from_rows(DIMS, BUD, G.rows, G.coefs),
               F + G, F - G, F - F, F * (share - 0.5j), F * 0.0,
               F.select(np.abs(F.coefs) >= share), pruned,
               poisson_bracket(real_f, real_g), poisson_bracket(F, G), poisson_bracket(F, F),
               lie_transform(F, G * 0.01, 3), *fourier_truncate(F, 1)[:2], *split_low_high(F),
               vf_truncate(F, dp, share * vf_majorants(F, dp).sum())[0]]
    for S in results:
        _assert_stored(S)
    with pytest.raises(AttributeError):
        F.rows = F.rows


@SETTINGS
@given(series(FLOATS, max_size=12), st.integers(1, 4))
def test_split_and_truncate_match_reference(F, K):
    terms = _dict(F)
    low, high = split_low_high(F)
    assert _dict(low) == {k: c for k, c in terms.items() if key_degree(k) <= 2}
    assert _dict(high) == {k: c for k, c in terms.items() if key_degree(k) > 2}
    trunc, tail, _ = fourier_truncate(F, K)
    assert _dict(trunc) == {k: c for k, c in terms.items() if key_kabs(k) <= K}
    assert _dict(tail) == {k: c for k, c in terms.items() if key_kabs(k) > K}


# ---------------------------------------------------------------------------
# algebraic identities
# ---------------------------------------------------------------------------

@SETTINGS
@given(series(FLOATS), series(FLOATS))
def test_antisymmetry_is_exact(F, G):
    fg = _dict(poisson_bracket(F, G))
    gf = _dict(poisson_bracket(G, F))
    assert fg.keys() == gf.keys()
    assert all(fg[k] == -gf[k] for k in fg)
    assert not poisson_bracket(F, F).terms


# Degree <= 4 inputs with |k| <= 4 against degree and Fourier budgets of 8:
# the inner brackets and products drop nothing, the outer ones may.  The
# budgets cut keys, a linear map, so the identities hold for whatever the
# outer operations keep, however much mass they drop; with dyadic
# coefficients they hold exactly.
LIN = Budgets(degree_max=8, k_max=8)
SMALL = series(DYADIC, budgets=LIN, max_size=5, degree_max=4)


@SETTINGS
@given(SMALL, SMALL, SMALL)
def test_jacobi_within_dropped_mass(F, G, H):
    inner = [poisson_bracket(G, H), poisson_bracket(H, F), poisson_bracket(F, G)]
    assert all(s.meta["dropped_mass"] == 0.0 for s in inner)
    outer = [poisson_bracket(F, inner[0]), poisson_bracket(G, inner[1]),
             poisson_bracket(H, inner[2])]
    assert not (outer[0] + outer[1] + outer[2]).terms


@SETTINGS
@given(SMALL, SMALL, SMALL)
def test_leibniz_within_dropped_mass(F, G, H):
    # the products come from the test-side reference, itself checked
    # against the dict one
    gh, fg, fh = product(G, H), poisson_bracket(F, G), poisson_bracket(F, H)
    assert _dict(gh) == ref_multiply(_dict(G), _dict(H), LIN)[0]
    assert gh.meta["dropped_mass"] == fg.meta["dropped_mass"] == fh.meta["dropped_mass"] == 0.0
    lhs = poisson_bracket(F, gh)
    t1 = product(fg, H)
    t2 = product(G, fh)
    assert not (lhs - t1 - t2).terms


@SETTINGS
@given(series(FLOATS), series(FLOATS))
def test_bracket_of_real_series_is_real(F, G):
    F, G = realify(F), realify(G)
    assert reality_defect(F) == 0.0
    br = poisson_bracket(F, G)
    assert br.real
    assert reality_defect(br) <= 1e-13 * max(br.max_abs(), 1.0)


@SETTINGS
@given(st.one_of(series(FLOATS, max_size=12),
                 series(FLOATS, budgets=Budgets(6, 7), max_size=12)))
def test_text_round_trip(F):
    G = from_text(F.to_text())
    assert _dict(G) == _dict(F)
    assert G.budgets == F.budgets
    assert G.to_text() == F.to_text()


# ---------------------------------------------------------------------------
# keys wider than one 63-bit code word
# ---------------------------------------------------------------------------

WIDE = SeriesDims(4, (), (0,), 24)             # 25 modes, 58 key columns
WIDE_BUD = Budgets(degree_max=6, k_max=16383)


def _range_bits(F, G):
    """Bits of a mixed-radix code over the column ranges of all product rows."""
    def columns(key):
        beta, gamma = dict(key.beta), dict(key.gamma)
        return (list(key.k) + list(key.alpha) + [beta.get(m, 0) for m in WIDE.modes]
                + [gamma.get(m, 0) for m in WIDE.modes])

    fc = list(zip(*map(columns, F.terms)))
    gc = list(zip(*map(columns, G.terms)))
    return sum(math.log2(max(f) + max(g) - min(min(f), 0) - min(min(g), 0) + 1)
               for f, g in zip(fc, gc))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(series(DYADIC, WIDE, WIDE_BUD, kspread=4000, max_size=6),
       series(DYADIC, WIDE, WIDE_BUD, kspread=4000, max_size=6))
def test_wide_keys_match_reference(F, G):
    out = poisson_bracket(F, G)
    ref, _, dropped = ref_bracket(_dict(F), _dict(G), WIDE, WIDE_BUD)
    if _dict(F) == _dict(G):
        ref, dropped = {}, 0.0
    assert _dict(out) == ref
    assert math.isclose(out.meta["dropped_mass"], dropped, rel_tol=1e-12, abs_tol=1e-300)


def test_wide_keys_at_the_fourier_budget_never_wrap():
    # e^{+-i k_max x_b} z_last against e^{+-i k_max x_b} zbar_last and
    # y_0 e^{-i x_0}: each column spans [-2 k_max - 1, 2 k_max] in the
    # products, 64 bits over the four angles alone
    top, last = WIDE_BUD.k_max, WIDE.modes[-1]
    F, G = {}, {make_key(4, k=(-1, 0, 0, 0), alpha=(1, 0, 0, 0)): 0.25}
    for b in range(4):
        for s in (1, -1):
            k = tuple(s * top if i == b else 0 for i in range(4))
            F[make_key(4, k=k, beta={last: 1})] = complex(b + 1, s)
            G[make_key(4, k=k, gamma={last: 1})] = complex(s, b + 1) / 2
    F, G = from_terms(WIDE, WIDE_BUD, F), from_terms(WIDE, WIDE_BUD, G)
    assert _range_bits(F, G) > 64
    out = poisson_bracket(F, G)
    ref, _, dropped = ref_bracket(_dict(F), _dict(G), WIDE, WIDE_BUD)
    assert _dict(out) == ref
    assert make_key(4, k=(top - 1, 0, 0, 0), beta={last: 1}) in ref
    # the 56 z-zbar products with |k| = 2 k_max are dropped and counted
    assert dropped > 56 * 0.5
    assert math.isclose(out.meta["dropped_mass"], dropped, rel_tol=1e-12)
    assert all(abs(v) <= top for key in out.terms for v in key.k)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 40), st.integers(0, 2 ** 32 - 1), st.integers(1, 5))
def test_codec_decode_inverts_encode_on_wide_codes(width, seed, per_slice):
    # int16 columns with ranges of 12 to 15 bits each that contain 0, so
    # that from five columns on every code spills into further 53-bit
    # words; rows drawn inside the ranges come back from their codes,
    # decoded all at once and a few rows at a time, and so do rows lowered
    # by one in a column
    rng = np.random.default_rng(seed)
    radix = rng.integers(4096, 32769, width)
    lo = -rng.integers(0, radix)
    hi = lo + radix - 1
    keys = rng.integers(lo[:, None], hi[:, None] + 1, (width, rng.integers(1, 60))).astype(np.int16)
    count = keys.shape[1]
    codec = kseries._Codec(lo, hi)
    assert len(codec.words) > 1 or width < 5
    words = codec.encode(keys, lo)
    assert np.array_equal(codec.decode(words), keys)
    with mock.patch.object(kseries, "_CHUNK_ROWS", per_slice * width):
        assert np.array_equal(codec.decode(words), keys)
    cols = rng.integers(-1, width, count)
    cols[keys[cols, np.arange(count)] == lo[cols]] = -1     # stays within the range
    lowered = keys.copy()
    at = np.flatnonzero(cols >= 0)
    lowered[cols[at], at] -= 1
    assert np.array_equal(codec.decode(codec.lowered(words, cols)), lowered)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3000), st.integers(1, 40), st.integers(0, 62), st.integers(0, 2 ** 32 - 1))
@example(1, 1, 0, 0)                    # n = 1
@example(2000, 1, 30, 1)                # all-equal codes
def test_stable_order_is_the_stable_argsort_on_tied_codes(n, distinct, bits, seed):
    # n codes drawn from at most ``distinct`` values below 2^bits, above a
    # random base: heavy ties, n = 1 and all-equal codes (distinct = 1)
    # among them, on both sides of the packed key's fit
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2 ** bits, distinct, endpoint=True)
    base = int(rng.integers(0, 2 ** 63 - 1 - int(values.max()), endpoint=True))
    code = base + rng.choice(values, n)
    order, (got,) = kseries.stable_order([code])
    expect = np.argsort(code, kind="stable")
    assert np.array_equal(order, expect) and np.array_equal(got, code[expect])


@pytest.mark.parametrize("n", [2, 3, 1000, 2 ** 16, 2 ** 16 + 1])
@pytest.mark.parametrize("extra", [0, 1])
def test_stable_order_at_the_packed_key_fit(n, extra):
    # codes whose span (max - min) takes exactly 64 - s bits (packed: the
    # uint64 key fills 64 bits) or 65 - s (one too many: np.lexsort), with
    # s = (n - 1).bit_length() bits of arrival index; ties at both ends
    s = (n - 1).bit_length()
    span = 2 ** (64 - s + extra) - 1
    rng = np.random.default_rng(n)
    base = 2 ** 63 - 1 - span
    code = np.array([base + span if top else base for top in rng.random(n) < 0.5], dtype=np.int64)
    code[:2] = base + span, base
    expect = np.argsort(code, kind="stable")
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        order, (got,) = kseries.stable_order([code])
    assert lexsort.call_count == extra
    assert np.array_equal(order, expect) and np.array_equal(got, code[expect])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 3000), st.integers(1, 40), st.integers(62, 65), st.integers(0, 2 ** 32 - 1))
@example(2, 1, 65, 0)                   # span 2^64 - 1: the whole int64 range
def test_stable_order_around_the_uint64_fit(n, distinct, bits, seed):
    # one-word codes whose span takes 62 - s to 65 - s bits, packed up to
    # 64 - s: heavy ties, both span ends present, negative codes at any
    # base; and the same codes as the leading word of a two-word code
    s = (n - 1).bit_length()
    span = 2 ** (bits - s) - 1
    rng = np.random.default_rng(seed)
    draw = random.Random(seed)
    values = [0, span] + [draw.randint(0, span) for _ in range(distinct)]
    base = draw.randint(-2 ** 63, 2 ** 63 - 1 - span)
    code = np.array([base + values[i] for i in rng.integers(0, len(values), n)], dtype=np.int64)
    code[:2] = base + span, base
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        order, (got,) = kseries.stable_order([code])
    assert lexsort.call_count == (bits > 64)
    expect = np.argsort(code, kind="stable")
    assert np.array_equal(order, expect) and np.array_equal(got, code[expect])
    low = rng.integers(-3, 3, n)
    order, got = kseries.stable_order([code, low])
    expect = np.lexsort([low, code])
    assert np.array_equal(order, expect)
    assert np.array_equal(got[0], code[expect]) and np.array_equal(got[1], low[expect])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([
    ((6361, 69431, 20394401), [(0, 3)]),                    # product 2^53 - 1
    ((65536, 65536, 65536, 32), [(0, 4)]),                  # 2^53
    ((3, 107, 28059810762433), [(0, 2), (2, 3)])]),         # 2^53 + 1
    st.integers(1, 50), st.integers(0, 2 ** 32 - 1))
def test_float_encode_is_the_int64_code_at_the_word_size(case, count, seed):
    # a word holds columns while their radix product is at most 2^53; the
    # float64 encode and the lowered codes equal the int64 codes of the
    # rows, and the words compose the full mixed-radix code, at the row
    # extremes too
    radix, spans = case
    radix = np.array(radix, dtype=np.int64)
    rng = np.random.default_rng(seed)
    lo = -rng.integers(0, radix)
    hi = lo + radix - 1
    codec = kseries._Codec(lo, hi)
    assert [(a, b) for a, b, _ in codec.words] == spans
    rows = rng.integers(lo, hi + 1, (count, len(radix)))
    rows[0], rows[-1] = lo, hi

    def int64_codes(rows):
        return [(rows[:, a:b] - lo[a:b]) @ strides for a, b, strides in codec.words]

    words = codec.encode(np.ascontiguousarray(rows.T), lo)
    assert all(np.array_equal(w, ref) for w, ref in zip(words, int64_codes(rows)))
    sizes = [math.prod(radix[a:b].tolist()) for a, b, _ in codec.words]
    for r, codes in zip(rows.tolist(), zip(*(w.tolist() for w in words))):
        full = 0
        for v, low, rad in zip(r, lo.tolist(), radix.tolist()):
            full = full * rad + (v - low)
        composed = 0
        for code, size in zip(codes, sizes):
            assert 0 <= code < size
            composed = composed * size + code
        assert composed == full
    cols = rng.integers(-1, len(radix), count)
    cols[rows[np.arange(count), cols] == lo[cols]] = -1     # stays within the range
    lowered = rows.copy()
    at = np.flatnonzero(cols >= 0)
    lowered[at, cols[at]] -= 1
    assert all(np.array_equal(w, ref)
               for w, ref in zip(codec.lowered(words, cols), int64_codes(lowered)))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(series(FLOATS, max_size=12), series(FLOATS, max_size=12),
       series(DYADIC, WIDE, WIDE_BUD, kspread=4000, max_size=6),
       series(DYADIC, WIDE, WIDE_BUD, kspread=4000, max_size=6))
def test_coefficients_at_and_from_rows_match_the_terms_view(F, G, P, Q):
    # lookups of present and absent keys, in any order, on narrow and on
    # wide (beyond one 63-bit code word) key ranges
    for A, B in ((F, G), (P, Q)):
        rows = np.concatenate([B.rows[::-1], A.rows[::-1]])
        keys = [key for S in (B, A) for key in reversed(list(S.terms))]
        assert A.coefficients_at(rows).tolist() == [A.terms.get(key, 0j) for key in keys]
        twice = TFSeries.from_rows(A.dims, A.budgets, np.tile(A.rows[::-1], (2, 1)),
                                   np.tile(A.coefs[::-1], 2))
        assert _dict(twice) == {key: 2 * c for key, c in A.terms.items()}


def _structured_coefficients_at(S, rows):
    """``coefficients_at`` by a binary search on the rows viewed as structured
    int16 records (signed, column-by-column comparison)."""
    record = np.dtype([("c%d" % c, np.int16) for c in range(S.rows.shape[1])])
    rows = np.ascontiguousarray(rows, dtype=np.int16)
    store = np.ascontiguousarray(S.rows).view(record).ravel()
    pos = np.minimum(np.searchsorted(store, rows.view(record).ravel()), len(S) - 1)
    hit = np.all(S.rows[pos] == rows, axis=1)
    out = np.zeros(len(rows), dtype=complex)
    out[hit] = S.coefs[pos[hit]]
    return out


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 3), st.integers(1, 10), st.integers(0, 2000), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_column_kernels_match_the_row_wise_reference(n, nmodes, count, zero, seed):
    # the kernels on contiguous columns against their row-wise forms in
    # series_ref: integers equal; floats bit-equal below 8 mode columns a
    # side, where numpy adds a row's entries left to right as a column sum
    # does; from 8 on numpy sums a row pairwise, so there they agree within
    # 4 ulps of the summands (the weights carry the mode sum through exp),
    # and a row and its mirror still get bit-equal majorants
    rng = np.random.default_rng(seed)
    dims = SeriesDims(n, (), (0,) if zero else (), nmodes - zero)
    assert len(dims.modes) == nmodes
    width = 2 * n + 2 * nmodes
    rows = np.concatenate([rng.integers(-6, 7, (count, n)), rng.integers(0, 4, (count, n)),
                           rng.integers(0, 4, (count, 2 * nmodes))
                           * (rng.random((count, 2 * nmodes)) < 0.4)], axis=1).astype(np.int16)
    coefs = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    dp = DomainParams(rng.uniform(0.01, 2.0), math.exp(rng.uniform(-4.0, 1.0)))
    cols = np.ascontiguousarray(rows.T)
    for got, want in ((kseries._degrees(cols, n), row_degrees(rows, n)),
                      (kseries._kabs(cols, n), row_kabs(rows, n))):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    if count:
        for got, want in zip(kseries._bounds(cols), row_bounds(rows)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    F = TFSeries(dims, BUD, cols, coefs)
    weights, (base, h) = kseries._term_weights(F, dp), kseries._vf_parts(F, dp)
    ref_weights, (ref_base, ref_h) = row_term_weights(F, dp), row_vf_parts(F, dp)
    if nmodes < 8:
        for got, want in ((weights, ref_weights), (base, ref_base), (h, ref_h)):
            assert np.array_equal(_bits(got), _bits(want))
    else:
        logw = np.array([0.0 if j == 0 else _WEIGHT_P * math.log(j) + _WEIGHT_A * j for j in dims.modes])
        zexp = rows[:, 2 * n:2 * n + nmodes] + rows[:, 2 * n + nmodes:]
        summands = (zexp * np.abs(math.log(dp.r) - logw)).sum(axis=1)
        tol = 4 * np.finfo(float).eps * (summands + 1.0)
        assert np.all(np.abs(weights - ref_weights) <= tol * ref_weights)
        assert np.all(np.abs(base - ref_base) <= tol * ref_base)
        np.testing.assert_array_max_ulp(h, ref_h, maxulp=4)
    # each row and its mirror, at shuffled positions of one series
    perm = rng.permutation(count)
    mirror, conj = kseries._mirror(dims, cols, coefs)
    both = TFSeries(dims, BUD, np.concatenate([cols, mirror[:, perm]], axis=1),
                    np.concatenate([coefs, conj[perm]]))
    at = count + np.argsort(perm)
    for part in kseries._vf_parts(both, dp):
        assert np.array_equal(_bits(part[:count]), _bits(part[at]))
    # decode, on column ranges within -16383..16383 that contain 0 (several
    # code words)
    lo = rng.integers(-16383, 1, width)
    hi = rng.integers(0, 16384, width)
    codec = kseries._Codec(lo, hi)
    wide = rng.integers(lo, hi + 1, (count, width)).astype(np.int16)
    words = codec.encode(np.ascontiguousarray(wide.T), lo)
    got = codec.decode(words)
    assert np.array_equal(got.T, row_decode(codec, words)) and np.array_equal(got.T, wide)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 40), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_coefficients_at_matches_the_structured_record_search(size, queries, seed):
    # columns of one value up to the whole -16383..16383 range; the queries
    # are the stored rows, rows one step away from them and fresh rows
    rng = np.random.default_rng(seed)
    width = 2 * DIMS.n + 2 * len(DIMS.modes)
    span = rng.choice([1, 3, 40, 32767], width)
    lo = rng.integers(-16383, 16384 - span + 1)
    rows = rng.integers(lo, lo + span, (size, width))
    wide = np.flatnonzero(span == 32767)
    if len(wide):
        rows[0, wide], rows[-1, wide] = -16383, 16383
    S = TFSeries.from_rows(DIMS, BUD, rows, rng.standard_normal(size) + 1j)
    near = S.rows[rng.integers(0, len(S), queries)].astype(np.int32)
    near[np.arange(queries), rng.integers(0, width, queries)] += rng.choice([-1, 1], queries)
    fresh = rng.integers(lo, lo + span, (queries, width))
    keys = np.concatenate([S.rows[rng.permutation(len(S))],
                           np.clip(near, -16383, 16383), fresh]).astype(np.int16)
    got = S.coefficients_at(keys)
    assert got.tobytes() == _structured_coefficients_at(S, keys).tobytes()
    assert np.count_nonzero(got) >= len(S)


# ---------------------------------------------------------------------------
# the accumulator beyond one buffer
# ---------------------------------------------------------------------------

# a few rows per buffer, so that raw-buffer reductions, block merges and the
# final merge all run; the default size keeps everything in one buffer
CHUNKS = st.one_of(st.integers(1, 6), st.just(kseries._CHUNK_ROWS))


def _ref_bracket_of(F, G):
    """``ref_bracket`` of two series; the self-bracket is zero by definition."""
    f, g = _dict(F), _dict(G)
    return ({}, {}, 0.0) if f == g else ref_bracket(f, g, F.dims, F.budgets)


def _chunked_bracket(F, G, chunk):
    """{F, G} formed with the accumulator's buffers shrunk to ``chunk`` rows,
    and its reference."""
    with mock.patch.object(kseries, "_CHUNK_ROWS", chunk):
        return poisson_bracket(F, G), _ref_bracket_of(F, G)


@SETTINGS
@given(st.one_of(st.tuples(series(), series()), st.tuples(SMALL, SMALL)), CHUNKS)
@example(BOUNDARY[0], 2)
@example(BOUNDARY[3], 2)
@example(BOUNDARY[5], 3)
def test_products_beyond_one_buffer_match_reference_exactly_on_dyadic_coefficients(pair, chunk):
    out, (ref, _, dropped) = _chunked_bracket(*pair, chunk)
    assert _dict(out) == ref
    assert math.isclose(out.meta["dropped_mass"], dropped, rel_tol=1e-12, abs_tol=1e-300)


# the x2-y2 products of the two degree-4/5 terms cancel in exact arithmetic,
# at a key of degree 7, and leave a rounding residue in the kernel's sum
_CANCELLING = tuple(
    from_terms(DIMS, BUD, {make_key(2): 1j, make_key(2, (0, 1), (0, 1), {0: 1, 3: e}): c})
    for e, c in ((1, 1 + 1.0135778634108359j), (2, 1 + 1.0625j)))


@SETTINGS
@given(series(FLOATS), series(FLOATS), CHUNKS)
@example(*_CANCELLING, kseries._CHUNK_ROWS)
def test_products_beyond_one_buffer_match_reference_within_rounding(F, G, chunk):
    out, (ref, mass, dropped) = _chunked_bracket(F, G, chunk)
    got = _dict(out)
    for key in set(got) | set(ref):
        assert abs(got.get(key, 0j) - ref.get(key, 0j)) <= RTOL * mass.get(key, 0.0)
    # dropped_mass sums |c| over the keys outside the budgets, each c within
    # RTOL of its summands' mass as above: a key whose products cancel
    # leaves a rounding residue of either size on either side
    outside = math.fsum(m for key, m in mass.items()
                        if key_degree(key) > BUD.degree_max or key_kabs(key) > BUD.k_max)
    assert abs(out.meta["dropped_mass"] - dropped) <= RTOL * outside + 1e-12 * dropped


def _box(kmax, alpha, rng):
    """Series of every row with |k_b| <= kmax and alpha_b < alpha[b] (no mode
    exponents), Gaussian coefficients, on budgets no product reaches."""
    grid = np.stack(np.meshgrid(*[np.arange(-kmax, kmax + 1)] * 2, *map(np.arange, alpha),
                                indexing="ij"), axis=-1).reshape(-1, 4)
    rows = np.zeros((len(grid), 2 * DIMS.n + 2 * len(DIMS.modes)), dtype=np.int16)
    rows[:, :4] = grid
    return TFSeries.from_rows(DIMS, Budgets(40, 64), rows,
                              rng.standard_normal(len(rows)) + 1j * rng.standard_normal(len(rows)))


def test_unmasked_bracket_forms_its_rows_a_chunk_at_a_time():
    # 2,205 x 300 terms, 1.3M product rows, 16,875 distinct: with a chunk
    # of a few thousand rows no block reaches the accumulator larger than a
    # chunk, and the bracket's numpy memory peaks within 64 chunks of 24
    # bytes (a code word and a coefficient per row) where forming its rows
    # at once would take about 1,300
    rng = np.random.default_rng(11)
    F, G = _box(10, (5, 1), rng), _box(2, (3, 4), rng)
    whole = poisson_bracket(F, G)
    for chunk, largest in ((4096, 4096), (128, max(len(F), len(G)))):
        sizes, add = [], kseries._Accumulator.add

        def counted(acc, words, coefs):
            sizes.append(len(coefs))
            return add(acc, words, coefs)
        with mock.patch.object(kseries, "_CHUNK_ROWS", chunk), \
                mock.patch.object(kseries._Accumulator, "add", counted):
            tracemalloc.start()
            try:
                out = poisson_bracket(F, G)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # a segment (an A-row with its pair's B-rows) above a chunk goes alone
        assert sum(sizes) > 1_000_000 and max(sizes) <= largest
        assert np.array_equal(out.rows, whole.rows) and len(out) == 16875
        assert np.allclose(out.coefs, whole.coefs, rtol=1e-12, atol=0.0)
        if chunk == 4096:
            assert peak <= 64 * 24 * chunk


# terms of degree 4 to 6 under a degree budget of 6: a bracket keeps only the
# rows of two degree-4 terms
_EXPS = [{}] + [{m: e} for m in DIMS.modes for e in (1, 2)] + [
    {m: e, q: f} for m in DIMS.modes for q in DIMS.modes if m < q for e in (1, 2) for f in (1, 2)]
_HIGH_EXPONENTS = [(alpha, beta, gamma) for alpha in ((0, 0), (1, 0), (0, 1), (1, 1))
                   for beta in _EXPS for gamma in _EXPS
                   if 4 <= 2 * sum(alpha) + sum(beta.values()) + sum(gamma.values()) <= 6]
HIGH = st.dictionaries(
    st.builds(lambda k, exps: make_key(DIMS.n, k, *exps),
              st.tuples(*[st.integers(-2, 2)] * DIMS.n), st.sampled_from(_HIGH_EXPONENTS)),
    FLOATS, min_size=4, max_size=12)
UNBOUNDED = Budgets(degree_max=40, k_max=40)


def _formed(op, F, G):
    """op(F, G) and the number of product rows it formed."""
    rows, add = [], kseries._Accumulator.add

    def counted(acc, words, coefs):
        rows.append(len(coefs))
        return add(acc, words, coefs)
    with mock.patch.object(kseries._Accumulator, "add", counted):
        out = op(F, G)
    return out, sum(rows)


# 13 products, one in budget: a bracket that formed only that one would
# multiply it alone, in place, and round it unlike the unbounded bracket
_ONE_IN_BUDGET = (
    {make_key(DIMS.n, (0, 0), (0, 0), {}, {0: 2, 3: 2}): 1j,
     make_key(DIMS.n, (0, 0), (0, 0), {}, {0: 2, 4: 2}): 1j,
     make_key(DIMS.n, (0, 0), (0, 0), {0: 1}, {0: 1, 5: 2}): 1.9363500231619173 + 1j,
     make_key(DIMS.n, (0, 1), (0, 0), {}, {0: 2, 3: 2}): 1j},
    {make_key(DIMS.n, (0, 0), (0, 0), {}, {0: 2, 3: 2}): 1.5 + 1j,
     make_key(DIMS.n, (0, 0), (0, 0), {0: 1}, {0: 2, 5: 2}): 1j,
     make_key(DIMS.n, (0, 0), (0, 0), {0: 1}, {3: 2, 5: 2}): 1j,
     make_key(DIMS.n, (0, 0), (0, 0), {3: 1}, {0: 2, 4: 2}): 1j})


def _unbounded_bracket(F, G, budget):
    """The bracket of F and G on their keys under ``UNBOUNDED``, which no
    product of these tests passes."""
    return poisson_bracket(*(TFSeries(DIMS, UNBOUNDED, S.cols, S.coefs, S.real) for S in (F, G)),
                           VF_DP, budget)


def _in_budget(S):
    """Mask of the keys of S within the degree and Fourier budgets ``BUD``."""
    return ((kseries._degrees(S.cols, DIMS.n) <= BUD.degree_max)
            & (kseries._kabs(S.cols, DIMS.n) <= BUD.k_max))


def _many_per_key():
    """Float operands whose bracket sums about 75 in-budget products per
    key, out of ten times as many products: each key's sum depends on the
    order of its summands."""
    rng = np.random.default_rng(7)
    grid = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    low = [make_key(DIMS.n, k, alpha) for k in grid for alpha in ((1, 1), (2, 0))]
    high = [make_key(DIMS.n, k, *exps) for k in grid[16:33] for exps in _HIGH_EXPONENTS
            if 2 * sum(exps[0]) + sum(exps[1].values()) + sum(exps[2].values()) > 4]
    return tuple({key: complex(*rng.uniform(-4, 4, 2))
                  for key in low + [high[i] for i in rng.choice(len(high), 400, False)]}
                 for _ in range(2))


def _assert_cut(F, G, budget):
    """A bracket forms every product whatever its budgets and truncates the
    merged keys once: with or without a skip budget, it is the UNBOUNDED
    bracket at the keys within BUD, bit for bit, and its dropped_mass is the
    l1 mass of the UNBOUNDED bracket at the keys outside."""
    out = poisson_bracket(F, G, VF_DP, budget)
    full = _unbounded_bracket(F, G, budget)
    inside = _in_budget(full)
    assert out.rows.tobytes() == full.rows[inside].tobytes()
    assert out.coefs.tobytes() == full.coefs[inside].tobytes()
    assert out.real == full.real == F.real
    assert (out.meta["skip_bound"], out.meta["skip_rows"]) == (full.meta["skip_bound"],
                                                               full.meta["skip_rows"])
    assert full.meta["dropped_mass"] == 0.0
    assert math.isclose(out.meta["dropped_mass"], math.fsum(np.abs(full.coefs[~inside])),
                        rel_tol=1e-12, abs_tol=1e-300)
    return out


@SETTINGS
@given(HIGH, HIGH, st.booleans(), st.sampled_from([0.0, 1e-6, 1.0]))
def test_the_budgets_cut_the_unbounded_bracket_to_its_keys_in_budget(f, g, real, budget):
    # on operands whose products pass the budgets, plain or halved
    assume(f != g)      # the self-bracket is zero by definition
    F, G = (from_terms(DIMS, BUD, t) for t in (f, g))
    if real:
        F, G = realify(F), realify(G)
    _assert_cut(F, G, budget)


def test_masked_products_form_only_the_rows_in_budget():
    # one product of 13 in budget: the bracket keeps that row alone, rounded
    # as in the unbounded bracket, and drops the mass of the other twelve
    f, g = _ONE_IN_BUDGET
    keys = [_key_product(ka, kb) for ta, tb, _ in _bracket_pairs(f, g, DIMS)
            for ka, _ in ta for kb, _ in tb]
    assert len(keys) == 13
    assert sum(key_degree(k) <= BUD.degree_max and key_kabs(k) <= BUD.k_max for k in keys) == 1
    out = _assert_cut(from_terms(DIMS, BUD, f), from_terms(DIMS, BUD, g), 0.0)
    assert len(out) == 1
    assert math.isclose(out.meta["dropped_mass"], ref_bracket(f, g, DIMS, BUD)[2], rel_tol=1e-12)
    assert out.meta["dropped_mass"] > 0


def test_masked_bracket_sums_its_rows_in_the_full_products_order():
    # about 75 in-budget products per key, out of ten times as many, with
    # float coefficients: each key's sum depends on the order of its
    # summands, which the truncated bracket keeps, plain and halved
    f, g = _many_per_key()
    keys = [_key_product(ka, kb) for ta, tb, _ in _bracket_pairs(f, g, DIMS)
            for ka, _ in ta for kb, _ in tb]
    in_budget = sum(key_degree(k) <= BUD.degree_max and key_kabs(k) <= BUD.k_max for k in keys)
    F, G = from_terms(DIMS, BUD, f), from_terms(DIMS, BUD, g)
    for real in (False, True):
        if real:
            F, G = realify(F), realify(G)
        out = _assert_cut(F, G, 0.0)
        if not real:
            assert 0 < in_budget <= 0.1 * len(keys) and in_budget > 50 * len(out)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(series(FLOATS, max_size=12), series(DYADIC, WIDE, WIDE_BUD, kspread=4000, max_size=6),
       st.integers(1, 3))
def test_sliced_encode_matches_one_shot_encode(F, P, per_slice):
    # the codes of a series' rows against the code range of its products
    # with itself, on narrow keys and on wide ones (about a third of these
    # examples need two 63-bit words), do not depend on how many rows are
    # encoded at a time
    for S in (F, P):
        lo, hi = kseries._bounds(S.cols)
        codec = kseries._Codec(lo + lo, hi + hi)
        whole = codec.encode(S.cols, lo)
        with mock.patch.object(kseries, "_CHUNK_ROWS", per_slice * S.cols.shape[0]):
            sliced = codec.encode(S.cols, lo)
        assert len(codec.words) == len(whole) == len(sliced)
        assert all(w.dtype == v.dtype == np.int64 and np.array_equal(w, v)
                   for w, v in zip(whole, sliced))


# ---------------------------------------------------------------------------
# reality-halved brackets
# ---------------------------------------------------------------------------

# k = 0 terms: two self-mirror rows (k = 0, beta = gamma) and one whose
# mirror is another row
K0_TERMS = {make_key(2, alpha=(1, 0)): 0.5, make_key(2, beta={3: 1}, gamma={3: 1}): -0.25,
            make_key(2, alpha=(0, 1), beta={0: 1}): 0.75j}


def real_series(coefs):
    """Real series (``realify``) holding the ``K0_TERMS`` keys among others."""
    terms = st.dictionaries(_keys(DIMS, 2, BUD.degree_max), coefs, min_size=1, max_size=8)
    return terms.map(lambda t: realify(from_terms(DIMS, BUD, {**K0_TERMS, **t})))


def _halved(F, G, chunk):
    """{F, G} and {G, F} with the accumulator's buffers shrunk to ``chunk``
    rows, and whether they were formed from half of an operand."""
    with mock.patch.object(kseries, "_CHUNK_ROWS", chunk), \
            mock.patch.object(kseries, "_half", wraps=kseries._half) as half:
        return poisson_bracket(F, G), poisson_bracket(G, F), half.called


def _check_halved(F, G, chunk):
    """{F, G} formed from half of an operand: exactly real and exactly
    antisymmetric; returns it and its reference."""
    fg, gf, halved = _halved(F, G, chunk)
    assert halved == (_dict(F) != _dict(G))
    assert fg.real and reality_defect(fg) == 0.0
    assert _dict(fg) == {key: -c for key, c in _dict(gf).items()}
    return fg, _ref_bracket_of(F, G)


@SETTINGS
@given(real_series(DYADIC), real_series(DYADIC), st.integers(1, 6))
def test_halved_bracket_matches_reference_exactly_on_dyadic_coefficients(F, G, chunk):
    out, (ref, _, dropped) = _check_halved(F, G, chunk)
    assert _dict(out) == ref
    assert math.isclose(out.meta["dropped_mass"], dropped, rel_tol=1e-12, abs_tol=1e-300)


@SETTINGS
@given(real_series(FLOATS), real_series(FLOATS), st.integers(1, 6))
def test_halved_bracket_matches_reference_within_rounding(F, G, chunk):
    out, (ref, mass, _) = _check_halved(F, G, chunk)
    got = _dict(out)
    for key in set(got) | set(ref):
        assert abs(got.get(key, 0j) - ref.get(key, 0j)) <= RTOL * mass.get(key, 0.0)


@SETTINGS
@given(real_series(FLOATS), real_series(FLOATS), st.integers(1, 6))
def test_brackets_of_operands_not_flagged_real_are_never_halved(F, G, chunk):
    # the same values with either flag or both removed take the full path,
    # bit for bit alike
    plain = [TFSeries._of(S, S.cols, S.coefs, False) for S in (F, G)]
    fg, _, halved = _halved(*plain, chunk)
    assert not halved
    for mixed in ((F, plain[1]), (plain[0], G)):
        out, _, halved = _halved(*mixed, chunk)
        assert not halved
        assert out.rows.tobytes() == fg.rows.tobytes()
        assert out.coefs.tobytes() == fg.coefs.tobytes()
        assert out.meta == fg.meta


def test_halving_runs_for_every_product_of_two_distinct_real_operands():
    F = realify(from_terms(DIMS, BUD, {**K0_TERMS, make_key(2, k=(1, -1), beta={4: 1}): 0.5j}))
    G = realify(from_terms(DIMS, BUD, {make_key(2, k=(2, 0), alpha=(1, 0), gamma={0: 1}): 0.25,
                                       make_key(2, k=(0, 1), beta={3: 2}): -0.5}))
    # a few product rows, far below one accumulator buffer
    assert len(F) * len(G) < kseries._CHUNK_ROWS
    assert _halved(F, G, kseries._CHUNK_ROWS)[2]
    # the self-bracket is zero outright
    fg, _, halved = _halved(F, F, kseries._CHUNK_ROWS)
    assert not halved and not fg.terms
    # many product rows, none of them within the degree budget
    deep = [realify(from_terms(DIMS, BUD, {make_key(2, k=k, alpha=(1, 0), beta={3: 2},
                                                    gamma={4: 2}): 0.5 + 0.25j}))
            for k in ((1, 0), (0, 1))]
    fg, _, halved = _halved(*deep, 1)
    assert halved and not fg.terms and fg.meta["dropped_mass"] > 0
    assert math.isclose(fg.meta["dropped_mass"], _ref_bracket_of(*deep)[2], rel_tol=1e-12)
    # flagged real, but its one row sorts above its mirror: the half is empty
    lone = from_terms(DIMS, BUD, {make_key(2, k=(1, 0), alpha=(1, 0), beta={4: 1}): 0.5}, real=True)
    fg, _, halved = _halved(lone, G, 1)
    assert halved and not fg.terms
    # without the flag the same row gives a nonzero bracket
    plain = TFSeries._of(lone, lone.cols, lone.coefs, False)
    assert poisson_bracket(plain, G).terms


# ---------------------------------------------------------------------------
# vector-field majorants and the truncation they certify
# ---------------------------------------------------------------------------

VF_DP = DomainParams(0.5, 0.3)


@SETTINGS
@given(series(FLOATS, max_size=12))
def test_majorant_is_the_vector_field_norm_of_the_term_alone(F):
    m = vf_majorants(F, VF_DP)
    for i in range(len(F)):
        assert math.isclose(m[i], vector_field_norm(F.select(np.arange(len(F)) == i), VF_DP),
                            rel_tol=1e-12, abs_tol=0.0)


@SETTINGS
@given(series(FLOATS, max_size=12), st.floats(0.0, 1.0))
def test_truncated_norm_is_within_the_dropped_majorants(F, share):
    m = vf_majorants(F, VF_DP)
    budget = share * m.sum()
    kept, bound, dropped = vf_truncate(F, VF_DP, budget)
    assert dropped == len(F) - len(kept)
    assert bound <= budget * (1 + 1e-12)
    assert set(_dict(kept).items()) <= set(_dict(F).items())
    norm = vector_field_norm(F, VF_DP)
    # the two norms sum their terms in different orders: a few ulps of slack
    slack = 4 * np.finfo(float).eps * norm
    assert abs(norm - vector_field_norm(kept, VF_DP)) <= bound * (1 + 1e-12) + slack


@SETTINGS
@given(real_series(DYADIC))
def test_truncation_of_a_real_series_keeps_whole_ties_and_stays_real(F):
    # every prefix sum of the ascending majorants as the budget, so the cut
    # falls between and inside every tie class (a row and its mirror tie)
    m = vf_majorants(F, VF_DP)
    for budget in np.cumsum(np.sort(m)):
        kept, _, _ = vf_truncate(F, VF_DP, budget)
        assert kept.real and reality_defect(kept) == 0.0
        gone = ~(F.rows[:, None] == kept.rows).all(axis=2).any(axis=1)
        assert not set(m[gone]) & set(m[~gone])


def test_ties_at_the_cut_go_together():
    # four rows of one majorant: two keys of |k| = 1 on one mode and their
    # mirrors; a budget inside the tie class keeps it whole
    F = realify(from_terms(DIMS, BUD, {make_key(2, k=(1, 0), beta={3: 1}): 0.5,
                                       make_key(2, k=(0, 1), beta={3: 1}): 0.5j,
                                       make_key(2, alpha=(1, 0)): 100.0}))
    m = vf_majorants(F, VF_DP)
    tie = m[m != m.max()]
    assert len(tie) == 4 and len(set(tie)) == 1
    for share, left in ((0.5, 5), (2.5, 5), (3.99, 5), (4.5, 1)):
        kept, bound, dropped = vf_truncate(F, VF_DP, share * tie[0])
        assert (len(kept), dropped) == (left, 5 - left)
        assert math.isclose(bound, 4 * tie[0] if dropped else 0.0, rel_tol=1e-15)
        assert reality_defect(kept) == 0.0


@SETTINGS
@given(series(FLOATS, max_size=12))
def test_a_zero_budget_drops_nothing(F):
    # a constant has majorant 0 but still stays
    const = from_terms(DIMS, BUD, {make_key(2): 0.25})
    for S in (F, F + const):
        kept, bound, dropped = vf_truncate(S, VF_DP, 0.0)
        assert kept is S and bound == 0.0 and dropped == 0


# ---------------------------------------------------------------------------
# brackets that leave out product rows within a vector-field budget
# ---------------------------------------------------------------------------

OPERANDS = st.one_of(st.tuples(series(FLOATS), series(FLOATS)),
                     st.tuples(real_series(FLOATS), real_series(FLOATS)))


@SETTINGS
@given(OPERANDS, st.floats(0.0, 1.2))
def test_skipped_bracket_norm_is_within_the_skip_bound(pair, share):
    F, G = pair
    full = poisson_bracket(F, G)
    everything = poisson_bracket(F, G, VF_DP, math.inf)
    total = everything.meta["skip_bound"]
    # an unbounded budget leaves every product row out: its bound sums the
    # majorants of all of them, and so bounds the l1 mass of each key too
    assert not len(everything) and total >= 0.0
    budget = share * total
    out = poisson_bracket(F, G, VF_DP, budget)
    bound = out.meta["skip_bound"]
    assert bound <= budget * (1 + 1e-12)
    assert (out.meta["skip_rows"] > 0) == (bound > 0)
    if F.real and G.real:
        assert out.real and reality_defect(out) == 0.0
    # both brackets round each coefficient within RTOL of its summands' mass
    slack = 2 * RTOL * total
    assert (abs(vector_field_norm(full, VF_DP) - vector_field_norm(out, VF_DP))
            <= bound * (1 + 1e-12) + slack)


@SETTINGS
@given(OPERANDS, st.sampled_from([0.0, 1e-300]))
def test_a_budget_below_every_row_forms_the_whole_bracket(pair, budget):
    # budget 0 computes no plan; a budget below every row's cost leaves no
    # row out, and the kept rows reach the accumulator in their order
    F, G = pair
    full = poisson_bracket(F, G)
    out = poisson_bracket(F, G, VF_DP, budget)
    assert out.rows.tobytes() == full.rows.tobytes()
    assert out.coefs.tobytes() == full.coefs.tobytes()
    assert out.real == full.real
    assert out.meta == full.meta
    assert out.meta["skip_bound"] == 0.0 and out.meta["skip_rows"] == 0


def test_the_skip_plan_runs_whenever_the_budget_is_positive():
    # the BOUNDARY operands, some with products beyond the degree or
    # Fourier budget: the plan runs exactly when the budget is positive and
    # both operands (the half of a real first one) hold rows, its bound
    # stays within the budget and certifies the norm, and every product is
    # formed or counted in skip_rows
    over = 0
    for pair in BOUNDARY:
        for F, G in (pair, tuple(map(realify, pair))):
            full, products = _formed(poisson_bracket, F, G)
            over += full.meta["dropped_mass"] > 0
            total = poisson_bracket(F, G, VF_DP, math.inf).meta["skip_bound"]
            for budget in (0.0, 1e-300, 0.3 * total, total, math.inf):
                plans = []
                with _recorded("_skip_plan", plans):
                    out, formed = _formed(lambda a, b: poisson_bracket(a, b, VF_DP, budget), F, G)
                assert len(plans) == (budget > 0)
                assert formed + out.meta["skip_rows"] == products
                bound = out.meta["skip_bound"]
                assert bound <= budget * (1 + 1e-12)
                slack = 2 * RTOL * total
                assert (abs(vector_field_norm(full, VF_DP) - vector_field_norm(out, VF_DP))
                        <= bound * (1 + 1e-12) + slack)
    assert over >= 3
    # flagged real, one row that sorts above its mirror: the half is empty;
    # an empty operand returns before the kernel
    lone = from_terms(DIMS, BUD, {make_key(2, k=(1, 0), alpha=(1, 0), beta={4: 1}): 0.5}, real=True)
    G = realify(BOUNDARY[0][1])
    for F in (lone, TFSeries.zero(DIMS, BUD, real=True)):
        plans = []
        with _recorded("_skip_plan", plans):
            out = poisson_bracket(F, G, VF_DP, 1.0)
        assert not plans and not len(out) and out.meta["skip_rows"] == 0


def test_skipped_rows_of_one_cost_go_together():
    # {y1, cos x1}: the one pair block is the y1-row (u = 1, h = 1) against
    # the two rows e^{+-i x1} (u = e^s / 2, h = 1), two products of bound
    # u_a u_b (h_a + h_b) / r^2 = t = e^s / r^2 each; they tie, so they go
    # together, and the bound counts each product once
    F = from_terms(DIMS, BUD, {make_key(2, alpha=(1, 0)): 1.0})
    G = from_terms(DIMS, BUD, {make_key(2, k=(1, 0)): 0.5, make_key(2, k=(-1, 0)): 0.5})
    t = math.exp(VF_DP.s) / VF_DP.r ** 2
    full = poisson_bracket(F, G)
    assert len(full) == 2
    for share, left, bound, rows in ((0.99, 2, 0.0, 0), (1.5, 2, 0.0, 0),
                                     (2.5, 0, 2 * t, 2), (4.0, 0, 2 * t, 2)):
        out = poisson_bracket(F, G, VF_DP, share * t)
        assert len(out) == left
        assert math.isclose(out.meta["skip_bound"], bound, rel_tol=1e-12)
        assert out.meta["skip_rows"] == rows
        if left:
            assert out.coefs.tobytes() == full.coefs.tobytes()


def _plan_levels(u):
    """The skip plan's level of each u: floor(4 log2 u), a quarter octave,
    less the lowest, capped at 1,023 (0 counts as the least normal float)."""
    levels = [math.floor(4 * math.log2(max(x, np.finfo(float).tiny))) for x in u]
    return [min(level - min(levels), 1023) for level in levels]


def _derivative_terms(S, col, factor, dp):
    """(lowered row, coefficient, u, h) of each derivative row of S in the
    variable of column ``col``, from the definitions: a derivative brings
    down the exponent e (1j k for an angle, times ``factor``), u = |c|
    weight |e| gain with gain the factor the weight gains by the derivative,
    and h = max |k_b| + max alpha_b + |beta w^2|_2 + |gamma w^2|_2 of the
    row."""
    n, nmodes = S.dims.n, len(S.dims.modes)
    w = np.array([mode_weight(j) for j in S.dims.modes])
    gain = np.concatenate([np.ones(n), np.full(n, dp.r ** -2), w / dp.r, w / dp.r])
    out = []
    for i, (row, c) in enumerate(zip(S.rows.astype(np.int64), S.coefs)):
        e = int(row[col])
        if not e:
            continue
        h = (max(abs(row[:n]), default=0) + max(row[n:2 * n], default=0)
             + math.hypot(*(row[2 * n:2 * n + nmodes] * w ** 2))
             + math.hypot(*(row[2 * n + nmodes:] * w ** 2)))
        base = weighted_norm(S.select(np.arange(len(S)) == i), dp)
        lowered = row.copy()
        if col >= n:
            lowered[col] -= 1
        out.append((lowered, c * (1j * e if col < n else e) * factor, base * abs(e) * gain[col], h))
    return out


def _plan_candidates(A, B, pairs, dp):
    """The (product row, coefficient, majorant bound, level sum) of every
    product of a derivative row of A with one of B (``_derivative_terms``),
    pair by pair, within the budgets or not.  A product's bound is u_a
    u_b (h_a + h_b) / r^2, and its level sum adds the levels
    (``_plan_levels``) of u_a / r^2 among all of A's derivative rows and of
    u_b among all of B's."""
    sides = [[_derivative_terms(A, col_a, 1.0, dp) for col_a, _, _ in pairs],
             [_derivative_terms(B, col_b, factor, dp) for _, col_b, factor in pairs]]
    for side, scale in zip(sides, (dp.r ** -2, 1.0)):
        levels = iter(_plan_levels([u * scale for rows in side for _, _, u, _ in rows]))
        side[:] = [[row + (next(levels),) for row in rows] for rows in side]
    cands = []
    for rows_a, rows_b in zip(*sides):
        for ra, ca, ua, ha, la in rows_a:
            for rb, cb, ub, hb, lb in rows_b:
                cands.append((ra + rb, ca * cb, ua * ub * (ha + hb) / dp.r ** 2, la + lb))
    return cands


def _random_coefficients(S, seed, real):
    """S on its keys with standard normal coefficients (no two products of
    different factors coincide), made real by ``realify`` when asked."""
    rng = np.random.default_rng(seed)
    S = TFSeries._of(S, S.cols, rng.standard_normal(len(S)) + 1j * rng.standard_normal(len(S)),
                     False)
    return realify(S) if real else S


# keys under the budgets and keys of degree 4 to 6 (products beyond the
# degree budget, which the bracket forms and its budgets cut)
PLAN_KEYS = st.one_of(series(DYADIC, max_size=6), HIGH.map(lambda t: from_terms(DIMS, BUD, t)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(PLAN_KEYS, PLAN_KEYS, st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_a_rows_mass_is_the_summed_bound_of_its_products(F, G, real, seed):
    # the row cut's mass of each row of B (the operand it cuts) is the
    # summed bound of that row's products with A (halved for a real
    # bracket), within the degree and Fourier budgets or not
    F, G = _random_coefficients(F, seed, real), _random_coefficients(G, seed + 1, real)
    assume(_dict(F) != _dict(G))
    with mock.patch.object(kseries, "_products", wraps=kseries._products) as products, \
            mock.patch.object(kseries, "_skip_plan", wraps=kseries._skip_plan) as plan, \
            mock.patch.object(kseries, "_below_cut", wraps=kseries._below_cut) as cut:
        poisson_bracket(F, G, VF_DP, math.inf)
    # an unbounded budget plans, and the plan always cuts rows
    assert plan.called and cut.called
    A, B = plan.call_args.args[:2]
    assert A.real == real
    pairs = products.call_args.args[3]
    mass = cut.call_args.args[0]
    assert len(mass) == len(B)
    for i, m in enumerate(mass):
        bounds = [bound for _, _, bound, _ in _plan_candidates(
            A, B.select(np.arange(len(B)) == i), pairs, VF_DP)]
        assert math.isclose(m, math.fsum(bounds), rel_tol=1e-12, abs_tol=0.0)


def _recorded(name, calls):
    """``kseries.<name>`` patched to append (args, result) of each call to
    ``calls``."""
    real = getattr(kseries, name)

    def recorded(*args):
        out = real(*args)
        calls.append((args, out))
        return out
    return mock.patch.object(kseries, name, recorded)


def _bracket_formed(F, G, budget, *recorded):
    """poisson_bracket(F, G, VF_DP, budget), the args of its ``_products``
    call and the (row, coefficient) of each product row it formed, with the
    (args, result) calls of the functions named in ``recorded`` appended to
    the list that follows each name."""
    formed, codecs, add, finalize = [], [], kseries._Accumulator.add, kseries._Accumulator.finalize

    def added(acc, words, coefs):
        formed.append((words, coefs))
        return add(acc, words, coefs)

    def finalized(acc, out, codec, mirrored):
        codecs.append(codec)
        return finalize(acc, out, codec, mirrored)
    with contextlib.ExitStack() as stack:
        products = stack.enter_context(
            mock.patch.object(kseries, "_products", wraps=kseries._products))
        stack.enter_context(mock.patch.object(kseries._Accumulator, "add", added))
        stack.enter_context(mock.patch.object(kseries._Accumulator, "finalize", finalized))
        for name, calls in zip(recorded[::2], recorded[1::2]):
            stack.enter_context(_recorded(name, calls))
        out = poisson_bracket(F, G, VF_DP, budget)
    rows = []
    if sum(len(coefs) for _, coefs in formed):
        words = [np.concatenate(ws) for ws in zip(*(w for w, _ in formed))]
        coefs = np.concatenate([c for _, c in formed])
        rows = list(zip(codecs[0].decode(words).T.astype(np.int64), coefs))
    return out, products.call_args.args[:4], rows


def _match(cands, rows):
    """(formed, left out): ``cands`` split by matching each formed product
    ``rows`` to a candidate of its row and coefficient.  Candidates that tie
    on both (products of different pairs) tie on their bound, but their
    level sums, each a sum of two floors, may lie one apart, and a level cut
    keeps the higher: a formed product takes the tied candidate of highest
    level sum."""
    left, formed = {}, []
    for cand in cands:
        left.setdefault(cand[0].tobytes(), []).append(cand)
    for row, c in rows:
        same = left[row.tobytes()]
        close = [i for i, cand in enumerate(same) if abs(cand[1] - c) <= 1e-12 * abs(c)]
        assert close
        formed.append(same.pop(max(close, key=lambda i: same[i][3])))
    return formed, [cand for same in left.values() for cand in same]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(PLAN_KEYS, PLAN_KEYS, st.booleans(), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.2))
def test_skipped_bracket_leaves_out_exactly_the_products_it_counts(F, G, real, seed, share):
    # brute force over every product of derivative rows: the bracket forms
    # the in-budget ones less skip_rows of them, and skip_bound is the
    # summed bound of those it does not form (twice for a halved bracket)
    F, G = _random_coefficients(F, seed, real), _random_coefficients(G, seed + 1, real)
    assume(_dict(F) != _dict(G))
    total = poisson_bracket(F, G, VF_DP, math.inf).meta["skip_bound"]
    out, (_, A, B, pairs), rows = _bracket_formed(F, G, share * total)
    halved = A.real and B.real
    assert halved == real
    cands = _plan_candidates(kseries._half(A) if halved else A, B, pairs, VF_DP)
    assert len(cands) == _formed(poisson_bracket, F, G)[1]
    assert len(rows) == len(cands) - out.meta["skip_rows"]
    _, left = _match(cands, rows)
    skipped = sum(bound for _, _, bound, _ in left)
    assert math.isclose(out.meta["skip_bound"], (2.0 if halved else 1.0) * skipped,
                        rel_tol=1e-12, abs_tol=0.0)
    # the degree and Fourier budgets cut the keys of the products formed
    wide = _unbounded_bracket(F, G, share * total)
    assert math.isclose(out.meta["dropped_mass"], math.fsum(np.abs(wide.coefs[~_in_budget(wide)])),
                        rel_tol=1e-12, abs_tol=1e-300)


def _check_level_cut(F, G, share):
    """Checks the skip plan of the bracket of F and G on ``share`` of the
    summed bound of all its products, brute-forced.

    The plan runs exactly when that budget is positive.  Of the rows of B that the row
    cut keeps, the bracket leaves out exactly the products whose level sum
    lies below one T, and T is the largest that fits what the cut left of
    the plan's budget: adding diagonal T passes it.  ``skip_bound`` is the
    summed bound of these products and of the cut rows' (twice for a
    halved bracket), ``skip_rows`` their number."""
    _, (_, A, B, pairs), _ = _bracket_formed(F, G, 0.0)
    halved = A.real and B.real
    total = (2.0 if halved else 1.0) * math.fsum(
        bound for _, _, bound, _ in _plan_candidates(kseries._half(A) if halved else A, B, pairs,
                                                     VF_DP))
    plans, cuts = [], []
    out, _, rows = _bracket_formed(F, G, share * total, "_skip_plan", plans, "_below_cut", cuts)
    assert bool(plans) == (share * total > 0)
    if not plans:
        return
    [((A, B, _, _, _, _, budget), (kept_b, _))] = plans
    [((mass, _), cut)] = cuts
    twice = 2.0 if A.real and B.real else 1.0
    remaining = budget - float(mass[cut].sum())
    formed, left = _match(_plan_candidates(A, kept_b, pairs, VF_DP), rows)
    T = min((level for _, _, _, level in formed), default=math.inf)
    assert max((level for _, _, _, level in left), default=-1) < T
    skipped = math.fsum(bound for _, _, bound, _ in left)
    assert skipped <= remaining * (1 + 1e-12)
    if formed:
        assert skipped + math.fsum(bound for _, _, bound, level in formed
                                   if level == T) > remaining * (1 - 1e-12)
    cut_products = _plan_candidates(A, B.select(cut), pairs, VF_DP)
    assert out.meta["skip_rows"] == len(left) + len(cut_products)
    assert math.isclose(out.meta["skip_bound"],
                        twice * (skipped + math.fsum(bound for _, _, bound, _ in cut_products)),
                        rel_tol=1e-12, abs_tol=0.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(PLAN_KEYS, PLAN_KEYS, st.booleans(), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.2))
def test_skip_plan_leaves_out_the_products_below_the_largest_level_sum_that_fits(
        F, G, real, seed, share):
    F, G = _random_coefficients(F, seed, real), _random_coefficients(G, seed + 1, real)
    assume(_dict(F) != _dict(G))
    _check_level_cut(F, G, share)


def test_skip_plan_caps_the_levels_of_coefficients_spanning_1e_250_to_1():
    # the shorter operand, A, spans 1e-250 to 1: its derivative rows span
    # more than 1,024 quarter octaves, and those above the cap share one
    # level; budgets from below the least product to most of the total
    keys = [make_key(2, k, alpha, beta, gamma) for k, alpha, beta, gamma in (
        ((1, 0), (1, 0), {3: 1}, {}), ((0, -1), (0, 1), {}, {0: 1}), ((1, 1), (0, 0), {0: 1}, {4: 1}),
        ((-1, 0), (1, 0), {}, {}), ((0, 2), (0, 0), {3: 1}, {3: 1}), ((0, 1), (1, 0), {}, {4: 1}),
        ((2, 0), (0, 0), {0: 1}, {}), ((1, -1), (0, 1), {4: 1}, {}), ((0, 0), (1, 1), {}, {}))]
    rng = np.random.default_rng(7)
    spans = 10.0 ** -np.linspace(0.0, 250.0, 4)
    for real in (False, True):
        F = from_terms(DIMS, BUD, {key: c * rng.standard_normal() for key, c in zip(keys, spans)})
        G = from_terms(DIMS, BUD, {key: rng.standard_normal() + 1j * rng.standard_normal()
                                   for key in keys[3:]})
        if real:
            F, G = realify(F), realify(G)
        assert len(F) < len(G)
        A = kseries._half(F) if real else F
        u = [u for col in range(2 * DIMS.n + 2 * len(DIMS.modes))
             for _, _, u, _ in _derivative_terms(A, col, 1.0, VF_DP)]
        assert 4 * math.log2(max(u) / min(u)) > 1024 and max(_plan_levels(u)) == 1023
        for share in (1e-262, 1e-170, 1e-90, 1e-10, 0.3, 0.9):
            _check_level_cut(F, G, share)
