"""Test-side reference for writing and reading series by ``MonomialKey``.

The library builds a series from key rows only (``TFSeries.from_rows``).
The tests write their operands as ``MonomialKey -> complex`` dicts, read
results through the ``TFSeries.terms`` view, and need a few operations the
library does not: a product, a reader of ``TFSeries.to_text``, a reality
probe and a budget check.

It also keeps the row-wise forms of the series core's per-row kernels
(``row_degrees`` to ``row_decode``): each reduces a C-ordered (rows,
columns) block along its short axis, where the library reduces the
contiguous key columns it stores (``TFSeries.cols``).  They are the
reference of the library's kernels in ``test_series_properties.py``.
"""

import math

import numpy as np

from kamzero.series import Budgets, MonomialKey, SeriesDims, TFSeries, mode_weight


def _norm_expmap(entries):
    """Normalize a mode->exponent mapping into a sorted tuple of pairs."""
    out = []
    for mode, exp in (entries.items() if isinstance(entries, dict) else entries):
        if int(exp) < 0:
            raise ValueError("negative exponent for mode %s" % mode)
        if int(exp) > 0:
            out.append((int(mode), int(exp)))
    return tuple(sorted(out))


def make_key(n, k=(), alpha=(), beta=(), gamma=()):
    """Build a normalized MonomialKey for a series with ``n`` angles."""
    k = tuple(int(v) for v in k) if k else (0,) * n
    alpha = tuple(int(v) for v in alpha) if alpha else (0,) * n
    if len(k) != n or len(alpha) != n:
        raise ValueError("k and alpha must have length n=%d" % n)
    return MonomialKey(k, alpha, _norm_expmap(beta), _norm_expmap(gamma))


def key_degree(key):
    """Total degree 2|alpha| + |beta| + |gamma|."""
    return 2 * sum(key.alpha) + sum(e for _, e in key.beta) + sum(e for _, e in key.gamma)


def key_kabs(key):
    """Fourier radius |k| = sum_b |k_b|."""
    return sum(abs(v) for v in key.k)


def from_terms(dims, budgets, terms, real=False):
    """Series of a ``MonomialKey -> complex`` mapping, packed into key rows."""
    n, nmodes = dims.n, len(dims.modes)
    pos = {m: i for i, m in enumerate(dims.modes)}
    rows = np.zeros((len(terms), 2 * n + 2 * nmodes), dtype=np.int16)
    for row, key in zip(rows, terms):
        if len(key.k) != n or len(key.alpha) != n:
            raise ValueError("key arity mismatch: %r" % (key,))
        row[:2 * n] = key.k + key.alpha
        for start, exps in ((2 * n, key.beta), (2 * n + nmodes, key.gamma)):
            for mode, exp in exps:
                if mode not in pos:
                    raise ValueError("mode %d is not a normal mode of %r" % (mode, dims))
                row[start + pos[mode]] = exp
    return TFSeries.from_rows(dims, budgets, rows, list(terms.values()), real)


def monomial(dims, budgets, coeff, k=(), alpha=(), beta=(), gamma=(), real=False):
    return from_terms(dims, budgets, {make_key(dims.n, k, alpha, beta, gamma): complex(coeff)}, real)


def product(A, B):
    """A * B from every pair of rows, truncated to the budgets of A; as for a
    bracket, ``meta['dropped_mass']`` is the l1 mass of the sums at the keys
    outside them."""
    n, bud = A.dims.n, A.budgets
    rows = (A.rows[:, None].astype(np.int32) + B.rows).reshape(-1, A.rows.shape[1])
    coefs = np.outer(A.coefs, B.coefs).ravel()
    keep = ((2 * rows[:, n:2 * n].sum(axis=1) + rows[:, 2 * n:].sum(axis=1) <= bud.degree_max)
            & (np.abs(rows[:, :n]).sum(axis=1) <= bud.k_max))
    out = TFSeries.from_rows(A.dims, bud, rows[keep], coefs[keep])
    dropped = TFSeries.from_rows(A.dims, bud, rows[~keep], coefs[~keep])
    out.meta["dropped_mass"] = float(np.abs(dropped.coefs).sum())
    return out


def from_text(text):
    """Series from ``TFSeries.to_text`` output."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines[0].startswith("# tfseries"):
        raise ValueError("missing tfseries header line")
    fields = dict(tok.split("=", 1) for tok in lines[0].split()[2:])

    def ints(sval):
        return () if sval in ("-", "") else tuple(int(v) for v in sval.split(","))

    dims = SeriesDims(int(fields["n"]), ints(fields["sites"]), ints(fields["zero"]),
                      int(fields["jmax"]))
    budgets = Budgets(int(fields["dmax"]), int(fields["kmax"]))
    terms = {}
    for ln in lines[1:]:
        toks = dict(tok.split("=", 1) for tok in ln.split())
        beta, gamma = (tuple(tuple(map(int, pair.split(":")))
                             for pair in toks[name].strip("{}").split(",") if pair)
                       for name in ("b", "g"))
        key = MonomialKey(ints(toks["k"].strip("()")), ints(toks["a"].strip("()")), beta, gamma)
        terms[key] = complex(*map(float, toks["c"].split(",")))
    return from_terms(dims, budgets, terms, real=bool(int(fields["real"])))


def reality_defect(S):
    """Max |c(-k, alpha, gamma, beta) - conj(c(k, alpha, beta, gamma))| over the terms of S."""
    terms = S.terms
    return max((abs(terms.get(MonomialKey(tuple(-v for v in key.k), key.alpha, key.gamma, key.beta), 0j)
                    - c.conjugate()) for key, c in terms.items()), default=0.0)


def validate(S):
    """Check the degree and Fourier budgets of every key of S (a row has one
    column per angle, action and mode of ``dims.modes``, so its arity and
    modes hold by construction); raises ValueError on violation."""
    bud = S.budgets
    if any(key_degree(key) > bud.degree_max or key_kabs(key) > bud.k_max for key in S.terms):
        raise ValueError("a key exceeds the budgets %r" % (bud,))
    return True


# ---------------------------------------------------------------------------
# row-wise references of the per-row kernels
# ---------------------------------------------------------------------------

def row_degrees(rows, n):
    """Total degree 2|alpha| + |beta| + |gamma| of each row."""
    return 2 * rows[:, n:2 * n].sum(axis=1) + rows[:, 2 * n:].sum(axis=1)


def row_kabs(rows, n):
    """Fourier radius |k| of each row."""
    return np.abs(rows[:, :n]).sum(axis=1)


def row_bounds(rows):
    """Per-column value range, widened to include 0."""
    return (np.minimum(rows.min(axis=0), 0).astype(np.int64),
            np.maximum(rows.max(axis=0), 0).astype(np.int64))


def row_term_weights(F, dp):
    """Per term, e^{|k| s} r^{2|alpha|} prod_j (r / w_j)^{beta_j + gamma_j},
    the mode factors summed along each row."""
    n = F.dims.n
    nmodes = len(F.dims.modes)
    rows = F.rows
    logw = np.array([0.0 if j == 0 else dp.p * math.log(j) + dp.a * j
                     for j in F.dims.modes])
    na = rows[:, n:2 * n].sum(axis=1)
    zexp = rows[:, 2 * n:2 * n + nmodes] + rows[:, 2 * n + nmodes:]
    zlog = math.log(dp.r) - logw
    logs = row_kabs(rows, n) * dp.s + 2 * na * math.log(dp.r) + (zexp * zlog).sum(axis=1)
    return np.exp(logs)


def row_vf_parts(F, dp):
    """Per term, (|c| weight, max_b |k_b| + max_b alpha_b + (|beta w^2|_2 +
    |gamma w^2|_2)), each factor reduced along each row."""
    n, nmodes = F.dims.n, len(F.dims.modes)
    rows = F.rows
    head = (np.abs(rows[:, :n]).max(axis=1, initial=0)
            + rows[:, n:2 * n].max(axis=1, initial=0))
    w2 = np.array([mode_weight(j, dp) ** 2 for j in F.dims.modes])
    zb = np.sqrt(((rows[:, 2 * n:2 * n + nmodes] * w2) ** 2).sum(axis=1))
    zg = np.sqrt(((rows[:, 2 * n + nmodes:] * w2) ** 2).sum(axis=1))
    return np.abs(F.coefs) * row_term_weights(F, dp), head + (zb + zg)


def row_decode(codec, words):
    """Rows of the code ``words`` of ``codec`` (a ``kamzero.series._Codec``):
    per word, one broadcast division and remainder for all its columns."""
    rows = np.empty((len(words[0]), len(codec.radix)), dtype=np.int16)
    for (a, b, strides), code in zip(codec.words, words):
        rows[:, a:b] = code[:, None] // strides % codec.radix[a:b] + codec.lo[a:b]
    return rows
