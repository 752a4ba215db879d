"""Truncated Taylor-Fourier series over phase variables (x, y, z*, zbar*).

A series is a finite sum of monomials

    c * y^alpha * {z*}^beta * {zbar*}^gamma * exp(i <k, x>)

where ``k`` is an integer Fourier vector over the ``n`` angle variables,
``alpha`` a nonnegative integer vector of action exponents, and ``beta``,
``gamma`` finite-support exponent maps over the normal modes (the
distinguished zero-frequency modes plus the normal tail).  Tangential site
indices never appear in ``beta``/``gamma``.

The module provides the Poisson calculus (bracket, Lie transform), the
weighted coefficient-majorant norm and the Hamiltonian vector-field norm,
degree splitting, Fourier truncation with a tail certificate, and a text
serialization.  All combining operations respect a total-degree budget and a
Fourier budget; mass removed by truncation is accumulated into the result's
``meta`` rather than silently discarded.

A series is stored as two arrays only, its key rows and coefficients
(see ``TFSeries``).  Like terms are merged through exact mixed-radix integer codes of the rows
(Kronecker substitution, as in Biscani's Piranha): the code of a product
row is the sum of its factors' codes, and a merge is a stable 1-D sort plus
``np.add.reduceat``, which adds each key's first summand to numpy's
pairwise sum of the others, taken in arrival order.
The radix comes from the column ranges of the operands at hand; ranges
wider than 63 bits spill into further code words sorted with
``np.lexsort``, so a code never wraps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np


class MonomialKey(NamedTuple):
    """Exponent data of one monomial.

    ``beta`` and ``gamma`` are sorted tuples of ``(mode, exponent)`` pairs
    with every stored exponent >= 1; an absent mode means exponent 0.
    """

    k: tuple
    alpha: tuple
    beta: tuple
    gamma: tuple


def _norm_expmap(entries):
    """Normalize a mode->exponent mapping into a sorted tuple of pairs."""
    if isinstance(entries, dict):
        items = entries.items()
    else:
        items = entries
    out = []
    for mode, exp in items:
        exp = int(exp)
        if exp < 0:
            raise ValueError("negative exponent for mode %s" % mode)
        if exp > 0:
            out.append((int(mode), exp))
    out.sort()
    return tuple(out)


def make_key(n, k=(), alpha=(), beta=(), gamma=()):
    """Build a normalized MonomialKey for a series with ``n`` angles."""
    k = tuple(int(v) for v in k) if k else (0,) * n
    alpha = tuple(int(v) for v in alpha) if alpha else (0,) * n
    if len(k) != n or len(alpha) != n:
        raise ValueError("k and alpha must have length n=%d" % n)
    return MonomialKey(k, alpha, _norm_expmap(beta), _norm_expmap(gamma))


def key_degree(key):
    """Total degree 2|alpha| + |beta| + |gamma|."""
    return (2 * sum(key.alpha)
            + sum(e for _, e in key.beta)
            + sum(e for _, e in key.gamma))


def key_kabs(key):
    """Fourier radius |k| = sum_b |k_b|."""
    return sum(abs(v) for v in key.k)


@dataclass(frozen=True)
class SeriesDims:
    """Shape data shared by all series of one problem.

    Parameters
    ----------
    n : int
        Number of angle/action pairs (tangential sites).
    sites : tuple of int
        Tangential site indices; these modes are excluded from beta/gamma.
    zero_modes : tuple of int
        The distinguished zero-frequency normal modes (listed first in the
        mode universe).
    jmax : int
        Largest normal-tail mode index kept by the truncated model.
    """

    n: int
    sites: tuple
    zero_modes: tuple
    jmax: int

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(sorted(self.sites)))
        object.__setattr__(self, "zero_modes", tuple(sorted(self.zero_modes)))
        bad = set(self.sites) & set(self.zero_modes)
        if bad:
            raise ValueError("modes %s are both tangential and zero-frequency" % sorted(bad))

    @cached_property
    def tail_modes(self):
        excluded = set(self.sites) | set(self.zero_modes)
        return tuple(j for j in range(1, self.jmax + 1) if j not in excluded)

    @cached_property
    def modes(self):
        """Mode universe: zero modes first, then the normal tail."""
        return self.zero_modes + self.tail_modes

    @property
    def b(self):
        return len(self.zero_modes)


@dataclass(frozen=True)
class Budgets:
    """Truncation budgets: total degree, Fourier radius, relative prune tol."""

    degree_max: int = 6
    k_max: int = 32
    prune_rel: float = 1e-16

    def __post_init__(self):
        if self.degree_max < 0 or self.k_max < 0 or self.prune_rel < 0:
            raise ValueError("budgets must be nonnegative")
        # key columns are int16 and a product adds two in-budget columns
        # before the budgets filter it, so each must stay below 2^14
        if max(self.degree_max, self.k_max) > 16383:
            raise ValueError("degree_max and k_max must not exceed 16383 (int16 keys)")


@dataclass(frozen=True)
class DomainParams:
    """Analyticity/weight parameters of the domain D(s, r, r) and l^{a,p}."""

    s: float
    r: float
    a: float
    p: float

    def __post_init__(self):
        if not (self.s > 0 and self.r > 0 and self.a > 0):
            raise ValueError("s, r, a must be positive")
        if not self.p > 0.5:
            raise ValueError("p must exceed 1/2")

    def shrink_s(self, sigma):
        if sigma >= self.s:
            raise ValueError("sigma=%g must be smaller than s=%g" % (sigma, self.s))
        return DomainParams(self.s - sigma, self.r, self.a, self.p)


def mode_weight(j, dp):
    """Sequence-space weight w_j = j^p e^{aj} (the j = 0 mode has weight 1)."""
    if j == 0:
        return 1.0
    return j ** dp.p * math.exp(dp.a * j)


class TFSeries:
    """Sparse truncated Taylor-Fourier series.

    ``rows`` (int16, one row ``[k | alpha | beta | gamma]`` per monomial, with
    a beta and a gamma column per mode of ``dims.modes``) and ``coefs`` are
    the only store: rows unique and in lexicographic order, no coefficient
    zero.  ``TFSeries(dims, budgets, terms)`` packs a ``MonomialKey ->
    complex`` mapping and ``TFSeries.from_rows`` takes the arrays;
    ``coefficients_at`` reads the coefficients at given key rows, and
    ``terms`` is the read-only view back, built on first use.  Arithmetic
    returns fresh series and never mutates its inputs
    (only ``prune`` drops terms in place), so series are safe to share
    between threads.  ``meta`` carries operation bookkeeping: combining
    operations set ``meta['dropped_mass']`` to the l^1 coefficient mass
    removed by the degree/Fourier budgets.
    """

    __slots__ = ("dims", "budgets", "rows", "coefs", "real", "meta", "_terms")

    def __init__(self, dims, budgets, terms=None, real=False):
        n, nmodes = dims.n, len(dims.modes)
        pos = {m: i for i, m in enumerate(dims.modes)}
        terms = terms or {}
        rows = []
        for key in terms:
            if len(key.k) != n or len(key.alpha) != n:
                raise ValueError("key arity mismatch: %r" % (key,))
            row = list(key.k) + list(key.alpha) + [0] * (2 * nmodes)
            for start, exps in ((2 * n, key.beta), (2 * n + nmodes, key.gamma)):
                for mode, exp in exps:
                    if mode not in pos:
                        raise ValueError("mode %d is not a normal mode of %r" % (mode, dims))
                    row[start + pos[mode]] = exp
            rows.append(row)
        rows = np.array(rows, dtype=np.int16).reshape(len(terms), 2 * n + 2 * nmodes)
        coefs = np.array(list(terms.values()), dtype=complex)
        self._set(dims, budgets, *_canonical(rows, coefs), real)

    def _set(self, dims, budgets, rows, coefs, real):
        self.dims, self.budgets, self.rows, self.coefs = dims, budgets, rows, coefs
        self.real, self.meta, self._terms = real, {}, None

    @classmethod
    def from_rows(cls, dims, budgets, rows, coefs, real=False):
        """Series from key rows ``[k | alpha | beta | gamma]`` in any order and
        their coefficients; repeated rows are summed as ``_sort_and_sum``
        does and zero sums dropped."""
        coefs = np.asarray(coefs, dtype=complex)
        rows = np.asarray(rows, dtype=np.int16).reshape(len(coefs), 2 * dims.n + 2 * len(dims.modes))
        new = cls.__new__(cls)
        new._set(dims, budgets, *_canonical(rows, coefs), real)
        return new

    @classmethod
    def _of(cls, like, rows, coefs, real):
        """Series on the dims/budgets of ``like`` from canonical arrays."""
        new = cls.__new__(cls)
        new._set(like.dims, like.budgets, rows, coefs, real)
        return new

    def select(self, mask):
        """The terms of the rows where the boolean ``mask`` holds."""
        return TFSeries._of(self, self.rows[mask], self.coefs[mask], self.real)

    @property
    def terms(self):
        """Read-only ``MonomialKey -> complex`` view of the series."""
        if self._terms is None:
            n, nmodes, modes = self.dims.n, len(self.dims.modes), self.dims.modes

            def expmap(exps):
                return tuple((modes[j], e) for j, e in enumerate(exps) if e)

            keys = (MonomialKey(tuple(r[:n]), tuple(r[n:2 * n]), expmap(r[2 * n:2 * n + nmodes]),
                                expmap(r[2 * n + nmodes:])) for r in self.rows.tolist())
            self._terms = MappingProxyType(dict(zip(keys, self.coefs.tolist())))
        return self._terms

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, dims, budgets, real=False):
        return cls(dims, budgets, real=real)

    @classmethod
    def monomial(cls, dims, budgets, coeff, k=(), alpha=(), beta=(), gamma=(), real=False):
        key = make_key(dims.n, k, alpha, beta, gamma)
        return cls(dims, budgets, {key: complex(coeff)}, real=real)

    def copy(self):
        new = TFSeries._of(self, self.rows, self.coefs, self.real)
        new.meta = dict(self.meta)
        return new

    # -- basic queries ------------------------------------------------

    def __len__(self):
        return len(self.coefs)

    def coefficient(self, key):
        return self.terms.get(key, 0j)

    def coefficients_at(self, rows):
        """Coefficients at the key ``rows`` (0 where a key is absent).

        A binary search on the sorted rows, each compared column by column as
        one structured record, so it is exact at any column range and copies
        nothing of the series.
        """
        out = np.zeros(len(rows), dtype=complex)
        if len(self) and len(rows):
            rows = np.ascontiguousarray(rows, dtype=np.int16)
            store = _records(np.ascontiguousarray(self.rows))
            pos = np.minimum(np.searchsorted(store, _records(rows)), len(self) - 1)
            hit = np.all(self.rows[pos] == rows, axis=1)
            out[hit] = self.coefs[pos[hit]]
        return out

    def max_abs(self):
        return float(np.abs(self.coefs).max()) if len(self) else 0.0

    def validate(self):
        """Check the degree and Fourier budgets (key arity and the mode universe
        are checked when a series is built); raises ValueError on violation."""
        n, bud = self.dims.n, self.budgets
        if np.any(_degrees(self.rows, n) > bud.degree_max) or np.any(_kabs(self.rows, n) > bud.k_max):
            raise ValueError("a key exceeds the budgets %r" % (bud,))
        return True

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        rows, coefs = _canonical(np.concatenate([self.rows, other.rows]),
                                 np.concatenate([self.coefs, other.coefs]))
        return TFSeries._of(self, rows, coefs, self.real and other.real)

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, scalar):
        if isinstance(scalar, TFSeries):
            return self.multiply(scalar)
        real = self.real and not (isinstance(scalar, complex) and scalar.imag != 0)
        coefs = scalar * self.coefs
        live = coefs != 0
        return TFSeries._of(self, self.rows[live], coefs[live], real)

    __rmul__ = __mul__

    def _check_compatible(self, other):
        if self.dims != other.dims:
            raise ValueError("series dims mismatch: %r vs %r" % (self.dims, other.dims))

    def multiply(self, other):
        """Series product, truncated to budgets; drops reported in meta."""
        self._check_compatible(other)
        out = TFSeries._of(self, self.rows[:0], self.coefs[:0], self.real and other.real)
        out.meta["dropped_mass"] = 0.0
        if len(self) and len(other):
            _products(out, self, other, [(None, None, 1.0)])
        return out

    def prune(self, rel=None):
        """Drop coefficients below ``rel * max|c|``; returns pruned mass."""
        rel = self.budgets.prune_rel if rel is None else rel
        if not len(self) or rel <= 0:
            return 0.0
        mags = np.abs(self.coefs)
        keep = mags >= rel * mags.max()
        self.rows, self.coefs, self._terms = self.rows[keep], self.coefs[keep], None
        return float(mags[~keep].sum())

    # -- serialization --------------------------------------------------

    def to_text(self):
        """Deterministic text form, one term per line.

        Header: ``# tfseries n=.. sites=.. zero=.. jmax=.. dmax=.. kmax=..
        real=..``; term lines read ``k=(k1,..,kn) a=(a1,..,an) b={j:e,..}
        g={j:e,..} c=RE,IM`` ordered lexicographically on (k, alpha, beta,
        gamma).
        """
        d = self.dims
        head = ("# tfseries n=%d sites=%s zero=%s jmax=%d dmax=%d kmax=%d real=%d"
                % (d.n, ",".join(map(str, d.sites)) or "-",
                   ",".join(map(str, d.zero_modes)) or "-", d.jmax,
                   self.budgets.degree_max, self.budgets.k_max, int(self.real)))
        lines = [head]
        for key in sorted(self.terms):
            c = self.terms[key]
            bpart = ",".join("%d:%d" % me for me in key.beta)
            gpart = ",".join("%d:%d" % me for me in key.gamma)
            lines.append("k=(%s) a=(%s) b={%s} g={%s} c=%.17g,%.17g"
                         % (",".join(map(str, key.k)), ",".join(map(str, key.alpha)),
                            bpart, gpart, c.real, c.imag))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        head = lines[0]
        if not head.startswith("# tfseries"):
            raise ValueError("missing tfseries header line")
        fields = dict(tok.split("=", 1) for tok in head.split()[2:])

        def intlist(sval):
            return () if sval == "-" else tuple(int(v) for v in sval.split(","))

        dims = SeriesDims(int(fields["n"]), intlist(fields["sites"]),
                          intlist(fields["zero"]), int(fields["jmax"]))
        budgets = Budgets(int(fields["dmax"]), int(fields["kmax"]))
        terms = {}
        for ln in lines[1:]:
            toks = dict(tok.split("=", 1) for tok in ln.split())
            k = tuple(int(v) for v in toks["k"].strip("()").split(",") if v)
            a = tuple(int(v) for v in toks["a"].strip("()").split(",") if v)
            exps = {}
            for name in ("b", "g"):
                body = toks[name].strip("{}")
                exps[name] = tuple(tuple(map(int, pair.split(":"))) for pair in body.split(",") if pair)
            re_s, im_s = toks["c"].split(",")
            terms[MonomialKey(k, a, exps["b"], exps["g"])] = complex(float(re_s), float(im_s))
        return cls(dims, budgets, terms, real=bool(int(fields["real"])))


# ---------------------------------------------------------------------------
# key columns and exact codes
# ---------------------------------------------------------------------------

def _degrees(rows, n):
    """Total degree 2|alpha| + |beta| + |gamma| of each row."""
    return 2 * rows[:, n:2 * n].sum(axis=1) + rows[:, 2 * n:].sum(axis=1)


def _kabs(rows, n):
    """Fourier radius |k| of each row."""
    return np.abs(rows[:, :n]).sum(axis=1)


def _records(rows):
    """Contiguous int16 key rows viewed as one structured record each (signed,
    column-by-column comparison: the rows' lexicographic order)."""
    return rows.view(_record_dtype(rows.shape[1])).reshape(len(rows))


@lru_cache(maxsize=None)
def _record_dtype(width):
    return np.dtype([("c%d" % c, np.int16) for c in range(width)])


def _bounds(rows):
    """Per-column value range, widened to include 0 (a derivative lowers an
    exponent column to 0)."""
    return np.minimum(rows.min(axis=0), 0).astype(np.int64), rows.max(axis=0).astype(np.int64)


class _Codec:
    """Exact mixed-radix codes of key rows whose columns lie in [lo, hi].

    Column 0 is the most significant digit, so comparing codes word by word
    compares rows lexicographically, and the code of a sum of rows is the sum
    of their codes when each is encoded against its share of ``lo``.
    Consecutive columns share one int64 word while the product of their
    radices stays below 2^63, so no code ever wraps; operands whose ranges
    need more bits get further words.
    """

    def __init__(self, lo, hi):
        self.lo = lo
        self.radix = (hi - lo + 1).tolist()
        self.words = []          # (first column, end column, strides)
        start = 0
        while start < len(self.radix) or not self.words:
            end, size = start, 1
            while end < len(self.radix) and size * self.radix[end] < 2 ** 63:
                size *= self.radix[end]
                end += 1
            strides = [1] * (end - start)
            for c in range(end - start - 2, -1, -1):
                strides[c] = strides[c + 1] * self.radix[start + c + 1]
            self.words.append((start, end, np.array(strides, dtype=np.int64)))
            start = end

    def encode(self, rows, lo):
        return [(rows[:, a:b] - lo[a:b]) @ strides for a, b, strides in self.words]

    def decode(self, words):
        rows = np.empty((len(words[0]), len(self.radix)), dtype=np.int16)
        for (a, b, _), code in zip(self.words, words):
            for c in range(b - 1, a - 1, -1):
                code, digit = np.divmod(code, self.radix[c])
                rows[:, c] = digit + self.lo[c]
        return rows


def _sort_and_sum(words, coefs):
    """Stable sort by code, then sum each key's coefficients: the first to
    numpy's pairwise sum of the others, in arrival order.

    Returns (first, sums): ``first`` indexes one input row per distinct key,
    in key order, and ``sums`` holds the summed coefficients.
    """
    if len(words) == 1:
        order = np.argsort(words[0], kind="stable")
    else:
        order = np.lexsort(words[::-1])
    words = [w[order] for w in words]
    starts = np.flatnonzero(np.concatenate([[True], np.any([w[1:] != w[:-1] for w in words], axis=0)]))
    return order[starts], np.add.reduceat(coefs[order], starts)


def _canonical(rows, coefs):
    """Sort rows lexicographically, sum repeated keys, drop zero coefficients."""
    if not len(coefs):
        return rows, coefs
    lo, hi = _bounds(rows)
    first, sums = _sort_and_sum(_Codec(lo, hi).encode(rows, lo), coefs)
    live = np.flatnonzero(sums)
    return rows[first[live]], sums[live]


# ---------------------------------------------------------------------------
# the product kernel
# ---------------------------------------------------------------------------

# rows per product block, and buffered rows that trigger a merge (cache-sized)
_CHUNK_ROWS = 1_000_000


class _Accumulator:
    """Bounded-memory collector of product rows as (code words, coefficient).

    Incoming blocks arrive with a budget mask (the l^1 mass outside it is
    accumulated in ``dropped``), are optionally pre-cut at a magnitude floor
    (mass into ``precut``), and are merged whenever the buffered row count
    grows large.
    """

    def __init__(self, nwords, mag_cut):
        self.mag_cut = mag_cut
        self.words = [[] for _ in range(nwords)]
        self.coefs = []
        self.rows = 0
        self.dropped = 0.0
        self.precut = 0.0

    def add(self, words, coefs, keep):
        if not keep.all():
            self.dropped += float(np.abs(coefs[~keep]).sum())
            words = [w[keep] for w in words]
            coefs = coefs[keep]
        if self.mag_cut > 0.0:
            mags = np.abs(coefs)
            live = mags > self.mag_cut
            if not live.all():
                self.precut += float(mags[~live].sum())
                words = [w[live] for w in words]
                coefs = coefs[live]
        for buf, w in zip(self.words, words):
            buf.append(w)
        self.coefs.append(coefs)
        self.rows += len(coefs)
        if self.rows > _CHUNK_ROWS:
            self._compress()

    def _compress(self):
        words = [np.concatenate(buf) for buf in self.words]
        first, sums = _sort_and_sum(words, np.concatenate(self.coefs))
        self.words = [[w[first]] for w in words]
        self.coefs = [sums]
        self.rows = len(sums)

    def finalize(self, out, codec):
        """Merge everything into ``out``; the final relative cut
        ``prune_rel * max|c|`` lands in ``meta['cut_mass']``."""
        out.meta.update(dropped_mass=self.dropped, pruned_mass=self.precut, cut_mass=0.0)
        if not self.rows:
            return
        self._compress()
        sums = self.coefs[0]
        mags = np.abs(sums)
        live = mags > out.budgets.prune_rel * mags.max()
        out.meta["cut_mass"] = float(mags[~live].sum())
        out.rows = codec.decode([buf[0][live] for buf in self.words])
        out.coefs = sums[live]


def _factor(S, lo, codec, col):
    """Rows of S differentiated in the variable of column ``col`` (S itself
    for None), as (code words, degrees, k columns, coefficients); None when
    the derivative vanishes."""
    n = S.dims.n
    rows, coefs = S.rows, S.coefs
    if col is not None:
        sel = rows[:, col] != 0 if col < n else rows[:, col] > 0
        if not sel.any():
            return None
        rows = rows[sel]
        if col < n:
            coefs = coefs[sel] * (1j * rows[:, col])
        else:
            coefs = coefs[sel] * rows[:, col]
            rows[:, col] -= 1
    return codec.encode(rows, lo), _degrees(rows, n), rows[:, :n].astype(np.int32), coefs


def _products(out, A, B, pairs):
    """Sum over ``(col_a, col_b, factor)`` of factor * dA/d(col_a) * dB/d(col_b)
    into ``out``, truncated to the budgets."""
    n, bud = A.dims.n, A.budgets
    lo_a, hi_a = _bounds(A.rows)
    lo_b, hi_b = _bounds(B.rows)
    codec = _Codec(lo_a + lo_b, hi_a + hi_b)
    cut = (bud.prune_rel / 16.0) * A.max_abs() * B.max_abs()
    acc = _Accumulator(len(codec.words), cut)
    for col_a, col_b, factor in pairs:
        fa, fb = _factor(A, lo_a, codec, col_a), _factor(B, lo_b, codec, col_b)
        if fa is None or fb is None:
            continue
        wa, dga, ka, ca = fa
        wb, dgb, kb, cb = fb
        step = max(1, _CHUNK_ROWS // len(cb))
        for lo in range(0, len(ca), step):
            hi = lo + step
            keep = dga[lo:hi, None] + dgb <= bud.degree_max
            if n:
                kabs = sum(np.abs(ka[lo:hi, b, None] + kb[:, b]) for b in range(n))
                keep &= kabs <= bud.k_max
            coefs = (ca[lo:hi, None] * cb).ravel() * factor
            acc.add([(x[lo:hi, None] + y).ravel() for x, y in zip(wa, wb)], coefs, keep.ravel())
    acc.finalize(out, codec)


def poisson_bracket(F, G):
    """Poisson bracket {F, G}.

    The sign convention is fixed as

        {F, G} = <F_x, G_y> - <F_y, G_x> + i (<F_z*, G_zbar*> - <F_zbar*, G_z*>)

    so that d/dt (G o X_F^t) = {G, F} o X_F^t, i.e. ad_F G = {G, F} generates
    the time evolution along the Hamiltonian flow of F.  The result is
    truncated to the shared budgets; mass lost to truncation lands in
    ``meta['dropped_mass']`` (degree/Fourier budgets), ``meta['pruned_mass']``
    (magnitude floor on the products) and ``meta['cut_mass']`` (final
    relative cut).

    Antisymmetry is exact coefficientwise: the two arguments are put into a
    canonical order by comparing their arrays (flipping the sign when they
    swap), and bracketing a series with itself returns the zero series
    outright.
    """
    F._check_compatible(G)
    out = TFSeries._of(F, F.rows[:0], F.coefs[:0], F.real and G.real)
    out.meta["dropped_mass"] = 0.0
    if not len(F) or not len(G):
        return out
    content_f = (len(F), F.rows.tobytes(), F.coefs.tobytes())
    content_g = (len(G), G.rows.tobytes(), G.coefs.tobytes())
    if content_f == content_g:
        return out
    sign = 1.0 if content_f < content_g else -1.0
    A, B = (F, G) if sign > 0 else (G, F)
    n, nmodes = F.dims.n, len(F.dims.modes)
    pairs = []
    for b in range(n):
        pairs += [(b, n + b, sign), (n + b, b, -sign)]
    for z in range(2 * n, 2 * n + nmodes):
        pairs += [(z, z + nmodes, sign * 1j), (z + nmodes, z, -sign * 1j)]
    _products(out, A, B, pairs)
    return out


def weighted_norm(F, dp):
    """Coefficient-majorant norm on D(s, r, r).

    Sum over terms of |c| e^{|k| s} r^{2|alpha|} prod_j (r / w_j)^{beta_j +
    gamma_j} with w_j = j^p e^{a j} (weight 1 for the j = 0 mode).  This is
    an upper bound for the sup-over-ball weighted norm: each normal factor is
    bounded by its own extremum over the weighted ball, which never
    understates the true norm.
    """
    return float(np.abs(F.coefs) @ _term_weights(F, dp))


def _term_weights(F, dp):
    n = F.dims.n
    nmodes = len(F.dims.modes)
    rows = F.rows
    logw = np.array([0.0 if j == 0 else dp.p * math.log(j) + dp.a * j
                     for j in F.dims.modes])
    kabs = _kabs(rows, n)
    na = rows[:, n:2 * n].sum(axis=1)
    zexp = rows[:, 2 * n:2 * n + nmodes] + rows[:, 2 * n + nmodes:]
    logs = (kabs * dp.s + 2 * na * math.log(dp.r)
            + zexp @ (math.log(dp.r) - logw))
    return np.exp(logs)


def vector_field_norm(F, dp):
    """Weighted norm of the Hamiltonian vector field X_F on D(s, r, r).

    Combines ||F_y|| + r^{-2} ||F_x|| + r^{-1} (sum_j w_j^2 ||F_zbar_j||^2)^{1/2}
    + r^{-1} (sum_j w_j^2 ||F_z_j||^2)^{1/2}, each partial measured with
    weighted_norm; the vector-valued x/y parts take the max over components.
    """
    n = F.dims.n
    nmodes = len(F.dims.modes)
    rows = F.rows
    base = np.abs(F.coefs) * _term_weights(F, dp)
    xnorm = max(float(np.abs(rows[:, b]) @ base) for b in range(n)) if n else 0.0
    # removing one y_b factor divides the weight by r^2, one z_j or zbar_j
    # factor by r / w_j
    ynorm = max(float(rows[:, n + b] @ base) for b in range(n)) / dp.r ** 2 if n else 0.0
    w = np.array([mode_weight(j, dp) for j in F.dims.modes])
    zsq = np.sum((w * w * (rows[:, 2 * n:2 * n + nmodes].T @ base) / dp.r) ** 2)
    zbsq = np.sum((w * w * (rows[:, 2 * n + nmodes:].T @ base) / dp.r) ** 2)
    return (ynorm + xnorm / dp.r ** 2
            + math.sqrt(zbsq) / dp.r + math.sqrt(zsq) / dp.r)


def split_low_high(R):
    """Exact partition into degree <= 2 and degree >= 3 parts."""
    low = _degrees(R.rows, R.dims.n) <= 2
    return R.select(low), R.select(~low)


@dataclass
class TailReport:
    """Measured tail norm against the exponential cut-off certificate."""

    tail_norm: float
    bound: float
    ratio: float


def fourier_truncate(R, K, dp=None, sigma=None):
    """Exact partition into |k| <= K and |k| > K parts.

    When ``dp`` and ``sigma`` are given, the tail part is certified against
    the bound 4^n K^n e^{-K sigma} ||R||_{D(s,r,r)} measured on the shrunken
    strip s - sigma, and the measured/bound ratio is reported.
    """
    if K <= 0:
        raise ValueError("K must be positive")
    inside = _kabs(R.rows, R.dims.n) <= K
    trunc, tail = R.select(inside), R.select(~inside)
    report = None
    if dp is not None:
        if sigma is None or sigma <= 0:
            raise ValueError("a positive sigma is required with dp")
        shrunk = dp.shrink_s(sigma)
        tail_norm = weighted_norm(tail, shrunk)
        bound = (4.0 ** R.dims.n) * (K ** R.dims.n) * math.exp(-K * sigma) * weighted_norm(R, dp)
        ratio = tail_norm / bound if bound > 0 else 0.0
        report = TailReport(tail_norm, bound, ratio)
    return trunc, tail, report


def lie_series(term, F, j, order, dp=None, rem_tol=None):
    """Sum_{i=j}^{order} ad_F^{i-j}(term) / i! for term = ad_F^j(H).

    The one Lie-series loop: ``lie_transform`` starts it at j = 0 with
    term = H, the KAM step at a bracket it has already formed.  Orders are
    added one at a time; the sum stops after an empty increment or, with
    ``dp`` and ``rem_tol`` given, after one whose vector-field norm is below
    ``rem_tol``.  Returns (sum, dropped_mass, last_norm, order_used), where
    last_norm is the norm of the last increment (inf when unmeasured, 0 once
    the series terminates).
    """
    fact = math.factorial(j)
    if j:
        acc, dropped = term * (1.0 / fact), term.meta.get("dropped_mass", 0.0)
    else:
        acc, dropped = term.copy(), 0.0
    last = vector_field_norm(acc, dp) if j and dp is not None else math.inf
    while j < order and len(term) and (rem_tol is None or last >= rem_tol):
        j += 1
        term = poisson_bracket(term, F)
        dropped += term.meta.get("dropped_mass", 0.0)
        fact *= j
        incr = term * (1.0 / fact)
        acc = acc + incr
        if dp is not None:
            last = vector_field_norm(incr, dp)
    return acc, dropped, (last if len(term) else 0.0), j


def lie_transform(H, F, order, dp=None, rem_tol=None):
    """Finite Lie series H o X_F^t at t = 1.

    Returns sum_{j=0}^{order} ad_F^j H / j! with ad_F H = {H, F}.  When
    ``dp`` and ``rem_tol`` are given the series stops early once the
    vector-field norm of the next increment falls below ``rem_tol``.  The
    result's meta reports the accumulated truncation drops, the norm of the
    last increment (remainder proxy) and the order actually used.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    acc, dropped, last, used = lie_series(H, F, 0, order, dp, rem_tol)
    acc.prune()
    acc.meta["dropped_mass"] = dropped
    acc.meta["remainder_norm"] = last
    acc.meta["order_used"] = used
    acc.real = H.real and F.real
    return acc


def _mirror(F):
    """Rows (-k, alpha, gamma, beta) of F with conjugate coefficients, unsorted."""
    n, nmodes = F.dims.n, len(F.dims.modes)
    r = F.rows
    return (np.concatenate([-r[:, :n], r[:, n:2 * n], r[:, 2 * n + nmodes:],
                            r[:, 2 * n:2 * n + nmodes]], axis=1), F.coefs.conj())


def realify(F):
    """Project onto the real-valued subspace (average with the mirror)."""
    rows, coefs = _mirror(F)
    rows, coefs = _canonical(np.concatenate([F.rows, rows]), np.concatenate([F.coefs, coefs]))
    return TFSeries._of(F, rows, coefs * 0.5, True)


def reality_defect(F):
    """Max |c(-k, a, gamma, beta) - conj(c(k, a, beta, gamma))| over terms."""
    rows, coefs = _mirror(F)
    rows, coefs = _canonical(np.concatenate([F.rows, rows]), np.concatenate([F.coefs, -coefs]))
    return float(np.abs(coefs).max(initial=0.0))
