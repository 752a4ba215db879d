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
``meta['dropped_mass']`` rather than silently discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

    @property
    def tail_modes(self):
        excluded = set(self.sites) | set(self.zero_modes)
        return tuple(j for j in range(1, self.jmax + 1) if j not in excluded)

    @property
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

    def with_r(self, r):
        return DomainParams(self.s, r, self.a, self.p)


@dataclass
class Frequencies:
    """Tangential and normal frequencies at one parameter sample."""

    omega: np.ndarray
    Omega: dict
    d: int = 2
    delta: float = 0.0

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float)


def mode_weight(j, dp):
    """Sequence-space weight w_j = j^p e^{aj} (the j = 0 mode has weight 1)."""
    if j == 0:
        return 1.0
    return j ** dp.p * math.exp(dp.a * j)


class TFSeries:
    """Sparse truncated Taylor-Fourier series.

    Terms are held in a dict ``MonomialKey -> complex``.  Instances are
    treated as immutable values by all operations in this module: arithmetic
    returns fresh series and never mutates inputs, so series are safe to
    share between threads.

    ``meta`` carries operation bookkeeping; combining operations set
    ``meta['dropped_mass']`` to the l^1 coefficient mass removed by the
    degree/Fourier budgets.
    """

    __slots__ = ("dims", "budgets", "terms", "real", "meta")

    def __init__(self, dims, budgets, terms=None, real=False):
        self.dims = dims
        self.budgets = budgets
        self.terms = dict(terms) if terms else {}
        self.real = real
        self.meta = {}

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, dims, budgets, real=False):
        return cls(dims, budgets, real=real)

    @classmethod
    def monomial(cls, dims, budgets, coeff, k=(), alpha=(), beta=(), gamma=(), real=False):
        key = make_key(dims.n, k, alpha, beta, gamma)
        new = cls(dims, budgets, real=real)
        if coeff != 0:
            new.terms[key] = complex(coeff)
        return new

    def copy(self):
        new = TFSeries(self.dims, self.budgets, self.terms, self.real)
        new.meta = dict(self.meta)
        return new

    # -- basic queries ------------------------------------------------

    def __len__(self):
        return len(self.terms)

    def coefficient(self, key):
        return self.terms.get(key, 0j)

    def max_abs(self):
        if not self.terms:
            return 0.0
        return max(abs(c) for c in self.terms.values())

    def validate(self):
        """Check the structural invariants; raises ValueError on violation."""
        allowed = set(self.dims.modes)
        for key in self.terms:
            if len(key.k) != self.dims.n or len(key.alpha) != self.dims.n:
                raise ValueError("key arity mismatch: %r" % (key,))
            for mode, exp in key.beta + key.gamma:
                if exp < 1:
                    raise ValueError("stored exponent < 1 in %r" % (key,))
                if mode in self.dims.sites:
                    raise ValueError("tangential site %d used as normal mode" % mode)
                if mode not in allowed:
                    raise ValueError("mode %d outside the truncated universe" % mode)
            if key_degree(key) > self.budgets.degree_max:
                raise ValueError("degree budget violated by %r" % (key,))
            if key_kabs(key) > self.budgets.k_max:
                raise ValueError("Fourier budget violated by %r" % (key,))
        return True

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        out = self.copy()
        for key, c in other.terms.items():
            acc = out.terms.get(key, 0j) + c
            if acc == 0:
                out.terms.pop(key, None)
            else:
                out.terms[key] = acc
        out.real = self.real and other.real
        return out

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, scalar):
        if isinstance(scalar, TFSeries):
            return self.multiply(scalar)
        out = TFSeries(self.dims, self.budgets, real=self.real and not isinstance(scalar, complex))
        if scalar != 0:
            out.terms = {key: scalar * c for key, c in self.terms.items()}
        if isinstance(scalar, complex) and scalar.imag != 0:
            out.real = False
        else:
            out.real = self.real
        return out

    __rmul__ = __mul__

    def _check_compatible(self, other):
        if self.dims != other.dims:
            raise ValueError("series dims mismatch: %r vs %r" % (self.dims, other.dims))

    # -- packing for vectorized kernels --------------------------------

    def _layout(self):
        n = self.dims.n
        nmodes = len(self.dims.modes)
        return n, nmodes, 2 * n + 2 * nmodes

    def _pack(self):
        """Rows [k | alpha | beta | gamma] as int16 plus coefficient array."""
        n, nmodes, width = self._layout()
        pos = {m: i for i, m in enumerate(self.dims.modes)}
        rows = np.zeros((len(self.terms), width), dtype=np.int16)
        coefs = np.empty(len(self.terms), dtype=complex)
        for i, (key, c) in enumerate(self.terms.items()):
            rows[i, :n] = key.k
            rows[i, n:2 * n] = key.alpha
            for mode, exp in key.beta:
                rows[i, 2 * n + pos[mode]] = exp
            for mode, exp in key.gamma:
                rows[i, 2 * n + nmodes + pos[mode]] = exp
            coefs[i] = c
        return rows, coefs

    def _unpack_into(self, rows, coefs):
        n, nmodes, _ = self._layout()
        modes = self.dims.modes
        terms = self.terms
        krows = rows[:, :n]
        arows = rows[:, n:2 * n]
        brows = rows[:, 2 * n:2 * n + nmodes]
        grows = rows[:, 2 * n + nmodes:]
        for i in range(rows.shape[0]):
            beta = tuple((modes[j], int(e)) for j, e in enumerate(brows[i]) if e)
            gamma = tuple((modes[j], int(e)) for j, e in enumerate(grows[i]) if e)
            key = MonomialKey(tuple(int(v) for v in krows[i]),
                              tuple(int(v) for v in arows[i]), beta, gamma)
            c = terms.get(key)
            terms[key] = coefs[i] if c is None else c + coefs[i]

    # -- multiplication -------------------------------------------------

    def multiply(self, other):
        """Series product, truncated to budgets; drops reported in meta."""
        self._check_compatible(other)
        out = TFSeries(self.dims, self.budgets, real=self.real and other.real)
        out.meta["dropped_mass"] = 0.0
        if not self.terms or not other.terms:
            return out
        ka, ca = self._pack()
        kb, cb = other._pack()
        cut = (self.budgets.prune_rel / 16.0) * self.max_abs() * other.max_abs()
        acc = _Accumulator(self.dims, self.budgets, mag_cut=cut)
        _emit_products(acc, ka, ca, kb, cb, 1.0)
        out.meta["dropped_mass"] = acc.finalize(out)
        return out

    def prune(self, rel=None):
        """Drop coefficients below ``rel * max|c|``; returns pruned mass."""
        rel = self.budgets.prune_rel if rel is None else rel
        if not self.terms or rel <= 0:
            return 0.0
        cut = rel * self.max_abs()
        removed = 0.0
        for key in [k for k, c in self.terms.items() if abs(c) < cut]:
            removed += abs(self.terms.pop(key))
        return removed

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
        new = cls(dims, budgets, real=bool(int(fields["real"])))
        for ln in lines[1:]:
            toks = dict(tok.split("=", 1) for tok in ln.split())
            k = tuple(int(v) for v in toks["k"].strip("()").split(",") if v)
            a = tuple(int(v) for v in toks["a"].strip("()").split(",") if v)
            exps = {}
            for name in ("b", "g"):
                body = toks[name].strip("{}")
                exps[name] = tuple(tuple(map(int, pair.split(":"))) for pair in body.split(",") if pair)
            re_s, im_s = toks["c"].split(",")
            key = MonomialKey(k, a, exps["b"], exps["g"])
            new.terms[key] = complex(float(re_s), float(im_s))
        return new


# ---------------------------------------------------------------------------
# vectorized kernels
# ---------------------------------------------------------------------------

_CHUNK_ROWS = 2_000_000
_PREMERGE_ROWS = 6_000_000


def _sorted_merge(packed, coefs):
    """Sum coefficients of identical packed rows; returns sorted uniques."""
    order = np.lexsort(packed.T[::-1])
    packed = packed[order]
    coefs = coefs[order]
    boundary = np.empty(packed.shape[0], dtype=bool)
    boundary[0] = True
    boundary[1:] = np.any(packed[1:] != packed[:-1], axis=1)
    starts = np.flatnonzero(boundary)
    return packed[starts], np.add.reduceat(coefs, starts)


class _Accumulator:
    """Bounded-memory collector of (key row, coefficient) product blocks.

    Incoming blocks are budget-filtered on arrival (the removed l^1 mass is
    accumulated in ``dropped``), packed into int64 row groups, optionally
    pre-cut at a magnitude floor (mass into ``precut``), and pre-merged
    whenever the buffered row count grows large.
    """

    def __init__(self, dims, budgets, mag_cut=0.0):
        self.n = dims.n
        self.width = 2 * self.n + 2 * len(dims.modes)
        self.pad = (-self.width) % 4
        self.budgets = budgets
        self.mag_cut = mag_cut
        self.blocks = []
        self.coefs = []
        self.rows = 0
        self.dropped = 0.0
        self.precut = 0.0

    def add(self, keys, coefs):
        if keys.shape[0] == 0:
            return
        n = self.n
        deg = 2 * keys[:, n:2 * n].sum(axis=1) + keys[:, 2 * n:].sum(axis=1)
        kabs = np.abs(keys[:, :n]).sum(axis=1)
        keep = (deg <= self.budgets.degree_max) & (kabs <= self.budgets.k_max)
        if not keep.all():
            self.dropped += float(np.abs(coefs[~keep]).sum())
            keys = keys[keep]
            coefs = coefs[keep]
        if self.mag_cut > 0.0 and keys.shape[0]:
            mags = np.abs(coefs)
            live = mags > self.mag_cut
            if not live.all():
                self.precut += float(mags[~live].sum())
                keys = keys[live]
                coefs = coefs[live]
        if keys.shape[0] == 0:
            return
        if self.pad:
            keys = np.hstack([keys, np.zeros((keys.shape[0], self.pad), dtype=np.int16)])
        self.blocks.append(np.ascontiguousarray(keys).view(np.int64))
        self.coefs.append(np.ascontiguousarray(coefs))
        self.rows += keys.shape[0]
        if self.rows > _PREMERGE_ROWS:
            self._compress()

    def _compress(self):
        packed = np.vstack(self.blocks)
        coefs = np.concatenate(self.coefs)
        packed, coefs = _sorted_merge(packed, coefs)
        self.blocks = [packed]
        self.coefs = [coefs]
        self.rows = packed.shape[0]

    def finalize(self, out):
        """Merge everything into ``out.terms``; returns the dropped mass."""
        out.meta["pruned_mass"] = self.precut
        if not self.blocks:
            return self.dropped
        self._compress()
        packed, sums = self.blocks[0], self.coefs[0]
        mags = np.abs(sums)
        cut = out.budgets.prune_rel * (mags.max() if mags.size else 0.0)
        live = mags > cut
        rows = packed[live].view(np.int16)[:, :self.width]
        out._unpack_into(rows, sums[live])
        return self.dropped


def _emit_products(acc, keys_a, coefs_a, keys_b, coefs_b, factor):
    """Stream all pairwise key sums / coefficient products into ``acc``."""
    ta, width = keys_a.shape
    tb = keys_b.shape[0]
    if ta == 0 or tb == 0:
        return
    step = max(1, _CHUNK_ROWS // tb)
    for lo in range(0, ta, step):
        hi = min(lo + step, ta)
        block = (keys_a[lo:hi, None, :] + keys_b[None, :, :]).reshape(-1, width)
        cblock = (coefs_a[lo:hi, None] * coefs_b[None, :]).ravel()
        acc.add(block, cblock * factor)


def _content_blob(rows, coefs):
    """Canonical byte representation of a packed series (order-free)."""
    width = rows.shape[1]
    pad = (-width) % 4
    if pad:
        rows = np.hstack([rows, np.zeros((rows.shape[0], pad), dtype=np.int16)])
    packed = np.ascontiguousarray(rows).view(np.int64)
    order = np.lexsort(packed.T[::-1])
    return packed[order].tobytes() + coefs[order].tobytes()


def poisson_bracket(F, G):
    """Poisson bracket {F, G}.

    The sign convention is fixed as

        {F, G} = <F_x, G_y> - <F_y, G_x> + i (<F_z*, G_zbar*> - <F_zbar*, G_z*>)

    so that d/dt (G o X_F^t) = {G, F} o X_F^t, i.e. ad_F G = {G, F} generates
    the time evolution along the Hamiltonian flow of F.  The result is
    truncated to the shared budgets; mass lost to truncation lands in
    ``meta['dropped_mass']``.

    Antisymmetry is exact coefficientwise: the two arguments are put into a
    canonical order (flipping the sign when they swap), and bracketing a
    series with itself returns the zero series outright.
    """
    F._check_compatible(G)
    out = TFSeries(F.dims, F.budgets, real=F.real and G.real)
    out.meta["dropped_mass"] = 0.0
    if not F.terms or not G.terms:
        return out

    n = F.dims.n
    nmodes = len(F.dims.modes)
    ka, ca = F._pack()
    kb, cb = G._pack()
    sign = 1.0
    blob_a = _content_blob(ka, ca)
    blob_b = _content_blob(kb, cb)
    if blob_a == blob_b:
        return out
    if blob_b < blob_a:
        (ka, ca), (kb, cb) = (kb, cb), (ka, ca)
        sign = -1.0

    cut = (F.budgets.prune_rel / 16.0) * float(np.abs(ca).max()) * float(np.abs(cb).max())
    acc = _Accumulator(F.dims, F.budgets, mag_cut=cut)

    def deriv(keys, coefs, col, fourier):
        if fourier:
            sel = keys[:, col] != 0
            if not np.any(sel):
                return None
            dk = keys[sel]
            dc = coefs[sel] * (1j * dk[:, col])
            return dk, dc
        sel = keys[:, col] > 0
        if not np.any(sel):
            return None
        dk = keys[sel].copy()
        dc = coefs[sel] * dk[:, col]
        dk[:, col] -= 1
        return dk, dc

    def cross(da, db, factor):
        if da is None or db is None:
            return
        _emit_products(acc, da[0], da[1], db[0], db[1], factor)

    for b in range(n):
        fx = deriv(ka, ca, b, fourier=True)
        fy = deriv(ka, ca, n + b, fourier=False)
        gx = deriv(kb, cb, b, fourier=True)
        gy = deriv(kb, cb, n + b, fourier=False)
        cross(fx, gy, sign)
        cross(fy, gx, -sign)
    for m in range(nmodes):
        fz = deriv(ka, ca, 2 * n + m, fourier=False)
        fzb = deriv(ka, ca, 2 * n + nmodes + m, fourier=False)
        gz = deriv(kb, cb, 2 * n + m, fourier=False)
        gzb = deriv(kb, cb, 2 * n + nmodes + m, fourier=False)
        cross(fz, gzb, sign * 1j)
        cross(fzb, gz, -sign * 1j)

    out.meta["dropped_mass"] = acc.finalize(out)
    return out


def weighted_norm(F, dp):
    """Coefficient-majorant norm on D(s, r, r).

    Sum over terms of |c| e^{|k| s} r^{2|alpha|} prod_j (r / w_j)^{beta_j +
    gamma_j} with w_j = j^p e^{a j} (weight 1 for the j = 0 mode).  This is
    an upper bound for the sup-over-ball weighted norm: each normal factor is
    bounded by its own extremum over the weighted ball, which never
    understates the true norm.
    """
    if not F.terms:
        return 0.0
    n = F.dims.n
    nmodes = len(F.dims.modes)
    rows, coefs = F._pack()
    return float(np.abs(coefs) @ _term_weights(F, rows, dp))


def _term_weights(F, rows, dp):
    n = F.dims.n
    nmodes = len(F.dims.modes)
    logw = np.array([0.0 if j == 0 else dp.p * math.log(j) + dp.a * j
                     for j in F.dims.modes])
    kabs = np.abs(rows[:, :n]).sum(axis=1)
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
    if not F.terms:
        return 0.0
    n = F.dims.n
    nmodes = len(F.dims.modes)
    rows, coefs = F._pack()
    mags = np.abs(coefs)
    base = _term_weights(F, rows, dp)

    ynorm = 0.0
    xnorm = 0.0
    for b in range(n):
        kcol = rows[:, b]
        xnorm = max(xnorm, float((mags * np.abs(kcol)) @ base))
        acol = rows[:, n + b]
        sel = acol > 0
        if np.any(sel):
            # removing one y_b factor divides the weight by r^2
            ynorm = max(ynorm, float((mags[sel] * acol[sel]) @ base[sel]) / dp.r ** 2)

    zsq = 0.0
    zbsq = 0.0
    for m, j in enumerate(F.dims.modes):
        w = mode_weight(j, dp)
        bcol = rows[:, 2 * n + m]
        sel = bcol > 0
        if np.any(sel):
            # removing one z_j factor divides the weight by (r / w_j)
            part = float((mags[sel] * bcol[sel]) @ base[sel]) * w / dp.r
            zsq += (w * part) ** 2
        gcol = rows[:, 2 * n + nmodes + m]
        sel = gcol > 0
        if np.any(sel):
            part = float((mags[sel] * gcol[sel]) @ base[sel]) * w / dp.r
            zbsq += (w * part) ** 2

    return (ynorm + xnorm / dp.r ** 2
            + math.sqrt(zbsq) / dp.r + math.sqrt(zsq) / dp.r)


def split_low_high(R):
    """Exact partition into degree <= 2 and degree >= 3 parts."""
    low = TFSeries(R.dims, R.budgets, real=R.real)
    high = TFSeries(R.dims, R.budgets, real=R.real)
    for key, c in R.terms.items():
        (low if key_degree(key) <= 2 else high).terms[key] = c
    return low, high


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
    trunc = TFSeries(R.dims, R.budgets, real=R.real)
    tail = TFSeries(R.dims, R.budgets, real=R.real)
    for key, c in R.terms.items():
        (trunc if key_kabs(key) <= K else tail).terms[key] = c
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
    while j < order and term.terms and (rem_tol is None or last >= rem_tol):
        j += 1
        term = poisson_bracket(term, F)
        dropped += term.meta.get("dropped_mass", 0.0)
        fact *= j
        incr = term * (1.0 / fact)
        acc = acc + incr
        if dp is not None:
            last = vector_field_norm(incr, dp)
    return acc, dropped, (last if term.terms else 0.0), j


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


def reality_defect(F):
    """Max |c(-k, a, gamma, beta) - conj(c(k, a, beta, gamma))| over terms."""
    worst = 0.0
    for key, c in F.terms.items():
        mirror = MonomialKey(tuple(-v for v in key.k), key.alpha, key.gamma, key.beta)
        worst = max(worst, abs(F.terms.get(mirror, 0j) - c.conjugate()))
    return worst
