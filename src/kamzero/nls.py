"""Cubic Schroedinger front end: builds the iteration-ready Hamiltonian.

Pipeline: the quartic mode-coupling tensor of the even periodic problem on
[0, 2pi] (cosine modes, one zero-frequency mode at j = 0), the partial
Birkhoff transform removing the non-action quartic monomials, and the
action-angle substitution q_{j_b} = sqrt(xi_b + y_b) e^{-i x_b} at the
tangential sites.  The result is a structured normal form with frequency
map omega(xi) = alpha + A xi (normal frequencies left unshifted) and a
perturbation series on which the zero-mode parity identities can be checked
exactly.

Selection gradings: for the cosine basis the conserved integer gradings
are mod-2 classes, (k . v0 + z-degree) mod 2 and the site-weighted version
(sum_b k_b j_b + sum_m m (beta_m + gamma_m)) mod 2, both zero on every
monomial the pipeline produces and both preserved by the Poisson bracket.
The signed integer momentum is also exposed as a diagnostic; it is not a
conserved quantity of the folded (cosine) coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .homological import NormalForm
from .series import (SeriesDims, TFSeries, key_degree, key_kabs,
                     lie_transform, make_key)


@dataclass
class NlsModel:
    """Mode data of the truncated even periodic cubic problem."""

    sites: tuple
    jmax: int
    xi: np.ndarray
    taylor_depth: int = 2

    def __post_init__(self):
        self.sites = tuple(sorted(int(j) for j in self.sites))
        self.xi = np.asarray(self.xi, dtype=float)
        if len(self.xi) != len(self.sites):
            raise ValueError("xi must have one entry per tangential site")
        if np.any(self.xi <= 0):
            raise ValueError("xi entries must be positive")
        if any(j < 1 or j > self.jmax for j in self.sites):
            raise ValueError("sites must lie in 1..jmax")

    @property
    def n(self):
        return len(self.sites)

    def lam(self, j):
        return float(j * j)

    def flat_dims(self):
        """Mode universe before action-angle substitution: plain q variables."""
        return SeriesDims(0, (), (0,), self.jmax)

    def kam_dims(self):
        return SeriesDims(self.n, self.sites, (0,), self.jmax)


_SIGNS = [(s2, s3, s4) for s2 in (1, -1) for s3 in (1, -1) for s4 in (1, -1)]


def g_tensor(i, j, k, l):
    """Quartic coupling integral of four cosine modes over [0, 2pi].

    Product-to-sum closed form: (2pi/8) times the number of sign patterns
    with i +- j +- k +- l = 0, times the mode normalizations (1/sqrt(2pi)
    for the constant mode, 1/sqrt(pi) otherwise).  Nonzero exactly when
    some signed combination vanishes.
    """
    hits = sum(1 for s2, s3, s4 in _SIGNS if i + s2 * j + s3 * k + s4 * l == 0)
    if hits == 0:
        return 0.0
    norm = 1.0
    for m in (i, j, k, l):
        norm *= 1.0 / math.sqrt(2.0 * math.pi) if m == 0 else 1.0 / math.sqrt(math.pi)
    return (2.0 * math.pi / 8.0) * hits * norm


def _multisets2(jmax):
    return [(i, j) for i in range(jmax + 1) for j in range(i, jmax + 1)]


def quartic_hamiltonian(model, budgets):
    """(Lambda, G): oscillator part and collected quartic part, flat modes.

    G = (1/4) sum over ordered index tuples of G_{ijkl} q_i q_j qbar_k
    qbar_l, collected onto monomials q^beta qbar^gamma with the ordered
    multiplicities (2 - delta)^2 folded into the coefficients.
    """
    dims = model.flat_dims()
    lam = {make_key(0, beta={j: 1}, gamma={j: 1}): complex(model.lam(j))
           for j in range(model.jmax + 1) if model.lam(j) != 0}
    G = {}
    pairs = _multisets2(model.jmax)
    for (i, j) in pairs:
        mi = 1 if i == j else 2
        for (k, l) in pairs:
            g = g_tensor(i, j, k, l)
            if g == 0.0:
                continue
            mk = 1 if k == l else 2
            bmap = {i: 1}
            bmap[j] = bmap.get(j, 0) + 1
            gmap = {k: 1}
            gmap[l] = gmap.get(l, 0) + 1
            key = make_key(0, beta=bmap, gamma=gmap)
            G[key] = G.get(key, 0j) + 0.25 * mi * mk * g
    return TFSeries(dims, budgets, lam, real=True), TFSeries(dims, budgets, G, real=True)


@dataclass
class BirkhoffResult:
    H: TFSeries               # Lambda + collected quartic + K
    F: TFSeries               # generating function
    Gbar: np.ndarray          # collected action couplings, multiplicity-normalized
    quartic: TFSeries         # surviving degree-4 part
    K: TFSeries               # degree >= 6 remainder
    max_resonant_leftover: float
    lie_meta: dict = field(default_factory=dict)


def _multiset_of(expmap):
    out = []
    for mode, exp in expmap:
        out.extend([mode] * exp)
    return tuple(out)


def birkhoff_transform(model, budgets, order=None):
    """Remove the non-action quartic monomials by one Lie transform.

    Every quartic monomial with an index relation i +- j +- k +- l = 0 and
    {i, j} != {k, l} (as multisets) is eliminated; the surviving quartic
    part is diagonal in the actions |q_i|^2 |q_j|^2 and its couplings are
    returned as the matrix Gbar with the ordered-multiplicity normalization
    Gbar_ij = coefficient / (2 - delta_ij)^2, which matches the closed-form
    tensor divided by 4.  The degree >= 6 remainder K is exact up to the
    series degree budget.
    """
    lam, G = quartic_hamiltonian(model, budgets)
    dims = model.flat_dims()
    F = {}
    for key, c in G.terms.items():
        bm = _multiset_of(key.beta)
        gm = _multiset_of(key.gamma)
        if bm == gm:
            continue
        div = sum(model.lam(m) for m in bm) - sum(model.lam(m) for m in gm)
        if div == 0.0:
            raise AssertionError(
                "zero divisor on non-action quartic %r: momentum plus equal "
                "power sums force equal index multisets" % (key,))
        F[key] = c / (1j * div)
    F = TFSeries(dims, budgets, F, real=True)
    if order is None:
        order = max(2, (budgets.degree_max - 2) // 2)
    H = lie_transform(lam + G, F, order)

    jm = model.jmax
    Gbar = np.zeros((jm + 1, jm + 1))
    quartic, K = {}, {}
    leftover = 0.0
    for key, c in H.terms.items():
        deg = key_degree(key)
        if deg == 2:
            continue
        if deg == 4:
            quartic[key] = c
            bm = _multiset_of(key.beta)
            gm = _multiset_of(key.gamma)
            if bm == gm:
                i, j = bm
                mult = (2 - (1 if i == j else 0)) ** 2
                Gbar[i, j] = Gbar[j, i] = c.real / mult
            else:
                leftover = max(leftover, abs(c))
        elif deg >= 6:
            K[key] = c
    return BirkhoffResult(H, F, Gbar, TFSeries(dims, budgets, quartic, real=True),
                          TFSeries(dims, budgets, K, real=True), leftover, dict(H.meta))


# ---------------------------------------------------------------------------
# action-angle substitution
# ---------------------------------------------------------------------------

def _gbinom(h, t):
    out = 1.0
    for i in range(t):
        out *= (h - i) / (i + 1)
    return out


@dataclass
class KamForm:
    N0: NormalForm
    R0: TFSeries
    dims: SeriesDims
    alpha: np.ndarray         # site eigenvalues j_b^2
    A: np.ndarray             # d omega / d xi, exact from the y expansion
    constant_dropped: complex
    expansion_dropped: float
    notes: dict = field(default_factory=dict)


def to_kam_form(model, birkhoff, budgets):
    """Substitute action-angle coordinates at the tangential sites.

    q_{j_b} = sqrt(xi_b + y_b) e^{-i x_b} with the square root expanded to
    ``model.taylor_depth`` in y_b / xi_b.  Constant terms are dropped (and
    reported); the y-linear means become the tangential frequencies
    omega(xi) = alpha + A xi, the normal frequencies stay at j^2 (the
    zero-mode keeps frequency 0), and everything else lands in R0.  The
    omitted expansion orders are reported as coefficient mass.
    """
    n = model.n
    dims = model.kam_dims()
    sites = model.sites
    site_pos = {j: b for b, j in enumerate(sites)}
    depth = model.taylor_depth
    xi = model.xi

    out = {}
    const_total = 0j
    dropped_expansion = 0.0
    src = birkhoff.H
    for key, c in src.terms.items():
        if key_degree(key) == 2 and key.beta == key.gamma:
            continue  # oscillator diagonal, handled in closed form below
        a = [0] * n
        ap = [0] * n
        bmap = {}
        gmap = {}
        for m, e in key.beta:
            if m in site_pos:
                a[site_pos[m]] = e
            else:
                bmap[m] = e
        for m, e in key.gamma:
            if m in site_pos:
                ap[site_pos[m]] = e
            else:
                gmap[m] = e
        kvec = tuple(ap[b] - a[b] for b in range(n))
        # per-site truncated expansions of (xi + y)^{(a + a')/2}; dropped
        # orders (Taylor depth or degree budget) are reported evaluated at
        # |y| = xi/4, a quarter of the expansion's convergence radius
        site_terms = []
        for b in range(n):
            mb = a[b] + ap[b]
            if mb == 0:
                site_terms.append([(0, 1.0, 1.0)])
                continue
            h = 0.5 * mb
            opts = [(t, _gbinom(h, t) * xi[b] ** (h - t),
                     abs(_gbinom(h, t)) * xi[b] ** h / 4.0 ** t)
                    for t in range(depth + 1)]
            dropped_expansion += (abs(c) * abs(_gbinom(h, depth + 1))
                                  * xi[b] ** h / 4.0 ** (depth + 1))
            site_terms.append(opts)
        stack = [((), 1.0, 1.0)]
        for opts in site_terms:
            stack = [(ts + (t,), w * wt, ev * evt)
                     for ts, w, ev in stack for t, wt, evt in opts]
        for tvec, w, ev in stack:
            coef = c * w
            if coef == 0:
                continue
            newkey = make_key(n, k=kvec, alpha=tvec, beta=bmap, gamma=gmap)
            if key_degree(newkey) > budgets.degree_max or key_kabs(newkey) > budgets.k_max:
                dropped_expansion += abs(c) * ev
                continue
            if newkey == make_key(n):
                const_total += coef
                continue
            out[newkey] = out.get(newkey, 0j) + coef

    # oscillator part of the tangential sites: lambda_b (xi_b + y_b)
    for b, j in enumerate(sites):
        alpha_key = make_key(n, alpha=tuple(1 if i == b else 0 for i in range(n)))
        out[alpha_key] = out.get(alpha_key, 0j) + model.lam(j)
        const_total += model.lam(j) * xi[b]

    # frequencies: pop the y means; everything else stays in R0
    omega = np.zeros(n)
    for b in range(n):
        alpha_key = make_key(n, alpha=tuple(1 if i == b else 0 for i in range(n)))
        omega[b] = out.pop(alpha_key, 0j).real
    out = TFSeries(dims, budgets, out, real=True)
    out.prune()

    N0 = NormalForm.zero(n, 1)
    N0.omega = omega
    N0.Omega = {j: model.lam(j) for j in dims.tail_modes}

    alpha = np.array([model.lam(j) for j in sites])
    A = np.zeros((n, n))
    for bi, jb in enumerate(sites):
        for li, jl in enumerate(sites):
            coup = birkhoff.Gbar[jb, jl]
            # ordered-multiplicity unfold: off-diagonal monomial carries 4x,
            # the diagonal square contributes 2 xi per y
            A[bi, li] = 2.0 * coup if bi == li else 4.0 * coup
    return KamForm(N0, out, dims, alpha, A, const_total, dropped_expansion,
                   notes={"normal_shift_B": 0.0,
                          "B_zero_convention": "tail frequencies kept at j^2; "
                          "order-xi tail couplings remain in R0"})


def build_nls(model, budgets, order=None):
    """Full pipeline: quartic tensor -> Birkhoff -> action-angle form."""
    bk = birkhoff_transform(model, budgets, order=order)
    kf = to_kam_form(model, bk, budgets)
    return bk, kf


# ---------------------------------------------------------------------------
# gradings and parity checks
# ---------------------------------------------------------------------------

def parity_v0(key):
    """(k . v0 + z-degree) mod 2; zero on every pipeline monomial."""
    degz = sum(e for _, e in key.beta) + sum(e for _, e in key.gamma)
    return (sum(key.k) + degz) % 2


def parity_weighted(key, sites):
    """(sum_b k_b j_b + sum_m m (beta_m + gamma_m)) mod 2; also conserved."""
    tot = sum(kb * jb for kb, jb in zip(key.k, sites))
    tot += sum(m * e for m, e in key.beta) + sum(m * e for m, e in key.gamma)
    return tot % 2


def momentum_signed(key, sites):
    """Signed integer momentum -sum_b k_b j_b + sum_m m (beta_m - gamma_m).

    Conserved for exponential mode bases; for the folded cosine basis only
    its mod-2 class survives, so this is a diagnostic, not an invariant.
    """
    tot = -sum(kb * jb for kb, jb in zip(key.k, sites))
    tot += sum(m * e for m, e in key.beta) - sum(m * e for m, e in key.gamma)
    return tot


def grading_violations(series, sites, tol=0.0):
    """Keys breaking either conserved mod-2 grading (beyond |c| <= tol)."""
    bad = []
    for key, c in series.terms.items():
        if abs(c) <= tol:
            continue
        if parity_v0(key) or parity_weighted(key, sites):
            bad.append((key, abs(c)))
    return bad


def parity_check(R, dims, which, tol=1e-12):
    """Verify the zero-mode/parity vanishing identities on a pipeline series.

    which = 'even_k_blocks': coefficients of odd z-degree classes must
    vanish for even |k| (the z-linear, y z-linear and cubic blocks).
    which = 'odd_k_blocks': even z-degree classes vanish for odd |k|.
    which = 'zero_mode_linear': the k = 0 zero-mode linear coefficients
    vanish.  Returns the violation list [(key, |coef|), ...].
    """
    zero_set = set(dims.zero_modes)
    scale = max(R.max_abs(), 1.0)
    bad = []
    for key, c in R.terms.items():
        if abs(c) <= tol * scale:
            continue
        degz = sum(e for _, e in key.beta) + sum(e for _, e in key.gamma)
        keven = key_kabs(key) % 2 == 0
        if which == "even_k_blocks":
            if degz % 2 == 1 and keven:
                bad.append((key, abs(c)))
        elif which == "odd_k_blocks":
            if degz % 2 == 0 and not keven:
                bad.append((key, abs(c)))
        elif which == "zero_mode_linear":
            zf = sum(e for m, e in key.beta if m in zero_set)
            zf += sum(e for m, e in key.gamma if m in zero_set)
            if degz == 1 and zf == 1 and sum(key.alpha) == 0 and key_kabs(key) == 0:
                bad.append((key, abs(c)))
        else:
            raise ValueError("unknown parity check %r" % (which,))
    return bad


# ---------------------------------------------------------------------------
# index-vector combinatorics
# ---------------------------------------------------------------------------

@dataclass
class IndexVectorClass:
    """Fourier index families of the low coefficient classes.

    V1: z-linear support, V2: y-linear support, V3: y z-linear support,
    V4: pure angle (x) support.  Members of V1/V3 pair an odd number of
    tangential factors (k . v0 odd), members of V2/V4 an even number.
    """

    v0: tuple
    V1: set
    V2: set
    V3: set
    V4: set

    def value_sets(self):
        return {name: sorted({sum(k) for k in getattr(self, name)})
                for name in ("V1", "V2", "V3", "V4")}


def classify_index_vectors(R, dims, tol=0.0):
    v0 = (1,) * dims.n
    fam = {"V1": set(), "V2": set(), "V3": set(), "V4": set()}
    for key, c in R.terms.items():
        if abs(c) <= tol:
            continue
        degz = sum(e for _, e in key.beta) + sum(e for _, e in key.gamma)
        na = sum(key.alpha)
        if degz == 1 and na == 0:
            fam["V1"].add(key.k)
        elif degz == 0 and na == 1 and key_kabs(key) > 0:
            fam["V2"].add(key.k)
        elif degz == 1 and na == 1:
            fam["V3"].add(key.k)
        elif degz == 0 and na == 0 and key_kabs(key) > 0:
            fam["V4"].add(key.k)
    return IndexVectorClass(v0, fam["V1"], fam["V2"], fam["V3"], fam["V4"])


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
