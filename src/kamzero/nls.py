"""Cubic Schroedinger front end: builds the iteration-ready Hamiltonian.

Pipeline: the quartic mode-coupling tensor of the even periodic problem on
[0, 2pi] (cosine modes, one zero-frequency mode at j = 0), the partial
Birkhoff transform removing the non-action quartic monomials (a Lie series
summed from its known first bracket {Lambda, F}), and the
action-angle substitution q_{j_b} = sqrt(xi_b + y_b) e^{-i x_b} at the
tangential sites.  The result is a structured normal form with frequency
map omega(xi) = alpha + A xi (normal frequencies left unshifted) and a
perturbation series on which the zero-mode parity identities can be checked
exactly.

``frequency_map`` reads A from the quartic's action couplings Gbar alone:
the Lie transform leaves every degree-4 action coefficient unchanged, since
{Lambda, F} holds only non-action monomials and every other increment has
degree >= 6.

Every stage works on the series' key rows: a monomial's class (degree,
action or not, parity, z-degree at the zero mode) is read from its exponent
columns.  Before the substitution the flat modes are 0..jmax in order, so
a flat series' beta and gamma columns are indexed by the mode itself.

Selection gradings: for the cosine basis the conserved integer gradings
are mod-2 classes, (k . v0 + z-degree) mod 2 and the site-weighted version
(sum_b k_b j_b + sum_m m (beta_m + gamma_m)) mod 2, both zero on every
monomial the pipeline produces and both preserved by the Poisson bracket.
The signed integer momentum is not conserved in the folded (cosine)
coordinates, so it is no grading here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from .homological import NormalForm
from .measure import AffineFrequencyMap
from .series import (SeriesDims, TFSeries, _degrees, _kabs, poisson_bracket,
                     truncated_mass)


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
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("sites must be distinct")
        if self.taylor_depth < 0:
            raise ValueError("taylor_depth must be >= 0")

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
    some signed combination vanishes.  No command calls it: it is the
    reference that ``tests/test_nls.py`` pins ``quartic_hamiltonian`` against.
    """
    hits = sum(1 for s2, s3, s4 in _SIGNS if i + s2 * j + s3 * k + s4 * l == 0)
    if hits == 0:
        return 0.0
    norm = 1.0
    for m in (i, j, k, l):
        norm *= 1.0 / math.sqrt(2.0 * math.pi) if m == 0 else 1.0 / math.sqrt(math.pi)
    return (2.0 * math.pi / 8.0) * hits * norm


def quartic_hamiltonian(model, budgets):
    """(Lambda, G): oscillator part and collected quartic part, flat modes.

    G = (1/4) sum over ordered index tuples of G_{ijkl} q_i q_j qbar_k
    qbar_l, collected onto monomials q^beta qbar^gamma with the ordered
    multiplicities (2 - delta)^2 folded into the coefficients.  Every pair
    of pairs i <= j, k <= l is evaluated at once, in the operation order of
    ``g_tensor`` (so each coefficient has its bits).
    """
    dims = model.flat_dims()
    width = model.jmax + 1
    modes = np.arange(1, width)           # the zero mode has lambda = 0
    lam = np.zeros((len(modes), 2 * width), dtype=np.int16)
    lam[modes - 1, modes] = lam[modes - 1, width + modes] = 1
    # (i, j) for every pair i <= j in order, paired with every (k, l)
    first, second = np.triu_indices(width)
    i, j = np.repeat(first, len(first)), np.repeat(second, len(first))
    k, l = np.tile(first, len(first)), np.tile(second, len(first))
    hits = sum((i + s2 * j + s3 * k + s4 * l == 0).astype(int) for s2, s3, s4 in _SIGNS)
    keep = hits > 0
    i, j, k, l, hits = i[keep], j[keep], k[keep], l[keep], hits[keep]
    f = np.full(width, 1.0 / math.sqrt(math.pi))
    f[0] = 1.0 / math.sqrt(2.0 * math.pi)
    g = (2.0 * math.pi / 8.0) * hits * (1.0 * f[i] * f[j] * f[k] * f[l])
    coefs = 0.25 * np.where(i == j, 1, 2) * np.where(k == l, 1, 2) * g
    G = np.zeros((len(g), 2 * width), dtype=np.int16)
    np.add.at(G, (np.arange(len(g))[:, None], np.column_stack([i, j, width + k, width + l])), 1)
    return (TFSeries.from_rows(dims, budgets, lam, modes * modes, real=True),
            TFSeries.from_rows(dims, budgets, G, coefs, real=True))


@dataclass
class BirkhoffResult:
    H: TFSeries               # Lambda + collected quartic + K
    Gbar: np.ndarray          # collected action couplings, multiplicity-normalized
    quartic: TFSeries         # surviving degree-4 part
    K: TFSeries               # degree >= 6 remainder
    max_resonant_leftover: float


def _is_action(rows):
    """Rows of a flat series with beta == gamma: products of |q_j|^2."""
    width = rows.shape[1] // 2
    return np.all(rows[:, :width] == rows[:, width:], axis=1)


def action_couplings(G):
    """Collected action couplings of the quartic G: each |q_i|^2 |q_j|^2 gives
    Gbar_ij = Gbar_ji = coefficient / (2 - delta_ij)^2 (the tensor over 4)."""
    width = G.rows.shape[1] // 2
    action = _is_action(G.rows)
    # the sorted index pair (i, j) of |q_i|^2 |q_j|^2 from its beta columns
    count = np.cumsum(G.rows[action, :width], axis=1)
    i, j = np.argmax(count >= 1, axis=1), np.argmax(count >= 2, axis=1)
    Gbar = np.zeros((width, width))
    Gbar[i, j] = Gbar[j, i] = G.coefs[action].real / np.where(i == j, 1, 4)
    return Gbar


def _site_map(model, Gbar):
    """omega(xi) = alpha + A xi with alpha_b = j_b^2, A = 2 Gbar on the diagonal
    (a square gives 2 xi per y) and 4 Gbar off it; the tail stays at j^2."""
    sites = np.array(model.sites)
    A = np.where(np.eye(model.n, dtype=bool), 2.0, 4.0) * Gbar[np.ix_(sites, sites)]
    return AffineFrequencyMap(np.array([model.lam(j) for j in model.sites]), A,
                              {j: model.lam(j) for j in model.kam_dims().tail_modes})


def frequency_map(model, budgets):
    """The frequency map of ``model``, read from the quartic alone."""
    return _site_map(model, action_couplings(quartic_hamiltonian(model, budgets)[1]))


def birkhoff_transform(model, budgets):
    """Remove the non-action quartic monomials by one Lie transform.

    Every quartic monomial with an index relation i +- j +- k +- l = 0 and
    {i, j} != {k, l} (as multisets) is eliminated; the surviving quartic
    part is diagonal in the actions |q_i|^2 |q_j|^2, with the couplings
    Gbar of ``action_couplings``, which the transform leaves unchanged.

    The Lie series of Lambda + G is summed from its known first bracket
    T = {Lambda, F}, about -G on the eliminated monomials: ad_F^i Lambda =
    ad_F^{i-1} T, so sum_i ad_F^i (Lambda + G) / i! = Lambda + (G + T) +
    sum_{j>=1} ad_F^j Y_j with Y_j = G / j! + T / (j+1)!.  Each bracket
    raises the degree by 2, so the orders j <= J = (degree_max - 4) // 2
    are all that fit the degree budget; they are nested as ad_F(Y_1 +
    ad_F(Y_2 + ... + ad_F(Y_J))), J brackets in all (one at degree_max 6,
    none at 4), and the degree >= 6 remainder K is exact up to rounding
    within the degree budget.
    T is a real bracket, so ``max_resonant_leftover`` still measures how
    well F solves the homological equation.  ``series.lie_transform`` is the
    reference this sum is pinned against in the tests.
    """
    lam, G = quartic_hamiltonian(model, budgets)
    dims = model.flat_dims()
    width = model.jmax + 1
    elim = ~_is_action(G.rows)
    div = (G.rows[:, :width] - G.rows[:, width:]) @ np.arange(width) ** 2
    if np.any(elim & (div == 0)):
        raise AssertionError(
            "zero divisor on non-action quartics %r: momentum plus equal "
            "power sums force equal index multisets" % (list(G.select(elim & (div == 0)).terms),))
    # c / (i div) in real arithmetic, bit for bit Python's complex division
    c, div = G.coefs[elim], div[elim].astype(float)
    coefs = np.empty(len(c), dtype=complex)
    coefs.real, coefs.imag = c.imag / div, -c.real / div
    F = TFSeries.from_rows(dims, budgets, G.rows[elim], coefs, real=True)
    T = poisson_bracket(lam, F)
    nested = TFSeries.zero(dims, budgets, real=True)
    mass = truncated_mass(T)
    for j in range((budgets.degree_max - 4) // 2, 0, -1):
        Y = G * (1.0 / math.factorial(j)) + T * (1.0 / math.factorial(j + 1))
        nested = poisson_bracket(Y + nested, F)
        mass += truncated_mass(nested)
    H = lam + (G + T) + nested
    H.meta.update(dropped_mass=mass)

    deg = _degrees(H.cols, 0)
    leftover = float(np.abs(H.coefs[(deg == 4) & ~_is_action(H.rows)]).max(initial=0.0))
    return BirkhoffResult(H, action_couplings(G), H.select(deg == 4), H.select(deg >= 6),
                          leftover)


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
    fmap: AffineFrequencyMap  # omega(xi) = alpha + A xi, exact from the y expansion
    constant_dropped: complex
    expansion_dropped: float
    notes: dict = field(default_factory=dict)


def _site_tables(xi, top, depth):
    """Per-site factors of (xi_b + y_b)^{m/2}, m = 0..top, expanded in y_b.

    weight[b, m, t] is the coefficient of y_b^t (t <= depth) and size[b, m,
    t] its size at |y| = xi/4, a quarter of the expansion's convergence
    radius; the first omitted order has size nxt[m] * root[b, m] / 4^(depth
    + 1).  An absent site (m = 0) contributes the single factor 1 at t = 0.
    Each entry is one scalar expression with numpy-scalar xi_b, so products
    over the sites reproduce a per-term expansion bit for bit.
    """
    n = len(xi)
    weight = np.zeros((n, top + 1, depth + 1))
    size = np.zeros((n, top + 1, depth + 1))
    root = np.ones((n, top + 1))
    weight[:, 0, 0] = size[:, 0, 0] = 1.0
    for b in range(n):
        for m in range(1, top + 1):
            h = 0.5 * m
            root[b, m] = xi[b] ** h
            for t in range(depth + 1):
                weight[b, m, t] = _gbinom(h, t) * xi[b] ** (h - t)
                size[b, m, t] = abs(_gbinom(h, t)) * xi[b] ** h / 4.0 ** t
    nxt = np.array([abs(_gbinom(0.5 * m, depth + 1)) for m in range(top + 1)])
    return weight, size, nxt, root


def to_kam_form(model, birkhoff, budgets):
    """Substitute action-angle coordinates at the tangential sites.

    q_{j_b} = sqrt(xi_b + y_b) e^{-i x_b} with the square root expanded to
    ``model.taylor_depth`` in y_b / xi_b.  Constant terms are dropped (and
    reported); the y-linear means become the tangential frequencies
    omega(xi) = alpha + A xi, the normal frequencies stay at j^2 (the
    zero-mode keeps frequency 0), and everything else lands in R0.  The
    omitted expansion orders (Taylor depth or degree/Fourier budget) are
    reported as coefficient mass at |y| = xi/4.  No coefficient of R0 is
    cut by its magnitude.
    """
    n, dims, depth, xi = model.n, model.kam_dims(), model.taylor_depth, model.xi
    width = model.jmax + 1
    sites = np.array(model.sites)
    normal = np.array(dims.modes)     # flat columns are indexed by mode
    H = birkhoff.H
    osc = _degrees(H.cols, 0) == 2      # exactly Lambda; in closed form below
    cols, c = H.cols[:, ~osc], H.coefs[~osc]
    # key columns of the terms: (site, term) and (normal column, term)
    a, ap = cols[sites], cols[width + sites]
    k, m = ap - a, a + ap
    z = np.concatenate([cols[normal], cols[width + normal]])

    # term-major, then t-vector order: the order a per-term loop adds them in
    tvecs = np.array(list(itertools.product(range(depth + 1), repeat=n))).reshape(-1, n)
    weight, size, nxt, root = _site_tables(xi, int(m.max(initial=0)), depth)
    w = np.ones((len(c), len(tvecs)))
    ev = np.ones_like(w)
    for b in range(n):
        w = w * weight[b, m[b, :, None], tvecs[:, b]]
        ev = ev * size[b, m[b, :, None], tvecs[:, b]]
    coef = 0j + c[:, None] * w      # 0j + clears negative zeros (text form: -0)
    inside = ((2 * tvecs.sum(axis=1) + z.sum(axis=0)[:, None] <= budgets.degree_max)
              & (_kabs(k, n) <= budgets.k_max)[:, None])
    mags = np.abs(c)
    drops = np.concatenate([mags[:, None] * nxt[m.T] * root[np.arange(n), m.T] / 4.0 ** (depth + 1),
                            np.where(inside, 0.0, mags[:, None] * ev)], axis=1)
    # each total is summed left to right in arrival order, like a per-term
    # loop: np.add.accumulate runs strictly in order, where np.sum adds
    # pairwise (and sum() compensates float sums from Python 3.12 on)
    expansion_dropped = float(np.add.accumulate(np.concatenate([[0.0], drops.ravel()]))[-1])

    # constants are dropped; the y means plus the oscillator part lambda_b
    # (xi_b + y_b) of each site are the frequencies
    flat = (~k.any(axis=0) & ~z.any(axis=0))[:, None]     # k = 0, no z factor
    const = flat & ~tvecs.any(axis=1)
    constant_dropped = reduce(add, coef[const].tolist()
                              + [model.lam(j) * xi[b] for b, j in enumerate(model.sites)], 0j)
    means = [flat & np.all(tvecs == e, axis=1) for e in np.eye(n, dtype=int)]
    omega = np.array([reduce(add, coef[inside & mean].tolist() + [model.lam(j)], 0j).real
                      for mean, j in zip(means, model.sites)])
    term, t = np.nonzero(inside & ~const & ~np.any(means, axis=0))
    # C-ordered key columns (``np.take``: fancy indexing along axis 1 gives
    # F-ordered blocks), whose rows ``from_rows`` stores without a copy
    R0 = TFSeries.from_rows(dims, budgets, np.concatenate(
        [np.take(x, i, axis=1) for x, i in ((k, term), (tvecs.T, t), (z, term))]).T,
        coef[term, t], real=True)

    fmap = _site_map(model, birkhoff.Gbar)
    N0 = NormalForm.zero(n, 1)
    N0.omega = omega
    N0.Omega = dict(fmap.Omega)
    return KamForm(N0, R0, dims, fmap, constant_dropped, expansion_dropped,
                   notes={"normal_shift_B": 0.0,
                          "B_zero_convention": "tail frequencies kept at j^2; "
                          "order-xi tail couplings remain in R0"})


def build_nls(model, budgets):
    """Full pipeline: quartic tensor -> Birkhoff -> action-angle form."""
    bk = birkhoff_transform(model, budgets)
    kf = to_kam_form(model, bk, budgets)
    return bk, kf


# ---------------------------------------------------------------------------
# gradings and parity checks
# ---------------------------------------------------------------------------

def _z_degree(series):
    return series.rows[:, 2 * series.dims.n:].sum(axis=1)


def _mode_columns(series):
    """Mode index of each beta and gamma column."""
    return np.tile(series.dims.modes, 2)


def parity_v0(series):
    """(k . v0 + z-degree) mod 2 per row; zero on every pipeline monomial."""
    return (series.rows[:, :series.dims.n].sum(axis=1) + _z_degree(series)) % 2


def parity_weighted(series, sites):
    """(sum_b k_b j_b + sum_m m (beta_m + gamma_m)) mod 2 per row; also conserved."""
    n = series.dims.n
    return (series.rows[:, :n] @ np.asarray(sites, dtype=int)
            + series.rows[:, 2 * n:] @ _mode_columns(series)) % 2


def _violations(series, mask):
    """[(key, |c|)] of the rows where ``mask`` holds, in row order."""
    return [(key, abs(c)) for key, c in series.select(mask).terms.items()]


def grading_violations(series, sites):
    """Keys breaking either conserved mod-2 grading."""
    return _violations(series, (parity_v0(series) != 0) | (parity_weighted(series, sites) != 0))


def parity_check(R, dims, which, tol=1e-12):
    """Verify the zero-mode/parity vanishing identities on a pipeline series.

    which = 'even_k_blocks': coefficients of odd z-degree classes must
    vanish for even |k| (the z-linear, y z-linear and cubic blocks).
    which = 'odd_k_blocks': even z-degree classes vanish for odd |k|.
    which = 'zero_mode_linear': the k = 0 zero-mode linear coefficients
    vanish.  Returns the violation list [(key, |coef|), ...].
    """
    n = R.dims.n
    degz = _z_degree(R)
    kabs = _kabs(R.cols, n)
    if which == "even_k_blocks":
        bad = (degz % 2 == 1) & (kabs % 2 == 0)
    elif which == "odd_k_blocks":
        bad = (degz % 2 == 0) & (kabs % 2 == 1)
    elif which == "zero_mode_linear":
        zf = R.rows[:, 2 * n:][:, np.isin(_mode_columns(R), dims.zero_modes)].sum(axis=1)
        bad = (degz == 1) & (zf == 1) & (kabs == 0) & ~R.rows[:, n:2 * n].any(axis=1)
    else:
        raise ValueError("unknown parity check %r" % (which,))
    return _violations(R, bad & (np.abs(R.coefs) > tol * max(R.max_abs(), 1.0)))


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


def classify_index_vectors(R, dims):
    n = dims.n
    degz = _z_degree(R)
    na = R.rows[:, n:2 * n].sum(axis=1)
    moving = _kabs(R.cols, n) > 0

    def family(mask):
        return set(map(tuple, R.rows[mask, :n].tolist()))

    return IndexVectorClass((1,) * n, family((degz == 1) & (na == 0)),
                            family((degz == 0) & (na == 1) & moving),
                            family((degz == 1) & (na == 1)),
                            family((degz == 0) & (na == 0) & moving))
