"""Per-Fourier-mode solver for the modified homological equation.

Given a structured normal form N (scalar part, tangential frequencies,
normal frequencies, linear and quadratic blocks on the zero-frequency
modes) and a low-degree Fourier-truncated perturbation R_low, produce the
generating function F and the normal-form increment Nhat with

    {N, F} + R_low = Nhat

solved class by class in the triangular order: zero-mode quadratics first
(straightened to a 3b^2 system via Kronecker lifts), then normal-tail
quadratics (scalar divisors), mixed zero/tail quadratics (4b blocks),
zero-mode linears (2b blocks, right side corrected by the quadratic
solution), tail linears, and finally the x/y coefficients.  Right-side
corrections between classes are evaluated with the series engine's own
Poisson bracket rather than hand-coded, so the solution is consistent with
the bracket by construction; the norm of what ``hom_residual`` leaves of
the equation certifies it.

The solve works on key rows: a row's class comes from column sums (action
degree, zero-mode and tail z-degree), the scalar classes are divided row
by row, and each block family reads its right sides and writes its
solution through a *slot layout* (its key rows in the operator's order).
A family's operators at all its Fourier modes are one stack
(``block_operators``), factored, guarded and solved by one call each
(``_block_solutions``); the catalogue takes the roots of each family's
k = 0 blocks from one stacked eigenvalue call.

The module also holds the one catalogue of small-divisor conditions
(``condition_catalogue`` over the l1 lattice ``k_lattice``): families KL,
R1, R3 and R4, each with its block operator, scale and exponent named once
in ``FAMILY_TABLE``.  ``check_nonresonance`` evaluates it at one parameter
sample (the solver gate), ``measure.estimate_ladder`` over a parameter
grid, and the solver's divisor guards read the same thresholds.  Both
find their violations through the shifts of a condition: a value falls
below a bound only where |fl(x + c)| does for x = <k, omega> and one of
its shifts c, with the threshold as the bound of a KL shift and its
``_factor_floor`` as the bound of a determinant root's shift Im mu.  The
gate searches its sorted lattice values x for them (``_ranges``) and
evaluates a determinant only at the candidates that search leaves; the
grid tests each k-row's extremes and evaluates only the (k-row, condition)
cells that pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matrixkit import SingularSystem, commutation_matrix, det_modulus, kron, solve_dense, unvec, vec
from .series import TFSeries, poisson_bracket, vector_field_norm


class BudgetExhausted(Exception):
    """A Fourier range beyond the series budget or the condition-lattice cap."""


class ResonantParameter(Exception):
    """A small-divisor condition failed at the current parameter sample."""

    def __init__(self, condition):
        super().__init__("resonant sample: %s" % (condition,))
        self.condition = condition


@dataclass
class ResonanceCondition:
    """One evaluated non-resonance condition (violated or measured)."""

    family: str                 # 'KL', 'R1', 'R3' or 'R4'
    k: tuple
    l: tuple | None
    threshold: float
    measured: float

    def margin(self):
        return self.measured / self.threshold if self.threshold > 0 else np.inf


@dataclass
class NormalForm:
    """The structured N block: N^x, <omega, y>, sum Omega_j z_j zbar_j plus
    the preserved zero-mode terms <N^{z0}, z0>, <N^{zbar0}, zbar0> and the
    three zero-mode quadratic forms.

    The same container carries normal-form increments (then ``omega`` holds
    the y-means and ``Omega`` the diagonal z_j zbar_j means).
    """

    Nx: complex
    omega: np.ndarray
    Omega: dict
    Nz0: np.ndarray
    Nzb0: np.ndarray
    Nz0z0: np.ndarray
    Nz0zb0: np.ndarray
    Nzb0zb0: np.ndarray

    @classmethod
    def zero(cls, n, b):
        return cls(0j, np.zeros(n), {},
                   np.zeros(b, dtype=complex), np.zeros(b, dtype=complex),
                   np.zeros((b, b), dtype=complex), np.zeros((b, b), dtype=complex),
                   np.zeros((b, b), dtype=complex))

    @property
    def b(self):
        return len(self.Nz0)

    def accumulate(self, hat):
        """N + Nhat: frequency updates and block sums for the next step."""
        Omega = dict(self.Omega)
        for j, v in hat.Omega.items():
            Omega[j] = Omega.get(j, 0.0) + v
        return NormalForm(self.Nx + hat.Nx, self.omega + hat.omega, Omega, self.Nz0 + hat.Nz0,
                          self.Nzb0 + hat.Nzb0, self.Nz0z0 + hat.Nz0z0,
                          self.Nz0zb0 + hat.Nz0zb0, self.Nzb0zb0 + hat.Nzb0zb0)

    def to_series(self, dims, budgets):
        """Expand the structured block into a real TFSeries."""
        values = np.concatenate([[self.Nx], self.omega,
                                 [self.Omega.get(j, 0.0) for j in dims.tail_modes],
                                 self.Nz0, self.Nzb0, vec(self.Nz0z0), vec(self.Nz0zb0),
                                 vec(self.Nzb0zb0)])
        return TFSeries.from_rows(dims, budgets, _nf_slots(dims)[0], values, real=True)


# ---------------------------------------------------------------------------
# key rows: classes and slot layouts
# ---------------------------------------------------------------------------

# class tags 100 * (action degree) + 10 * (zero-mode z-degree) + (tail z-degree)
_X, _Y, _Z0, _T, _Z0Z0, _Z0T, _TT = 0, 100, 10, 1, 20, 11, 2


def _classes(S, dims):
    """The rows of the low-degree series S and the class tag of each."""
    n, b, nm = dims.n, dims.b, len(dims.modes)
    rows = S.rows
    na = rows[:, n:2 * n].sum(axis=1)
    z = rows[:, 2 * n:2 * n + nm] + rows[:, 2 * n + nm:]
    nz0, nt = z[:, :b].sum(axis=1), z[:, b:].sum(axis=1)
    if np.any(2 * na + nz0 + nt > 2):
        raise ValueError("the series has terms above degree 2")
    return rows, 100 * na + 10 * nz0 + nt


def _unique_rows(rows):
    """The distinct rows, in lexicographic order."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return rows[keep]


def _key_rows(dims, count, *cols):
    """``count`` key rows at k = 0, each exponent column ``cols[c][s]`` of
    row s raised by one."""
    rows = np.zeros((count, 2 * dims.n + 2 * len(dims.modes)), dtype=np.int16)
    for c in cols:
        np.add.at(rows, (np.arange(count), c), 1)
    return rows


@lru_cache(maxsize=None)
def _layout(dims, block, j=None):
    """Slot layout of block family 'A', 'B' (at tail mode j) or 'C'.

    Returns the key rows (at k = 0) of the operator's unknown vector in its
    order, and the read weights, both read-only (the layouts are cached).  In
    family A the slots l*b + i of each b x b block hold entry (i, l) (column
    straightening); the two slots of an off-diagonal symmetric pair z_i z_l
    share one monomial, so each reads half its coefficient and writing sums
    them back onto it.
    """
    n, b, nm = dims.n, dims.b, len(dims.modes)
    z, zb = 2 * n + np.arange(b), 2 * n + nm + np.arange(b)
    if block == "A":
        i, l = np.tile(np.arange(b), b), np.repeat(np.arange(b), b)
        half = np.where(i == l, 1.0, 0.5)
        return _read_only(_key_rows(dims, 3 * b * b, np.concatenate([z[i], z[l], zb[i]]),
                                    np.concatenate([z[l], zb[i], zb[l]])),
                          np.concatenate([half, np.ones(b * b), half]))
    if block == "B":
        t = 2 * n + dims.modes.index(j)
        return _read_only(_key_rows(dims, 4 * b, np.concatenate([z, z, zb, zb]),
                                    np.repeat([t, t + nm, t, t + nm], b)), np.ones(4 * b))
    return _read_only(_key_rows(dims, 2 * b, np.concatenate([z, zb])), np.ones(2 * b))


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _nf_slots(dims):
    """Slot layout of a NormalForm, read-only like ``_layout``: Nx, omega
    (y_b), Omega (z_j zbar_j on the tail), then Nz0/Nzb0 (family C) and the
    three quadratic blocks (family A), all at k = 0."""
    n, nt = dims.n, len(dims.tail_modes)
    tail = 2 * n + dims.b + np.arange(nt)
    c_rows, c_w = _layout(dims, "C")
    a_rows, a_w = _layout(dims, "A")
    rows = np.concatenate([_key_rows(dims, 1), _key_rows(dims, n, n + np.arange(n)),
                           _key_rows(dims, nt, tail, tail + len(dims.modes)), c_rows, a_rows])
    return _read_only(rows, np.concatenate([np.ones(1 + n + nt), c_w, a_w]))


def _l_tuple(tail, l):
    """The sparse ((j, l_j), ...) form of a vector l over the tail modes."""
    return tuple((j, int(e)) for j, e in zip(tail, l) if e)


# ---------------------------------------------------------------------------
# block operators (families A / B / C)
# ---------------------------------------------------------------------------

def block_operators(family, N, kvecs, Omega=None):
    """Dense matrices of the within-class operator at every Fourier mode
    ``kvecs[g]`` (and, for family 'B', every frequency ``Omega[g]`` of its
    tail mode) as one ``(G, d, d)`` stack.

    family 'A' couples the three zero-mode quadratic blocks through column
    straightening (3b^2 unknowns); 'B' couples the four mixed zero/tail
    coefficient vectors at a tail mode j (4b unknowns); 'C' couples the two
    zero-mode linear vectors (2b unknowns).  In each case the matrix is
    i<k,omega> I plus Kronecker lifts of the zero-mode quadratic blocks of
    N, and it equals the action of F -> -{N, F} restricted to the class.
    The blocks that do not depend on k are formed once, and every entry by
    the same operations in the same order at every g."""
    b, G = N.b, len(kvecs)
    kw = np.vecdot(np.asarray(kvecs, dtype=float), N.omega)[:, None, None]
    S = N.Nz0z0
    M = N.Nz0zb0
    T = N.Nzb0zb0
    Ib = np.eye(b)
    if family == "A":
        P = commutation_matrix(b)
        diag = kw * np.eye(b * b)
        IM, IMt, IS, IT = (kron(Ib, X) for X in (M, M.T, S, T))
        MI, MtI, SI, TI = (kron(X, Ib) for X in (M, M.T, S, T))
        blocks = [[diag + IMt + MtI, -(IS + SI @ P), None],
                  [4 * IT, diag + MtI - IM, -4 * SI],
                  [None, IT @ P + TI, diag - (IM + MI)]]
    elif family == "B":
        if Omega is None:
            raise ValueError("family B needs the tail-mode frequencies Omega")
        om = np.asarray(Omega, dtype=float)[:, None, None]
        blocks = [[(kw + om) * Ib + M.T, None, -2 * S, None],
                  [None, (kw - om) * Ib + M.T, None, -2 * S],
                  [2 * T, None, (kw + om) * Ib - M, None],
                  [None, 2 * T, None, (kw - om) * Ib - M]]
    elif family == "C":
        blocks = [[kw * Ib + M.T, -2 * S],
                  [2 * T, kw * Ib - M]]
    else:
        raise ValueError("unknown family %r" % (family,))
    d = blocks[0][0].shape[-1]     # one preallocated stack; None blocks stay zero
    out = np.zeros((G,) + (len(blocks) * d,) * 2, dtype=complex)
    for r, row in enumerate(blocks):
        for c, blk in enumerate(row):
            if blk is not None:
                out[:, r * d:(r + 1) * d, c * d:(c + 1) * d] = blk
    return 1j * out


# ---------------------------------------------------------------------------
# the small-divisor condition catalogue
# ---------------------------------------------------------------------------

# family: (block operator, KamParams scale, KamParams exponent); the KL
# scale is further weighted by <l>_d (``l_weight``)
FAMILY_TABLE = {
    "KL": (None, "gamma_m", "tau"),
    "R1": ("A", "gamma_1m", "tau_1"),
    "R3": ("B", "gamma_3m", "tau_3"),
    "R4": ("C", "gamma_4m", "tau_4"),
}
FAMILIES = tuple(FAMILY_TABLE)
_LATTICE_CAP = 6_000_000
# dispersion exponent d of the normal frequencies Omega_j = j^d (cubic NLS)
DISPERSION = 2


def _scale_tau(params, family):
    """Threshold scale and exponent of ``family``, read from ``params``."""
    _, scale, tau = FAMILY_TABLE[family]
    return getattr(params, scale), getattr(params, tau)


def condition_scale(params, family, weight):
    """The threshold scale of a ``family`` condition of weight ``weight``
    under ``params``: the family's scale times the weight (exact for weight
    1.0)."""
    return float(_scale_tau(params, family)[0] * weight)


def l_weight(L, tail):
    """The KL weight <l>_d = max(1, |sum_j j^d l_j|) of every row l of ``L``
    (one column per mode of ``tail``), d = ``DISPERSION``."""
    return np.maximum(1.0, np.abs(L @ np.array([float(j) ** DISPERSION for j in tail])))


def _kpow(kabs, tau):
    """max(|k|, 1)^tau."""
    return np.maximum(kabs, 1).astype(float) ** tau


@lru_cache(maxsize=None)
def _kl_options(t):
    """Every l on t tail modes with 0 <= |l| <= 2, one row each, in gate
    order; read-only, since the rows are cached."""
    e = np.eye(t, dtype=np.int64)
    opts = [np.zeros(t, dtype=np.int64)] + [sign * e[a] for a in range(t) for sign in (1, -1)]
    for a in range(t):
        for c in range(a, t):
            opts += [e[a] + e[c], -e[a] - e[c]] + ([e[a] - e[c], e[c] - e[a]] if a != c else [])
    return _read_only(np.array(opts).reshape(len(opts), t))[0]


@lru_cache(maxsize=None)
def _kl_labels(tail):
    """The sparse tuple and the weight <l>_d of every ``_kl_options`` row l
    on the tail modes ``tail``."""
    L = _kl_options(len(tail))
    return tuple(_l_tuple(tail, l) for l in L), _read_only(l_weight(L, tail))[0]


def lattice_size(n, kmax):
    """Number of integer vectors with |k|_1 <= kmax in dimension n.

    A ball of more than 6,000,000 points raises BudgetExhausted.
    """
    r = max(int(np.floor(kmax)), 0)
    size = sum(2 ** i * math.comb(n, i) * math.comb(r, i) for i in range(min(n, r) + 1))
    if size > _LATTICE_CAP:
        raise BudgetExhausted("the k-lattice |k| <= %d in dimension %d has %d points,"
                              " above the cap of %d" % (r, n, size, _LATTICE_CAP))
    return size


@lru_cache(maxsize=32)
def _ball_kpow(n, r, tau):
    """max(|k|, 1)^tau at every point of the cached ball |k|_1 <= r, read-only."""
    return _read_only(_kpow(_ball_kabs(n, r), tau))[0]


@lru_cache(maxsize=8)
def _ball_kabs(n, r):
    """|k| at every point of the cached ball |k|_1 <= r, read-only."""
    return _read_only(np.abs(_l1_ball(n, r)).sum(axis=1))[0]


def k_lattice(n, kmax):
    """All integer vectors with |k|_1 <= kmax, in lexicographic order.

    Built one coordinate at a time, so only the l1 ball is ever held; the
    size is checked against the cap (``lattice_size``) first.  The last few
    balls are cached and returned read-only.
    """
    lattice_size(n, kmax)
    return _l1_ball(n, max(int(np.floor(kmax)), 0))


@lru_cache(maxsize=8)
def _l1_ball(n, r):
    lat = np.zeros((1, 0), dtype=int)
    for _ in range(n):
        rem = r - np.abs(lat).sum(axis=1)
        width = 2 * rem + 1
        col = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width + rem, width)
        lat = np.column_stack([np.repeat(lat, width, axis=0), col])
    return _read_only(lat)[0]


@dataclass(frozen=True)
class Condition:
    """One small-divisor condition: |value(<k, omega>)| >= scale / |k|^tau.

    For family KL the value is |kw + <l, Omega>| (``roots`` holds the one
    shift); for R1/R3/R4 it is the determinant modulus |det(i kw I + B)| =
    prod |i kw + mu| over the eigenvalues ``roots`` of the k = 0 block B.
    The solver tests it for kmin <= |k|.  ``weight`` is the factor of the
    family's scale in ``scale`` (``condition_scale``): <l>_d for KL, 1.0
    otherwise, so that the scale under other KamParams (a gamma ladder's
    rungs) needs no new catalogue.
    """

    family: str
    l: tuple | None
    scale: float
    tau: float
    roots: np.ndarray
    kmin: int = 1
    weight: float = 1.0

    def value(self, kw):
        """Measured value at every entry of the array kw = <k, omega>."""
        if self.family == "KL":
            return np.abs(kw + self.roots[0])
        det = np.abs(1j * kw + self.roots[0])
        for mu in self.roots[1:]:
            det *= np.abs(1j * kw + mu)
        return det


def _first_above(xs, shifts, bound):
    """First sorted position p of every (row, shift) pair with
    fl(xs[row, p] + shift) >= bound[row, shift], or the row length if there
    is none.

    fl(x + c) is nondecreasing in x, so the test is monotone along a sorted
    row; one binary search runs for all pairs at once and evaluates the
    same sum the condition does at each probe.  The rows are padded with
    +inf to a power of two, so that the search takes one step per bit
    (p grows by the step wherever the probe fails the test) and never
    leaves the rows.
    """
    nb, nsamp = xs.shape
    step = 1 << (nsamp.bit_length() - 1) if nsamp else 0
    padded = np.full((nb, 2 * step), np.inf)
    padded[:, :nsamp] = xs
    row = np.arange(nb)[:, None]
    p = np.zeros(bound.shape, dtype=np.intp)
    while step:
        p += np.where(padded[row, p + (step - 1)] + shifts >= bound, 0, step)
        step //= 2
    return np.minimum(p, nsamp)


def _ranges(xs, shifts, bound):
    """The range [lo, hi) (hi = lo when empty) of sorted positions p with
    |fl(xs[row, p] + shift)| < bound[row, shift], for every row of the
    sorted ``xs`` and every shift.  |fl(x + c)| < b is
    fl(x + c) >= nextafter(-b, inf) and not >= b, so one ``_first_above``
    finds both ends of every range."""
    ends = _first_above(xs, np.tile(shifts, 2),
                        np.concatenate([np.nextafter(-bound, np.inf), bound], axis=1))
    lo, hi = np.split(ends, 2, axis=1)
    return lo, np.maximum(hi, lo)


def _expand(lo, hi):
    """Every position of the ranges [lo, hi), each with the flat index of
    its range: (range index, position) arrays in range order."""
    lo, n = lo.ravel(), (hi - lo).ravel()
    return (np.repeat(np.arange(n.size), n),
            np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - lo, n))


def _distinct(codes, first=False):
    """The distinct values of the integer array ``codes``, ascending, by a
    sort and a compare of neighbours; with ``first``, also the index of each
    value's first occurrence (a stable argsort, as ``np.unique``'s
    ``return_index``).

    numpy 2.4's ``np.unique`` hashes: on 60k random int64 values it took
    14 ms against 0.55 ms for a sort and compare, and 437 ms against 8 ms
    on 600k.
    """
    if first:
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
    else:
        codes = np.sort(codes)
    keep = np.ones(len(codes), dtype=bool)
    keep[1:] = codes[1:] != codes[:-1]
    return (codes[keep], order[keep]) if first else codes[keep]


def condition_catalogue(N, params, dims, kmax, families=FAMILIES):
    """The small-divisor conditions at normal form N, in gate order.

    Family KL pairs <k, omega> with every <l, Omega>, 0 <= |l| <= 2 on the
    normal tail, against gamma_m <l>_d / |k|^tau; families R1/R3/R4 are the
    determinants of the A, B(j) and C block operators against
    gamma_im / |k|^{tau_i}, with R3 over the tail modes j <= 2 kmax and
    including k = 0.
    """
    conds = []
    tail = dims.tail_modes
    Om = N.Omega
    if "KL" in families:
        labels, weights = _kl_labels(tail)
        shifts = _kl_options(len(tail)) @ np.array([Om[j] for j in tail], dtype=float)
        tau = _scale_tau(params, "KL")[1]
        conds += [Condition("KL", l, condition_scale(params, "KL", w), tau, np.array([c]),
                            weight=float(w))
                  for l, c, w in zip(labels, shifts, weights)]
    if N.b == 0:
        return conds

    def block_conditions(family, js=(None,), ls=(None,), kmin=1):
        # the roots of the k = 0 block of every tail mode of js, one eigvals
        # call per family
        scale, tau = condition_scale(params, family, 1.0), _scale_tau(params, family)[1]
        Omega = None if js[0] is None else np.array([Om[j] for j in js])
        roots = np.linalg.eigvals(block_operators(FAMILY_TABLE[family][0], N,
                                                  np.zeros((len(js), dims.n)), Omega))
        return [Condition(family, l, scale, tau, mu, kmin) for l, mu in zip(ls, roots)]

    if "R1" in families:
        conds += block_conditions("R1")
    js = [j for j in tail if j <= 2 * kmax]
    if "R3" in families and js:
        conds += block_conditions("R3", js, [((j, 1),) for j in js], kmin=0)
    if "R4" in families:
        conds += block_conditions("R4")
    return conds


def k_powers(conds, kabs):
    """max(|k|, 1)^tau for every exponent tau the conditions use."""
    return {tau: _kpow(kabs, tau) for tau in {c.tau for c in conds}}


def _factor_floor(scale, count):
    """Elementwise, a t > 0 such that a rounded product of ``count``
    factors, each at least t, is at least ``scale`` (0 for a zero scale).
    Rounded products are monotone in their factors, so the product of
    ``count`` t's is checked; t starts at scale^(1/count) (``float_power``,
    which rounds like the C pow; ``power`` may not) and grows by a doubling
    step until it holds (a few steps, subnormal scales included)."""
    scale, count = np.broadcast_arrays(np.asarray(scale, dtype=float), np.asarray(count))
    t = np.float_power(scale, 1.0 / count)
    step = np.full(t.shape, 2.0 ** -40)
    while True:
        p = t.copy()
        for i in range(1, int(count.max(initial=1))):
            np.multiply(p, t, out=p, where=i < count)
        short = p < scale
        if not short.any():
            return t
        t = np.where(short, t * (1.0 + step), t)
        step = np.where(short, 2.0 * step, step)


def check_nonresonance(N, params, dims, families=FAMILIES):
    """Evaluate the condition catalogue at this sample for |k| <= K_m.

    Returns the list of violated ResonanceCondition records (empty means
    the sample passes), ordered by family, then l, then lattice index.

    A threshold scale / max(|k|, 1)^tau never exceeds its condition's
    scale, so only lattice points whose value is below the scale can fail.
    A KL value is |fl(x + c)| at x = <k, omega>; a determinant is a rounded
    product of factors |1j x + mu|, each at least |fl(x + Im mu)|, so it
    stays at or above the scale unless some factor is below the
    ``_factor_floor`` t of its scale (a KL value has one factor, and t is
    its scale).  Either way the candidates are the x with |fl(x + c)|
    below a bound, for c a KL shift or an Im mu: one range of the sorted
    values per shift, found for all shifts by one bisection (``_ranges``).
    Each candidate is then tested exactly as evaluating the condition at
    every lattice point tests it.
    """
    lat = k_lattice(dims.n, params.K_m)
    r = max(int(np.floor(params.K_m)), 0)
    kw = lat @ N.omega
    conds = condition_catalogue(N, params, dims, params.K_m, families)
    # one shift and bound per KL condition and per determinant root
    kl = np.array([c.family == "KL" for c in conds], dtype=bool)
    scale = np.array([c.scale for c in conds])
    count = np.array([len(c.roots) for c in conds])
    roots = np.concatenate([c.roots for c in conds])
    owner = np.repeat(np.arange(len(conds)), count)
    shifts = np.where(kl[owner], roots.real, roots.imag)
    order = np.argsort(kw)
    lo, hi = _ranges(kw[order][None], shifts, _factor_floor(scale, count)[owner][None])
    which, pos = _expand(lo, hi)
    cj, ci = owner[which], order[pos]
    # each candidate's value and threshold; the KL conditions all at once
    meas, thr = np.empty(len(ci)), np.empty(len(ci))
    at_kl = kl[cj]
    if at_kl.any():
        j, i = cj[at_kl], ci[at_kl]
        shift = roots.real[np.cumsum(count) - count]     # a KL condition's one root
        meas[at_kl] = np.abs(kw[i] + shift[j])
        thr[at_kl] = scale[j] / _ball_kpow(dims.n, r, params.tau)[i]
    for j in _distinct(cj[~at_kl]):
        at = cj == j
        meas[at] = conds[j].value(kw[ci[at]])
        thr[at] = conds[j].scale / _ball_kpow(dims.n, r, conds[j].tau)[ci[at]]
    kmin = np.array([c.kmin for c in conds], dtype=int)
    hit = (_ball_kabs(dims.n, r)[ci] >= kmin[cj]) & (meas < thr)
    # the distinct failures (a determinant may list a point once per root),
    # in condition, then lattice order
    _, first = _distinct(cj[hit] * len(lat) + ci[hit], first=True)
    hit = np.flatnonzero(hit)[first]
    return [ResonanceCondition(conds[j].family, tuple(int(v) for v in lat[i]), conds[j].l,
                               float(thr[h]), float(meas[h]))
            for h, j, i in zip(hit, cj[hit], ci[hit])]


def extract_hat(R_low, dims):
    """Collect the preserved k = 0 means of R_low into a NormalForm increment."""
    n, b = dims.n, dims.b
    rows, weights = _nf_slots(dims)
    nx, omega, Om, z0, zb0, S, M, T = np.split(
        weights * R_low.coefficients_at(rows),
        np.cumsum([1, n, len(dims.tail_modes), b, b, b * b, b * b]))
    return NormalForm(complex(nx[0]), omega.real.copy(),
                      {j: float(c.real) for j, c in zip(dims.tail_modes, Om) if c != 0},
                      z0, zb0, unvec(S, b, b), unvec(M, b, b), unvec(T, b, b))


# ---------------------------------------------------------------------------
# the six-part solve
# ---------------------------------------------------------------------------

def _block_solutions(family, N, params, ks, js, rhs):
    """The solutions x[g] of ``family``'s block systems at Fourier modes
    ks[g] (and tail modes js[g], None outside R3) with right sides rhs[g],
    and the smallest margin |det| / threshold, all on one stack of
    operators (``block_operators``).

    The first failure in row order raises ResonantParameter: a determinant
    at or below half its threshold, else a system ``solve_dense`` rejects
    (reported with its determinant).
    """
    scale, tau = _scale_tau(params, family)
    thr = scale / _kpow(np.abs(ks).sum(axis=1), tau)
    ops = block_operators(FAMILY_TABLE[family][0], N, ks,
                          None if js[0] is None else [N.Omega[j] for j in js])
    dm = det_modulus(ops)

    def failed(g):
        l = None if js[g] is None else ((int(js[g]), 1),)
        return ResonantParameter(ResonanceCondition(
            family, tuple(int(v) for v in ks[g]), l, float(thr[g]), float(dm[g])))

    low = dm <= 0.5 * thr
    stop = int(np.argmax(low)) if low.any() else len(ks)
    try:
        sol = solve_dense(ops[:stop], rhs[:stop])
    except SingularSystem as err:
        raise failed(err.index[0]) from err
    if stop < len(ks):
        raise failed(stop)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return sol, float(np.fmin.reduce(np.where(thr > 0, dm / thr, np.inf), initial=np.inf))


@dataclass
class SolveReport:
    solve_counts: dict
    min_divisor_margin: float
    residual: float         # ||{N,F} + R_low - Nhat|| on D(s, r, r)
    xF_norm: float          # vector-field norm of F
    bracket: TFSeries       # {N, F}, the bracket the residual is certified with
    remainder: TFSeries     # {N, F} + R_low - Nhat, the series the residual measures


def solve_homological(N, R_low, params, dims, dp):
    """Solve {N, F} + R_low = Nhat in the six-part order.

    ``params`` provides the step data (gamma_m, tau, K_m and the per-family
    gamma_im / tau_i); the caller is expected to have run
    ``check_nonresonance`` first.  Divisor guards still protect every solve:
    a divisor or block determinant at or below half the matching
    non-resonance threshold raises ResonantParameter (the first one in part
    order, then in row order).

    Returns (F, Nhat, SolveReport).  The report includes the bracket
    {N, F}, the series {N,F} + R_low - Nhat formed with it, that series'
    norm on the domain ``dp`` (the certified residual), and the
    vector-field norm of F.
    """
    n, b, nm = dims.n, dims.b, len(dims.modes)
    tail = dims.tail_modes
    tz, tzb = slice(2 * n + b, 2 * n + nm), slice(2 * n + nm + b, None)   # tail columns
    budgets = R_low.budgets
    counts, margin = {}, np.inf
    Nhat = extract_hat(R_low, dims)
    Om_tail = np.array([N.Omega.get(j, 0.0) for j in tail])
    empty = (R_low.rows[:0], R_low.coefs[:0])

    def lookup(rows, *series):
        return sum(S.coefficients_at(rows) for S in series)

    def guard(family, measured, thr, k, l):
        # raise at a divisor at or below half its threshold, else record the margin
        nonlocal margin
        measured, thr = float(measured), float(thr)
        if measured <= 0.5 * thr:
            raise ResonantParameter(ResonanceCondition(family, tuple(map(int, k)), l, thr, measured))
        margin = min(margin, measured / thr if thr > 0 else np.inf)

    def solve_scalar(part, rows, *sources):
        """F = rhs / i(<k, omega> + <l, Omega>) row by row, l = beta - gamma on
        the tail, under the KL condition at l, with rhs read from the sum of
        ``sources``; the rows with k = 0 and beta = gamma are the means Nhat
        keeps."""
        keep = rows[:, :n].any(axis=1) | np.any(rows[:, tz] != rows[:, tzb], axis=1)
        rows = rows[keep]
        if not len(rows):
            return empty
        k, l, rhs = rows[:, :n], rows[:, tz] - rows[:, tzb], lookup(rows, *sources)
        div = np.vecdot(k.astype(float), N.omega) + l @ Om_tail
        scale, tau = _scale_tau(params, "KL")
        thr = scale * l_weight(l, tail) / _kpow(np.abs(k).sum(axis=1), tau)
        # guard the first violation in row order, else the smallest margin
        measured = np.abs(div)
        bad = measured <= 0.5 * thr
        with np.errstate(over="ignore", divide="ignore"):
            i = np.argmax(bad) if bad.any() else np.argmin(measured / thr)
        guard("KL", measured[i], thr[i], k[i], _l_tuple(tail, l[i]))
        counts[part] = len(rows)
        # rhs / (i div) in real arithmetic
        return rows, rhs.imag / div - 1j * (rhs.real / div)

    def solve_blocks(family, part, ks, js, *sources):
        """One dense solve of ``family``'s block per Fourier mode ks[g] (and
        tail mode js[g]), right sides read from the sum of ``sources``."""
        nonlocal margin
        if not len(ks):
            return empty
        block = FAMILY_TABLE[family][0]
        rows = np.concatenate([_layout(dims, block, j)[0] for j in js])
        rows[:, :n] = np.repeat(ks, len(rows) // len(ks), axis=0)
        weights = np.concatenate([_layout(dims, block, j)[1] for j in js])
        rhs = (weights * lookup(rows, *sources)).reshape(len(ks), -1)
        sol, least = _block_solutions(family, N, params, ks, js, rhs)
        margin = min(margin, least)
        counts[part] = len(ks)
        return rows, sol.ravel()

    def rows_of(tag, *classes):
        return np.concatenate([rows[tags == tag] for rows, tags in classes])

    def nonzero_ks(rows):
        ks = _unique_rows(rows[:, :n])
        return ks[ks.any(axis=1)]

    def series_of(parts, real=False):
        return TFSeries.from_rows(dims, budgets, np.concatenate([r for r, _ in parts]),
                                  np.concatenate([c for _, c in parts]), real)

    low = _classes(R_low, dims)
    # Part 1: zero-mode quadratics, 3b^2 block per k != 0
    ks = nonzero_ks(rows_of(_Z0Z0, low))
    F = [solve_blocks("R1", "part1", ks, [None] * len(ks), R_low)]
    # Part 2: normal-tail quadratics, scalar divisors
    F.append(solve_scalar("part2", rows_of(_TT, low), R_low))
    # Part 3: mixed zero/tail quadratics, 4b block per (k, j)
    rows = rows_of(_Z0T, low)
    groups = _unique_rows(np.column_stack([rows[:, :n], (rows[:, tz] + rows[:, tzb]) @ np.arange(len(tail))]))
    F.append(solve_blocks("R3", "part3", groups[:, :n], [tail[p] for p in groups[:, n]], R_low))

    # corrections for parts 4/5 come from the bracket with what is solved
    N_series = N.to_series(dims, budgets)
    corr = poisson_bracket(N_series, series_of(F))
    both = (low, _classes(corr, dims))
    # Part 4: zero-mode linears, 2b block per k != 0
    ks = nonzero_ks(rows_of(_Z0, *both))
    part4 = solve_blocks("R4", "part4", ks, [None] * len(ks), R_low, corr)
    F.append(part4)
    # Part 5: tail linears, scalar divisors, corrected by part 3
    F.append(solve_scalar("part5", _unique_rows(rows_of(_T, *both)), R_low, corr))
    # Part 6: y, then x coefficients; x corrected by part 4
    corr6 = poisson_bracket(N_series, series_of([part4]))
    rows = np.concatenate([rows_of(_Y, low), _unique_rows(rows_of(_X, low, _classes(corr6, dims)))])
    F.append(solve_scalar("part6", rows, R_low, corr6))

    F = series_of(F, R_low.real)
    NF = poisson_bracket(N_series, F)
    rest = hom_residual(NF, R_low, Nhat, dims)
    return F, Nhat, SolveReport(counts, margin, residual=vector_field_norm(rest, dp),
                                xF_norm=vector_field_norm(F, dp), bracket=NF, remainder=rest)


def hom_residual(NF, R_low, Nhat, dims):
    """The series {N, F} + R_low - Nhat that the solve leaves, given the
    bracket NF = {N, F}; its vector-field norm is the certified residual."""
    return NF + R_low - Nhat.to_series(dims, R_low.budgets)
