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
the bracket by construction; ``hom_residual`` certifies it.

The solve works on key rows: a row's class comes from column sums (action
degree, zero-mode and tail z-degree), the scalar classes are divided row
by row, and each block family reads its right sides and writes its
solution through a *slot layout* (its key rows in the operator's order).

The module also holds the one catalogue of small-divisor conditions
(``condition_catalogue`` over the l1 lattice ``k_lattice``): families KL,
R1, R3 and R4, each with its block operator, scale and exponent named once
in ``FAMILY_TABLE``.  ``check_nonresonance`` evaluates it at one parameter
sample (the solver gate), ``measure.estimate_excluded`` over a parameter
grid, and the solver's divisor guards read the same thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

    def to_series(self, dims, budgets, real=True):
        """Expand the structured block into a TFSeries."""
        values = np.concatenate([[self.Nx], self.omega,
                                 [self.Omega.get(j, 0.0) for j in dims.tail_modes],
                                 self.Nz0, self.Nzb0, vec(self.Nz0z0), vec(self.Nz0zb0),
                                 vec(self.Nzb0zb0)])
        return TFSeries.from_rows(dims, budgets, _nf_slots(dims)[0], values, real)


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

def assemble_block_operator(family, N, kvec, j=None, Omega_j=None):
    """Dense matrix of the within-class operator at Fourier mode k.

    family 'A' couples the three zero-mode quadratic blocks through column
    straightening (3b^2 unknowns); 'B' couples the four mixed zero/tail
    coefficient vectors at a tail mode j (4b unknowns, needs Omega_j); 'C'
    couples the two zero-mode linear vectors (2b unknowns).  In each case
    the matrix is i<k,omega> I plus Kronecker lifts of the zero-mode
    quadratic blocks of N, and it equals the action of F -> -{N, F}
    restricted to the class.
    """
    b = N.b
    kw = float(np.dot(kvec, N.omega)) if len(kvec) else 0.0
    S = N.Nz0z0
    M = N.Nz0zb0
    T = N.Nzb0zb0
    Ib = np.eye(b)
    if family == "A":
        P = commutation_matrix(b)
        Ibb = np.eye(b * b)
        blocks = [[kw * Ibb + kron(Ib, M.T) + kron(M.T, Ib),
                   -(kron(Ib, S) + kron(S, Ib) @ P), None],
                  [4 * kron(Ib, T),
                   kw * Ibb + kron(M.T, Ib) - kron(Ib, M), -4 * kron(S, Ib)],
                  [None, kron(Ib, T) @ P + kron(T, Ib),
                   kw * Ibb - (kron(Ib, M) + kron(M, Ib))]]
    elif family == "B":
        if j is None or Omega_j is None:
            raise ValueError("family B needs the tail mode j and Omega_j")
        om = float(Omega_j)
        blocks = [[(kw + om) * Ib + M.T, None, -2 * S, None],
                  [None, (kw - om) * Ib + M.T, None, -2 * S],
                  [2 * T, None, (kw + om) * Ib - M, None],
                  [None, 2 * T, None, (kw - om) * Ib - M]]
    elif family == "C":
        blocks = [[kw * Ib + M.T, -2 * S],
                  [2 * T, kw * Ib - M]]
    else:
        raise ValueError("unknown family %r" % (family,))
    d = len(blocks[0][0])     # one preallocated matrix; None blocks stay zero
    out = np.zeros((len(blocks) * d,) * 2, dtype=complex)
    for r, row in enumerate(blocks):
        for c, blk in enumerate(row):
            if blk is not None:
                out[r * d:(r + 1) * d, c * d:(c + 1) * d] = blk
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


def _scale_tau(params, family):
    """Threshold scale and exponent of ``family``, read from ``params``."""
    _, scale, tau = FAMILY_TABLE[family]
    return getattr(params, scale), getattr(params, tau)


def l_weight(L, tail, d):
    """The KL weight <l>_d = max(1, |sum_j j^d l_j|) of every row l of ``L``
    (one column per mode of ``tail``)."""
    return np.maximum(1.0, np.abs(L @ np.array([float(j) ** d for j in tail])))


def _kpow(kabs, tau):
    """max(|k|, 1)^tau."""
    return np.maximum(kabs, 1).astype(float) ** tau


def _kl_options(t):
    """Every l on t tail modes with 0 <= |l| <= 2, one row each, in gate order."""
    e = np.eye(t, dtype=np.int64)
    opts = [np.zeros(t, dtype=np.int64)] + [sign * e[a] for a in range(t) for sign in (1, -1)]
    for a in range(t):
        for c in range(a, t):
            opts += [e[a] + e[c], -e[a] - e[c]] + ([e[a] - e[c], e[c] - e[a]] if a != c else [])
    return np.array(opts).reshape(len(opts), t)


def k_lattice(n, kmax):
    """All integer vectors with |k|_1 <= kmax, in lexicographic order.

    Built one coordinate at a time, so only the l1 ball is ever held.  A
    ball of more than 6,000,000 points raises BudgetExhausted.
    """
    r = max(int(np.floor(kmax)), 0)
    size = sum(2 ** i * math.comb(n, i) * math.comb(r, i) for i in range(min(n, r) + 1))
    if size > _LATTICE_CAP:
        raise BudgetExhausted("the k-lattice |k| <= %d in dimension %d has %d points,"
                              " above the cap of %d" % (r, n, size, _LATTICE_CAP))
    lat = np.zeros((1, 0), dtype=int)
    for _ in range(n):
        rem = r - np.abs(lat).sum(axis=1)
        width = 2 * rem + 1
        col = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width + rem, width)
        lat = np.column_stack([np.repeat(lat, width, axis=0), col])
    return lat


@dataclass(frozen=True)
class Condition:
    """One small-divisor condition: |value(<k, omega>)| >= scale / |k|^tau.

    For family KL the value is |kw + <l, Omega>| (``roots`` holds the one
    shift); for R1/R3/R4 it is the determinant modulus |det(i kw I + B)| =
    prod |i kw + mu| over the eigenvalues ``roots`` of the k = 0 block B.
    The solver tests it for kmin <= |k|.
    """

    family: str
    l: tuple | None
    scale: float
    tau: float
    roots: np.ndarray
    kmin: int = 1

    def value(self, kw):
        """Measured value at every entry of the array kw = <k, omega>."""
        if self.family == "KL":
            return np.abs(kw + self.roots[0])
        det = np.abs(1j * kw + self.roots[0])
        for mu in self.roots[1:]:
            det *= np.abs(1j * kw + mu)
        return det


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
        L = _kl_options(len(tail))
        shifts = L @ np.array([Om[j] for j in tail], dtype=float)
        scale, tau = _scale_tau(params, "KL")
        conds += [Condition("KL", _l_tuple(tail, l), float(scale * w), tau, np.array([c]))
                  for l, c, w in zip(L, shifts, l_weight(L, tail, params.d))]
    if N.b == 0:
        return conds
    zk = np.zeros(dims.n)

    def block_condition(family, j=None, l=None, kmin=1):
        scale, tau = _scale_tau(params, family)
        op = assemble_block_operator(FAMILY_TABLE[family][0], N, zk, j=j,
                                     Omega_j=None if j is None else Om[j])
        return Condition(family, l, scale, tau, np.linalg.eigvals(op), kmin)

    if "R1" in families:
        conds.append(block_condition("R1"))
    if "R3" in families:
        conds += [block_condition("R3", j, ((j, 1),), kmin=0) for j in tail if j <= 2 * kmax]
    if "R4" in families:
        conds.append(block_condition("R4"))
    return conds


def k_powers(conds, kabs):
    """max(|k|, 1)^tau for every exponent tau the conditions use."""
    return {tau: _kpow(kabs, tau) for tau in {c.tau for c in conds}}


def check_nonresonance(N, params, dims, families=FAMILIES):
    """Evaluate the condition catalogue at this sample for |k| <= K_m.

    Returns the list of violated ResonanceCondition records (empty means
    the sample passes), ordered by family, then l, then lattice index.
    """
    lat = k_lattice(dims.n, params.K_m)
    kabs = np.abs(lat).sum(axis=1)
    kw = lat @ N.omega
    conds = condition_catalogue(N, params, dims, params.K_m, families)
    kpow = k_powers(conds, kabs)
    failures = []
    for cond in conds:
        thr = cond.scale / kpow[cond.tau]
        meas = cond.value(kw)
        for i in np.flatnonzero((kabs >= cond.kmin) & (meas < thr)):
            failures.append(ResonanceCondition(cond.family, tuple(int(v) for v in lat[i]),
                                               cond.l, float(thr[i]), float(meas[i])))
    return failures


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

@dataclass
class SolveReport:
    solve_counts: dict = field(default_factory=dict)
    min_divisor_margin: float = np.inf
    residual: float | None = None
    xF_norm: float | None = None
    estimate_constant: float | None = None
    bracket: TFSeries | None = None     # {N, F}, formed for the residual when dp is given


def solve_homological(N, R_low, params, dims, dp=None):
    """Solve {N, F} + R_low = Nhat in the six-part order.

    ``params`` provides the step data (gamma_m, tau, K_m and the per-family
    gamma_im / tau_i); the caller is expected to have run
    ``check_nonresonance`` first.  Divisor guards still protect every solve:
    a divisor or block determinant at or below half the matching
    non-resonance threshold raises ResonantParameter (the first one in part
    order, then in row order).

    Returns (F, Nhat, SolveReport).  When ``dp`` is given the report
    includes the bracket {N, F}, the residual ||{N,F} + R_low - Nhat||
    certified with it, and the measured norm constant of the generating
    function.
    """
    n, b, nm = dims.n, dims.b, len(dims.modes)
    tail = dims.tail_modes
    tz, tzb = slice(2 * n + b, 2 * n + nm), slice(2 * n + nm + b, None)   # tail columns
    budgets = R_low.budgets
    report = SolveReport()
    Nhat = extract_hat(R_low, dims)
    Om_tail = np.array([N.Omega.get(j, 0.0) for j in tail])
    empty = (R_low.rows[:0], R_low.coefs[:0])

    def lookup(rows, *series):
        return sum(S.coefficients_at(rows) for S in series)

    def guard(family, measured, thr, k, l):
        # raise at a divisor at or below half its threshold, else record the margin
        measured, thr = float(measured), float(thr)
        if measured <= 0.5 * thr:
            raise ResonantParameter(ResonanceCondition(family, tuple(map(int, k)), l, thr, measured))
        report.min_divisor_margin = min(report.min_divisor_margin, measured / thr if thr > 0 else np.inf)

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
        thr = scale * l_weight(l, tail, params.d) / _kpow(np.abs(k).sum(axis=1), tau)
        # guard the first violation in row order, else the smallest margin
        measured = np.abs(div)
        bad = measured <= 0.5 * thr
        with np.errstate(over="ignore", divide="ignore"):
            i = np.argmax(bad) if bad.any() else np.argmin(measured / thr)
        guard("KL", measured[i], thr[i], k[i], _l_tuple(tail, l[i]))
        report.solve_counts[part] = len(rows)
        # rhs / (i div) in real arithmetic
        return rows, rhs.imag / div - 1j * (rhs.real / div)

    def solve_blocks(family, part, ks, js, *sources):
        """One dense solve of ``family``'s block per Fourier mode ks[g] (and
        tail mode js[g]), right sides read from the sum of ``sources``."""
        if not len(ks):
            return empty
        block = FAMILY_TABLE[family][0]
        rows = np.concatenate([_layout(dims, block, j)[0] for j in js])
        rows[:, :n] = np.repeat(ks, len(rows) // len(ks), axis=0)
        weights = np.concatenate([_layout(dims, block, j)[1] for j in js])
        rhs = (weights * lookup(rows, *sources)).reshape(len(ks), -1)
        scale, tau = _scale_tau(params, family)
        thr = scale / _kpow(np.abs(ks).sum(axis=1), tau)
        sol = np.empty_like(rhs)
        for g, (k, j) in enumerate(zip(ks, js)):
            l = None if j is None else ((int(j), 1),)
            A = assemble_block_operator(block, N, k, j=j, Omega_j=None if j is None else N.Omega[j])
            dm = det_modulus(A)
            guard(family, dm, thr[g], k, l)
            try:
                sol[g] = solve_dense(A, rhs[g])
            except SingularSystem as err:
                raise ResonantParameter(ResonanceCondition(
                    family, tuple(int(v) for v in k), l, float(thr[g]), dm)) from err
        report.solve_counts[part] = len(ks)
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
    F.prune()
    if dp is not None:
        report.bracket = poisson_bracket(N_series, F)
        report.residual = hom_residual(report.bracket, R_low, Nhat, dp, dims)
        report.xF_norm = vector_field_norm(F, dp)
        rnorm = vector_field_norm(R_low, dp)
        if rnorm > 0 and report.xF_norm > 0:
            # log space: the K power can dwarf double range for b >= 2
            kd = max(params.K_m, 1.0)
            kexp = (10 * b * b + 2) * params.tau + 10 * b * b
            logc = (np.log(report.xF_norm) + 6 * np.log(params.gamma_m)
                    - kexp * np.log(kd) + (n + 1) * np.log(params.s_gap)
                    - np.log(rnorm))
            report.estimate_constant = float(np.exp(logc)) if logc < 700 else np.inf
    return F, Nhat, report


def hom_residual(NF, R_low, Nhat, dp, dims):
    """Vector-field norm of {N, F} + R_low - Nhat, given the bracket NF = {N, F}."""
    return vector_field_norm(NF + R_low - Nhat.to_series(dims, R_low.budgets), dp)
