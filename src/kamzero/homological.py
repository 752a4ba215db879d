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

The module also holds the one catalogue of small-divisor conditions
(``condition_catalogue`` over the l1 lattice ``k_lattice``): families KL,
R1, R3 and R4 with their thresholds.  ``check_nonresonance`` evaluates it
at one parameter sample (the solver gate), ``measure.estimate_excluded``
over a parameter grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .matrixkit import SingularSystem, commutation_matrix, det_modulus, kron, solve_dense, unvec, vec
from .series import TFSeries, make_key, poisson_bracket, vector_field_norm


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

    def copy(self):
        return NormalForm(self.Nx, self.omega.copy(), dict(self.Omega),
                          self.Nz0.copy(), self.Nzb0.copy(), self.Nz0z0.copy(),
                          self.Nz0zb0.copy(), self.Nzb0zb0.copy())

    @property
    def b(self):
        return len(self.Nz0)

    def accumulate(self, hat):
        """N + Nhat: frequency updates and block sums for the next step."""
        out = self.copy()
        out.Nx = self.Nx + hat.Nx
        out.omega = self.omega + hat.omega
        for j, v in hat.Omega.items():
            out.Omega[j] = out.Omega.get(j, 0.0) + v
        out.Nz0 = self.Nz0 + hat.Nz0
        out.Nzb0 = self.Nzb0 + hat.Nzb0
        out.Nz0z0 = self.Nz0z0 + hat.Nz0z0
        out.Nz0zb0 = self.Nz0zb0 + hat.Nz0zb0
        out.Nzb0zb0 = self.Nzb0zb0 + hat.Nzb0zb0
        return out

    def max_block_abs(self):
        vals = [np.abs(self.Nz0).max(initial=0.0), np.abs(self.Nzb0).max(initial=0.0),
                np.abs(self.Nz0z0).max(initial=0.0), np.abs(self.Nz0zb0).max(initial=0.0),
                np.abs(self.Nzb0zb0).max(initial=0.0)]
        return max(vals)

    def to_series(self, dims, budgets, real=True):
        """Expand the structured block into a TFSeries."""
        terms = {}
        n = dims.n
        zm = dims.zero_modes
        if self.Nx != 0:
            terms[make_key(n)] = complex(self.Nx)
        for bidx in range(n):
            w = self.omega[bidx]
            if w != 0:
                alpha = tuple(1 if i == bidx else 0 for i in range(n))
                terms[make_key(n, alpha=alpha)] = complex(w)
        for j, om in self.Omega.items():
            if om != 0:
                terms[make_key(n, beta={j: 1}, gamma={j: 1})] = complex(om)
        for i, mode in enumerate(zm):
            if self.Nz0[i] != 0:
                terms[make_key(n, beta={mode: 1})] = complex(self.Nz0[i])
            if self.Nzb0[i] != 0:
                terms[make_key(n, gamma={mode: 1})] = complex(self.Nzb0[i])
        b = self.b
        for i in range(b):
            for l in range(b):
                S = self.Nz0z0[i, l]
                if S != 0 and l >= i:
                    coef = S if i == l else self.Nz0z0[i, l] + self.Nz0z0[l, i]
                    key = make_key(n, beta=((zm[i], 1), (zm[l], 1)) if i != l else {zm[i]: 2})
                    terms[key] = terms.get(key, 0j) + complex(coef)
                T = self.Nzb0zb0[i, l]
                if T != 0 and l >= i:
                    coef = T if i == l else self.Nzb0zb0[i, l] + self.Nzb0zb0[l, i]
                    key = make_key(n, gamma=((zm[i], 1), (zm[l], 1)) if i != l else {zm[i]: 2})
                    terms[key] = terms.get(key, 0j) + complex(coef)
                M = self.Nz0zb0[i, l]
                if M != 0:
                    key = make_key(n, beta={zm[l]: 1}, gamma={zm[i]: 1})
                    terms[key] = terms.get(key, 0j) + complex(M)
        return TFSeries(dims, budgets, terms, real=real)


# ---------------------------------------------------------------------------
# key classification
# ---------------------------------------------------------------------------

def _key_class(key, zero_set):
    """Class tag of a low-degree key: which Part of the solve owns it."""
    nb = sum(e for _, e in key.beta)
    ng = sum(e for _, e in key.gamma)
    na = sum(key.alpha)
    if na == 1 and nb == 0 and ng == 0:
        return "y"
    if na == 0 and nb == 0 and ng == 0:
        return "x"
    bz = sum(e for m, e in key.beta if m in zero_set)
    gz = sum(e for m, e in key.gamma if m in zero_set)
    bt, gt = nb - bz, ng - gz
    if nb + ng == 1:
        if bz:
            return "z0"
        if gz:
            return "zb0"
        return "z" if bt else "zb"
    if nb + ng == 2:
        if bz + gz == 2:
            return {(2, 0): "z0z0", (1, 1): "z0zb0", (0, 2): "zb0zb0"}[(bz, gz)]
        if bz + gz == 1:
            if bz:
                return "z0z" if bt else "z0zb"
            return "zb0z" if bt else "zb0zb"
        return {(2, 0): "zz", (1, 1): "zzb", (0, 2): "zbzb"}[(bt, gt)]
    raise ValueError("key %r is not low degree" % (key,))


_PRESERVED_AT_K0 = {"x", "y", "z0", "zb0", "z0z0", "z0zb0", "zb0zb0"}


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
        Z = np.zeros((b * b, b * b))
        row1 = [kw * Ibb + kron(Ib, M.T) + kron(M.T, Ib),
                -(kron(Ib, S) + kron(S, Ib) @ P), Z]
        row2 = [4 * kron(Ib, T),
                kw * Ibb + kron(M.T, Ib) - kron(Ib, M), -4 * kron(S, Ib)]
        row3 = [Z, kron(Ib, T) @ P + kron(T, Ib),
                kw * Ibb - (kron(Ib, M) + kron(M, Ib))]
        return 1j * np.block([row1, row2, row3])
    if family == "B":
        if j is None or Omega_j is None:
            raise ValueError("family B needs the tail mode j and Omega_j")
        Z = np.zeros((b, b))
        om = float(Omega_j)
        rows = [
            [(kw + om) * Ib + M.T, Z, -2 * S, Z],
            [Z, (kw - om) * Ib + M.T, Z, -2 * S],
            [2 * T, Z, (kw + om) * Ib - M, Z],
            [Z, 2 * T, Z, (kw - om) * Ib - M],
        ]
        return 1j * np.block(rows)
    if family == "C":
        return 1j * np.block([[kw * Ib + M.T, -2 * S],
                              [2 * T, kw * Ib - M]])
    raise ValueError("unknown family %r" % (family,))


# ---------------------------------------------------------------------------
# the small-divisor condition catalogue
# ---------------------------------------------------------------------------

FAMILIES = ("KL", "R1", "R3", "R4")
_LATTICE_CAP = 6_000_000


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
    d = params.d
    if "KL" in families:
        lopts = [((), 0.0, 1.0)]
        for j in tail:
            wj = max(1.0, float(j) ** d)
            lopts += [(((j, 1),), Om[j], wj), (((j, -1),), -Om[j], wj)]
        for a, ja in enumerate(tail):
            for jc in tail[a:]:
                ld = max(1.0, float(ja ** d + jc ** d))
                lv = ((ja, 2),) if ja == jc else ((ja, 1), (jc, 1))
                lopts += [(lv, Om[ja] + Om[jc], ld),
                          (tuple((m, -e) for m, e in lv), -(Om[ja] + Om[jc]), ld)]
                if ja != jc:
                    ldm = max(1.0, abs(float(ja ** d - jc ** d)))
                    lopts += [(((ja, 1), (jc, -1)), Om[ja] - Om[jc], ldm),
                              (((ja, -1), (jc, 1)), Om[jc] - Om[ja], ldm)]
        conds += [Condition("KL", lv, params.gamma_m * ld, params.tau, np.array([c]))
                  for lv, c, ld in lopts]
    if N.b == 0:
        return conds
    zk = np.zeros(dims.n)
    if "R1" in families:
        conds.append(Condition("R1", None, params.gamma_1m, params.tau_1,
                               np.linalg.eigvals(assemble_block_operator("A", N, zk))))
    if "R3" in families:
        for j in tail:
            if j <= 2 * kmax:
                B = assemble_block_operator("B", N, zk, j=j, Omega_j=Om[j])
                conds.append(Condition("R3", ((j, 1),), params.gamma_3m, params.tau_3,
                                       np.linalg.eigvals(B), kmin=0))
    if "R4" in families:
        conds.append(Condition("R4", None, params.gamma_4m, params.tau_4,
                               np.linalg.eigvals(assemble_block_operator("C", N, zk))))
    return conds


def k_powers(conds, kabs):
    """max(|k|, 1)^tau for every exponent tau the conditions use."""
    return {tau: np.maximum(kabs, 1).astype(float) ** tau for tau in {c.tau for c in conds}}


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


# ---------------------------------------------------------------------------
# coefficient <-> block extraction
# ---------------------------------------------------------------------------

def _pair_key(n, k, mode_a, bar_a, mode_b, bar_b):
    beta = []
    gamma = []
    for mode, bar in ((mode_a, bar_a), (mode_b, bar_b)):
        (gamma if bar else beta).append(mode)
    bmap = {}
    gmap = {}
    for m in beta:
        bmap[m] = bmap.get(m, 0) + 1
    for m in gamma:
        gmap[m] = gmap.get(m, 0) + 1
    return make_key(n, k=k, beta=bmap, gamma=gmap)


def _quad_form_matrices(series, dims, k):
    """Read the three zero-mode quadratic form blocks at Fourier mode k."""
    zm = dims.zero_modes
    b = len(zm)
    n = dims.n
    S = np.zeros((b, b), dtype=complex)
    M = np.zeros((b, b), dtype=complex)
    T = np.zeros((b, b), dtype=complex)
    for i in range(b):
        for l in range(b):
            if l >= i:
                c = series.coefficient(_pair_key(n, k, zm[i], False, zm[l], False))
                S[i, l] = S[l, i] = c if i == l else c / 2
                c = series.coefficient(_pair_key(n, k, zm[i], True, zm[l], True))
                T[i, l] = T[l, i] = c if i == l else c / 2
            M[i, l] = series.coefficient(_pair_key(n, k, zm[l], False, zm[i], True))
    return S, M, T


def _write_quad_forms(F, dims, k, S, M, T):
    """Write the three blocks at Fourier mode k into the term dict F."""
    zm = dims.zero_modes
    b = len(zm)
    n = dims.n
    for i in range(b):
        for l in range(i, b):
            cs = S[i, i] if i == l else S[i, l] + S[l, i]
            ct = T[i, i] if i == l else T[i, l] + T[l, i]
            if cs != 0:
                F[_pair_key(n, k, zm[i], False, zm[l], False)] = cs
            if ct != 0:
                F[_pair_key(n, k, zm[i], True, zm[l], True)] = ct
    for i in range(b):
        for l in range(b):
            if M[i, l] != 0:
                F[_pair_key(n, k, zm[l], False, zm[i], True)] = M[i, l]


def extract_hat(R_low, dims):
    """Collect the preserved k = 0 means of R_low into a NormalForm increment."""
    n = dims.n
    zm = dims.zero_modes
    b = len(zm)
    hat = NormalForm.zero(n, b)
    k0 = (0,) * n
    hat.Nx = R_low.coefficient(make_key(n))
    omega_hat = np.zeros(n, dtype=float)
    for bidx in range(n):
        alpha = tuple(1 if i == bidx else 0 for i in range(n))
        omega_hat[bidx] = R_low.coefficient(make_key(n, alpha=alpha)).real
    hat.omega = omega_hat
    for i, mode in enumerate(zm):
        hat.Nz0[i] = R_low.coefficient(make_key(n, beta={mode: 1}))
        hat.Nzb0[i] = R_low.coefficient(make_key(n, gamma={mode: 1}))
    hat.Nz0z0, hat.Nz0zb0, hat.Nzb0zb0 = _quad_form_matrices(R_low, dims, k0)
    for j in dims.tail_modes:
        c = R_low.coefficient(make_key(n, beta={j: 1}, gamma={j: 1}))
        if c != 0:
            hat.Omega[j] = c.real
    return hat


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

    def count(self, part):
        self.solve_counts[part] = self.solve_counts.get(part, 0) + 1


def _group_by_k(keys):
    out = {}
    for key in keys:
        out.setdefault(key.k, []).append(key)
    return out


def solve_homological(N, R_low, params, dims, dp=None):
    """Solve {N, F} + R_low = Nhat in the six-part order.

    ``params`` provides the step data (gamma_m, tau, K_m and the per-family
    gamma_im / tau_i); the caller is expected to have run
    ``check_nonresonance`` first.  Divisor guards still protect every solve:
    a divisor or block determinant at or below half the matching
    non-resonance threshold raises ResonantParameter.

    Returns (F, Nhat, SolveReport).  When ``dp`` is given the report
    includes the bracket {N, F}, the residual ||{N,F} + R_low - Nhat||
    certified with it, and the measured norm constant of the generating
    function.
    """
    n = dims.n
    zero_set = set(dims.zero_modes)
    b = len(dims.zero_modes)
    report = SolveReport()
    F = {}                        # the generating function's terms, solved part by part
    Nhat = extract_hat(R_low, dims)
    k0 = (0,) * n

    gamma = params.gamma_m
    tau = params.tau

    def kpowval(k, texp):
        return max(1.0, float(sum(abs(v) for v in k))) ** texp

    def scalar_solve(key, rhs, lvec, ld):
        kw = float(np.dot(key.k, N.omega))
        shift = sum(N.Omega.get(m, 0.0) * e for m, e in key.beta if m not in zero_set)
        shift -= sum(N.Omega.get(m, 0.0) * e for m, e in key.gamma if m not in zero_set)
        div = 1j * (kw + shift)
        thr = gamma * ld / kpowval(key.k, tau)
        if abs(div) <= 0.5 * thr:
            raise ResonantParameter(ResonanceCondition("KL", key.k, lvec, thr, abs(div)))
        report.min_divisor_margin = min(report.min_divisor_margin, abs(div) / thr)
        return rhs / div

    def block_solve(family, A, rhs, k, tau_i, gamma_i, lvec=None):
        thr = gamma_i / kpowval(k, tau_i)
        dm = det_modulus(A)
        fam = {"A": "R1", "B": "R3", "C": "R4"}[family]
        if dm <= 0.5 * thr:
            raise ResonantParameter(ResonanceCondition(fam, k, lvec, thr, dm))
        report.min_divisor_margin = min(report.min_divisor_margin, dm / thr)
        try:
            return solve_dense(A, rhs, singular_tol=0.5 * thr)
        except SingularSystem as err:
            raise ResonantParameter(
                ResonanceCondition(fam, k, lvec, thr, err.det_modulus)) from err

    # class buckets of the input
    buckets = {}
    for key, c in R_low.terms.items():
        buckets.setdefault(_key_class(key, zero_set), {})[key] = c

    # Part 1: zero-mode quadratics, per k != 0, straightened 3b^2 system
    part1_ks = set()
    for tag in ("z0z0", "z0zb0", "zb0zb0"):
        part1_ks.update(key.k for key in buckets.get(tag, ()))
    part1_ks.discard(k0)
    for k in sorted(part1_ks):
        RS, RM, RT = _quad_form_matrices(R_low, dims, k)
        A = assemble_block_operator("A", N, np.asarray(k))
        rhs = np.concatenate([vec(RS), vec(RM), vec(RT)])
        sol = block_solve("A", A, rhs, k, params.tau_1, params.gamma_1m)
        U = unvec(sol[:b * b], b, b)
        V = unvec(sol[b * b:2 * b * b], b, b)
        W = unvec(sol[2 * b * b:], b, b)
        _write_quad_forms(F, dims, k, U, V, W)
        report.count("part1")

    # Part 2: normal-tail quadratics, scalar divisors
    for tag, lsign in (("zz", (1, 1)), ("zzb", (1, -1)), ("zbzb", (-1, -1))):
        for key, c in buckets.get(tag, {}).items():
            modes = [(m, e, +1) for m, e in key.beta if m not in zero_set]
            modes += [(m, e, -1) for m, e in key.gamma if m not in zero_set]
            lvec = tuple((m, sgn * e) for m, e, sgn in modes)
            if key.k == k0 and tag == "zzb" and len(key.beta) == 1 and key.beta == key.gamma:
                continue  # diagonal mean, preserved in Nhat
            ld = max(1.0, abs(sum(float(m) ** params.d * e for m, e in lvec)))
            F[key] = scalar_solve(key, c, lvec, ld)
            report.count("part2")

    # Part 3: mixed zero/tail quadratics, 4b block per (k, j)
    part3 = {}
    for tag in ("z0z", "z0zb", "zb0z", "zb0zb"):
        for key in buckets.get(tag, ()):
            jt = [m for m, _ in key.beta + key.gamma if m not in zero_set][0]
            part3.setdefault((key.k, jt), None)
    for (k, j) in sorted(part3):
        rhs = np.zeros(4 * b, dtype=complex)
        for slot, (zbar0, tbar) in enumerate(((False, False), (False, True),
                                              (True, False), (True, True))):
            for i, mode in enumerate(dims.zero_modes):
                key = _pair_key(n, k, mode, zbar0, j, tbar)
                rhs[slot * b + i] = R_low.coefficient(key)
        A = assemble_block_operator("B", N, np.asarray(k), j=j, Omega_j=N.Omega[j])
        sol = block_solve("B", A, rhs, k, params.tau_3, params.gamma_3m, lvec=((j, 1),))
        for slot, (zbar0, tbar) in enumerate(((False, False), (False, True),
                                              (True, False), (True, True))):
            for i, mode in enumerate(dims.zero_modes):
                c = sol[slot * b + i]
                if c != 0:
                    F[_pair_key(n, k, mode, zbar0, j, tbar)] = c
        report.count("part3")

    # corrections for parts 4/5 come from the bracket with what is solved
    N_series = N.to_series(dims, R_low.budgets)
    corr = poisson_bracket(N_series, TFSeries(dims, R_low.budgets, F))

    def rhs_with_corr(key):
        return R_low.coefficient(key) + corr.coefficient(key)

    # Part 4: zero-mode linears, 2b block per k != 0
    part4_ks = set()
    for src in (buckets.get("z0", ()), buckets.get("zb0", ())):
        part4_ks.update(key.k for key in src)
    for key in corr.terms:
        if _key_class_safe(key, zero_set) in ("z0", "zb0"):
            part4_ks.add(key.k)
    part4_ks.discard(k0)
    for k in sorted(part4_ks):
        rhs = np.zeros(2 * b, dtype=complex)
        for i, mode in enumerate(dims.zero_modes):
            rhs[i] = rhs_with_corr(make_key(n, k=k, beta={mode: 1}))
            rhs[b + i] = rhs_with_corr(make_key(n, k=k, gamma={mode: 1}))
        A = assemble_block_operator("C", N, np.asarray(k))
        sol = block_solve("C", A, rhs, k, params.tau_4, params.gamma_4m)
        for i, mode in enumerate(dims.zero_modes):
            if sol[i] != 0:
                F[make_key(n, k=k, beta={mode: 1})] = sol[i]
            if sol[b + i] != 0:
                F[make_key(n, k=k, gamma={mode: 1})] = sol[b + i]
        report.count("part4")

    # Part 5: tail linears, scalar divisors, corrected by part 3
    part5 = set()
    for src in (buckets.get("z", ()), buckets.get("zb", ())):
        part5.update(src)
    for key in corr.terms:
        if _key_class_safe(key, zero_set) in ("z", "zb"):
            part5.add(key)
    for key in sorted(part5):
        barred = bool(key.gamma)
        j = (key.gamma if barred else key.beta)[0][0]
        lvec = ((j, -1 if barred else 1),)
        ld = max(1.0, float(j) ** params.d)
        val = scalar_solve(key, rhs_with_corr(key), lvec, ld)
        if val != 0:
            F[key] = val
        report.count("part5")

    # Part 6: x and y coefficients; x corrected by part 4
    for key, c in buckets.get("y", {}).items():
        if key.k == k0:
            continue
        F[key] = scalar_solve(key, c, (), 1.0)
        report.count("part6")
    zero_linear = {key: c for key, c in F.items()
                   if _key_class_safe(key, zero_set) in ("z0", "zb0")}
    corr6 = poisson_bracket(N_series, TFSeries(dims, R_low.budgets, zero_linear))
    part6_ks = set(key.k for key in buckets.get("x", ()))
    part6_ks.update(key.k for key in corr6.terms if _key_class_safe(key, zero_set) == "x")
    part6_ks.discard(k0)
    for k in sorted(part6_ks):
        key = make_key(n, k=k)
        val = scalar_solve(key, R_low.coefficient(key) + corr6.coefficient(key), (), 1.0)
        if val != 0:
            F[key] = val
        report.count("part6")

    F = TFSeries(dims, R_low.budgets, F, real=R_low.real)
    F.prune()
    if dp is not None:
        report.bracket = poisson_bracket(N_series, F)
        report.residual = hom_residual(report.bracket, R_low, Nhat, dp, dims)
        report.xF_norm = vector_field_norm(F, dp)
        rnorm = vector_field_norm(R_low, dp)
        if rnorm > 0 and report.xF_norm > 0:
            # log space: the K power can dwarf double range for b >= 2
            kd = max(params.K_m, 1.0)
            kexp = (10 * b * b + 2) * tau + 10 * b * b
            logc = (np.log(report.xF_norm) + 6 * np.log(gamma)
                    - kexp * np.log(kd) + (n + 1) * np.log(params.s_gap)
                    - np.log(rnorm))
            report.estimate_constant = float(np.exp(logc)) if logc < 700 else np.inf
    return F, Nhat, report


def _key_class_safe(key, zero_set):
    try:
        return _key_class(key, zero_set)
    except ValueError:
        return None


def hom_residual(NF, R_low, Nhat, dp, dims):
    """Vector-field norm of {N, F} + R_low - Nhat, given the bracket NF = {N, F}."""
    return vector_field_norm(NF + R_low - Nhat.to_series(dims, R_low.budgets), dp)
