"""Iteration driver: schedules, the KAM step, and the delta_0 dichotomy.

``iterate`` is the one iteration loop (schedule, domain, ``kam_step``, eps
and radius update).  ``run``, the ``check`` command and the tests that step
by hand consume it; ``run`` adds the verdict logic.

One step first drops from R_m the terms of smallest vector-field majorant
while their sum stays below ``_VF_TRUNC_REL * eps_m`` (``vf_truncate``; the
record carries the dropped majorants' sum), and forms the bracket {R_m, F}
without the product rows whose summed majorant on the outgoing domain fits
that budget (``skip_bound``, ``skip_rows``), then conjugates H_m = N_m + R_m
by the time-1 flow of the generating function solving the homological
equation, updates the frequencies from the k = 0 means, accumulates the
zero-mode normal-form sums, and measures the new perturbation.  The new
perturbation is assembled from the exact decomposition

    R_{m+1} = ({N,F} + R_low - Nhat)            (solver residual)
            + tail + R_high
            + sum_{j>=2} ad_F^j N / j!
            + sum_{j>=1} ad_F^j R / j!

so no O(1) normal-form mass is pushed through a floating-point
cancellation; every piece is of size O(eps) or smaller.  The bracket
{N, F} is the one the solver formed to certify its residual, and both Lie
sums run through ``series.lie_series``.  Brackets and Lie sums cut no
coefficient by its magnitude; the step does so once, at its end
(``TFSeries.prune`` of R_{m+1} at ``_PRUNE_REL``: ``prune_mass`` and
``prune_vf_bound`` in the record).  An R_{m+1} without a finite norm ends
the run as BudgetExhausted.  The step's numerical devices, ``_VF_TRUNC_REL``,
``_MAX_LIE_ORDER``, ``_CHECK_K_CAP``, ``_R_FLOOR_REL`` and ``_PRUNE_REL``,
are module constants, not settings.

The dichotomy monitors delta_0 = sqrt(|J^{z0}|_2^2 + |J^{zbar0}|_2^2)
against 20 eps_{m-1}^{7/6}: persistently below (with eps under the
convergence floor) declares a surviving torus, strictly above triggers the
escape witness of the zero-mode subsystem over t in [0, 1].  The witness
decides from the closed-form linear flow phi1(A0) alpha0 when a Groenwall
bound on R's nonlinear drive clears the escape threshold, and integrates
the subsystem by RK4 only where that bound cannot decide.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .homological import (BudgetExhausted, NormalForm, ResonantParameter,
                          check_nonresonance, solve_homological)
from .matrixkit import op_norm
from .series import (DomainParams, TFSeries, fourier_truncate, lie_series,
                     poisson_bracket, realify, split_low_high, truncated_mass,
                     vector_field_norm, vf_majorants, vf_truncate)


# share of eps_m that a step may drop from R by vector-field majorant
# (``vf_truncate``); 0 keeps every term
_VF_TRUNC_REL = 1e-12
_MAX_LIE_ORDER = 8      # highest order of the step's two Lie sums
_CHECK_K_CAP = 64.0     # |k| cap of the step's gate, and K_m at eps = 0
_R_FLOOR_REL = 1e-2     # floor of the radius recursion, relative to r1
_PRUNE_REL = 1e-16      # the end-of-step prune's cut, relative to max|c|


class PremiseFailed(Exception):
    """The escape-witness flow premise ||A0|| << 1 does not hold."""


@dataclass(frozen=True)
class BaseParams:
    """Step-independent schedule constants."""

    n: int
    b: int
    tau: float
    s1: float
    r1: float
    gamma1: float
    eps1: float = 1e-6
    eps_floor: float = 1e-14

    def __post_init__(self):
        if not self.tau > self.n + 1:
            raise ValueError("tau must exceed n + 1")


@dataclass
class KamParams:
    """Schedule values for one step m."""

    m: int
    s_m: float
    s_next: float
    r_m: float
    gamma_m: float
    eps_m: float
    eta_m: float
    K_m: float
    base: BaseParams

    @property
    def s_gap(self):
        return self.s_m - self.s_next

    @property
    def tau(self):
        return self.base.tau


def _s_of(m, s1):
    # strict-gap variant with floor s1/2: keeps the composition domain
    # nonempty while preserving the geometric gap sizes
    return s1 * (0.5 + 0.5 ** (m + 1))


def scheduled_eps(m, base):
    """The analytic eps_m recursion seeded by eps_1 (log space, capped)."""
    log_eps = math.log(base.eps1)
    for i in range(2, m + 1):
        gam = 0.5 * base.gamma1 * (1.0 + 2.0 ** (-(i - 1) + 1))
        gap = _s_of(i - 1, base.s1) - _s_of(i, base.s1)
        log_eps = (-6 * math.log(gam) + 64 * base.b ** 4 * math.log(i - 1)
                   - (base.n + 1) * math.log(gap) + (4.0 / 3.0) * log_eps)
        if log_eps > 600.0:
            return math.inf
    return math.exp(log_eps)


def schedule(m, base, eps_m=None, r_prev=None):
    """KamParams for step m.

    ``eps_m`` defaults to the analytic recursion; the driver passes the
    measured value.  ``r_prev`` feeds the radius recursion r_m = eta_m
    r_{m-1} / 8 (clamped at the floor ``_R_FLOOR_REL`` r1); at m = 1 the
    base radius is used.
    """
    if m < 1:
        raise ValueError("step index starts at 1")
    s_m = _s_of(m, base.s1)
    s_next = _s_of(m + 1, base.s1)
    gamma_m = 0.5 * base.gamma1 * (1.0 + 2.0 ** (-m + 1))
    eps = scheduled_eps(m, base) if eps_m is None else eps_m
    eta = eps ** (1.0 / 3.0) if eps > 0 else 0.0
    K = abs(math.log(eps)) / (s_m - s_next) if eps > 0 else _CHECK_K_CAP
    K = max(K, 1.0)
    r_m = base.r1 if m == 1 or r_prev is None else _next_radius(eta, r_prev, base)
    return KamParams(m, s_m, s_next, r_m, gamma_m, eps, eta, K, base)


def _next_radius(eta, r, base):
    """The radius recursion eta r / 8, clamped at the floor ``_R_FLOOR_REL`` r1
    and never above r: for eps > 512 (eta > 8) the recursion would grow it."""
    return min(max(eta * r / 8.0, _R_FLOOR_REL * base.r1), r)


# ---------------------------------------------------------------------------
# one step
# ---------------------------------------------------------------------------

@dataclass
class StepRecord:
    m: int
    eps_measured: float
    eps_next: float
    xF_norm: float
    residual: float
    freq_drift: float
    delta0: float
    dropped_mass: float
    prune_mass: float
    prune_vf_bound: float
    vf_trunc_bound: float
    vf_trunc_terms: int
    skip_bound: float
    skip_rows: int
    lie_order: int
    tail_ratio: float
    min_divisor_margin: float
    K_m: float
    gamma_m: float
    s_m: float
    r_m: float
    solve_counts: dict = field(default_factory=dict)


def kam_step(N, R, params, dims, dp, eps_m):
    """One conjugation H_m -> H_{m+1}; returns (N_next, R_next, StepRecord).

    ``eps_m`` is the measured eps that scheduled the step (``iterate``
    passes the norm of R0 on the starting domain, then each step's
    ``eps_next``).

    Raises ResonantParameter when the sample fails a small-divisor
    condition and BudgetExhausted when the scheduled Fourier cut-off
    exceeds the series budget, the condition lattice exceeds its cap, or
    R_{m+1} has no finite norm on the outgoing domain (an overflow).
    """
    base = params.base
    if params.K_m > R.budgets.k_max:
        raise BudgetExhausted("K_m = %.1f exceeds the Fourier budget %d"
                              % (params.K_m, R.budgets.k_max))
    # the step needs R only to the precision of eps_m: the terms of smallest
    # vector-field majorant go while their sum stays below _VF_TRUNC_REL *
    # eps_m, so the step is exact for an R within that distance on dp
    R, vf_bound, vf_terms = vf_truncate(R, dp, _VF_TRUNC_REL * eps_m)

    low, high = split_low_high(R)
    low_trunc, tail, tailrep = fourier_truncate(
        low, min(params.K_m, R.budgets.k_max), dp, sigma=params.s_gap)

    failures = check_nonresonance(
        N, replace(params, K_m=min(params.K_m, _CHECK_K_CAP)), dims)
    if failures:
        raise ResonantParameter(failures[0])

    F, Nhat, srep = solve_homological(N, low_trunc, params, dims, dp=dp)
    N_next = N.accumulate(Nhat)

    # the outgoing domain: eps_next is measured on it (the next schedule
    # recomputes the radius from its own measured eps)
    r_next = _next_radius(params.eta_m, params.r_m, base)
    dp_next = DomainParams(params.s_next, r_next, dp.a, dp.p)

    # exact decomposition of the transformed perturbation
    rem_tol = 0.01 * max(eps_m ** (4.0 / 3.0), 1e-30)
    T1 = srep.bracket  # {N, F}, as certified by the solver's residual
    dropped = truncated_mass(T1)
    R_next = srep.remainder + tail
    lie_used = 1
    skip_bound, skip_rows = 0.0, 0
    if len(F):
        T2 = poisson_bracket(T1, F)
        chainN, droppedN, usedN = lie_series(T2, F, 2, _MAX_LIE_ORDER, dp, rem_tol)
        # {R, F} only to the precision of eps_m on the outgoing domain: the
        # product rows of least majorant are never formed while their
        # summed bound stays below _VF_TRUNC_REL * eps_m
        S1 = poisson_bracket(R, F, dp_next, _VF_TRUNC_REL * eps_m)
        skip_bound, skip_rows = S1.meta["skip_bound"], S1.meta["skip_rows"]
        chainR, droppedR, usedR = lie_series(S1, F, 1, _MAX_LIE_ORDER, dp, rem_tol)
        R_next = R_next + high + chainN + chainR
        dropped += droppedN + droppedR
        lie_used = max(usedN, usedR)
    else:
        R_next = R_next + high
    # the step's one magnitude cut; the majorants of the terms it drops bound
    # how far it moves eps_next
    prune_vf_bound = float(vf_majorants(R_next.select(R_next.prune_mask(_PRUNE_REL)),
                                        dp_next).sum())
    prune_mass = R_next.prune(_PRUNE_REL)
    eps_next = vector_field_norm(R_next, dp_next)
    if not math.isfinite(eps_next):
        raise BudgetExhausted("step %d: the vector-field norm of R_%d on the outgoing domain "
                              "D(s = %g, r = %g) is %r"
                              % (params.m, params.m + 1, params.s_next, r_next, eps_next))

    rec = StepRecord(
        m=params.m,
        eps_measured=eps_m,
        eps_next=eps_next,
        xF_norm=srep.xF_norm,
        residual=srep.residual,
        freq_drift=float(np.max(np.abs(Nhat.omega), initial=0.0)),
        delta0=delta0(N_next),
        dropped_mass=dropped,
        prune_mass=prune_mass,
        prune_vf_bound=prune_vf_bound,
        vf_trunc_bound=vf_bound,
        vf_trunc_terms=vf_terms,
        skip_bound=skip_bound,
        skip_rows=skip_rows,
        lie_order=lie_used,
        tail_ratio=tailrep.ratio,
        min_divisor_margin=float(srep.min_divisor_margin),
        K_m=params.K_m,
        gamma_m=params.gamma_m,
        s_m=params.s_m,
        r_m=params.r_m,
        solve_counts=srep.solve_counts,
    )
    return N_next, R_next, rec


# ---------------------------------------------------------------------------
# dichotomy
# ---------------------------------------------------------------------------

def delta0(N):
    """sqrt(|N^{z0}|_2^2 + |N^{zbar0}|_2^2) for the accumulated sums."""
    return float(np.sqrt(np.sum(np.abs(N.Nz0) ** 2) + np.sum(np.abs(N.Nzb0) ** 2)))


# steps in a row that delta_0 must stay below its threshold for a torus
_CONSECUTIVE = 3


def dichotomy(records, base):
    """Verdict from the step records so far, or None while undecided.

    TorusConverged requires delta_0 strictly below 20 eps_{m-1}^{7/6} for
    ``_CONSECUTIVE`` steps with the measured eps under the convergence floor;
    the no-torus branch fires at the first step with delta_0 strictly above
    the threshold (the caller then runs the escape witness).  Sitting
    exactly on the threshold decides nothing.
    """
    if not records:
        return None
    last = records[-1]
    if last.eps_measured == 0.0 and last.delta0 == 0.0:
        return "TorusConverged"
    thr = 20.0 * last.eps_measured ** (7.0 / 6.0)
    if last.delta0 > thr:
        return "NoTorusCandidate"
    streak = 0
    for rec in records:
        t = 20.0 * rec.eps_measured ** (7.0 / 6.0)
        streak = streak + 1 if rec.delta0 < t else 0
    if streak >= _CONSECUTIVE and last.eps_next < base.eps_floor:
        return "TorusConverged"
    return None


# ---------------------------------------------------------------------------
# escape witness
# ---------------------------------------------------------------------------

def _zero_mode_tables(R, dims):
    """The zero-mode gradients of R at y = 0, tail = 0 and angles 0 as one
    stacked table.

    Returns (E, c, spans): per stacked term its exponents of (z0, zbar0) as
    a column of E and its coefficient.  The terms of dR/dzbar0_i, then
    dR/dz0_i (i < b) are stacked in that order; gradient g owns the terms
    ``spans[g]``.
    """
    n, b, nmodes = dims.n, dims.b, len(dims.modes)
    rows, c = R.rows, R.coefs
    # the zero modes lead the mode universe: their beta and gamma columns
    zcols = np.r_[2 * n:2 * n + b, 2 * n + nmodes:2 * n + nmodes + b]
    tail = np.setdiff1d(np.arange(2 * n, rows.shape[1]), zcols)
    on_zero = ~rows[:, tail].any(axis=1)   # a tail factor vanishes at z = 0
    na = rows[:, n:2 * n].sum(axis=1)
    E = rows[:, zcols]
    exps, coefs = [], []   # per gradient
    for i in np.r_[b:2 * b, :b]:
        sel = on_zero & (na == 0) & (E[:, i] > 0)
        lowered = E[sel]
        lowered[:, i] -= 1
        exps.append(lowered)
        coefs.append(E[sel, i] * c[sel])
    cuts = np.cumsum([0] + [len(e) for e in exps])
    return (np.concatenate([e.T for e in exps], axis=1), np.concatenate(coefs),
            list(zip(cuts[:-1], cuts[1:])))


def _eval_gradients(tables, X):
    """A ``_zero_mode_tables`` table's gradients at X = (z0, zbar0): one power
    and product, one dot per nonempty span."""
    E, c, spans = tables
    g = np.zeros(len(spans), dtype=complex)
    if len(c):
        mon = np.multiply.reduce(X[:, None] ** E, axis=0)
        for i, (lo, hi) in enumerate(spans):
            if hi > lo:
                g[i] = c[lo:hi].dot(mon[lo:hi])
    return g


def _exp_taylor(B, shift=0):
    """sum_k B^k / (k + shift)!: e^B for shift = 0, and for shift = 1
    phi1(B), so that int_0^1 e^{B(1-t)} dt = phi1(B)."""
    out = np.eye(B.shape[0], dtype=complex)
    term = np.eye(B.shape[0], dtype=complex)
    for k in range(1, 40):
        term = term @ B / (k + shift)
        out = out + term
        if np.abs(term).max() < 1e-18:
            break
    return out


# relative margin by which |lin| -+ the flow bound must clear the escape
# threshold for the closed form to decide
_WITNESS_MARGIN = 1e-9
# RK4 steps over t in [0, 1] where the closed form cannot decide
_WITNESS_STEPS = 400


@dataclass
class WitnessRecord:
    escaped: bool
    final_norm: float
    tilde_final_norm: float
    linear_oracle_norm: float
    threshold: float
    ts: list
    norms: list
    A0_norm: float
    bound: float        # the Groenwall bound on |X0(1) - lin|
    path: str           # 'closed_form' or 'rk4': what decided the escape


def no_torus_witness(N, R, dims, eps_prev):
    """Decide whether the zero-mode subsystem escapes over t in [0, 1].

    The subsystem is dX0/dt = alpha0 + A0 X0 + g0, X0(0) = 0, with the
    constant and linear parts read from the accumulated zero-mode sums and
    g0 from R's zero-mode gradients with the angles frozen at 0 (one
    stacked table, ``_zero_mode_tables``).  Escape means the final
    Euclidean norm exceeds 2 eps_{m-1}^{7/6}.

    With g0 = 0 the flow is lin = phi1(A0) alpha0 in closed form, and the
    rest is bounded first.  With a = ||A0||_F, which bounds the
    operator norm, the linear path stays within rho / 2 = e^a |alpha0|; if
    the table's majorant G = sum |c| rho^{|E|} on the ball of radius rho
    gives B = G e^a <= rho / 2, the flow never leaves the ball and
    Groenwall gives |X0(1) - lin| <= B.  When |lin| -+ B clears the
    threshold by the relative margin ``_WITNESS_MARGIN`` the closed form
    decides and ``final_norm`` is |lin|.  Otherwise ``_WITNESS_STEPS`` RK4
    steps integrate the subsystem.  The record carries the bound, the path
    that decided, the straightened coordinate e^{-A0} X0(1) and |lin|.
    """
    b = N.b
    alpha0 = np.concatenate([1j * N.Nzb0, -1j * N.Nz0]).astype(complex)
    A0 = np.block([[1j * N.Nz0zb0, 2j * N.Nzb0zb0],
                   [-2j * N.Nz0z0, -1j * N.Nz0zb0.T]])
    A0_norm = op_norm(A0)
    if A0_norm > 0.25:
        raise PremiseFailed("||A0|| = %.3e is not << 1" % A0_norm)
    threshold = 2.0 * eps_prev ** (7.0 / 6.0)
    tables = _zero_mode_tables(R, dims)
    lin = _exp_taylor(A0, shift=1) @ alpha0
    lin_norm = float(np.linalg.norm(lin))
    growth = math.exp(float(np.linalg.norm(A0)))
    rho = 2.0 * growth * float(np.linalg.norm(alpha0))
    # B = G e^a over the dR/dzbar0, dR/dz0 terms
    E, c, _ = tables
    bound = growth * float(np.abs(c) @ rho ** E.sum(axis=0))
    escaped = None
    if bound <= 0.5 * rho:
        if lin_norm - bound > threshold * (1.0 + _WITNESS_MARGIN):
            escaped = True
        elif lin_norm + bound < threshold * (1.0 - _WITNESS_MARGIN):
            escaped = False
    if escaped is not None:   # the trajectory is known at its two ends
        path, X1, ts, norms = "closed_form", lin, [0.0, 1.0], [0.0, lin_norm]
    else:
        path = "rk4"
        rot = np.repeat([1j, -1j], b)   # dX0/dt gains i dR/dzbar0, -i dR/dz0

        def rhs(X):
            return alpha0 + A0 @ X + rot * _eval_gradients(tables, X)

        h = 1.0 / _WITNESS_STEPS
        X = np.zeros(2 * b, dtype=complex)
        ts = [0.0]
        norms = [0.0]
        for i in range(_WITNESS_STEPS):
            k1 = rhs(X)
            k2 = rhs(X + 0.5 * h * k1)
            k3 = rhs(X + 0.5 * h * k2)
            k4 = rhs(X + h * k3)
            X = X + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            ts.append((i + 1) * h)
            norms.append(float(np.linalg.norm(X)))
        X1 = X
        escaped = norms[-1] > threshold

    rec = WitnessRecord(
        escaped=bool(escaped),
        final_norm=norms[-1],
        tilde_final_norm=float(np.linalg.norm(_exp_taylor(-A0) @ X1)),
        linear_oracle_norm=lin_norm,
        threshold=threshold,
        ts=ts,
        norms=norms,
        A0_norm=A0_norm,
        bound=bound,
        path=path,
    )
    return rec.escaped, rec


# ---------------------------------------------------------------------------
# full run
# ---------------------------------------------------------------------------

@dataclass
class IterationReport:
    verdict: str
    verdict_info: dict
    steps: list
    constants: dict

    def as_dict(self):
        return asdict(self)


def iterate(N0, R0, base, dims, dp0):
    """Run the steps m = 1, 2, ... and yield (m, params, N, R, record) after each.

    Every step schedules from the measured eps and the previous radius, sets
    the domain D(s_m, r_m) and conjugates with ``kam_step``.  A norm of R0
    on ``dp0`` that is not finite raises BudgetExhausted before the first
    step.  ResonantParameter and BudgetExhausted propagate to the consumer,
    which also decides when to stop.
    """
    N, R = N0, R0
    with np.errstate(over="ignore", invalid="ignore"):     # reported as BudgetExhausted
        eps = vector_field_norm(R, dp0)
    if not math.isfinite(eps):
        raise BudgetExhausted("the vector-field norm of R0 on the starting domain "
                              "D(s1 = %g, r1 = %g) is %r" % (dp0.s, dp0.r, eps))
    r_prev = None
    for m in itertools.count(1):
        params = schedule(m, base, eps_m=eps, r_prev=r_prev)
        dp = DomainParams(params.s_m, params.r_m, dp0.a, dp0.p)
        N, R, rec = kam_step(N, R, params, dims, dp, eps)
        eps, r_prev = rec.eps_next, params.r_m
        yield m, params, N, R, rec


def run(N0, R0, base, dims, dp0, max_steps=6):
    """Iterate until a verdict; returns an IterationReport."""
    records = []
    steps = iterate(N0, R0, base, dims, dp0)
    try:
        # zip takes from range first, so no step runs past max_steps
        for _, (m, params, N, R, rec) in zip(range(max_steps), steps):
            records.append(rec)
            state = dichotomy(records, base)
            if state == "TorusConverged":
                verdict = "TorusConverged"
                info = {"m": m, "delta0": rec.delta0, "eps": rec.eps_next}
                break
            if state == "NoTorusCandidate":
                try:
                    escaped, wrec = no_torus_witness(N, R, dims, rec.eps_measured)
                except PremiseFailed as err:
                    verdict = "BudgetExhausted"
                    info = {"m": m, "reason": str(err)}
                    break
                if escaped:
                    verdict = "NoTorusWitnessed"
                    info = {"m": m, "delta0": rec.delta0,
                            "final_norm": wrec.final_norm,
                            "threshold": wrec.threshold,
                            "linear_oracle_norm": wrec.linear_oracle_norm,
                            "witness_bound": wrec.bound,
                            "witness_path": wrec.path}
                    break
        else:
            verdict = "BudgetExhausted"
            info = {"m": max_steps, "reason": "no verdict within max_steps"}
    except ResonantParameter as err:
        verdict = "ResonantSample"
        cond = err.condition
        info = {"m": len(records) + 1, "family": cond.family, "k": list(cond.k),
                "threshold": cond.threshold, "measured": cond.measured}
    except BudgetExhausted as err:
        verdict = "BudgetExhausted"
        info = {"m": len(records) + 1, "reason": str(err)}
    drift_sum = sum(r.freq_drift for r in records)
    eps_sum = sum(r.eps_measured for r in records)
    constants = {
        "freq_drift_sum": drift_sum,
        "eps_sum": eps_sum,
        "drift_over_eps": drift_sum / eps_sum if eps_sum > 0 else 0.0,
    }
    return IterationReport(verdict, info, records, constants)


# ---------------------------------------------------------------------------
# synthetic problems
# ---------------------------------------------------------------------------

def make_synthetic_problem(dims, budgets, eps0, dp, seed=0, n_low=12, n_high=8,
                           inject_z0=0.0, block_scale=0.0):
    """Random real perturbation of a nonresonant normal form.

    Draws random low-degree terms (over every solver class) and a few
    degree-3/4 terms, each at a Fourier vector with entries in [-2, 2],
    symmetrizes to a real Hamiltonian, and scales the whole perturbation
    so its vector-field norm on ``dp`` equals ``eps0`` (where that norm is
    positive and finite).  ``inject_z0`` adds a
    constant zero-mode term of that magnitude after scaling (the no-torus
    driver); ``block_scale`` puts random symmetric quadratic blocks of that
    size into N.
    """
    rng = np.random.default_rng(seed)
    n = dims.n
    b = dims.b
    omega = 1.0 + rng.random(n)
    N = NormalForm.zero(n, b)
    N.omega = omega
    N.Omega = {j: float(j ** 2) for j in dims.tail_modes}
    if block_scale > 0:
        S = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
        S = 0.5 * (S + S.T) * block_scale
        M = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
        M = 0.5 * (M + M.conj().T) * block_scale
        N.Nz0z0 = S
        N.Nzb0zb0 = S.conj()
        N.Nz0zb0 = M

    # each drawn term is one key row [k | alpha | beta | gamma]; a beta or
    # gamma column is the position of its mode in dims.modes
    nmodes = len(dims.modes)
    beta, gamma = 2 * n, 2 * n + nmodes
    rows = np.zeros((n_low + n_high, gamma + nmodes), dtype=np.int16)
    coefs = []

    def rand_coef():
        return complex(rng.standard_normal(), rng.standard_normal())

    for row in rows[:n_low]:
        row[:n] = rng.integers(-2, 3, size=n)
        kind = rng.integers(0, 6)
        if kind == 0 and n:
            row[n:beta] = [i == rng.integers(0, n) for i in range(n)]
        elif kind in (2, 3):
            row[(beta if kind == 2 else gamma) + rng.integers(0, nmodes)] = 1
        elif kind == 4:
            np.add.at(row, beta + rng.choice(nmodes, size=2), 1)
        elif kind != 1:                     # kind 5, or kind 0 without angles
            m1, m2 = rng.choice(nmodes, size=2)
            row[[beta + m1, gamma + m2]] = 1
        coefs.append(rand_coef())
    for row in rows[n_low:]:
        row[:n] = rng.integers(-2, 3, size=n)
        picks = rng.choice(nmodes, size=3)
        np.add.at(row, beta + picks[:2], 1)
        row[gamma + picks[2]] = 1
        coefs.append(rand_coef())

    R = realify(TFSeries.from_rows(dims, budgets, rows, coefs))
    # a norm that overflows on dp is left for ``iterate`` to report
    with np.errstate(over="ignore", invalid="ignore"):
        norm = vector_field_norm(R, dp)
    if 0 < norm < math.inf:
        R = R * (eps0 / norm)
    if inject_z0 > 0:
        # z0 and zbar0 of the first zero mode, which dims.modes lists first
        inject = np.zeros((2, rows.shape[1]), dtype=np.int16)
        inject[[0, 1], [beta, gamma]] = 1
        inject = TFSeries.from_rows(dims, budgets, inject, [inject_z0] * 2, real=R.real)
        # the injected terms replace whatever R holds at their keys
        R = R.select(~(R.rows[:, None] == inject.rows).all(axis=2).any(axis=1)) + inject
    return N, R
