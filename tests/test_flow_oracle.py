"""Dynamical cross-check of one iteration step.

The step asserts H_{m+1} = H_m o Phi with Phi the time-1 flow of the
generating field X_F.  Here Phi is recomputed by plain RK4 on the pointwise
equations of motion (series evaluated numerically, no bracket machinery),
and H_{m+1}(P) is compared against H_m(Phi(P)) at random phase-space
points.  Agreement pins the bracket orientation, the Lie-series assembly
and the normal-form bookkeeping against an independent integrator.
"""

import cmath

import numpy as np
import pytest

from kamzero.driver import BaseParams, kam_step, make_synthetic_problem, schedule
from kamzero.series import (Budgets, DomainParams, SeriesDims,
                            vector_field_norm)
from series_ref import from_terms

DIMS = SeriesDims(2, (), (1,), 5)
BUD = Budgets(6, 4096)
DP0 = DomainParams(0.6, 0.25, 0.1, 1.0)
BASE = BaseParams(n=2, b=1, tau=3.5, s1=0.6, r1=0.25, gamma1=0.05)


def eval_series(S, x, y, z, zb):
    """Pointwise value with angles x, actions y and mode maps z, zb.

    Angles are allowed to drift into the complex strip (the analytic
    continuation e^{i <k, x>} handles the imaginary parts)."""
    tot = 0j
    for key, c in S.terms.items():
        v = c * cmath.exp(1j * complex(np.dot(key.k, x)))
        for yb, e in zip(y, key.alpha):
            if e:
                v *= yb ** e
        for m, e in key.beta:
            v *= z[m] ** e
        for m, e in key.gamma:
            v *= zb[m] ** e
        tot += v
    return tot


def _diff_terms(S, which, idx):
    out = {}
    for key, c in S.terms.items():
        if which == "x":
            if key.k[idx]:
                out[key] = out.get(key, 0j) + c * 1j * key.k[idx]
        elif which == "y":
            if key.alpha[idx]:
                al = list(key.alpha)
                al[idx] -= 1
                nk = key._replace(alpha=tuple(al))
                out[nk] = out.get(nk, 0j) + c * key.alpha[idx]
        else:
            src = dict(key.beta if which == "z" else key.gamma)
            if src.get(idx, 0):
                e = src[idx]
                src[idx] -= 1
                pruned = tuple(sorted((m, x) for m, x in src.items() if x))
                nk = (key._replace(beta=pruned) if which == "z"
                      else key._replace(gamma=pruned))
                out[nk] = out.get(nk, 0j) + c * e
    return out


def flow_time_one(F, x, y, z, zb, steps=200):
    """RK4 integration of the Hamiltonian field of F from the given point:
    dx/dt = F_y, dy/dt = -F_x, dz/dt = i F_zbar, dzb/dt = -i F_z."""
    dims = F.dims
    modes = dims.modes
    parts = {
        "x": [dict_series(F, _diff_terms(F, "x", b)) for b in range(dims.n)],
        "y": [dict_series(F, _diff_terms(F, "y", b)) for b in range(dims.n)],
        "z": {m: dict_series(F, _diff_terms(F, "z", m)) for m in modes},
        "zb": {m: dict_series(F, _diff_terms(F, "zb", m)) for m in modes},
    }

    def rhs(state):
        x, y, z, zb = state
        dx = np.array([eval_series(parts["y"][b], x, y, z, zb) for b in range(dims.n)])
        dy = -np.array([eval_series(parts["x"][b], x, y, z, zb) for b in range(dims.n)])
        dz = {m: 1j * eval_series(parts["zb"][m], x, y, z, zb) for m in modes}
        dzb = {m: -1j * eval_series(parts["z"][m], x, y, z, zb) for m in modes}
        return dx, dy, dz, dzb

    def axpy(state, k, h):
        x, y, z, zb = state
        dx, dy, dz, dzb = k
        return (x + h * dx, y + h * dy,
                {m: z[m] + h * dz[m] for m in modes},
                {m: zb[m] + h * dzb[m] for m in modes})

    state = (np.asarray(x, dtype=complex), np.asarray(y, dtype=complex),
             dict(z), dict(zb))
    h = 1.0 / steps
    for _ in range(steps):
        k1 = rhs(state)
        k2 = rhs(axpy(state, k1, 0.5 * h))
        k3 = rhs(axpy(state, k2, 0.5 * h))
        k4 = rhs(axpy(state, k3, h))
        x, y, z, zb = state
        state = (
            x + (h / 6) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
            y + (h / 6) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
            {m: z[m] + (h / 6) * (k1[2][m] + 2 * k2[2][m] + 2 * k3[2][m] + k4[2][m])
             for m in modes},
            {m: zb[m] + (h / 6) * (k1[3][m] + 2 * k2[3][m] + 2 * k3[3][m] + k4[3][m])
             for m in modes},
        )
    return state


def dict_series(template, terms):
    return from_terms(template.dims, template.budgets, terms)


@pytest.mark.parametrize("seed", [2, 7])
def test_step_matches_pointwise_flow(seed):
    from kamzero.homological import solve_homological
    from kamzero.series import fourier_truncate, split_low_high

    N, R = make_synthetic_problem(DIMS, BUD, 1e-6, seed=seed, n_high=0, dp=DP0)
    eps = vector_field_norm(R, DP0)
    params = schedule(1, BASE, eps_m=eps)
    dp = DomainParams(params.s_m, params.r_m, DP0.a, DP0.p)

    low, _ = split_low_high(R)
    low_trunc, _, _ = fourier_truncate(low, params.K_m, dp, sigma=params.s_gap)
    F, _, _ = solve_homological(N, low_trunc, params, DIMS, dp=dp)
    N1, R1, rec = kam_step(N, R, params, DIMS, dp, 8, eps)

    H0 = N.to_series(DIMS, BUD) + R
    H1 = N1.to_series(DIMS, BUD) + R1

    rng = np.random.default_rng(seed)
    modes = DIMS.modes
    for _ in range(3):
        x = rng.uniform(0, 2 * np.pi, size=2)
        y = 0.02 * rng.standard_normal(2)
        z = {m: 0.05 * (rng.standard_normal() + 1j * rng.standard_normal())
             for m in modes}
        zb = {m: z[m].conjugate() for m in modes}
        xf, yf, zf, zbf = flow_time_one(F, x, y, z, zb)
        lhs = eval_series(H1, x, y, z, zb)
        rhs = eval_series(H0, xf, yf, zf, zbf)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-10 * scale
