import os
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kamzero.driver import BaseParams, realify, schedule
from kamzero.homological import (FAMILIES, BudgetExhausted, NormalForm, ResonanceCondition,
                                 ResonantParameter, block_operators,
                                 check_nonresonance, condition_catalogue, extract_hat,
                                 hom_residual, k_lattice, solve_homological)
from kamzero import homological
from kamzero.homological import (FAMILY_TABLE, _distinct, _expand, _factor_floor, _kl_options,
                                 _kpow, _layout, _ranges, _scale_tau)
from kamzero.matrixkit import (SingularSystem, commutation_matrix, det_modulus, kron,
                               solve_dense, vec)
from kamzero.series import (Budgets, DomainParams, SeriesDims, TFSeries,
                            fourier_truncate, poisson_bracket, split_low_high,
                            vector_field_norm)
from series_ref import from_terms, key_kabs, make_key, reality_defect

# the domain of the residual the solver certifies where a test sets none
DP = DomainParams(0.5, 0.3)


def make_dims(b, jmax=8):
    return SeriesDims(2, (), tuple(range(1, 1 + b)), jmax)


def make_nf(dims, rng, block_scale=0.02, linear_scale=0.01):
    b = dims.b
    N = NormalForm.zero(dims.n, b)
    N.omega = 1.0 + rng.random(dims.n)
    N.Omega = {j: float(j * j) for j in dims.tail_modes}
    S = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
    S = 0.5 * block_scale * (S + S.T)
    M = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
    M = 0.5 * block_scale * (M + M.conj().T)
    N.Nz0z0 = S
    N.Nzb0zb0 = S.conj()
    N.Nz0zb0 = M
    N.Nz0 = linear_scale * (rng.standard_normal(b) + 1j * rng.standard_normal(b))
    N.Nzb0 = N.Nz0.conj()
    return N


def random_low_perturbation(dims, budgets, rng, nterms=40, kspread=3, scale=1e-4):
    terms = {}
    n = dims.n
    modes = dims.modes
    while len(terms) < nterms:
        k = tuple(int(v) for v in rng.integers(-kspread, kspread + 1, size=n))
        kind = rng.integers(0, 7)
        c = complex(rng.standard_normal(), rng.standard_normal())
        if kind == 0:
            key = make_key(n, k=k)
        elif kind == 1:
            key = make_key(n, k=k, alpha=tuple(1 if i == rng.integers(0, n) else 0
                                               for i in range(n)))
        elif kind == 2:
            key = make_key(n, k=k, beta={modes[rng.integers(0, len(modes))]: 1})
        elif kind == 3:
            key = make_key(n, k=k, gamma={modes[rng.integers(0, len(modes))]: 1})
        elif kind == 4:
            m1, m2 = rng.choice(len(modes), 2)
            bm = {}
            for m in (modes[m1], modes[m2]):
                bm[m] = bm.get(m, 0) + 1
            key = make_key(n, k=k, beta=bm)
        elif kind == 5:
            m1, m2 = rng.choice(len(modes), 2)
            gm = {}
            for m in (modes[m1], modes[m2]):
                gm[m] = gm.get(m, 0) + 1
            key = make_key(n, k=k, gamma=gm)
        else:
            m1, m2 = rng.choice(len(modes), 2)
            key = make_key(n, k=k, beta={modes[m1]: 1}, gamma={modes[m2]: 1})
        terms[key] = terms.get(key, 0j) + c
    return realify(from_terms(dims, budgets, terms)) * scale


def step_params(b, eps=1e-4, gamma1=0.02, tau=3.5):
    base = BaseParams(n=2, b=b, tau=tau, s1=0.8, r1=0.3, gamma1=gamma1)
    return schedule(1, base, eps_m=eps)


# ---------------------------------------------------------------------------
# block operators
# ---------------------------------------------------------------------------

def test_family_c_matches_displayed_two_by_two():
    N = NormalForm.zero(2, 1)
    N.omega = np.array([1.1, 0.7])
    N.Omega = {2: 4.0, 3: 9.0}
    N.Nz0z0 = np.array([[0.2 + 0.1j]])
    N.Nz0zb0 = np.array([[0.05]])
    N.Nzb0zb0 = np.array([[0.2 - 0.1j]])
    k = np.array([1, -2])
    kw = k @ N.omega
    C = block_operators("C", N, [k])[0]
    expect = np.array([[1j * kw + 1j * 0.05, -2j * (0.2 + 0.1j)],
                       [2j * (0.2 - 0.1j), 1j * kw - 1j * 0.05]])
    assert np.abs(C - expect).max() <= 1e-15


def test_family_a_scalar_pattern():
    # b = 1 three-by-three: rows couple (S, M, T) with the bracket-coherent
    # label placement (M on the diagonal corners, factors 2 and 4)
    N = NormalForm.zero(2, 1)
    N.omega = np.array([1.0, 0.5])
    N.Omega = {2: 4.0}
    S, M, T = 0.3 + 0.0j, 0.11 + 0.0j, 0.07 + 0.0j
    N.Nz0z0 = np.array([[S]])
    N.Nz0zb0 = np.array([[M]])
    N.Nzb0zb0 = np.array([[T]])
    k = np.array([2, 1])
    kw = k @ N.omega
    A = block_operators("A", N, [k])[0]
    expect = 1j * np.array([[kw + 2 * M, -2 * S, 0.0],
                            [4 * T, kw, -4 * S],
                            [0.0, 2 * T, kw - 2 * M]])
    assert np.abs(A - expect).max() <= 1e-15


@pytest.mark.parametrize("b", [1, 2])
def test_block_operators_match_bracket_action(b):
    """Every family equals F -> -{N, F} restricted to its class."""
    rng = np.random.default_rng(40 + b)
    dims = make_dims(b, jmax=6)
    bud = Budgets(6, 16)
    N = make_nf(dims, rng, block_scale=0.05, linear_scale=0.0)
    Nser = N.to_series(dims, bud)
    n = dims.n
    zm = dims.zero_modes
    k = (1, -2)

    # family A through its slot layout: write (summing the symmetric pair
    # slots onto one monomial), bracket, read back with the half weights
    U = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
    U = 0.5 * (U + U.T)
    V = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
    W = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
    W = 0.5 * (W + W.T)
    slots, weights = _layout(dims, "A")
    rows = slots.copy()
    rows[:, :n] = k
    x = np.concatenate([vec(U), vec(V), vec(W)])
    img = poisson_bracket(Nser, TFSeries.from_rows(dims, bud, rows, x))
    A = block_operators("A", N, [k])[0]
    pred = A @ x
    got = -weights * img.coefficients_at(rows)
    assert np.abs(pred - got).max() <= 1e-12

    # families B and C by probing basis monomials
    def probe(basis):
        op = np.zeros((len(basis), len(basis)), dtype=complex)
        for col, key in enumerate(basis):
            e = from_terms(dims, bud, {key: 1.0 + 0j})
            image = poisson_bracket(Nser, e)
            for row, rkey in enumerate(basis):
                op[row, col] = -image.terms.get(rkey, 0j)
        return op

    j = dims.tail_modes[0]
    basis_b = ([make_key(n, k=k, beta={m: 1, j: 1}) for m in zm]
               + [make_key(n, k=k, beta={m: 1}, gamma={j: 1}) for m in zm]
               + [make_key(n, k=k, gamma={m: 1}, beta={j: 1}) for m in zm]
               + [make_key(n, k=k, gamma={m: 1, j: 1}) for m in zm])
    B = block_operators("B", N, [k], [N.Omega[j]])[0]
    assert np.abs(B - probe(basis_b)).max() <= 1e-12

    basis_c = ([make_key(n, k=k, beta={m: 1}) for m in zm]
               + [make_key(n, k=k, gamma={m: 1}) for m in zm])
    C = block_operators("C", N, [k])[0]
    assert np.abs(C - probe(basis_c)).max() <= 1e-12


def _np_block_operator(family, N, kw, om):
    """Reference: the same blocks joined by ``np.block``."""
    b = N.b
    S, M, T = N.Nz0z0, N.Nz0zb0, N.Nzb0zb0
    Ib = np.eye(b)
    if family == "A":
        P = commutation_matrix(b)
        Ibb = np.eye(b * b)
        Z = np.zeros((b * b, b * b))
        return 1j * np.block([
            [kw * Ibb + kron(Ib, M.T) + kron(M.T, Ib), -(kron(Ib, S) + kron(S, Ib) @ P), Z],
            [4 * kron(Ib, T), kw * Ibb + kron(M.T, Ib) - kron(Ib, M), -4 * kron(S, Ib)],
            [Z, kron(Ib, T) @ P + kron(T, Ib), kw * Ibb - (kron(Ib, M) + kron(M, Ib))]])
    Z = np.zeros((b, b))
    if family == "B":
        return 1j * np.block([[(kw + om) * Ib + M.T, Z, -2 * S, Z],
                              [Z, (kw - om) * Ib + M.T, Z, -2 * S],
                              [2 * T, Z, (kw + om) * Ib - M, Z],
                              [Z, 2 * T, Z, (kw - om) * Ib - M]])
    return 1j * np.block([[kw * Ib + M.T, -2 * S], [2 * T, kw * Ib - M]])


@pytest.mark.parametrize("b", [1, 2, 3])
@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_block_operator_is_bitwise_the_np_block_matrix(family, b):
    rng = np.random.default_rng(7 * b)
    dims = make_dims(b)
    N = make_nf(dims, rng, block_scale=0.3)
    j = dims.tail_modes[0]
    for k in [(0, 0), (1, -2), (3, 1)]:
        kw = float(np.dot(k, N.omega))
        got = block_operators(family, N, [k], [N.Omega[j]])[0]
        want = _np_block_operator(family, N, kw, float(N.Omega[j]))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_family_b_requires_mode():
    N = NormalForm.zero(2, 1)
    with pytest.raises(ValueError):
        block_operators("B", N, np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# non-resonance conditions
# ---------------------------------------------------------------------------

def test_nonresonance_diophantine_passes():
    dims = make_dims(1)
    N = NormalForm.zero(2, 1)
    # sqrt(3), sqrt(2), 1 rationally independent: no <k,omega> + <l,Omega>
    # vanishes, and a tiny gamma keeps every divisor above threshold
    N.omega = np.array([np.sqrt(3.0), np.sqrt(2.0)])
    N.Omega = {j: float(j * j) for j in dims.tail_modes}
    params = step_params(1, gamma1=1e-7)
    assert check_nonresonance(N, params, dims) == []


def test_an_empty_condition_catalogue_passes_the_gate():
    # no tail modes and no zero modes: family R3 has no condition
    dims = SeriesDims(1, (), (), 0)
    N = NormalForm.zero(1, 1)
    N.omega = np.array([1.0])
    params = schedule(1, BaseParams(n=1, b=0, tau=2.5, s1=0.6, r1=0.1, gamma1=0.05), eps_m=1e-6)
    cat = condition_catalogue(N, params, dims, params.K_m, ("R3",))
    assert cat.l == () and all(len(field) == 0 for field in cat)
    assert check_nonresonance(N, params, dims, families=("R3",)) == []


def test_nonresonance_rational_fails_at_kl():
    dims = make_dims(1)
    N = NormalForm.zero(2, 1)
    N.omega = np.array([1.0, 1.0])  # <k, omega> = 0 at k = (1, -1)
    N.Omega = {j: float(j * j) for j in dims.tail_modes}
    params = step_params(1, gamma1=0.05)
    failures = check_nonresonance(N, params, dims, families=("KL",))
    assert any(f.k in ((1, -1), (-1, 1)) and f.l == () and f.measured == 0.0
               for f in failures)


def test_condition2_determinant_is_scalar_cube_for_zero_blocks():
    dims = make_dims(1)
    N = NormalForm.zero(2, 1)
    N.omega = np.array([1.0, np.sqrt(2.0)])
    N.Omega = {j: float(j * j) for j in dims.tail_modes}
    for k in [(1, 0), (2, -1), (-3, 2)]:
        kw = np.dot(k, N.omega)
        A = block_operators("A", N, [k])[0]
        assert det_modulus(A) == pytest.approx(abs(kw) ** 3, rel=1e-12)


def condition_values(cat, j, kw):
    """Condition j of the catalogue ``cat`` at every entry of kw = <k, omega>,
    from its roots: |kw + c| for a KL shift c, else the product of the
    factors |1j kw + mu| in root order."""
    mus = cat.roots[cat.owner == j]
    if FAMILIES[cat.family[j]] == "KL":
        return np.abs(kw + mus[0].real)
    factors = np.abs(1j * np.asarray(kw)[..., None] + mus)
    det = factors[..., 0].copy()
    for c in range(1, len(mus)):
        det *= factors[..., c]
    return det


def dense_check(N, params, dims, families=FAMILIES):
    """Every condition of the catalogue at every lattice point: the reference
    for ``check_nonresonance``."""
    lat = k_lattice(dims.n, params.K_m)
    kabs = np.abs(lat).sum(axis=1)
    kw = lat @ N.omega
    cat = condition_catalogue(N, params, dims, params.K_m, families)
    failures = []
    for j, l in enumerate(cat.l):
        family = FAMILIES[cat.family[j]]
        thr = _scale_tau(params, family)[0] * cat.weight[j] / _kpow(kabs, float(cat.tau[j]))
        meas = condition_values(cat, j, kw)
        for i in np.flatnonzero((kabs >= cat.kmin[j]) & (meas < thr)):
            failures.append(ResonanceCondition(family, tuple(int(v) for v in lat[i]),
                                               l, float(thr[i]), float(meas[i])))
    return failures


def test_check_equals_the_dense_evaluation_on_the_sweep(sweep_gate_calls):
    checks = sweep_gate_calls["checks"]
    assert len(checks) > 200
    assert sum(len(out) for _, out in checks) > 0
    for args, out in checks:
        assert out == dense_check(*args)


def per_k_block_solutions(family, N, params, ks, js, rhs):
    """Reference for ``homological._block_solutions``: one operator,
    determinant and solve per Fourier mode, guarded in row order (the
    determinant before the solve at each mode)."""
    scale, tau = _scale_tau(params, family)
    thr = scale / _kpow(np.abs(ks).sum(axis=1), tau)
    sol, margin = np.empty_like(rhs), np.inf
    for g, (k, j) in enumerate(zip(ks, js)):
        A = block_operators(FAMILY_TABLE[family][0], N, [k],
                            None if j is None else [N.Omega[j]])[0]
        dm, t = det_modulus(A), float(thr[g])
        failed = ResonantParameter(ResonanceCondition(
            family, tuple(int(v) for v in k), None if j is None else ((int(j), 1),), t, dm))
        if dm <= 0.5 * t:
            raise failed
        margin = min(margin, dm / t if t > 0 else np.inf)
        try:
            sol[g] = homological.solve_dense(A, rhs[g])
        except SingularSystem as err:
            raise failed from err
    return sol, margin


def _block_outcome(solutions, *args):
    """(solution bytes, margin) of a block solve, or the condition it raised."""
    try:
        sol, margin = solutions(*args)
    except ResonantParameter as err:
        return err.condition
    return sol.tobytes(), margin


def test_stacked_block_solutions_equal_the_per_k_loop_at_every_guard():
    # inflated thresholds fail some determinants, a cond guard of 3 some
    # solves: the stack raises where the loop does, the determinant first
    # at one mode, with the same condition, and else solves bit for bit
    kinds = {"solved": 0, "determinant": 0, "solve": 0}
    for seed in range(60):
        rng = np.random.default_rng(seed)
        b = 1 + seed % 2
        dims = make_dims(b, jmax=b + 4)
        N = make_nf(dims, rng, block_scale=0.3)
        params = step_params(b, gamma1=[0.02, 2.0, 20.0][seed % 3])
        ks = rng.integers(-2, 3, (rng.integers(1, 8), dims.n)).astype(np.int16)
        guard = [None, 1e12, 3.0][(seed // 3) % 3]
        for family, size in (("R1", 3 * b * b), ("R3", 4 * b), ("R4", 2 * b)):
            js = ([int(j) for j in rng.choice(dims.tail_modes, len(ks))] if family == "R3"
                  else [None] * len(ks))
            args = (family, N, params, ks, js,
                    rng.standard_normal((len(ks), size)) + 1j * rng.standard_normal((len(ks), size)))
            with mock.patch.object(homological, "solve_dense",
                                   lambda M, rhs: solve_dense(M, rhs, guard)):
                got = _block_outcome(homological._block_solutions, *args)
                assert got == _block_outcome(per_k_block_solutions, *args)
            kinds["solved" if isinstance(got, tuple) else
                  "determinant" if got.measured <= 0.5 * got.threshold else "solve"] += 1
    assert min(kinds.values()) >= 10, kinds


def _solve_outcome(args, kwargs):
    """Everything ``solve_homological`` returns, as bytes where it is an
    array, or the condition it raised."""
    try:
        F, hat, rep = solve_homological(*args, **kwargs)
    except ResonantParameter as err:
        return err.condition
    fields = [np.asarray(getattr(hat, f)).tobytes() for f in
              ("Nx", "omega", "Nz0", "Nzb0", "Nz0z0", "Nz0zb0", "Nzb0zb0")]
    return (F.rows.tobytes(), F.coefs.tobytes(), fields, hat.Omega, rep.solve_counts,
            rep.min_divisor_margin, rep.residual, rep.xF_norm)


def test_stacked_block_solves_equal_the_per_k_loop_on_the_sweep(sweep_gate_calls):
    solves = sweep_gate_calls["solves"]
    assert len(solves) > 200
    blocks = 0
    for args, kwargs in solves:
        got = _solve_outcome(args, kwargs)
        with mock.patch.object(homological, "_block_solutions",
                               side_effect=per_k_block_solutions) as ref:
            assert _solve_outcome(args, kwargs) == got
        blocks += ref.call_count
    assert blocks > 400


@st.composite
def gate_samples(draw):
    b = draw(st.sampled_from((1, 2)))
    dims = make_dims(b, jmax=b + 3)
    unit = st.floats(-1.0, 1.0)
    N = NormalForm.zero(2, b)
    N.omega = np.array([draw(st.floats(0.5, 2.0)) for _ in range(2)])
    # the first tail mode's frequency is small, so its k = 0 R3 block fails
    N.Omega = {j: draw(st.floats(0.01, 0.5) if j == dims.tail_modes[0] else st.floats(1.0, 30.0))
               for j in dims.tail_modes}
    draws = np.array([draw(unit) for _ in range(4 * b * b)]).reshape(4, b, b)
    S = 0.05 * ((draws[0] + 1j * draws[1]) + (draws[0] + 1j * draws[1]).T)
    M = 0.05 * ((draws[2] + 1j * draws[3]) + (draws[2] + 1j * draws[3]).conj().T)
    N.Nz0z0, N.Nzb0zb0, N.Nz0zb0 = S, S.conj(), M
    params = step_params(b, gamma1=draw(st.floats(0.5, 50.0)))
    return N, replace(params, K_m=draw(st.sampled_from((49.0, 64.0)))), dims


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(gate_samples())
def test_check_equals_the_dense_evaluation_with_inflated_gamma(sample):
    N, params, dims = sample
    got = check_nonresonance(N, params, dims)
    assert got == dense_check(N, params, dims)
    assert any(f.family == "R3" and not any(f.k) for f in got)


# ---------------------------------------------------------------------------
# the solve
# ---------------------------------------------------------------------------

def test_zero_perturbation_gives_zero_solution():
    dims = make_dims(1)
    bud = Budgets(6, 16)
    rng = np.random.default_rng(0)
    N = make_nf(dims, rng)
    params = step_params(1)
    R = TFSeries.zero(dims, bud)
    F, hat, rep = solve_homological(N, R, params, dims, DP)
    assert not F.terms and rep.residual == rep.xF_norm == 0.0
    assert hat.Nx == 0 and np.all(hat.omega == 0) and not hat.Omega
    assert np.all(hat.Nz0 == 0) and np.abs(hat.Nz0z0).max() == 0


def test_diagonal_single_term_formula():
    # R = c e^{i<k,x>} z_i zbar_j  ->  F = c / (i(<k,omega> + Om_i - Om_j))
    dims = make_dims(1)
    bud = Budgets(6, 16)
    N = NormalForm.zero(2, 1)
    N.omega = np.array([1.0, np.sqrt(2.0)])
    N.Omega = {j: float(j * j) for j in dims.tail_modes}
    params = step_params(1)
    c = 0.3 - 0.7j
    k = (2, -1)
    i, j = 3, 5
    key = make_key(2, k=k, beta={i: 1}, gamma={j: 1})
    R = from_terms(dims, bud, {key: c})
    F, hat, _ = solve_homological(N, R, params, dims, DP)
    div = 1j * (np.dot(k, N.omega) + N.Omega[i] - N.Omega[j])
    assert F.terms.keys() == {key}
    assert F.terms[key] == pytest.approx(c / div, rel=1e-14)


@pytest.mark.parametrize("b,seed", [(1, 0), (1, 5), (2, 1), (2, 7)])
def test_residual_oracle(b, seed):
    dims = make_dims(b, jmax=8)
    bud = Budgets(6, 16)
    rng = np.random.default_rng(seed)
    N = make_nf(dims, rng)
    # gamma small enough that these samples pass every condition family
    params = step_params(b, gamma1=1e-3)
    R = random_low_perturbation(dims, bud, rng)
    R_low, _ = split_low_high(R)
    R_low, _, _ = fourier_truncate(R_low, 6.0)
    dp = DomainParams(params.s_m, 0.3)
    assert check_nonresonance(N, params, dims) == []
    F, hat, rep = solve_homological(N, R_low, params, dims, dp=dp)
    assert rep.residual <= 1e-9 * vector_field_norm(R_low, dp)
    # degree / Fourier closure
    for key in F.terms:
        assert key_kabs(key) <= params.K_m


def test_solver_without_tail_modes():
    # jmax = the last zero mode leaves no tail: parts 2, 3 and 5 are empty
    dims = SeriesDims(2, (), (1,), 1)
    assert dims.tail_modes == ()
    bud = Budgets(6, 16)
    rng = np.random.default_rng(3)
    N = make_nf(dims, rng)
    params = step_params(1, gamma1=1e-3)
    R_low, _ = split_low_high(random_low_perturbation(dims, bud, rng, nterms=20))
    R_low, _, _ = fourier_truncate(R_low, 6.0)
    dp = DomainParams(params.s_m, 0.3)
    assert check_nonresonance(N, params, dims) == []
    F, hat, rep = solve_homological(N, R_low, params, dims, dp=dp)
    assert rep.solve_counts["part1"] > 0 and rep.solve_counts["part4"] > 0
    assert rep.residual <= 1e-9 * vector_field_norm(R_low, dp)


def test_block_solver_reduces_to_diagonal_formulas():
    # with all zero-mode blocks zero the coupled families must coincide with
    # the scalar divisor formulas coefficientwise
    dims = make_dims(1, jmax=6)
    bud = Budgets(6, 16)
    rng = np.random.default_rng(9)
    N = make_nf(dims, rng, block_scale=0.0, linear_scale=0.0)
    params = step_params(1)
    R = random_low_perturbation(dims, bud, rng, nterms=30)
    R_low, _ = split_low_high(R)
    F, hat, _ = solve_homological(N, R_low, params, dims, DP)
    z0 = dims.zero_modes[0]
    for key, c in R_low.terms.items():
        kw = np.dot(key.k, N.omega)
        shift = sum(N.Omega.get(m, 0.0) * e for m, e in key.beta)
        shift -= sum(N.Omega.get(m, 0.0) * e for m, e in key.gamma)
        div = 1j * (kw + shift)
        if abs(div) < 1e-12:
            continue  # preserved mean
        assert F.terms.get(key, 0j) == pytest.approx(c / div, rel=1e-12)


def test_injected_resonance_raises():
    dims = make_dims(1)
    bud = Budgets(6, 16)
    N = NormalForm.zero(2, 1)
    N.omega = np.array([2.0, 1.0])
    N.Omega = {j: float(j * j) for j in dims.tail_modes}
    params = step_params(1, gamma1=0.05)
    R = from_terms(dims, bud, {make_key(2, k=(1, -2), alpha=(1, 0)): 1e-4})  # <k,omega> = 0
    with pytest.raises(ResonantParameter):
        solve_homological(N, R, params, dims, DP)


@pytest.mark.parametrize("term,shift,family,l", [
    (dict(alpha=(1, 0)), 0.0, "KL", ()),                               # y
    (dict(beta={3: 1}), 9.0, "KL", ((3, 1),)),                         # tail linear
    (dict(beta={3: 1}, gamma={5: 1}), -16.0, "KL", ((3, 1), (5, -1))),  # tail quadratic
    (dict(beta={5: 1}, gamma={3: 1}), 16.0, "KL", ((3, -1), (5, 1))),
    (dict(beta={1: 2}), 0.0, "R1", None),                              # z0 z0
    (dict(beta={1: 1, 3: 1}), 9.0, "R3", ((3, 1),)),                   # z0 z_j
    (dict(beta={1: 1}), 0.0, "R4", None),                              # z0
])
def test_guard_thresholds_are_the_catalogue_thresholds(term, shift, family, l):
    # zero blocks and <k, omega> = -shift at k = (1, -2), so the one term's
    # divisor or block determinant vanishes exactly
    dims = make_dims(1)
    bud = Budgets(6, 16)
    N = NormalForm.zero(2, 1)
    N.omega = np.array([2.0 - shift, 1.0])
    N.Omega = {j: float(j * j) for j in dims.tail_modes}
    params = step_params(1, gamma1=0.05)
    k = (1, -2)
    R = from_terms(dims, bud, {make_key(2, k=k, **term): 1e-4 + 0j})
    with pytest.raises(ResonantParameter) as err:
        solve_homological(N, R, params, dims, DP)
    got = err.value.condition
    assert (got.family, got.k, got.l, got.measured) == (family, k, l, 0.0)
    cat = condition_catalogue(N, params, dims, params.K_m)
    cond = [j for j, (f, cl) in enumerate(zip(cat.family, cat.l))
            if FAMILIES[f] == family and cl == l]
    assert len(cond) == 1
    cond = cond[0]
    assert got.threshold == (cat.scales(params)[cond]
                             / _kpow(np.array([3]), float(cat.tau[cond]))[0])


def test_normal_form_round_trips_through_its_series():
    rng = np.random.default_rng(21)
    dims = make_dims(2, jmax=7)
    bud = Budgets(6, 16)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    N = NormalForm.zero(2, 2)
    N.Nx = complex(cplx(1)[0])
    N.omega = rng.standard_normal(2)
    N.Omega = {j: float(rng.standard_normal()) for j in dims.tail_modes}
    N.Nz0, N.Nzb0 = cplx(2), cplx(2)
    S, T = cplx(2, 2), cplx(2, 2)
    N.Nz0z0, N.Nz0zb0, N.Nzb0zb0 = S + S.T, cplx(2, 2), T + T.T
    hat = extract_hat(N.to_series(dims, bud), dims)
    assert hat.Nx == N.Nx and hat.Omega == N.Omega
    for name in ("omega", "Nz0", "Nzb0", "Nz0z0", "Nz0zb0", "Nzb0zb0"):
        assert np.array_equal(getattr(hat, name), getattr(N, name)), name


def test_hat_collects_k0_means():
    dims = make_dims(1)
    bud = Budgets(6, 16)
    R = from_terms(dims, bud, {
        make_key(2): 0.5 + 0j,                                  # x mean
        make_key(2, alpha=(0, 1)): 0.25 + 0j,                   # y mean
        make_key(2, beta={1: 1}): 0.1 + 0.2j,                   # z0
        make_key(2, beta={1: 2}): 0.4 + 0j,                     # z0z0
        make_key(2, beta={3: 1}, gamma={3: 1}): 0.7 + 0j,       # Omega shift
    })
    hat = extract_hat(R, dims)
    assert hat.Nx == 0.5
    assert hat.omega[1] == 0.25
    assert hat.Nz0[0] == 0.1 + 0.2j
    assert hat.Nz0z0[0, 0] == 0.4
    assert hat.Omega[3] == 0.7


def test_solver_preserves_reality():
    for b, seed in ((1, 3), (2, 8)):
        dims = make_dims(b, jmax=8)
        bud = Budgets(6, 16)
        rng = np.random.default_rng(seed)
        N = make_nf(dims, rng)
        params = step_params(b, gamma1=1e-3)
        R = random_low_perturbation(dims, bud, rng)
        R_low, _ = split_low_high(R)
        assert reality_defect(R_low) < 1e-15
        F, hat, _ = solve_homological(N, R_low, params, dims, DP)
        # a real normal form and real right side give a real generator
        assert reality_defect(F) <= 1e-12 * max(F.max_abs(), 1.0)
        assert abs(hat.Nz0[0] - hat.Nzb0[0].conjugate()) <= 1e-15


def test_operations_leave_inputs_untouched():
    # series are value types: bracket, transform and solve must not mutate
    # their arguments
    from kamzero.series import lie_transform

    dims = make_dims(1, jmax=6)
    bud = Budgets(6, 16)
    rng = np.random.default_rng(11)
    N = make_nf(dims, rng)
    params = step_params(1, gamma1=1e-3)
    R = random_low_perturbation(dims, bud, rng, nterms=25)
    R_low, _ = split_low_high(R)
    N_series = N.to_series(dims, bud)
    snapshots = {id(s): dict(s.terms) for s in (R, R_low, N_series)}
    poisson_bracket(N_series, R_low)
    lie_transform(R_low, N_series * 1e-3, 2)
    solve_homological(N, R_low, params, dims, DP)
    for s in (R, R_low, N_series):
        assert s.terms == snapshots[id(s)]


def test_hom_residual_with_zero_generator():
    dims = make_dims(1)
    bud = Budgets(6, 16)
    rng = np.random.default_rng(10)
    N = make_nf(dims, rng, block_scale=0.0, linear_scale=0.0)
    dp = DomainParams(0.5, 0.3)
    # means-only perturbation plus one oscillating term: with F = 0 and Nhat
    # the k = 0 means, the residual is the norm of the oscillating part
    key = make_key(2, k=(1, 0), alpha=(1, 0))
    R = from_terms(dims, bud, {make_key(2): 0.5 + 0j, key: 0.2 + 0j})
    hat = extract_hat(R, dims)
    NF0 = poisson_bracket(N.to_series(dims, bud), TFSeries.zero(dims, bud))
    osc = from_terms(dims, bud, {key: 0.2 + 0j})
    assert vector_field_norm(hom_residual(NF0, R, hat, dims), dp) == pytest.approx(
        vector_field_norm(osc, dp))
    zero = TFSeries.zero(dims, bud)
    assert vector_field_norm(hom_residual(NF0, zero, extract_hat(zero, dims), dims), dp) == 0.0


@pytest.mark.parametrize("n,kmax", [(0, 3), (1, 4), (2, 5.5), (3, 4), (4, 2), (2, 0)])
def test_k_lattice_is_the_l1_ball_in_lexicographic_order(n, kmax):
    r = int(kmax)
    expect = np.zeros((1, 0), dtype=int)
    if n:
        axes = [np.arange(-r, r + 1)] * n
        box = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        expect = box[np.abs(box).sum(axis=1) <= kmax]
    assert np.array_equal(k_lattice(n, kmax), expect)


def factor_floor_reference(scale, count):
    """The scalar definition: t from scale^(1/count), grown by a doubling
    step until the rounded product of ``count`` t's reaches the scale."""
    t, step = scale ** (1.0 / count), 2.0 ** -40
    while True:
        p = t
        for _ in range(count - 1):
            p *= t
        if p >= scale:
            return t
        t, step = t * (1.0 + step), 2.0 * step


@pytest.mark.parametrize("scale", [5e-324, 3e-310, 1e-87, 0.05, 3.7, 1e300])
def test_factor_floor_bounds_rounded_products(scale):
    # the array form, over every count at once and over mixed scales, is the
    # scalar definition element by element
    counts = np.arange(1, 28)
    floors = _factor_floor(scale, counts)
    assert floors.tolist() == [factor_floor_reference(scale, c) for c in counts.tolist()]
    mixed = [scale, 0.0, 3.7, 1e-87]
    assert _factor_floor(mixed, 3).tolist() == [factor_floor_reference(s, 3) for s in mixed]
    for count, t in zip(counts.tolist(), floors.tolist()):
        p = t
        for _ in range(count - 1):
            p *= t
        assert p >= scale
        assert t <= 2.0 * scale ** (1.0 / count)


_eighths = st.integers(-24, 24).map(lambda v: v / 8)


@st.composite
def sorted_rows(draw):
    """Sorted rows of mostly dyadic values (repeats, and sums that land
    exactly on +-bound) with some rounded ones, padded with +inf as
    ``_first_above`` pads them; shifts, and bounds per (row, shift)."""
    nb, nsamp, pad, ns = (draw(st.integers(*r)) for r in ((1, 3), (0, 24), (0, 3), (1, 4)))
    value = st.one_of(_eighths, st.floats(-3.0, 3.0))
    xs = np.sort(np.array([draw(value) for _ in range(nb * nsamp)]).reshape(nb, nsamp), axis=1)
    xs = np.concatenate([xs, np.full((nb, pad), np.inf)], axis=1)
    shifts = np.array([draw(value) for _ in range(ns)])
    bound = st.one_of(_eighths.map(abs), st.floats(0.0, 3.0))
    return xs, shifts, np.array([draw(bound) for _ in range(nb * ns)]).reshape(nb, ns)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sorted_rows())
def test_ranges_are_the_positions_below_the_bound(rows):
    # brute force: |fl(x + c)| < b at every (row, shift, position)
    xs, shifts, bound = rows
    below = np.abs(xs[:, None, :] + shifts[None, :, None]) < bound[:, :, None]
    lo, hi = _ranges(xs, shifts, bound)
    assert np.all(lo <= hi)
    pos = np.arange(xs.shape[1])
    assert np.array_equal((lo[..., None] <= pos) & (pos < hi[..., None]), below)
    which, at = _expand(lo, hi)
    flat, expect = np.nonzero(below.reshape(lo.size, xs.shape[1]))
    assert np.array_equal(which, flat) and np.array_equal(at, expect)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-2 ** 62, 2 ** 62) | st.integers(-3, 3), max_size=60))
def test_distinct_is_np_unique(values):
    codes = np.array(values, dtype=np.int64)
    assert np.array_equal(_distinct(codes), np.unique(codes))
    got, first = _distinct(codes, first=True)
    expect, expect_first = np.unique(codes, return_index=True)
    assert np.array_equal(got, expect) and np.array_equal(first, expect_first)


def test_the_package_makes_no_np_unique_call():
    # numpy 2.4's np.unique hashes: on random int64 codes it took 14 ms
    # against 0.55 ms for a sort and a compare of neighbours at 60k values,
    # and 437 ms against 8 ms at 600k (2-core x86_64); ``_distinct`` does
    # the sort and compare
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "kamzero")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                assert "np.unique(" not in fh.read(), name


def test_k_lattice_and_kl_options_are_cached_read_only():
    lat = k_lattice(2, 49.3)
    assert k_lattice(2, 49.9) is lat
    assert _kl_options(3) is _kl_options(3)
    for cached in (lat, _kl_options(3)):
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0] = 1


def test_k_lattice_over_the_cap_is_budget_exhausted():
    # |k| <= 64 in dimension 4 holds 11,548,161 points
    with pytest.raises(BudgetExhausted, match="11548161 points"):
        k_lattice(4, 64)


@pytest.mark.parametrize("lo,hi,hit", [(-5.0, 5.0, ("KL", "R1", "R4")),
                                       (0.0, 1.0, ("KL", "R3"))])
def test_solver_gate_agrees_with_the_grid_estimate(nls_build, lo, hi, hit):
    # the same catalogue at every grid sample: per family, the samples the
    # grid estimate excludes are the samples the solver gate rejects
    from dataclasses import replace

    from kamzero.measure import ParameterGrid, estimate_excluded

    _, _, kf = nls_build
    fmap = kf.fmap
    grid = ParameterGrid(np.array([lo, lo]), np.array([hi, hi]), 8)
    base = BaseParams(n=2, b=1, tau=3.5, s1=0.6, r1=0.02, gamma1=0.05)
    params = schedule(1, base, eps_m=1e-4)
    kmax = 4.0
    rep = estimate_excluded(fmap, params, kf.dims, grid, kmax=kmax)
    counts = dict.fromkeys(rep.fractions, 0)
    for xi in grid.samples():
        N = NormalForm.zero(2, kf.dims.b)
        N.omega = fmap.omega(xi)
        N.Omega = dict(fmap.Omega)
        failed = {f.family for f in check_nonresonance(N, replace(params, K_m=kmax), kf.dims)}
        for fam in failed:
            counts[fam] += 1
    assert counts == {f: round(v * rep.n_samples) for f, v in rep.fractions.items()}
    assert all(0 < counts[f] < rep.n_samples for f in hit)
