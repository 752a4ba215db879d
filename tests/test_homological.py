import numpy as np
import pytest

from kamzero.driver import BaseParams, realify, schedule
from kamzero.homological import (BudgetExhausted, NormalForm, ResonantParameter,
                                 assemble_block_operator, check_nonresonance,
                                 condition_catalogue, extract_hat, hom_residual,
                                 k_lattice, k_powers, solve_homological)
from kamzero.homological import _layout
from kamzero.matrixkit import commutation_matrix, det_modulus, kron, vec
from kamzero.series import (Budgets, DomainParams, SeriesDims, TFSeries,
                            fourier_truncate, key_kabs, make_key,
                            poisson_bracket, split_low_high,
                            vector_field_norm)


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
    return realify(TFSeries(dims, budgets, terms)) * scale


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
    C = assemble_block_operator("C", N, k)
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
    A = assemble_block_operator("A", N, k)
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
    A = assemble_block_operator("A", N, np.asarray(k))
    pred = A @ x
    got = -weights * img.coefficients_at(rows)
    assert np.abs(pred - got).max() <= 1e-12

    # families B and C by probing basis monomials
    def probe(basis):
        op = np.zeros((len(basis), len(basis)), dtype=complex)
        for col, key in enumerate(basis):
            e = TFSeries(dims, bud, {key: 1.0 + 0j})
            image = poisson_bracket(Nser, e)
            for row, rkey in enumerate(basis):
                op[row, col] = -image.coefficient(rkey)
        return op

    j = dims.tail_modes[0]
    basis_b = ([make_key(n, k=k, beta={m: 1, j: 1}) for m in zm]
               + [make_key(n, k=k, beta={m: 1}, gamma={j: 1}) for m in zm]
               + [make_key(n, k=k, gamma={m: 1}, beta={j: 1}) for m in zm]
               + [make_key(n, k=k, gamma={m: 1, j: 1}) for m in zm])
    B = assemble_block_operator("B", N, np.asarray(k), j=j, Omega_j=N.Omega[j])
    assert np.abs(B - probe(basis_b)).max() <= 1e-12

    basis_c = ([make_key(n, k=k, beta={m: 1}) for m in zm]
               + [make_key(n, k=k, gamma={m: 1}) for m in zm])
    C = assemble_block_operator("C", N, np.asarray(k))
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
        got = assemble_block_operator(family, N, np.asarray(k), j=j, Omega_j=N.Omega[j])
        want = _np_block_operator(family, N, kw, float(N.Omega[j]))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_family_b_requires_mode():
    N = NormalForm.zero(2, 1)
    with pytest.raises(ValueError):
        assemble_block_operator("B", N, np.zeros(2))


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
        A = assemble_block_operator("A", N, np.asarray(k))
        assert det_modulus(A) == pytest.approx(abs(kw) ** 3, rel=1e-12)


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
    F, hat, rep = solve_homological(N, R, params, dims)
    assert not F.terms
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
    R = TFSeries(dims, bud, {key: c})
    F, hat, _ = solve_homological(N, R, params, dims)
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
    dp = DomainParams(params.s_m, 0.3, 0.1, 1.0)
    assert check_nonresonance(N, params, dims) == []
    F, hat, rep = solve_homological(N, R_low, params, dims, dp=dp)
    assert rep.residual <= 1e-9 * vector_field_norm(R_low, dp)
    # degree / Fourier closure
    for key in F.terms:
        assert key_kabs(key) <= params.K_m
    assert np.isfinite(rep.estimate_constant) or rep.estimate_constant is None


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
    dp = DomainParams(params.s_m, 0.3, 0.1, 1.0)
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
    F, hat, _ = solve_homological(N, R_low, params, dims)
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
    R = TFSeries(dims, bud, {make_key(2, k=(1, -2), alpha=(1, 0)): 1e-4})  # <k,omega> = 0
    with pytest.raises(ResonantParameter):
        solve_homological(N, R, params, dims)


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
    R = TFSeries(dims, bud, {make_key(2, k=k, **term): 1e-4 + 0j})
    with pytest.raises(ResonantParameter) as err:
        solve_homological(N, R, params, dims)
    got = err.value.condition
    assert (got.family, got.k, got.l, got.measured) == (family, k, l, 0.0)
    cond = [c for c in condition_catalogue(N, params, dims, params.K_m)
            if c.family == family and c.l == l]
    assert len(cond) == 1
    cond = cond[0]
    assert got.threshold == cond.scale / k_powers([cond], np.array([3]))[cond.tau][0]


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
    R = TFSeries(dims, bud, {
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
    from kamzero.series import reality_defect

    for b, seed in ((1, 3), (2, 8)):
        dims = make_dims(b, jmax=8)
        bud = Budgets(6, 16)
        rng = np.random.default_rng(seed)
        N = make_nf(dims, rng)
        params = step_params(b, gamma1=1e-3)
        R = random_low_perturbation(dims, bud, rng)
        R_low, _ = split_low_high(R)
        assert reality_defect(R_low) < 1e-15
        F, hat, _ = solve_homological(N, R_low, params, dims)
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
    solve_homological(N, R_low, params, dims)
    for s in (R, R_low, N_series):
        assert s.terms == snapshots[id(s)]


def test_hom_residual_with_zero_generator():
    dims = make_dims(1)
    bud = Budgets(6, 16)
    rng = np.random.default_rng(10)
    N = make_nf(dims, rng, block_scale=0.0, linear_scale=0.0)
    dp = DomainParams(0.5, 0.3, 0.1, 1.0)
    # means-only perturbation plus one oscillating term: with F = 0 and Nhat
    # the k = 0 means, the residual is the norm of the oscillating part
    key = make_key(2, k=(1, 0), alpha=(1, 0))
    R = TFSeries(dims, bud, {make_key(2): 0.5 + 0j, key: 0.2 + 0j})
    hat = extract_hat(R, dims)
    NF0 = poisson_bracket(N.to_series(dims, bud), TFSeries.zero(dims, bud))
    osc = TFSeries(dims, bud, {key: 0.2 + 0j})
    assert hom_residual(NF0, R, hat, dp, dims) == pytest.approx(
        vector_field_norm(osc, dp))
    zero = TFSeries.zero(dims, bud)
    assert hom_residual(NF0, zero, extract_hat(zero, dims), dp, dims) == 0.0


@pytest.mark.parametrize("n,kmax", [(0, 3), (1, 4), (2, 5.5), (3, 4), (4, 2), (2, 0)])
def test_k_lattice_is_the_l1_ball_in_lexicographic_order(n, kmax):
    r = int(kmax)
    expect = np.zeros((1, 0), dtype=int)
    if n:
        axes = [np.arange(-r, r + 1)] * n
        box = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        expect = box[np.abs(box).sum(axis=1) <= kmax]
    assert np.array_equal(k_lattice(n, kmax), expect)


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

    from kamzero.measure import AffineFrequencyMap, ParameterGrid, estimate_excluded

    _, _, kf = nls_build
    fmap = AffineFrequencyMap(kf.alpha, kf.A, dict(kf.N0.Omega))
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
