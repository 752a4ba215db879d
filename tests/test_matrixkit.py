import numpy as np
import pytest

from kamzero.matrixkit import (SingularSystem, commutation_matrix, det_modulus,
                               kron, op_norm, solve_dense, unvec, vec)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_kron_identity_blocks():
    a = 2.5 - 1.0j
    K = kron(np.eye(2), np.array([[a]]))
    assert np.array_equal(K, np.diag([a, a]))
    rng = np.random.default_rng(0)
    A = crandn(rng, 3, 4)
    assert np.array_equal(kron(A, np.eye(1)), A)


def test_kron_mixed_product_and_bilinearity():
    rng = np.random.default_rng(1)
    for _ in range(200):
        A, B, C, D = (crandn(rng, 2, 2) for _ in range(4))
        lhs = kron(A, B) @ kron(C, D)
        rhs = kron(A @ C, B @ D)
        assert np.abs(lhs - rhs).max() <= 1e-13
        s = complex(rng.standard_normal(), rng.standard_normal())
        assert np.abs(kron(s * A + C, B) - (s * kron(A, B) + kron(C, B))).max() <= 1e-13


def test_vec_definition():
    A = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vec(A), np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(unvec(vec(A), 2, 2), A)


def test_vec_three_factor_identity():
    # vec(A B C) = (C^T kron A) vec(B)
    rng = np.random.default_rng(2)
    for _ in range(200):
        A = crandn(rng, 2, 3)
        B = crandn(rng, 3, 2)
        C = crandn(rng, 2, 2)
        lhs = vec(A @ B @ C)
        rhs = kron(C.T, A) @ vec(B)
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_vec_two_sided_identity():
    # vec(A X + X B) = (I kron A + B^T kron I) vec(X)
    rng = np.random.default_rng(3)
    for _ in range(200):
        A, B, X = (crandn(rng, 3, 3) for _ in range(3))
        lhs = vec(A @ X + X @ B)
        rhs = (kron(np.eye(3), A) + kron(B.T, np.eye(3))) @ vec(X)
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_commutation_matrix():
    rng = np.random.default_rng(4)
    for b in (1, 2, 3):
        P = commutation_matrix(b)
        X = crandn(rng, b, b)
        assert np.abs(P @ vec(X) - vec(X.T)).max() <= 1e-15


def test_solve_dense_basics():
    rng = np.random.default_rng(5)
    rhs = crandn(rng, 4)
    assert np.abs(solve_dense(np.eye(4), rhs) - rhs).max() <= 1e-15
    d = np.array([2.0, -3.0, 0.5, 1.0 + 1.0j])
    x = solve_dense(np.diag(d), rhs)
    assert np.abs(x - rhs / d).max() <= 1e-14


def test_solve_dense_residual_and_roundtrip():
    rng = np.random.default_rng(6)
    for _ in range(20):
        M = crandn(rng, 12, 12) + 5 * np.eye(12)
        if np.linalg.cond(M) > 1e6:
            continue
        rhs = crandn(rng, 12)
        x = solve_dense(M, rhs)
        assert np.linalg.norm(M @ x - rhs) <= 1e-12 * np.linalg.norm(rhs) * np.linalg.cond(M)
        y = solve_dense(M, M @ rhs)
        assert np.linalg.norm(y - rhs) <= 1e-11 * np.linalg.norm(rhs)


def test_solve_dense_singular_raises_with_det():
    M = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularSystem) as err:
        solve_dense(M, np.ones(2))
    assert err.value.det_modulus <= 1e-12


def _cofactor_det(M):
    M = np.asarray(M)
    if M.shape[0] == 1:
        return M[0, 0]
    total = 0j
    for j in range(M.shape[1]):
        minor = np.delete(np.delete(M, 0, axis=0), j, axis=1)
        total += (-1) ** j * M[0, j] * _cofactor_det(minor)
    return total


def test_det_modulus():
    assert det_modulus(np.eye(5)) == pytest.approx(1.0)
    assert det_modulus(np.diag([2.0, 3.0])) == pytest.approx(6.0)
    rng = np.random.default_rng(7)
    for _ in range(25):
        M = crandn(rng, 4, 4)
        assert det_modulus(M) == pytest.approx(abs(_cofactor_det(M)), rel=1e-12)


def test_op_norm():
    assert op_norm(np.eye(3)) == pytest.approx(1.0)
    assert op_norm(np.diag([3.0, -1.0])) == pytest.approx(3.0)
    rng = np.random.default_rng(8)
    M = crandn(rng, 5, 5)
    nrm = op_norm(M)
    for _ in range(100):
        v = crandn(rng, 5)
        assert np.linalg.norm(M @ v) <= nrm * np.linalg.norm(v) * (1 + 1e-8)
    # exact to rounding also where the top two singular values nearly tie
    # (a power iteration stops short of the norm there), and 0 when empty
    U, V = (np.linalg.qr(crandn(rng, 3, 3))[0] for _ in range(2))
    M = U @ np.diag([2.0, 2.0 * (1 - 1e-6), 0.5]) @ V.conj().T
    assert op_norm(M) == pytest.approx(2.0, rel=1e-14)
    assert op_norm(np.zeros((0, 3))) == 0.0


# ---------------------------------------------------------------------------
# stacks of matrices
# ---------------------------------------------------------------------------

def _bits(values):
    return np.asarray(values).tobytes()


def test_stacked_det_and_solve_equal_the_per_matrix_loop_bit_for_bit():
    rng = np.random.default_rng(9)
    for d in (1, 2, 4, 12):
        M = crandn(rng, 2, 5, d, d) + d * np.eye(d)
        rhs = crandn(rng, 2, 5, d)
        dm = det_modulus(M)
        assert dm.shape == (2, 5)
        assert _bits(dm) == _bits([[det_modulus(m) for m in row] for row in M])
        x = solve_dense(M, rhs)
        assert x.shape == (2, 5, d)
        assert _bits(x) == _bits([[solve_dense(m, r) for m, r in zip(*row)] for row in zip(M, rhs)])
    assert det_modulus(np.zeros((0, 3, 3))).shape == (0,)
    assert solve_dense(np.zeros((0, 3, 3)), np.zeros((0, 3))).shape == (0, 3)


def _first_failure(M, rhs, cond_guard):
    """(index, |det|, message) of the first matrix the per-matrix loop rejects."""
    for g, (m, r) in enumerate(zip(M, rhs)):
        try:
            solve_dense(m, r, cond_guard)
        except SingularSystem as err:
            return (g,), err.det_modulus, str(err).split(" (")[0]
    return None


def test_stacked_solve_names_the_first_failing_matrix():
    rng = np.random.default_rng(10)
    M = crandn(rng, 6, 3, 3) + 3 * np.eye(3)
    rhs = crandn(rng, 6, 3)
    # an ill-conditioned member at 4 and an exactly singular one at 2 (its
    # second row twice its first, so the LU factorization meets a zero pivot)
    M[4, 2] = M[4, 1] + 1e-14 * M[4, 0]
    M[2] = [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]
    for stack, guard, where, message in [(M, 1e12, (2,), "ill-conditioned linear system"),
                                         (M, None, (2,), "singular linear system"),
                                         (np.delete(M, 2, axis=0), 1e12, (3,),
                                          "ill-conditioned linear system")]:
        right = rhs[:len(stack)]
        with pytest.raises(SingularSystem) as err:
            solve_dense(stack, right, guard)
        assert err.value.index == where
        assert str(err.value).startswith(message + " at matrix (%d,)" % where[0])
        assert (err.value.index, err.value.det_modulus, message) == _first_failure(stack, right,
                                                                                    guard)
    assert det_modulus(M)[2] == 0.0 == det_modulus(M[2])
    # a single matrix names no index
    with pytest.raises(SingularSystem) as err:
        solve_dense(M[2], rhs[2], None)
    assert err.value.index == () and "at matrix" not in str(err.value)
