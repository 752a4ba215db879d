"""Small dense complex linear algebra used by the per-mode solves.

Kronecker products and column straightening follow the block definitions;
dense solves and determinant moduli are backed by LAPACK through
numpy.linalg, behind the contracts below (residual guard, singular-system
error carrying |det|).  Everything here is a pure function on small arrays.
"""

import numpy as np


class SingularSystem(Exception):
    """Raised when a per-mode linear system is numerically singular."""

    def __init__(self, det_modulus, message="singular linear system"):
        super().__init__("%s (|det| = %.3e)" % (message, det_modulus))
        self.det_modulus = det_modulus


def kron(A, B):
    """Kronecker product: the block matrix (a_ij B), shape (mp, nq)."""
    A = np.asarray(A)
    B = np.asarray(B)
    m, n = A.shape
    p, q = B.shape
    return np.einsum("ij,kl->ikjl", A, B).reshape(m * p, n * q)


def vec(A):
    """Column straightening: stack the columns of A top to bottom."""
    A = np.asarray(A)
    return A.reshape(A.shape[0] * A.shape[1], order="F").copy()


def unvec(v, rows, cols):
    """Inverse of ``vec`` for a rows x cols matrix."""
    return np.asarray(v).reshape(rows, cols, order="F").copy()


def commutation_matrix(b):
    """Permutation P with P vec(X) = vec(X^T) for b x b matrices."""
    P = np.zeros((b * b, b * b))
    for i in range(b):
        for j in range(b):
            P[j * b + i, i * b + j] = 1.0
    return P


def det_modulus(M):
    """|det M| via pivoted LU factorization."""
    M = np.asarray(M, dtype=complex)
    if M.shape[0] != M.shape[1]:
        raise ValueError("determinant needs a square matrix")
    sign, logdet = np.linalg.slogdet(M)
    if sign == 0:
        return 0.0
    return float(np.exp(logdet))


def solve_dense(M, rhs, cond_guard=1e12):
    """Solve M x = rhs with partial pivoting.

    Raises SingularSystem when the condition estimate exceeds ``cond_guard``
    (conservative exclusion of near-resonant systems) or when M is exactly
    singular.  The determinant is only formed to report a failure, so a
    caller that has already checked it pays for it once.
    """
    M = np.asarray(M, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    if M.shape[0] != M.shape[1]:
        raise ValueError("solve needs a square matrix")
    if cond_guard is not None and M.shape[0] > 0:
        c = np.linalg.cond(M)
        if not np.isfinite(c) or c > cond_guard:
            raise SingularSystem(det_modulus(M), "ill-conditioned linear system")
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        raise SingularSystem(det_modulus(M)) from None


def op_norm(M, tol=1e-10, max_iter=500, seed=7):
    """Spectral norm via power iteration on M* M (relative tolerance)."""
    M = np.asarray(M, dtype=complex)
    if M.size == 0:
        return 0.0
    MM = M.conj().T @ M
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(M.shape[1]) + 1j * rng.standard_normal(M.shape[1])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = MM @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam_new = float(np.real(np.vdot(v, MM @ v)))
        if abs(lam_new - lam) <= tol * max(lam_new, 1e-300):
            lam = lam_new
            break
        lam = lam_new
    return float(np.sqrt(max(lam, 0.0)))
