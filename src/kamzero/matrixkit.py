"""Small dense complex linear algebra used by the per-mode solves.

Kronecker products and column straightening follow the block definitions;
dense solves and determinant moduli are backed by LAPACK through
numpy.linalg, behind the contracts below (condition guard, singular-system
error carrying |det| and the failing matrix's index).  Both take one matrix
or a stack ``(..., d, d)`` of them: numpy's batched LAPACK routines factor
each matrix of a stack on its own, so every result is the one the matrix
alone gives, bit for bit.  Everything here is a pure function on small
arrays.
"""

import numpy as np


class SingularSystem(Exception):
    """Raised when a per-mode linear system is numerically singular.

    ``index`` is the position of the failing matrix in a stack (a tuple over
    the stack's axes, ``()`` for a single matrix)."""

    def __init__(self, det_modulus, message="singular linear system", index=()):
        where = " at matrix %s" % (index,) if index else ""
        super().__init__("%s%s (|det| = %.3e)" % (message, where, det_modulus))
        self.det_modulus = det_modulus
        self.index = index


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


def _square(M, what):
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError("%s needs a square matrix or a stack of them" % what)
    return M


def det_modulus(M):
    """|det M| via pivoted LU factorization: a float for one matrix, an array
    over the stack's axes for a stack ``(..., d, d)``."""
    M = _square(M, "determinant")
    sign, logdet = np.linalg.slogdet(M)
    if M.ndim == 2:
        return 0.0 if sign == 0 else float(np.exp(logdet))
    return np.where(sign == 0, 0.0, np.exp(logdet))


def _failure(M, failed, message):
    """SingularSystem at the first matrix of the stack M where ``failed``
    holds, in row-major order of the stack's axes."""
    index = np.unravel_index(int(np.argmax(failed)), M.shape[:-2])
    return SingularSystem(det_modulus(M[index]), message, tuple(int(i) for i in index))


def solve_dense(M, rhs, cond_guard=1e12):
    """Solve M x = rhs with partial pivoting; a stack ``(..., d, d)`` of
    matrices takes one right side ``(..., d)`` each.

    Raises SingularSystem when the condition estimate exceeds ``cond_guard``
    (conservative exclusion of near-resonant systems) or when M is exactly
    singular, naming the first failing matrix of a stack.  The determinant
    is only formed to report a failure, so a caller that has already
    checked it pays for it once.
    """
    M = _square(M, "solve")
    rhs = np.asarray(rhs, dtype=complex)
    if cond_guard is not None and M.size:
        c = np.linalg.cond(M)
        bad = ~np.isfinite(c) | (c > cond_guard)
        if bad.any():
            raise _failure(M, bad, "ill-conditioned linear system")
    try:
        if M.ndim == 2:
            return np.linalg.solve(M, rhs)
        return np.linalg.solve(M, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise _failure(M, np.linalg.slogdet(M)[0] == 0, "singular linear system") from None


def op_norm(M):
    """Spectral norm, the largest singular value of M (0 for an empty M),
    exact to rounding by an SVD."""
    M = np.asarray(M, dtype=complex)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))
