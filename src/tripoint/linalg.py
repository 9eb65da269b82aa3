"""Dense exact linear algebra over GF(q) on matrices of integer codes.

All routines take the Field first and a 2-D numpy array of codes; matmul
also takes a stack of matrices, and rref_transform takes only a stack.
Row reduction is table-driven: each pivot step updates one block of rows
with the fused a - c*b update of the field's tables (submul), its factors
from Field.vmul and vinv, so cost is dominated by numpy gathers rather
than Python loops.  There are two eliminations:

rank is forward-only: each pivot clears the rows below it, from its
column onwards, and nothing is normalised or back-reduced.  The oracle's
dimension queries run it.

rref_transform is the one Gauss-Jordan loop.  For each matrix of a stack
it gives the transform E with E @ A = rref(A), without reducing [A | I]
next to it: an exchange overwrites each pivot column with a column of
the inverse, and E is read from the pivot columns at the end.  The weight
search of codes runs it on stacks of panels.

rref is E @ A for one matrix, a stack of one through rref_transform; the
reduced form is unique, so it is the same R and pivots any Gauss-Jordan
gives.  nullspace and reduced_nullspace read their bases from it.

matmul is the digit BLAS product of a matrix, or a stack of them, by one
matrix.  It does not gather from the q x q tables: a product over
GF(p^k) is bilinear over GF(p) in the base-p digits of its factors, so
it runs as a float64 BLAS product of digit matrices.  The digit sums are
reduced mod p in float64, exactly, and packed into codes by one more
product.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import CODE_DTYPE, Field


def rref(field: Field, mat: np.ndarray):
    """Reduced row echelon form (R, pivots) of a 2-D matrix, where pivots
    lists the pivot column of each nonzero row of R in order; rank ==
    len(pivots).  R is E @ A for the transform E of rref_transform."""
    A = field.array(mat)
    if A.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    E, P = rref_transform(field, A[None])
    return matmul(field, E[0], A), np.flatnonzero(P[0]).tolist()


def rref_transform(field: Field, stack: np.ndarray):
    """For each (r, w) matrix A of a stack, an invertible r x r transform E
    with E @ A = rref(A), and the (B, w) pivot mask of rref(A).

    Where A has rank r, E is the inverse of A's pivot columns, the one
    transform there is, and equals the right block of rref([A | I_r]).
    Below rank r, E's last rows span the left null space of A.

    A Gauss-Jordan exchange inverts the pivot columns in place, with no
    I_r beside A.  A pivot step on row i and column j turns column j into
    e_i and column i of the transform from e_i into the step's column, so
    that column is stored where column j was.  Pivot rows are not swapped
    into place: each step takes the first nonzero row of its column that
    has no pivot yet.  At the end row t of E is the row that pivoted t-th,
    and column i of E is read from row i's pivot column, or is e_i for a
    row that never pivoted.
    """
    A = field.array(stack).copy()
    T = field.tables()
    B, r, w = A.shape
    P = np.zeros((B, w), dtype=bool)
    free = np.ones((B, r), dtype=bool)          # rows without a pivot yet
    # the column of [A | I_r] that holds column i of the transform
    at = np.tile(np.arange(w, w + r), (B, 1))
    for col in range(w if A.size else 0):
        cand = A[:, :, col] != 0
        cand &= free
        members = np.flatnonzero(cand.any(axis=1))
        if members.size == 0:
            continue
        # every member pivots: a plain slice gathers faster
        sel = slice(None) if members.size == B else members
        piv = cand.argmax(axis=1)[members]
        blk = A[sel]
        k = np.arange(members.size)
        inv = field.vinv(blk[k, piv, col])
        row = field.vmul(inv[:, None], blk[k, piv])
        row[:, col] = inv
        factors = blk[:, :, col].copy()
        # row l becomes row l - factors[l] * row: column col gets
        # -factors[l] / a, the transform's new column
        blk[:, :, col] = 0
        blk = T.submul(blk, factors[:, :, None], row[:, None, :])
        blk[k, piv] = row
        A[sel] = blk
        P[members, col] = True
        free[members, piv] = False
        at[members, piv] = col
        if not free.any():
            break
    # rows by pivot column; rows without a pivot last, in row order
    order = np.argsort(at, axis=1, kind="stable")
    full = np.concatenate(
        [A, np.broadcast_to(np.eye(r, dtype=A.dtype), (B, r, r))], axis=2)
    E = full[np.arange(B)[:, None, None], order[:, :, None], at[:, None, :]]
    return E, P


def rank(field: Field, mat: np.ndarray) -> int:
    """Rank by forward elimination only: each pivot clears the rows below
    it, from its column onwards, and nothing is normalised or back-reduced."""
    A = np.asarray(mat)
    if A.ndim != 2 or 0 in A.shape:
        return 0
    # eliminate on the transpose when that makes the pivot loop shorter
    if A.shape[0] > A.shape[1]:
        A = A.T
    A = field.array(A).copy()
    T = field.tables()
    m, n = A.shape
    r = 0
    for col in range(n):
        nz = A[r:, col].nonzero()[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv], col:] = A[[piv, r], col:]
        if nz.size > 1:
            # rows below r, as one block: a zero factor leaves a row as is
            factors = field.vmul(A[r + 1:, col], field.vinv(A[r, col]))
            A[r + 1:, col + 1:] = T.submul(A[r + 1:, col + 1:],
                                           factors[:, None], A[r, col + 1:])
        r += 1
        if r == m:
            break
    return r


def matmul(field: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Field product A @ B of a matrix, or of each matrix of a (..., r, s)
    stack, by one (s, c) matrix.

    Digit j of a * b is sum_i a_i * M_b[i, j] mod p, where row i of M_b
    holds the base-p digits of x^i * b (Field.tables().digit_mul()).  So
    the product is a float64 BLAS matmul of A's digits, an (N * r, s * k)
    matrix, by the (s * k, c * k) matrix of the M_{B[s, c]}.  Every sum
    is an integer of at most s * k * (p - 1)^2, exact in float64, and
    D - p * floor(D / p) is its exact remainder mod p; the digits then
    pack into codes by one product with the place values p^j.  The rows
    go through in blocks of at most _BLOCK_PRODUCTS multiply-adds.
    """
    T = field.tables()
    A, B = np.asarray(A), np.asarray(B)
    *stack, r, s = A.shape
    c = B.shape[1]
    p, k = field.p, field.k
    # take along axis 0 gathers whole table rows, far faster than A as a
    # fancy index
    lhs = T.DIGITS.astype(np.float64).take(A, axis=0).reshape(
        math.prod(stack) * r, s * k)
    rhs = T.digit_mul().take(B, axis=0).transpose(0, 2, 1, 3).reshape(
        s * k, c * k).astype(np.float64)
    place = T.PLACE.astype(np.float64)
    out = np.empty((len(lhs), c), dtype=CODE_DTYPE)
    step = max(1, _BLOCK_PRODUCTS // max(1, s * k * c * k))
    for lo in range(0, len(lhs), step):
        # column (c, j) of the product is digit j of entry c.  Each sum is
        # an integer far below 2^53, so D / p is correctly rounded and
        # never crosses an integer: the floor form is an exact remainder
        # mod p (np.fmod is exact too, but several times slower)
        D = lhs[lo:lo + step] @ rhs
        D -= p * np.floor(D / p)
        out[lo:lo + step] = D.reshape(len(D), c, k) @ place
    return out.reshape(*stack, r, c)


# scalar multiply-adds of one block of matmul's float64 product.  OpenBLAS
# computes a product of at most 2^18 of them on the calling thread, so no
# BLAS worker thread is woken, and none spins idle between blocks.
_BLOCK_PRODUCTS = 1 << 18


def nullspace(field: Field, mat: np.ndarray) -> np.ndarray:
    """Basis of {v : mat @ v = 0}, one vector per row: reduced_nullspace
    of the matrix's rref, so it is deterministic for a given input."""
    return reduced_nullspace(field, *rref(field, mat))


def reduced_nullspace(field: Field, R: np.ndarray, pivots) -> np.ndarray:
    """Basis of the null space of a matrix, read from its reduced form:
    R and pivots as rref gives them.

    The basis is the standard free-variable construction: one vector per
    free column j, with a 1 at j and -R[i, j] at the pivot column of row i.
    """
    n = R.shape[1]
    pivset = set(pivots)
    free = [j for j in range(n) if j not in pivset]
    basis = field.zeros((len(free), n))
    basis[range(len(free)), free] = 1
    basis[:, pivots] = field.vneg(R[:len(pivots), free]).T
    return basis
