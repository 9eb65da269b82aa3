"""Dense exact linear algebra over GF(q) on matrices of integer codes.

All routines take the Field first and a 2-D numpy array of codes; rref
also takes a (B, m, n) stack of matrices.  Row reduction is table-driven:
each pivot step updates one block of rows, from the pivot column onwards,
with the fused a - c*b update of the field's tables (submul), whose two
gathers read flat views of the q x q tables, so cost is dominated by numpy
gathers rather than Python loops.  rref reduces above and below each
pivot; rank only eliminates below it.

rref reduces a stack in lockstep with one pivot loop: at each column,
every matrix that has a nonzero at or below its own rank takes its first
such row as pivot, and the whole stack block from that column on gets one
submul.  The reduced form is unique, so each matrix of a stack reduces
exactly as it would alone; a 2-D matrix is a stack of one.
"""

from __future__ import annotations

import numpy as np

from .fields import Field


def rref(field: Field, mat: np.ndarray):
    """Reduced row echelon form of a matrix, or of every matrix in a stack.

    A 2-D matrix gives (R, pivots), where pivots lists the pivot column of
    each nonzero row of R in order; rank == len(pivots).  A (B, m, n) stack
    gives (R, P): the stack of reduced forms and a (B, n) boolean mask of
    each matrix's pivot columns.  A 2-D matrix is reduced as a stack of one.
    """
    A = field.array(mat).copy()
    if A.ndim not in (2, 3):
        raise ValueError("expected a 2-D matrix or a 3-D stack of them")
    single = A.ndim == 2
    if single:
        A = A[None]
    T = field.tables()
    B, m, n = A.shape
    P = np.zeros((B, n), dtype=bool)
    rank = np.zeros(B, dtype=np.intp)
    rows = np.arange(m)
    for col in range(n if A.size else 0):
        # each matrix's first nonzero row at or below its own rank;
        # columns before col are zero there and stay untouched
        cand = A[:, :, col] != 0
        cand &= rows >= rank[:, None]
        has = cand.any(axis=1)
        if has.all():
            sel = slice(None)            # every matrix pivots: plain slices
        else:
            sel = np.flatnonzero(has)
            if sel.size == 0:
                continue
        r, piv = rank[sel], cand.argmax(axis=1)[sel]
        blk = A[sel, :, col:]
        k = np.arange(r.size)
        top, low = blk[k, r], blk[k, piv]
        blk[k, piv] = top
        low = T.MUL[T.INV[low[:, :1]], low]
        blk[k, r] = low
        # every other row, as one block: a zero factor leaves a row as is
        factors = blk[:, :, 0].copy()
        factors[k, r] = 0
        if factors.any():
            blk = T.submul(blk, factors[:, :, None], low[:, None, :])
        A[sel, :, col:] = blk
        P[sel, col] = True
        rank[sel] += 1
        if rank.min() == m:
            break
    if single:
        return A[0], np.flatnonzero(P[0]).tolist()
    return A, P


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
            factors = T.MUL[A[r + 1:, col], T.INV[A[r, col]]]
            A[r + 1:, col + 1:] = T.submul(A[r + 1:, col + 1:],
                                           factors[:, None], A[r, col + 1:])
        r += 1
        if r == m:
            break
    return r


def row_space_basis(field: Field, mat: np.ndarray) -> np.ndarray:
    """Full-rank matrix with the same row space (zero rows dropped)."""
    R, pivots = rref(field, mat)
    return R[: len(pivots)].copy()


def nullspace(field: Field, mat: np.ndarray) -> np.ndarray:
    """Basis of {v : mat @ v = 0}, one vector per row.

    The basis is the standard free-variable construction from the RREF, so
    it is deterministic for a given input.
    """
    A = np.asarray(mat)
    n = A.shape[1]
    R, pivots = rref(field, A)
    pivset = set(pivots)
    free = [j for j in range(n) if j not in pivset]
    basis = field.zeros((len(free), n))
    basis[range(len(free)), free] = 1
    # pivot variable value = -R[i, j] for each pivot column
    basis[:, pivots] = field.tables().NEG[R[:len(pivots), free]].T
    return basis

