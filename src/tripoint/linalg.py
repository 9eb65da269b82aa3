"""Dense exact linear algebra over GF(q) on matrices of integer codes.

All routines take the Field first and a 2-D numpy array of codes.  Row
reduction is table-driven: each pivot step updates one block of rows, from
the pivot column onwards, with the fused a - c*b update of the field's
tables (submul), so cost is dominated by numpy fancy indexing rather than
Python loops.  rref reduces above and below each pivot; rank only
eliminates below it.
"""

from __future__ import annotations

import numpy as np

from .fields import Field


def rref(field: Field, mat: np.ndarray):
    """Reduced row echelon form.

    Returns (R, pivots) where pivots lists the pivot column of each nonzero
    row of R in order.  rank == len(pivots).
    """
    A = field.array(mat).copy()
    if A.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    T = field.tables()
    m, n = A.shape
    pivots = []
    r = 0
    for col in range(n):
        if r == m:
            break
        nz = A[:, col].nonzero()[0]
        k = nz.searchsorted(r)
        if k == nz.size:
            continue
        # columns before col are zero in rows r.. and stay untouched
        piv = int(nz[k])
        if piv != r:
            A[[r, piv], col:] = A[[piv, r], col:]
        pc = int(A[r, col])
        if pc != 1:
            A[r, col:] = T.MUL[T.INV[pc], A[r, col:]]
        if nz.size > 1:
            # every other row, as one block: a zero factor leaves a row as is
            factors = A[:, col].copy()
            factors[r] = 0
            A[:, col:] = T.submul(A[:, col:], factors[:, None], A[r, col:])
        pivots.append(col)
        r += 1
    return A, pivots


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


class IncrementalBasis:
    """Maintains an RREF of accepted rows; used to lift quotient bases.

    add(row) returns True when the row enlarged the span (and was kept).
    """

    def __init__(self, field: Field, width: int):
        self.field = field
        self.width = width
        self.rows = []      # reduced rows
        self.pivots = []    # pivot column per reduced row

    def reduce(self, row: np.ndarray) -> np.ndarray:
        T = self.field.tables()
        v = self.field.array(row).copy()
        for r, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                v = T.submul(v, c, r)
        return v

    def add(self, row: np.ndarray) -> bool:
        field = self.field
        v = self.reduce(row)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        p = int(nz[0])
        c = int(v[p])
        if c != 1:
            v = field.vmul(field.vinv(c), v)
        self.rows.append(v)
        self.pivots.append(p)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)
