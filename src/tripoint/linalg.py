"""Dense exact linear algebra over GF(q) on matrices of integer codes.

All routines take the Field first and a 2-D numpy array of codes.  Row
reduction is table-driven: each pivot step updates whole submatrices through
lookup-table gathers, so cost is dominated by numpy fancy indexing rather
than Python loops.
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
    m, n = A.shape
    pivots = []
    r = 0
    for col in range(n):
        if r == m:
            break
        nz = np.nonzero(A[r:, col])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        pc = int(A[r, col])
        if pc != 1:
            A[r] = field.vmul(field.vinv(pc), A[r])
        rows = np.nonzero(A[:, col])[0]
        rows = rows[rows != r]
        if rows.size:
            factors = A[rows, col]
            A[rows] = field.vsub(A[rows], field.vmul(factors[:, None], A[r][None, :]))
        pivots.append(col)
        r += 1
    return A, pivots


def rank(field: Field, mat: np.ndarray) -> int:
    A = np.asarray(mat)
    if A.ndim != 2 or 0 in A.shape:
        return 0
    # eliminate on the transpose when that makes the pivot loop shorter
    if A.shape[0] > A.shape[1]:
        A = A.T
    return len(rref(field, A)[1])


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
    for row, j in enumerate(free):
        basis[row, j] = 1
        # pivot variable value = -R[i, j] for each pivot column
        for i, pc in enumerate(pivots):
            basis[row, pc] = field.neg(int(R[i, j]))
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
        field = self.field
        v = field.array(row).copy()
        for r, p in zip(self.rows, self.pivots):
            c = int(v[p])
            if c:
                v = field.vsub(v, field.vmul(field.array(c), r))
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
