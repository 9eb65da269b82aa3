import numpy as np
import pytest

from tripoint import linalg
from tripoint.fields import Field, make_field


def fmatmul(field, A, B):
    """Naive matrix product over the field, for independent verification."""
    A = np.asarray(A)
    B = np.asarray(B)
    out = field.zeros((A.shape[0], B.shape[1]))
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = 0
            for t in range(A.shape[1]):
                acc = field.add(acc, field.mul(int(A[i, t]), int(B[t, j])))
            out[i, j] = acc
    return out


def random_matrix(field, rng, rows, cols):
    return field.array(rng.integers(0, field.q, (rows, cols)))


def test_rref_shape_and_pivots():
    f = make_field(2, 4)
    rng = np.random.default_rng(0)
    M = random_matrix(f, rng, 6, 9)
    R, pivots = linalg.rref(f, M)
    assert len(pivots) == linalg.rank(f, M)
    for r, c in enumerate(pivots):
        assert R[r, c] == 1
        col = R[:, c]
        assert (col != 0).sum() == 1  # fully reduced


def test_rank_nullity():
    rng = np.random.default_rng(1)
    for (p, k) in ((2, 3), (3, 2), (7, 1)):
        f = make_field(p, k)
        for _ in range(10):
            rows, cols = rng.integers(1, 9, 2)
            M = random_matrix(f, rng, int(rows), int(cols))
            r = linalg.rank(f, M)
            N = linalg.nullspace(f, M)
            assert r + N.shape[0] == int(cols)
            if N.shape[0]:
                prod = fmatmul(f, M, N.T)
                assert not prod.any()


def test_rank_transpose_invariant():
    f = make_field(3, 2)
    rng = np.random.default_rng(2)
    for _ in range(8):
        M = random_matrix(f, rng, 7, 4)
        assert linalg.rank(f, M) == linalg.rank(f, M.T)


def test_row_space_basis():
    # the nonzero rows of rref are a canonical basis of the row space
    f = make_field(2, 4)
    rng = np.random.default_rng(3)
    M = random_matrix(f, rng, 5, 8)
    # duplicate and scale rows; the row space must not change
    doubled = np.vstack([M, M, f.vmul(M, f.array(3))])
    R1, piv1 = linalg.rref(f, M)
    R2, piv2 = linalg.rref(f, doubled)
    assert piv1 == piv2
    B1, B2 = R1[:len(piv1)], R2[:len(piv2)]
    assert np.array_equal(B1, B2)  # rref canonical form
    assert not R2[len(piv2):].any()
    assert linalg.rank(f, B1) == B1.shape[0]


def test_nullspace_of_full_rank():
    f = make_field(7)
    M = f.array([[1, 0], [0, 1], [3, 5]])
    assert linalg.nullspace(f, M).shape[0] == 0


def test_zero_and_empty():
    f = make_field(5)
    Z = f.zeros((3, 4))
    assert linalg.rank(f, Z) == 0
    assert linalg.nullspace(f, Z).shape == (4, 4)
    E = f.zeros((0, 4))
    assert linalg.rank(f, E) == 0


# ---------------------------------------------------------------------------
# every eliminator against a plain scalar Gauss-Jordan
# ---------------------------------------------------------------------------

def scalar_rref(field, M):
    """Gauss-Jordan with scalar Field arithmetic, one entry at a time."""
    A = [[int(v) for v in row] for row in np.asarray(M)]
    rows, cols = np.shape(M)
    pivots, r = [], 0
    for col in range(cols):
        piv = next((i for i in range(r, rows) if A[i][col]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        s = field.inv(A[r][col])
        A[r] = [field.mul(s, v) for v in A[r]]
        for i in range(rows):
            c = A[i][col]
            if i != r and c:
                A[i] = [field.sub(a, field.mul(c, b))
                        for a, b in zip(A[i], A[r])]
        pivots.append(col)
        r += 1
        if r == rows:
            break
    return field.array(A).reshape(rows, cols), pivots


def scalar_nullspace(field, M):
    R, pivots = scalar_rref(field, M)
    n = R.shape[1]
    free = [j for j in range(n) if j not in pivots]
    basis = field.zeros((len(free), n))
    for row, j in enumerate(free):
        basis[row, j] = 1
        for i, pc in enumerate(pivots):
            basis[row, pc] = field.sub(0, int(R[i, j]))
    return basis


def _test_matrices(field, rng):
    """Tall, wide, 1 x n and n x 1; random, rank-deficient, and with
    pivots equal to 1 and not equal to 1; then zero and empty matrices."""
    q = field.q
    out = []
    for rows, cols in ((9, 4), (4, 9), (6, 6), (1, 7), (7, 1), (1, 1)):
        M = random_matrix(field, rng, rows, cols)
        out.append(M)
        # duplicated and scaled rows, and zero columns
        D = M.copy()
        if rows > 2:
            D[1] = M[0]
            D[2] = field.vmul(field.array(int(rng.integers(1, q))), M[0])
        if cols > 2:
            D[:, 1] = 0
            D[:, -1] = 0
        out.append(D)
        # a leading identity block: every pivot is already 1
        E = M.copy()
        k = min(rows, cols)
        E[:k, :k] = np.eye(k, dtype=E.dtype)
        out.append(E)
        # pivots not equal to 1 (for q > 2): a scaled diagonal
        S = field.zeros((rows, cols))
        S[np.arange(k), np.arange(k)] = rng.integers(1, q, k)
        S[:, k:] = M[:, k:]
        out.append(S)
    out.append(field.zeros((3, 5)))
    # no rows, no columns, neither
    out += [field.zeros((0, 5)), field.zeros((4, 0)), field.zeros((0, 0))]
    return out


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3),
                                  (3, 2), (3, 3), (7, 2), (3, 4)])
def test_elimination_matches_scalar_reference(p, k):
    f = make_field(p, k)
    rng = np.random.default_rng(p ** k)
    for M in _test_matrices(f, rng):
        R0, piv0 = scalar_rref(f, M)
        R, piv = linalg.rref(f, M)
        assert R.dtype == R0.dtype
        assert np.array_equal(R, R0) and piv == piv0, M
        assert type(piv) is list and all(type(c) is int for c in piv)
        assert linalg.rank(f, M) == len(piv0)
        assert linalg.rank(f, M.T) == len(piv0)
        N = linalg.nullspace(f, M)
        N0 = scalar_nullspace(f, M)
        assert N.dtype == N0.dtype and np.array_equal(N, N0), M
        assert np.array_equal(linalg.reduced_nullspace(f, R, piv), N0)


@pytest.mark.parametrize("p, k", [(3, 3), (2, 4)])
def test_eliminate_matches_scalar_residuals(p, k):
    from tripoint.codes import _eliminate
    f = make_field(p, k)
    rng = np.random.default_rng(11 * p + k)
    for rows, cols in ((5, 9), (1, 4), (6, 6)):
        R = random_matrix(f, rng, rows, cols)
        R[:, 1] = 0                      # a zero column sets the flag
        R[1:, 2] = 0                     # the pivot is the first row
        R[-1, 3] = 0                     # the pivot is above the last row
        count = cols - 1
        # one matrix shared by every member, member i eliminating column
        # i; then a stack of distinct matrices, each with its own column
        S = random_matrix(f, rng, 3 * rows, cols).reshape(3, rows, cols)
        S[0][-1, cols - 1] = 0
        S[1][:, 2] = 0
        S[2][1:, 0] = 0
        for stack, own in ((R[None], np.arange(count)),
                           (S, np.array([cols - 1, 2, 0]))):
            res, zero = _eliminate(f, stack, own)
            # the pivot row is dropped: rows = 1 leaves a 0-row residual
            assert res.shape == (len(own), rows - 1, cols)
            for i, o in enumerate(own):
                M = stack[min(i, len(stack) - 1)]
                col = [int(v) for v in M[:, o]]
                assert zero[i] == (not any(col))
                if zero[i]:
                    assert np.array_equal(res[i], M[:-1])
                    continue
                # the pivot is the last nonzero row; the last row, when
                # below it, takes the pivot's slot
                piv = max(r for r, v in enumerate(col) if v)
                for slot in range(rows - 1):
                    r = rows - 1 if slot == piv else slot
                    c = f.div(col[r], col[piv])
                    want = [f.sub(int(a), f.mul(c, int(b)))
                            for a, b in zip(M[r], M[piv])]
                    assert list(map(int, res[i, slot])) == want


@pytest.mark.parametrize("p, k", [(2, 1), (7, 1), (2, 4), (3, 3), (7, 2)])
def test_stacked_rref_matches_each_matrix(p, k):
    # rref_transform on a stack: each member's E @ A and pivot mask are
    # the scalar reduction of that member alone
    f = make_field(p, k)
    rng = np.random.default_rng(5 * p + k)
    for B, rows, cols in ((6, 4, 9), (5, 9, 4), (4, 6, 6), (3, 1, 7),
                          (1, 5, 8), (4, 0, 6), (0, 3, 5), (3, 3, 0)):
        stack = f.array(rng.integers(0, f.q, (B, rows, cols)))
        mixed = B > 3 and rows > 1 and cols > 3
        if mixed:
            stack[0] = 0                          # a zero matrix
            stack[1][:, ::2] = 0                  # zero columns
            stack[2][1] = stack[2][0]             # rank-deficient rows
            stack[2][-1] = 0
            stack[3][:, :cols // 2] = 0           # pivots late
        E, P = linalg.rref_transform(f, stack)
        assert E.shape == (B, rows, rows) and E.dtype == stack.dtype
        assert P.shape == (B, cols) and P.dtype == bool
        if mixed:
            # some columns pivot in some matrices only: the partial branch
            assert (P.any(axis=0) & ~P.all(axis=0)).any()
        for b in range(B):
            R0, piv0 = scalar_rref(f, stack[b])
            assert np.flatnonzero(P[b]).tolist() == piv0
            assert np.array_equal(fmatmul(f, E[b], stack[b]), R0)


@pytest.mark.parametrize("p, k", [(2, 1), (7, 1), (2, 4), (7, 2)])
def test_rref_transform_matches_augmented_rref(p, k):
    # the in-place exchange against the scalar rref of [A | I_r]: the same
    # pivot mask always, and the same transform wherever A has rank r;
    # below rank r it is still an invertible E with E @ A = rref(A)
    f = make_field(p, k)
    rng = np.random.default_rng(13 * p + k)
    full_rank = []
    for B, r, w in ((40, 4, 6), (40, 6, 8), (20, 3, 12), (20, 5, 3),
                    (5, 0, 4), (5, 3, 0), (0, 3, 5)):
        for shape in ("random", "zero columns", "repeated columns"):
            A = f.array(rng.integers(0, f.q, (B, r, w)))
            if shape == "zero columns":
                A[:, :, rng.choice(w, w // 2, replace=False)] = 0
            elif shape == "repeated columns" and w > 2:
                # columns 1, 2 and the last are multiples of column 0
                for j, c in ((1, 1), (2, f.q - 1), (w - 1, 1 % (f.q - 1) + 1)):
                    A[:, :, j] = f.vmul(f.array(c), A[:, :, 0])
            E, P = linalg.rref_transform(f, A)
            assert E.shape == (B, r, r) and E.dtype == A.dtype
            eye = np.eye(r, dtype=A.dtype)
            for b in range(B):
                R, piv = scalar_rref(f, np.concatenate([A[b], eye], axis=1))
                assert np.flatnonzero(P[b]).tolist() == [
                    c for c in piv if c < w]
                full = bool(P[b].sum() == r)
                if full:
                    assert np.array_equal(E[b], R[:, w:])
                assert linalg.rank(f, E[b]) == r
                # the left block of rref([A | I_r]) is rref(A)
                assert np.array_equal(fmatmul(f, E[b], A[b]), R[:, :w])
                full_rank.append(full)
    # both branches of the comparison ran
    assert True in full_rank and False in full_rank


def test_rref_rejects_other_ranks():
    f = make_field(3)
    for shape in ((4,), (2, 3, 4), (2, 2, 2, 2)):
        with pytest.raises(ValueError):
            linalg.rref(f, f.zeros(shape))


@pytest.mark.parametrize("p, k", [(2, 1), (7, 1), (2, 3), (2, 4), (3, 3),
                                  (7, 2), (3, 7), (2, 12), (4093, 1)])
def test_matmul_matches_scalar_reference(p, k):
    # a fresh Field, so the tables of the large fields are freed afterwards
    f = Field(p, k)
    rng = np.random.default_rng(p ** k)
    top = f.q - 1
    cases = [rng.integers(0, f.q, (3, 4)), rng.integers(0, f.q, (2, 3, 4)),
             rng.integers(0, f.q, (2, 2, 3, 5)), np.full((2, 6), top),
             np.zeros((0, 4)), np.zeros((3, 0)), np.zeros((2, 0, 3)),
             np.zeros((0, 3, 2))]
    for A in cases:
        A = f.array(A)
        for c in (5, 1, 0):
            B = f.array(rng.integers(0, f.q, (A.shape[-1], c)))
            if A.max(initial=0) == top:
                B[:] = top
            got = linalg.matmul(f, A, B)
            assert got.shape == (*A.shape[:-1], c) and got.dtype == A.dtype
            want = f.zeros(got.shape)
            for idx in np.ndindex(A.shape[:-2]):
                want[idx] = fmatmul(f, A[idx], B)
            assert np.array_equal(got, want)


def test_matmul_row_blocks(monkeypatch):
    # a product of more rows than one block holds is formed block by block
    f = make_field(7, 2)
    rng = np.random.default_rng(3)
    A = random_matrix(f, rng, 11, 6)
    B = random_matrix(f, rng, 6, 4)
    want = linalg.matmul(f, A, B)
    assert np.array_equal(want, fmatmul(f, A, B))
    # three rows of the (11, 12) x (12, 8) digit product per block
    monkeypatch.setattr(linalg, "_BLOCK_PRODUCTS", 3 * 12 * 8)
    assert np.array_equal(linalg.matmul(f, A, B), want)
    assert np.array_equal(linalg.matmul(f, A.reshape(1, 11, 6), B)[0], want)
