"""Exact arithmetic in small finite fields GF(p^k).

An element of GF(p^k) is a coefficient vector (c0, ..., c_{k-1}) in the power
basis of a monic irreducible modulus, packed into one integer code

    code = c0 + c1*p + ... + c_{k-1}*p^(k-1),

so codes run over range(p**k) and the prime subfield occupies codes 0..p-1.
Scalar arithmetic works directly on the digit vectors.  Bulk work (series
convolution, Gaussian elimination, point sweeps) goes through lazily built
numpy lookup tables; the tables are constructed internally with discrete logs
of a multiplicative generator, but that is a memoization detail - the element
representation itself stays coefficient-based, which is what serialization
and subfield embeddings rely on.

Fields compare equal exactly when (p, k, modulus) coincide; two equal fields
are interchangeable everywhere.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

# Largest field order for which full q x q lookup tables may be built.
TABLE_LIMIT = 1 << 12

CODE_DTYPE = np.int16


class FieldError(ValueError):
    """Invalid field construction, bad element, or mismatched operands."""


def _factorise(n: int) -> dict:
    """{prime: exponent} of n >= 1 by trial division (n is tiny here)."""
    out = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = 1
    return out


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check."""
    return n >= 2 and _factorise(n) == {n: 1}


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); coefficients are low-degree-first int tuples
# ---------------------------------------------------------------------------

def _trim(coeffs):
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


def _poly_rem(f, g, p):
    """Remainder of f mod g (g nonzero), coefficients mod p."""
    f = list(f)
    dg = len(g) - 1
    inv_lead = pow(g[-1], p - 2, p)
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i] % p
        if c == 0:
            continue
        factor = (c * inv_lead) % p
        for j in range(dg + 1):
            f[i - dg + j] = (f[i - dg + j] - factor * g[j]) % p
    return _trim(f[:dg])


def is_irreducible(coeffs, p: int) -> bool:
    """Test irreducibility over GF(p) by trial division.

    coeffs is low-degree-first; degree must be >= 1.  Trial divisors are all
    monic polynomials of degree 1..deg//2, which is exhaustive and fast for
    the degrees used here (k <= 12).
    """
    coeffs = _trim(tuple(c % p for c in coeffs))
    deg = len(coeffs) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    if coeffs[0] == 0:  # divisible by x
        return False
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            divisor = tail + (1,)
            if not _poly_rem(coeffs, divisor, p):
                return False
    return True


@lru_cache(maxsize=None)
def default_modulus(p: int, k: int) -> tuple:
    """Lexicographically smallest monic irreducible of degree k over GF(p).

    Coefficient tuples are compared low-degree-first, so the choice is
    deterministic and platform independent.
    """
    if k == 1:
        return (0, 1)
    for tail in product(range(p), repeat=k):
        candidate = tail + (1,)
        if is_irreducible(candidate, p):
            return candidate
    raise FieldError(f"no irreducible polynomial found for p={p}, k={k}")


def _reduction_rows(p: int, k: int, modulus) -> list:
    """x^(k+j) mod modulus for j = 0..k-2, as length-k digit tuples.

    Used to fold the high half of a product back into the power basis.
    """
    rows = []
    cur = tuple((-c) % p for c in modulus[:k])  # x^k
    rows.append(cur)
    for _ in range(k - 2):
        shifted = (0,) + cur[: k - 1]
        carry = cur[k - 1]
        if carry:
            shifted = tuple((shifted[i] - carry * modulus[i]) % p
                            for i in range(k))
        cur = shifted
        rows.append(cur)
    return rows


# ---------------------------------------------------------------------------
# lookup tables for bulk numpy arithmetic
# ---------------------------------------------------------------------------

class _Tables:
    """Dense op tables for one field.  Built lazily, at most once per Field."""

    __slots__ = ("q", "p", "char2", "MUL", "ADD", "NEG", "NMUL", "INV", "EXP",
                 "LOG", "DIGITS", "PLACE", "_digit_mul")

    def __init__(self, field: "Field"):
        q, p, k = field.q, field.p, field.k
        if q > TABLE_LIMIT:
            raise FieldError(
                f"bulk table arithmetic unsupported for q={q} > {TABLE_LIMIT}")
        self.q = q
        self.p = p
        self.char2 = p == 2

        gen = field._find_generator()
        exp = np.zeros(max(q - 1, 1), dtype=np.int32)
        e = 1
        for i in range(q - 1):
            exp[i] = e
            e = field.mul(e, gen)
        log = np.zeros(q, dtype=np.int64)
        log[exp[: q - 1]] = np.arange(q - 1)
        self.EXP = exp.astype(CODE_DTYPE)
        self.LOG = log

        # the q x q tables are built in narrow dtypes, reducing each sum by
        # one conditional subtract, so no q x q (x k) int64 array is formed
        mul = np.zeros((q, q), dtype=CODE_DTYPE)
        if q > 1:
            lg = log[1:].astype(np.int32)
            esum = np.add.outer(lg, lg)
            np.subtract(esum, q - 1, out=esum, where=esum >= q - 1)
            mul[1:, 1:] = self.EXP[esum]
            del esum
        self.MUL = mul
        inv = np.zeros(q, dtype=CODE_DTYPE)
        if q > 1:
            inv[1:] = exp[(-log[np.arange(1, q)]) % (q - 1)]
        self.INV = inv

        self.PLACE = p ** np.arange(k)
        self.DIGITS = (np.arange(q)[:, None] // self.PLACE % p).astype(
            CODE_DTYPE)
        self._digit_mul = None
        if self.char2:
            self.ADD = None
            self.NEG = np.arange(q, dtype=CODE_DTYPE)
        else:
            self.ADD = np.zeros((q, q), dtype=CODE_DTYPE)
            self.NEG = np.zeros(q, dtype=CODE_DTYPE)
            # one base-p digit at a time: digit sums stay below 2p
            for d, place in zip(self.DIGITS.T, self.PLACE.tolist()):
                dsum = np.add.outer(d, d)
                np.subtract(dsum, p, out=dsum, where=dsum >= p)
                dsum *= place
                self.ADD += dsum
                self.NEG += (p - d) % p * place
            del dsum
        # NMUL[c, b] = -(c * b); in characteristic 2 negation is the identity
        self.NMUL = mul if self.char2 else self.NEG[mul]

    def digit_mul(self) -> np.ndarray:
        """(q, k, k) table, built on first use: row i of entry b holds the
        base-p digits of x^i * b, so digit j of a * b is
        sum_i a_i * table[b, i, j] mod p."""
        if self._digit_mul is None:
            self._digit_mul = np.ascontiguousarray(
                self.DIGITS[self.MUL[self.PLACE]].transpose(1, 0, 2))
        return self._digit_mul

    def add(self, a, b):
        if self.char2:
            return np.bitwise_xor(a, b)
        return self.ADD[a, b]

    def mul(self, a, b):
        return self.MUL[a, b]

    def submul(self, a, c, b):
        """a - c * b elementwise (broadcasting): the row update of every
        eliminator, two gathers in odd characteristic.

        Each gather reads a flat view of its q x q table at the intp index
        x*q + y: one take of a 1-D array instead of broadcast 2-D fancy
        indexing, and no overflow where x*q exceeds the code dtype."""
        q = self.q
        t = self.NMUL.ravel().take(np.multiply(c, q, dtype=np.intp) + b)
        if self.char2:
            return np.bitwise_xor(a, t)
        return self.ADD.ravel().take(np.multiply(a, q, dtype=np.intp) + t)

    def sum(self, x, axis):
        """Field sum of x along one axis: an XOR reduce in characteristic 2,
        otherwise the base-p digits of the codes summed mod p."""
        if self.char2:
            return np.bitwise_xor.reduce(x, axis=axis)
        x = np.asarray(x)
        digits = self.DIGITS.take(x, axis=0).sum(axis=axis % x.ndim,
                                                 dtype=np.int64)
        return (digits % self.p @ self.PLACE).astype(CODE_DTYPE)

    def neg(self, a):
        if self.char2:
            return np.asarray(a)
        return self.NEG[a]

    def inv(self, a):
        # INV[0] == 0 is a sentinel; callers must not divide by zero.
        return self.INV[a]


# ---------------------------------------------------------------------------
# the field itself
# ---------------------------------------------------------------------------

class Field:
    """GF(p^k) with a fixed monic irreducible modulus.

    Scalar methods (add, mul, inv, ...) act on integer codes.  The vector
    methods (vadd, vmul, ...) act elementwise on numpy arrays of codes and
    require q <= TABLE_LIMIT.
    """

    __slots__ = ("p", "k", "q", "modulus", "_place", "_red_rows",
                 "_tables", "_embed_roots", "_generator", "__weakref__")

    def __init__(self, p: int, k: int = 1, modulus=None):
        if not isinstance(p, int) or not is_prime(p):
            raise FieldError(f"characteristic must be prime, got {p!r}")
        if not isinstance(k, int) or k < 1:
            raise FieldError(f"extension degree must be a positive int, got {k!r}")
        if modulus is None:
            modulus = default_modulus(p, k)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise FieldError(
                    f"modulus must be monic of degree {k}, got {modulus}")
            if not is_irreducible(modulus, p):
                raise FieldError(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = modulus
        self._place = tuple(p ** i for i in range(k))
        self._red_rows = _reduction_rows(p, k, modulus)
        self._tables = None
        self._embed_roots = {}
        self._generator = None

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Field) and self.p == other.p
                and self.k == other.k and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"

    def __reduce__(self):
        return (make_field, (self.p, self.k, self.modulus))

    # -- code/digit conversion ---------------------------------------------

    def digits(self, code: int) -> tuple:
        p = self.p
        out = []
        for _ in range(self.k):
            out.append(code % p)
            code //= p
        return tuple(out)

    def pack(self, digits) -> int:
        return sum(int(d) % self.p * pl for d, pl in zip(digits, self._place))

    def check_code(self, code: int) -> int:
        code = int(code)
        if not 0 <= code < self.q:
            raise FieldError(f"code {code} out of range for {self!r}")
        return code

    # -- scalar arithmetic on codes ------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        out = 0
        for pl in self._place:
            out += ((a // pl + b // pl) % p) * pl
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        p = self.p
        out = 0
        for pl in self._place:
            out += ((p - a // pl) % p) * pl
        return out

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        p, k = self.p, self.k
        if k == 1:
            return (a * b) % p
        da, db = self.digits(a), self.digits(b)
        conv = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            if x == 0:
                continue
            for j, y in enumerate(db):
                conv[i + j] = (conv[i + j] + x * y) % p
        out = list(conv[:k])
        for j in range(k - 1):
            c = conv[k + j]
            if c:
                row = self._red_rows[j]
                for i in range(k):
                    out[i] = (out[i] + c * row[i]) % p
        return self.pack(out)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("division by zero")
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def from_int(self, value: int) -> int:
        """Code of the image of a plain integer under Z -> GF(p) -> GF(p^k)."""
        return value % self.p

    def _find_generator(self) -> int:
        if self._generator is not None:
            return self._generator
        m = self.q - 1
        if m <= 1:
            self._generator = 1
            return 1
        factors = _factorise(m)
        for cand in range(2, self.q):
            if all(self.pow(cand, m // ell) != 1 for ell in factors):
                self._generator = cand
                return cand
        raise FieldError("no multiplicative generator found")  # unreachable

    # -- element wrapper -----------------------------------------------------

    def element(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldError(f"element of {value.field!r} is not in {self!r}")
            return FieldElement(self, value.code)
        if isinstance(value, (int, np.integer)):
            return FieldElement(self, self.check_code(int(value)))
        try:
            digits = [int(d) for d in value]
        except TypeError:
            raise FieldError(f"cannot build a field element from {value!r}")
        if len(digits) > self.k:
            raise FieldError(f"coefficient vector longer than k={self.k}")
        return FieldElement(self, self.pack(digits + [0] * (self.k - len(digits))))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def elements(self):
        return (FieldElement(self, c) for c in range(self.q))

    # -- vectorized arithmetic -------------------------------------------------

    def tables(self) -> _Tables:
        if self._tables is None:
            self._tables = _Tables(self)
        return self._tables

    def vadd(self, a, b):
        return self.tables().add(a, b)

    def vmul(self, a, b):
        return self.tables().mul(a, b)

    def vneg(self, a):
        return self.tables().neg(a)

    def vinv(self, a):
        return self.tables().inv(a)

    def array(self, values) -> np.ndarray:
        return np.asarray(values, dtype=CODE_DTYPE)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=CODE_DTYPE)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}

    @staticmethod
    def from_json(data: dict) -> "Field":
        return make_field(int(data["p"]), int(data["k"]),
                          tuple(int(c) for c in data["modulus"]))


class FieldElement:
    """One element of a Field; thin wrapper over the integer code."""

    __slots__ = ("field", "code")

    def __init__(self, field: Field, code: int):
        self.field = field
        self.code = code

    @property
    def coeffs(self) -> tuple:
        return self.field.digits(self.code)

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldError("operands live in different fields")
            return other.code
        if isinstance(other, (int, np.integer)):
            return self.field.from_int(int(other))
        return NotImplemented

    def __add__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.add(self.code, c))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(self.code, c))

    def __rsub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(c, self.code))

    def __mul__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(self.code, c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.div(self.code, c))

    def __rtruediv__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.div(c, self.code))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.code))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow(self.code, int(e)))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.code == other.code
        if isinstance(other, (int, np.integer)):
            return self.code == self.field.from_int(int(other))
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.code))

    def __bool__(self):
        return self.code != 0

    def __int__(self):
        return self.code

    def __repr__(self):
        return f"{self.field!r}[{self.code}]"


@lru_cache(maxsize=None)
def _cached_field(p: int, k: int, modulus: tuple) -> Field:
    return Field(p, k, modulus)


def make_field(p: int, k: int = 1, modulus=None) -> Field:
    """Construct (or fetch the cached) GF(p^k).

    With modulus=None the deterministic default modulus is used, so repeated
    calls return the identical Field object and its lookup tables are shared.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise FieldError(f"characteristic must be prime, got {p!r}")
    if not isinstance(k, int) or k < 1:
        raise FieldError(f"extension degree must be a positive int, got {k!r}")
    if modulus is None:
        modulus = default_modulus(p, k)
    else:
        modulus = tuple(int(c) % p for c in modulus)
    return _cached_field(p, k, modulus)


def embed(e: FieldElement, target: Field) -> FieldElement:
    """Embed e into an extension field with the same characteristic.

    The embedding sends the source generator to the smallest root (by code)
    of the source modulus in the target, so it is deterministic and, for a
    fixed (source, target) pair, a single consistent field homomorphism.
    """
    src = e.field
    if src == target:
        return FieldElement(target, e.code)
    if target.p != src.p or target.k % src.k != 0:
        raise FieldError(f"{target!r} is not an extension of {src!r}")
    key = (target.p, target.k, target.modulus)
    root = src._embed_roots.get(key)
    if root is None:
        root = _find_embedding_root(src, target)
        src._embed_roots[key] = root
    out = 0
    for d in reversed(src.digits(e.code)):
        out = target.add(target.mul(out, root), d)
    return FieldElement(target, out)


def _find_embedding_root(src: Field, target: Field) -> int:
    mod = src.modulus
    for cand in range(target.q):
        acc = 0
        for c in reversed(mod):
            acc = target.add(target.mul(acc, cand), c)
        if acc == 0:
            return cand
    raise FieldError(f"modulus of {src!r} has no root in {target!r}")
