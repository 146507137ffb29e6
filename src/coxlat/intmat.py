"""Exact integer matrix arithmetic on small dense matrices.

All exact-arithmetic modules in this package represent a matrix as a
tuple of row tuples of Python ints.  Python integers never overflow, so
every identity checked through this module is an exact statement, and
equal matrices compare equal with == and hash alike.  On tuples, + joins
and * repeats, so all matrix arithmetic goes through the helpers here.
One fraction-free elimination (Bareiss) gives every determinant, and
char_poly and frac_inverse are read off it.  No numpy is imported.
"""

from __future__ import annotations

import math
from functools import cache, reduce
from itertools import chain
from operator import index, sub
from typing import Tuple

__all__ = [
    "IMatrix",
    "as_imatrix",
    "iidentity",
    "matmul",
    "transpose",
    "kron",
    "add",
    "deviation",
    "half_split",
    "frac_inverse",
    "det_exact",
    "balanced_digits",
    "char_poly",
    "matrix_order",
]

IMatrix = Tuple[Tuple[int, ...], ...]

# matrix_order gives up past this order; the largest catalog Coxeter number is 30
MATRIX_ORDER_CAP = 1000


def as_imatrix(data) -> IMatrix:
    """Build a square matrix of Python ints from rows of integers.

    Entries must be ints, numpy integers or bools; anything else (a float,
    a rational) raises TypeError.
    """
    M = tuple([tuple(map(index, row)) for row in data])
    if set(map(len, M)) - {len(M)}:
        raise ValueError(f"expected a square matrix, got row lengths {[len(r) for r in M]}")
    return M


@cache
def iidentity(n: int) -> IMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _mul2(A: IMatrix, B: IMatrix) -> IMatrix:
    # row r of A·B is the sum of A[r][k]·B[k] over the nonzero A[r][k]
    zero = (0,) * (len(B[0]) if B else 0)
    out = []
    for row in A:
        acc = zero
        for a, b in zip(row, B):
            if a:
                acc = [x + a * y for x, y in zip(acc, b)]
        out.append(tuple(acc))
    return tuple(out)


def matmul(*factors: IMatrix) -> IMatrix:
    """The product of the factors, left to right."""
    return reduce(_mul2, factors)


def transpose(M) -> IMatrix:
    return tuple(zip(*M))


def kron(A: IMatrix, B: IMatrix) -> IMatrix:
    """Kronecker product, first factor major."""
    return tuple(tuple(a * b for a in ra for b in rb) for ra in A for rb in B)


def add(A: IMatrix, B: IMatrix, c: int = 1) -> IMatrix:
    """A + c·B."""
    return tuple([tuple([a + c * b for a, b in zip(ra, rb)]) for ra, rb in zip(A, B)])


def deviation(lhs: IMatrix, rhs: IMatrix) -> int:
    """Largest |entry| of lhs - rhs, an exact integer (0 iff they are equal).

    Entries must be integers: a float difference raises TypeError.
    """
    if list(map(len, lhs)) != list(map(len, rhs)):
        raise ValueError("deviation of matrices of different shapes")
    diffs = map(sub, chain.from_iterable(lhs), chain.from_iterable(rhs))
    return max(map(abs, map(index, diffs)), default=0)


def half_split(A: IMatrix) -> Tuple[IMatrix, IMatrix]:
    """A = L + U, L lower and U upper triangular, each with half the diagonal
    (an odd diagonal entry raises ValueError).  U is lattice's standard
    polarization of a symmetric A, and qL + U is qdeform's A(q)."""
    if any(row[i] % 2 for i, row in enumerate(A)):
        raise ValueError("diagonal entries must be even")
    L = tuple(tuple(a // 2 if j == i else a if j < i else 0 for j, a in enumerate(row))
              for i, row in enumerate(A))
    return L, add(A, L, -1)


def _det(M: IMatrix) -> int:
    """Exact integer determinant by fraction-free Bareiss forward elimination,
    the module's one elimination: each division by the previous pivot is exact."""
    n = len(M)
    if n == 0:
        return 1
    a = [list(map(index, r)) for r in M]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        akk, ak = a[k][k], a[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * akk - aik * ak[j]) // prev
        prev = akk
    return sign * a[n - 1][n - 1]


def det_exact(M: IMatrix) -> int:
    """Exact integer determinant (Bareiss); the 0×0 matrix has determinant 1."""
    return _det(M)  # not an alias: a tracer that wraps det_exact must not count char_poly's


def balanced_digits(c: int, bits: int, count: int) -> list:
    """The count digits of c in balanced base B = 2^bits, lowest first, each in
    [-B/2, B/2); a c that needs more digits raises ValueError."""
    base = 1 << bits
    digits = []
    for _ in range(count):
        digits.append((c + base // 2) % base - base // 2)
        c = (c - digits[-1]) >> bits
    if c:
        raise ValueError(f"the integer needs more than {count} base-2^{bits} digits")
    return digits


def char_poly(M: IMatrix) -> list:
    """Coefficients c_0 = 1, c_1, ..., c_n of det(xI - M), highest degree first, exact.

    They are the balanced base-X digits of one determinant det(X·I - M) =
    Σ_k c_k·X^(n-k), X = 2^b: expanding over principal minors bounds Σ_k |c_k|
    by Π_i (1 + Σ_j |m_ij|), and b is one bit above that bound.
    """
    rows = [[-a for a in map(index, row)] for row in M]
    bits = math.prod(1 + sum(map(abs, row)) for row in rows).bit_length() + 1
    for i, row in enumerate(rows):
        row[i] += 1 << bits
    return balanced_digits(_det(rows), bits, len(rows) + 1)[::-1]


def frac_inverse(M: IMatrix) -> IMatrix:
    """Exact integer inverse of a unimodular integer matrix, by Cayley–Hamilton:
    M⁻¹ = -(M^(n-1) + c_1·M^(n-2) + ... + c_(n-1)·I)/c_n over char_poly(M), by
    Horner's rule.  c_n = (-1)^n det M: a singular or non-unimodular M raises
    ValueError."""
    M = tuple([tuple(map(index, row)) for row in M])
    *cs, cn = char_poly(M)
    if cn == 0:
        raise ValueError("singular matrix has no inverse")
    if cn not in (1, -1):
        raise ValueError(f"det = ±{abs(cn)}: no integer inverse")
    P = I = iidentity(len(M))
    for c in cs[1:]:
        P = add(_mul2(M, P), I, c)
    return tuple(tuple(-cn * v for v in row) for row in P)


def matrix_order(M: IMatrix) -> int:
    """Smallest h >= 1 with M^h = I, exact; raises if none found up to MATRIX_ORDER_CAP."""
    I = iidentity(len(M))
    P = M
    for h in range(1, MATRIX_ORDER_CAP + 1):
        if P == I:
            return h
        P = matmul(P, M)
    raise ValueError(f"order not found <= {MATRIX_ORDER_CAP}")
