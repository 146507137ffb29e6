"""Exact integer matrix arithmetic on small dense matrices.

All exact-arithmetic modules in this package represent a matrix as a
tuple of row tuples of Python ints.  Python integers never overflow, so
every identity checked through this module is an exact statement, and
equal matrices compare equal with == and hash alike.  On tuples, + joins
and * repeats, so all matrix arithmetic goes through the helpers here.
The lattices here are unimodular, so inverses stay integral: frac_inverse
rejects any matrix without an integer inverse.  No numpy is imported.
"""

from __future__ import annotations

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
    "is_symmetric",
    "half_split",
    "frac_inverse",
    "det_exact",
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


def is_symmetric(A: IMatrix) -> bool:
    return A == transpose(A)


def half_split(A: IMatrix) -> Tuple[IMatrix, IMatrix]:
    """A = L + U, L lower and U upper triangular, each with half the diagonal
    (an odd diagonal entry raises ValueError).  U is lattice's standard
    polarization of a symmetric A, and qL + U is qdeform's A(q)."""
    if any(row[i] % 2 for i, row in enumerate(A)):
        raise ValueError("diagonal entries must be even")
    L = tuple(tuple(a // 2 if j == i else a if j < i else 0 for j, a in enumerate(row))
              for i, row in enumerate(A))
    return L, add(A, L, -1)


def frac_inverse(M: IMatrix) -> IMatrix:
    """Exact integer inverse of a unimodular integer matrix.

    Runs fraction-free Gauss-Jordan on [M | I]: each step's division by the
    previous pivot is exact (Bareiss), and the last step leaves d·[I | M⁻¹]
    with d = ±det M.  So the right block times d is M⁻¹ when d = ±1; a
    singular or non-unimodular M raises ValueError.
    """
    n = len(M)
    rows = [list(map(index, r)) + [int(i == j) for j in range(n)] for i, r in enumerate(M)]
    prev = 1
    for k in range(n):
        if rows[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if rows[r][k] != 0), None)
            if piv is None:
                raise ValueError("singular matrix has no inverse")
            rows[k], rows[piv] = rows[piv], rows[k]
        rk = rows[k]
        p = rk[k]
        for i in range(n):
            if i != k:
                f = rows[i][k]
                rows[i] = [(p * a - f * b) // prev for a, b in zip(rows[i], rk)]
        prev = p
    if prev not in (1, -1):
        raise ValueError(f"det = ±{abs(prev)}: no integer inverse")
    return tuple(tuple(prev * v for v in r[n:]) for r in rows)


def det_exact(M: IMatrix) -> int:
    """Exact integer determinant via fraction-free Bareiss elimination.

    The 0×0 matrix has determinant 1, the empty product.
    """
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


def char_poly(M: IMatrix) -> list:
    """Coefficients of det(xI - M), highest degree first, exact.

    Integer Faddeev-LeVerrier: M_1 = I, M_{k+1} = M·M_k + c_{n-k}·I and
    c_{n-k} = -tr(M·M_k)/k, where each division is exact.  Row i of M·M_k
    sums the rows of M_k over the nonzero entries of row i of M only.
    """
    n = len(M)
    nonzero = [[(j, a) for j, a in enumerate(map(index, row)) if a] for row in M]
    coeffs = [1]
    Mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        MMk = []
        for terms in nonzero:
            acc = [0] * n
            for j, a in terms:
                acc = [x + a * y for x, y in zip(acc, Mk[j])]
            MMk.append(acc)
        c = -sum(MMk[i][i] for i in range(n)) // k
        coeffs.append(c)
        for i in range(n):
            MMk[i][i] += c
        Mk = MMk
    return coeffs


def matrix_order(M: IMatrix) -> int:
    """Smallest h >= 1 with M^h = I, exact; raises if none found up to MATRIX_ORDER_CAP."""
    I = iidentity(len(M))
    P = M
    for h in range(1, MATRIX_ORDER_CAP + 1):
        if P == I:
            return h
        P = matmul(P, M)
    raise ValueError(f"order not found <= {MATRIX_ORDER_CAP}")
