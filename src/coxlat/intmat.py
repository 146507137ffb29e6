"""Exact integer matrix arithmetic on small dense matrices.

All exact-arithmetic modules in this package represent matrices as square
numpy arrays of dtype=object holding Python ints.  Python integers never
overflow, and numpy's object matmul dispatches to exact Python arithmetic,
so every identity checked through this module is an exact statement.  The
lattices here are unimodular, so inverses stay integral: frac_inverse
rejects any matrix without an integer inverse.
"""

from __future__ import annotations

from operator import index

import numpy as np

__all__ = [
    "as_imatrix",
    "iidentity",
    "mat_eq",
    "deviation",
    "is_symmetric",
    "frac_inverse",
    "det_exact",
    "char_poly",
    "matrix_order",
]


def as_imatrix(data) -> np.ndarray:
    """Build a square object-dtype matrix of Python ints.

    Entries must be ints, numpy integers or bools; anything else (a float,
    a rational) raises TypeError.
    """
    M = np.array(data, dtype=object)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    flat = M.ravel()
    flat[:] = [index(v) for v in flat.tolist()]
    return M


def iidentity(n: int) -> np.ndarray:
    M = np.zeros((n, n), dtype=object)
    for i in range(n):
        M[i, i] = 1
    return M


def mat_eq(A: np.ndarray, B: np.ndarray) -> bool:
    """Exact entrywise equality."""
    return A.shape == B.shape and bool(np.equal(A, B).all())


def deviation(lhs: np.ndarray, rhs: np.ndarray) -> int:
    """Largest |entry| of lhs - rhs, an exact integer (0 iff they are equal).

    Entries must be integers: a float difference raises TypeError.
    """
    return max((abs(index(v)) for v in (lhs - rhs).flat), default=0)


def is_symmetric(A: np.ndarray) -> bool:
    return mat_eq(A, A.T)


def frac_inverse(M: np.ndarray) -> np.ndarray:
    """Exact integer inverse of a unimodular integer matrix.

    Runs fraction-free Gauss-Jordan on [M | I]: each step's division by the
    previous pivot is exact (Bareiss), and the last step leaves d·[I | M⁻¹]
    with d = ±det M.  So the right block times d is M⁻¹ when d = ±1; a
    singular or non-unimodular M raises ValueError.
    """
    n = M.shape[0]
    rows = [[index(v) for v in M[i]] + [int(i == j) for j in range(n)] for i in range(n)]
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
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        out[i] = [prev * v for v in rows[i][n:]]
    return out


def det_exact(M: np.ndarray) -> int:
    """Exact integer determinant via fraction-free Bareiss elimination."""
    n = M.shape[0]
    a = [[index(v) for v in M[i]] for i in range(n)]
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


def char_poly(M: np.ndarray) -> list:
    """Coefficients of det(xI - M), highest degree first, exact.

    Integer Faddeev-LeVerrier: M_k = M·M_{k-1} + c_{n-k+1}·I and
    c_{n-k} = -tr(M·M_k)/k, where each division is exact.
    """
    I = iidentity(M.shape[0])
    coeffs = [1]
    MMk = 0 * I  # M·M_0 with M_0 = 0
    for k in range(1, M.shape[0] + 1):
        MMk = M @ (MMk + coeffs[-1] * I)
        coeffs.append(-sum(index(v) for v in MMk.diagonal()) // k)
    return coeffs


def matrix_order(M: np.ndarray, cap: int = 1000) -> int:
    """Smallest h >= 1 with M^h = I, exact; raises if none found within cap."""
    n = M.shape[0]
    I = iidentity(n)
    P = M
    for h in range(1, cap + 1):
        if mat_eq(P, I):
            return h
        P = P @ M
    raise ValueError(f"order not found <= {cap}")
