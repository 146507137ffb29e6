"""q-deformation of generalized Cartan matrices: A(q) = qL + U.

A = L + U is the unique unit-triangular split, intmat.half_split, whose U
is lattice's standard polarization of a symmetric A.  When the graph of A
(vertices i, j joined iff a_ij != 0) is a tree, the deformed spectrum is
{1 + (lambda-2)sqrt(q) + q} over eigenvalues lambda of A, and eigenvectors
transport coordinatewise by powers q^{k_i/2}.  The exponent vector k is
rootsys.tree_levels of the graph: along any edge, the numerically larger
endpoint has k one more than the smaller (making diag(q^{k_i/2}) conjugate
sqrt(q)A + (1-sqrt(q))^2 I into A(q)).

Both identities are polynomial in t = sqrt(q), so each is proved once per
record, exactly, for every q > 0: conjugation_certificate compares the two
sides of the conjugation as Laurent monomials in t, and q_spectrum compares
characteristic polynomials in Z[x, t] (intmat.char_poly after one Kronecker
substitution), using neither the exponent vector nor the conjugation.  No
eigensolver runs for either; each returns its deviation, 0.0 when exact.

q is restricted to positive reals, so sqrt(q) is unambiguous.
Disconnected graphs are rejected along with cycles; per-component
application would be the natural extension for forests.

evaluate, q_eigenvalue and q_eigenvector run on plain Python floats;
`coxlat eigen --q` prints q_eigenvalue at the eigenvalues of A that
spectral.cartan_spectrum solves.  An extreme q ends in a non-finite value,
never in OverflowError or ZeroDivisionError.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Dict, NamedTuple, Tuple

from .intmat import IMatrix, as_imatrix, balanced_digits, char_poly, half_split
from .rootsys import tree_levels

__all__ = [
    "QDeformedCartan",
    "deform",
    "evaluate",
    "q_eigenvalue",
    "q_eigenvector",
    "conjugation_certificate",
    "q_spectrum",
    "Q_SPECTRUM_TOL",
    "CERTIFICATE_TOL",
]

# default tolerances of the `coxlat verify` q-spectrum and q-certificate
# checks, which grade the deviations q_spectrum and conjugation_certificate return
Q_SPECTRUM_TOL = 1e-8
CERTIFICATE_TOL = 1e-10
# q_spectrum substitutes q = 2^LAW_BASE_BITS, so it proves the law for records
# whose coefficient bound (see _law_deviation) is below 2^(LAW_BASE_BITS - 1)
LAW_BASE_BITS = 32


class QDeformedCartan(NamedTuple):
    """Unit-triangular split A = L + U (exact) with the tree exponent vector;
    evaluate(D, 1.0) is A in floats."""

    L: IMatrix
    U: IMatrix
    exponent_vector: Tuple[int, ...]


def deform(A) -> QDeformedCartan:
    """Split a generalized Cartan matrix (tree graph) into L + U (intmat.half_split).

    A pair with a_ij·a_ji < 0 raises ValueError: no generalized Cartan
    matrix has one.
    """
    A = as_imatrix(A)
    ks = tree_levels(A)
    if any(a * b < 0 for row, col in zip(A, zip(*A)) for a, b in zip(row, col)):
        raise ValueError("a_ij·a_ji < 0 for a pair: not a generalized Cartan matrix")
    L, U = half_split(A)
    return QDeformedCartan(L=L, U=U, exponent_vector=ks)


def _check_q(q: float) -> float:
    q = float(q)
    if not (math.isfinite(q) and q > 0):
        raise ValueError("q must be positive and finite")
    return q


def evaluate(D: QDeformedCartan, q: float) -> tuple:
    """qL + U as a float matrix."""
    q = _check_q(q)
    return tuple(tuple(q * l + u for l, u in zip(rl, ru)) for rl, ru in zip(D.L, D.U))


def q_eigenvalue(lam: float, q: float) -> float:
    """The deformed eigenvalue 1 + (lambda - 2)sqrt(q) + q."""
    q = _check_q(q)
    return 1 + (lam - 2) * math.sqrt(q) + q


def _scales(D: QDeformedCartan, q: float):
    """The diagonal of S = diag(q^{k_i/2}); a power past the float range is inf."""
    for k in D.exponent_vector:
        try:
            yield q ** (k / 2.0)
        except OverflowError:
            yield math.inf


def q_eigenvector(x, D: QDeformedCartan, q: float) -> tuple:
    """Transport an eigenvector of A to one of A(q): x_i -> q^{k_i/2} x_i.

    Its eigenvalue lambda is the Rayleigh quotient of x.  A real x gives a
    real vector, a complex x a complex one.
    """
    from .spectral import IDENTITY_TOL, residual

    q = _check_q(q)
    A = evaluate(D, 1.0)  # A(1) = L + U = A
    norm2 = sum(v.conjugate() * v for v in x).real
    if not norm2:
        raise ValueError("x is the zero vector")
    Ax = [sum(a * w for a, w in zip(row, x)) for row in A]
    lam = sum(v.conjugate() * y for v, y in zip(x, Ax)).real / norm2
    if not residual(A, x, lam) <= IDENTITY_TOL:
        raise ValueError("x is not an eigenvector of A to tolerance")
    xq = tuple(s * v for s, v in zip(_scales(D, q), x))
    if not residual(evaluate(D, q), xq, q_eigenvalue(lam, q)) <= IDENTITY_TOL:
        raise ValueError("transported vector failed the deformed residual check")
    return xq


@cache
def _certificate_deviation(D: QDeformedCartan) -> int:
    """Largest |coefficient| of S·(tA + (1-t)²I)·S⁻¹ - (t²L + U) in Z[t, 1/t],
    with A = L + U and S = diag(t^{k_i}): 0 iff the conjugation holds for every t.

    Entry (i, j) of the left side is t^e·(t·a_ij + δ_ij·(1 - 2t + t²)) with
    e = k_i - k_j.  So a diagonal entry is 1 + t² when l_ii = u_ii = 1, and
    an edge needs e = 1 below the diagonal (t²·l_ij) and e = -1 above it (u_ij).
    """
    ks = D.exponent_vector
    dev = 0
    for i, (row_l, row_u) in enumerate(zip(D.L, D.U)):
        for j, (l, u) in enumerate(zip(row_l, row_u)):
            if i != j and not (l or u):
                continue
            e = ks[i] - ks[j]
            terms = [(e + 1, l + u), (2, -l), (0, -u)]
            if i == j:
                terms += [(e, 1), (e + 1, -2), (e + 2, 1)]
            diff: Dict[int, int] = {}
            for power, c in terms:
                diff[power] = diff.get(power, 0) + c
            dev = max(dev, *map(abs, diff.values()))
    return dev


def conjugation_certificate(D: QDeformedCartan, q: float) -> float:
    """Deviation of S·(sqrt(q)A + (1-sqrt(q))² I)·S⁻¹ from A(q), S = diag(q^{k_i/2}).

    The identity is checked once per record over Z[t, 1/t], t = sqrt(q), so a
    deviation of 0.0 certifies the deformed spectrum law constructively for
    every q > 0 (S is invertible there), this q included.  A q that is not
    positive and finite raises ValueError.
    """
    _check_q(q)
    return float(_certificate_deviation(D))


@cache
def _law_deviation(D: QDeformedCartan) -> int:
    """Largest |coefficient| of G(z, t) - Σ_k e_k t^{n-k} z^k in Z[z, t]: 0 iff
    det(xI - t²L - U) = Σ_k c_k t^{n-k} (x - 1 - t² + 2t)^k, where
    χ_A(y) = Σ_k c_k y^k, A = L + U.

    With z = x - 1 - t², L₀ = L - I and U₀ = U - I, the left side is
    G(z, t) = det(zI - t²L₀ - U₀) and the right side is Σ_k e_k t^{n-k} z^k,
    e_k the coefficients of G(z, 1) = χ_A(z + 2).  So the law says that the
    coefficient g_k(q) of z^k in G (q = t²) is the one monomial e_k q^{(n-k)/2},
    and 0 when n - k is odd.

    g_k comes from one intmat.char_poly of B·L₀ + U₀, B = 2^LAW_BASE_BITS, as
    the balanced base-B digits of g_k(B) (intmat.balanced_digits).  The digits
    are the coefficients of g_k when every coefficient is below B/2 in
    absolute value.  Expanding the determinant over permutations bounds them
    all by Π_i (1 + Σ_j (|l₀_ij| + |u₀_ij|)); a record whose bound reaches B/2
    raises ValueError.
    """
    L0 = tuple(tuple(l - (i == j) for j, l in enumerate(row)) for i, row in enumerate(D.L))
    U0 = tuple(tuple(u - (i == j) for j, u in enumerate(row)) for i, row in enumerate(D.U))
    bits = LAW_BASE_BITS
    bound = math.prod(1 + sum(map(abs, rl)) + sum(map(abs, ru)) for rl, ru in zip(L0, U0))
    if bound >= 1 << (bits - 1):
        raise ValueError(f"the law's coefficient bound {bound} reaches 2^{bits - 1}")
    M = tuple(tuple((l << bits) + u for l, u in zip(rl, ru)) for rl, ru in zip(L0, U0))
    dev = 0
    for j, c in enumerate(char_poly(M)):  # c = g_{n-j}(B), of degree <= j in q
        digits = balanced_digits(c, bits, j + 1)
        # the law allows only the digit at q^{j/2} (none for odd j): the others
        # are coefficients of the difference, and so is minus their sum, at t^j
        off = [d for p, d in enumerate(digits) if 2 * p != j]
        if off:
            dev = max(dev, *map(abs, off), abs(sum(off)))
    return dev


def q_spectrum(D: QDeformedCartan, q: float) -> float:
    """Deviation of A(q)'s spectrum from the law {1+(lambda-2)sqrt(q)+q} at this q.

    It is that of the record's exact proof (_law_deviation), made once per
    record and valid for every q > 0: 0.0 when the law holds.  Nothing is
    solved; the law's values are q_eigenvalue(lambda, q) over the eigenvalues
    lambda of A.  A q that is not positive and finite raises ValueError.
    """
    _check_q(q)
    return float(_law_deviation(D))
