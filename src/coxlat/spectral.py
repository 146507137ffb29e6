"""Eigenvector machinery: catalog Cartan spectra, the Cartan-to-Coxeter
transfer, closed-form eigenvectors for A_n, E6, E8, and the Perron-Frobenius
vector.  The transfer is one map, the phase dressing of
coxeter_eigvec_from_cartan, which reads the black/white coloring of the
bipartite Coxeter element off lattice.steinberg_decomposition.

Eigenvalue bookkeeping: a rank-n Cartan matrix has eigenvalues
lambda_k = 2 - 2cos(k*pi/h) = 4 sin^2(k*pi/2h) over the exponents k,
while the Coxeter element has eigenvalues e^{2*pi*i*k/h}.  (Some
references quote theta_k = 2*pi*k/h for the Cartan spectrum as well;
that angle belongs to the Coxeter side only — the numeric spectrum
settles it.)

Everything here is plain Python floating point, with no numpy: vectors are
tuples, matrices tuples of rows (rank at most 8), and jacobi_eigh is the
symmetric eigensolver.  The residual contract is
||A v - lambda v||_inf <= 1e-9 * max(1, ||A||_inf * ||v||_inf).
"""

from __future__ import annotations

import cmath
import math
from functools import reduce
from itertools import combinations
from operator import index
from typing import List, NamedTuple, Tuple

from .rootsys import RootSystemId, cartan_matrix, exponents

__all__ = [
    "Eigenpair",
    "DELTA",
    "max_abs",
    "residual",
    "jacobi_eigh",
    "normalize_eigvec",
    "cartan_spectrum",
    "coxeter_eigvec_from_cartan",
    "an_coxeter_eigenvector",
    "eigenvalue_for_angles",
    "e8_eigenvector",
    "e6_eigenvector",
    "factorized_coxeter_eigenvector",
    "perron_frobenius",
    "zamolodchikov_vector",
    "pf_closed_form",
    "IDENTITY_TOL",
]

# the residual contract's tolerance
IDENTITY_TOL = 1e-9
# jacobi_eigh gives up after this many sweeps; a catalog matrix needs at most 8
JACOBI_MAX_SWEEPS = 50

DELTA = math.pi / 2


class Eigenpair(NamedTuple):
    lam: float
    vector: tuple
    k: int
    h: int
    residual: float


def max_abs(values) -> float:
    """max |x| over real or complex values, 0.0 over none: NaN if any term is (Python's
    max drops a NaN after the first place), and inf, not OverflowError, past the float range."""
    moduli = [math.hypot(x.real, x.imag) for x in values]
    return math.nan if any(map(math.isnan, moduli)) else max(moduli, default=0.0)


def _matvec(A, v) -> tuple:
    return tuple(sum(a * x for a, x in zip(row, v)) for row in A)


def residual(A, v, lam) -> float:
    """Relative infinity-norm eigen residual of an n x n A and an n-vector v;
    any other shapes raise ValueError."""
    n = len(v)
    if len(A) != n or any(len(row) != n for row in A):
        raise ValueError(f"v has {n} entries, so A must be {n} x {n}")
    num = max_abs(y - lam * x for y, x in zip(_matvec(A, v), v))
    scale = max(1.0, max_abs(a for row in A for a in row) * max_abs(v))
    return float(num / scale)


def jacobi_eigh(A) -> Tuple[Tuple[float, ...], Tuple[Tuple[float, ...], ...]]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a real symmetric matrix.

    Cyclic Jacobi (Golub & Van Loan, Matrix Computations, §8.5): each sweep
    zeroes every off-diagonal entry in turn with one plane rotation, until the
    off-diagonal mass is negligible next to ||A||_F.  vectors[k] belongs to
    values[k].  A NaN or infinite entry raises ValueError before anything else,
    as does input that is not symmetric, or that has not converged after
    JACOBI_MAX_SWEEPS sweeps.
    """
    a = [[float(x) for x in row] for row in A]
    if not all(math.isfinite(x) for row in a for x in row):
        raise ValueError("A must be finite")
    n = len(a)
    if any(len(r) != n for r in a) or any(a[i][j] != a[j][i] for i, j in combinations(range(n), 2)):
        raise ValueError("A must be a square symmetric matrix")
    V = [[float(i == j) for j in range(n)] for i in range(n)]  # row k: k-th eigenvector
    # off-diagonal entries below `small` move an eigenvalue by 2.2e-16·||A||_F at most
    small = 2.2e-16 * math.hypot(*(x for row in a for x in row)) / max(n, 1)
    for _ in range(JACOBI_MAX_SWEEPS):
        if all(abs(a[p][q]) <= small for p, q in combinations(range(n), 2)):
            break
        for p, q in combinations(range(n), 2):
            if abs(a[p][q]) <= small:
                continue
            # the rotation J that zeroes a[p][q] in Jᵗ·A·J (Golub & Van Loan, §8.5.2)
            app, aqq, apq = a[p][p], a[q][q], a[p][q]
            theta = (aqq - app) / (2.0 * apq)
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
            c = 1.0 / math.hypot(1.0, t)
            s = t * c
            for M in (a, V):  # rows p and q of Jᵗ·M
                M[p], M[q] = ([c * x - s * y for x, y in zip(M[p], M[q])],
                              [s * x + c * y for x, y in zip(M[p], M[q])])
            # Jᵗ·A·J is symmetric: its columns p and q are those rows, but for the 2 x 2 block
            a[p][p], a[q][q], a[p][q], a[q][p] = app - t * apq, aqq + t * apq, 0.0, 0.0
            for row, x, y in zip(a, a[p], a[q]):
                row[p], row[q] = x, y
    else:
        raise ValueError(f"Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps")
    order = sorted(range(n), key=lambda k: a[k][k])
    return tuple(a[k][k] for k in order), tuple(tuple(V[k]) for k in order)


def normalize_eigvec(v) -> tuple:
    """Scale so the largest-modulus coordinate equals +1.  A zero or empty v raises
    ValueError, and so does a NaN or infinite coordinate, as in jacobi_eigh."""
    v = tuple(v)
    if not all(map(cmath.isfinite, v)):
        raise ValueError("v must be finite")
    if not any(v):
        raise ValueError("zero vector")
    j = max(range(len(v)), key=lambda i: abs(v[i]))
    return tuple(x / v[j] for x in v)


def cartan_spectrum(rid: RootSystemId) -> List[Eigenpair]:
    """Spectrum of the catalog Cartan matrix with (k, h) exponent labels."""
    A = cartan_matrix(rid)
    h, exps = exponents(rid)
    w, V = jacobi_eigh(A)
    pairs = []
    for lam, col, k in zip(w, V, exps):
        vec = normalize_eigvec(col)
        res = residual(A, vec, lam)
        pairs.append(Eigenpair(lam, vec, k=k, h=h, residual=res))
    return pairs


def coxeter_eigvec_from_cartan(x, theta: float, A) -> tuple:
    """Phase-dress a Cartan eigenvector into a bipartite-Coxeter eigenvector.

    A is the exact integer Cartan matrix of a tree.  Coordinate j of x is
    multiplied by e^{i c_jj theta/2}, c_jj the diagonal of C_B from
    lattice.steinberg_decomposition(A): -1 at the black vertices, where C_B
    reflects, and +1 at the white ones.  The result is an eigenvector of
    C_W·C_B for e^{2i theta}.  Both the precondition (x is an A-eigenvector
    for 2 - 2cos(theta)) and the postcondition are verified; the zero vector
    and a NaN residual fail them.  lattice is imported here, so that the rest
    of this module loads no exact layer.
    """
    from .intmat import matmul
    from .lattice import steinberg_decomposition

    if not any(x):
        raise ValueError("x is the zero vector")
    if not residual(A, x, 2 - 2 * math.cos(theta)) <= IDENTITY_TOL:
        raise ValueError("x is not an eigenvector for 2 - 2cos(theta)")
    C_B, C_W = steinberg_decomposition(A)
    xc = tuple(cmath.exp(1j * theta / 2 * row[j]) * xj for j, (row, xj) in enumerate(zip(C_B, x)))
    if not residual(matmul(C_W, C_B), xc, cmath.exp(2j * theta)) <= IDENTITY_TOL:
        raise ValueError("phase-dressed vector failed the Coxeter residual check")
    return xc


def an_coxeter_eigenvector(n: int, theta: float) -> tuple:
    """Eigenvector of C(A_n) (standard polarization) for e^{2i theta}:
    component j is sum_{m=0}^{n-j} e^{2i m theta}."""
    return tuple(
        sum(cmath.exp(2j * m * theta) for m in range(n - j + 1)) for j in range(1, n + 1)
    )


def eigenvalue_for_angles(theta: float, gam: float) -> float:
    """lambda(alpha) = 2 - 2cos(theta + gamma + pi/2)."""
    return 2 - 2 * math.cos(theta + gam + DELTA)


def e8_eigenvector(a: int, b: int, form: str = "simplified") -> tuple:
    """Closed-form eigenvector of A(E8) for 2 - 2cos(a*pi/5 + b*pi/3 + pi/2).

    The 8 pairs (a, b) with 1 <= a <= 4, 1 <= b <= 2 cover the 8
    eigenvalues 2 - 2cos(pi + k*pi/30), k in Exp(E8), bijectively.
    Both forms return the same vector: "long" is the raw cosine sums,
    "simplified" the factored products.
    """
    a, b = index(a), index(b)  # ints; a float raises TypeError
    if not (1 <= a <= 4 and 1 <= b <= 2):
        raise ValueError("need 1 <= a <= 4 and 1 <= b <= 2")
    t = a * math.pi / 5
    g = b * math.pi / 3
    d = DELTA
    cos = math.cos
    if form == "long":
        return (
            cos(g + t - d) + cos(g - 3 * t - d) + cos(g - t - d),
            cos(2 * g + 2 * t),
            cos(2 * g) + cos(2 * g + 2 * t) + cos(2 * g - 2 * t) + cos(4 * t) + cos(2 * t),
            cos(g + 3 * t - d) + cos(g + t - d) + cos(-g + 3 * t - d),
            2 * cos(2 * g) + 2 * cos(2 * g + 2 * t) + cos(2 * g - 2 * t)
            + cos(2 * g + 4 * t) + cos(4 * t) + 2 * cos(2 * t) + 1,
            cos(g + 3 * t - d) + cos(g + t - d),
            cos(2 * g) + cos(2 * t - 2 * d),
            cos(g - t - d),
        )
    if form != "simplified":
        raise ValueError("form must be 'simplified' or 'long'")
    return (
        -2 * cos(4 * t) * cos(g - t - d),
        cos(2 * g + 2 * t),
        -2 * cos(t) ** 2,
        2 * cos(g) * cos(3 * t - d) + cos(g + t - d),
        # constant term restored so this row equals the cosine-sum form:
        # 4cos^2(2t) + 2cos(2t) = 1 on the admissible grid t = a*pi/5
        2 * cos(2 * g + 3 * t) * cos(t) - cos(2 * g) - 1,
        2 * cos(t) * cos(g + 2 * t - d),
        2 * cos(g + t - d) * cos(g - t + d),
        cos(g - t - d),
    )


def e6_eigenvector(a: int, b: int) -> tuple:
    """Closed-form eigenvector of A(E6) for 2 - 2cos(a*pi/4 + b*pi/3 + pi/2),
    with 1 <= a <= 3, 1 <= b <= 2 covering the 6 eigenvalues."""
    a, b = index(a), index(b)  # ints; a float raises TypeError
    if not (1 <= a <= 3 and 1 <= b <= 2):
        raise ValueError("need 1 <= a <= 3 and 1 <= b <= 2")
    t = a * math.pi / 4
    g = b * math.pi / 3
    d = DELTA
    cos = math.cos
    return (
        cos(3 * g + 3 * t - d),
        2 * cos(t) ** 2,
        -2 * cos(3 * g + 3 * t - d) * cos(g + t - d),
        -4 * cos(t) ** 2 * cos(g + t - d),
        1 - 2 * cos(2 * g + 3 * t) * cos(t),
        -2 * cos(g) * cos(t - d),
    )


def factorized_coxeter_eigenvector(target: str, ks) -> tuple:
    """Eigenvector of C_BW(target) built from factor eigenvectors: w·G⁻¹·x_*.

    ks holds one k per factor A_n of the join gabrielov.JOINS[target],
    1 <= k <= n, and that factor's angle is k·pi/(n+1) (DELTA for A1).  x_*,
    the product of the factors' X_{C(A_n)}(angle), is an eigenvector of the
    join's Coxeter element for e^{2i·(sum of the angles)}; the join's
    reference G⁻¹ carries it to simple roots of target, and w (the join's
    repair word, else its conjugator) turns C_G into C_BW.  gabrielov is
    imported here, so that the rest of this module loads no move engine.
    """
    from . import gabrielov
    from .intmat import frac_inverse, kron

    j = gabrielov.JOINS[target]
    ns = [rid.rank for rid in j.factors]
    ks = tuple(map(index, ks))  # ints; a float raises TypeError
    if len(ks) != len(ns) or not all(1 <= k <= n for k, n in zip(ks, ns)):
        raise ValueError(f"need one k per factor A_n of {target}, n in {ns}, with 1 <= k <= n")
    # each factor's eigenvector as a one-row matrix: their Kronecker product is x_*
    [x_star] = reduce(kron, [(an_coxeter_eigenvector(n, k * math.pi / (n + 1)),)
                             for n, k in zip(ns, ks)])
    w = gabrielov.weyl_apply(j.target, j.repair_word or j.conjugator_word)
    return _matvec(w, _matvec(frac_inverse(j.change_of_basis), x_star))


def perron_frobenius(A) -> tuple:
    """Positive eigenvector for the smallest Cartan eigenvalue, min entry 1.

    The symmetric solver's eigenvector for the lowest eigenvalue, with its
    sign fixed; it is strictly positive when A is an irreducible Cartan
    matrix, and anything else raises ValueError.
    """
    _, vectors = jacobi_eigh(A)
    if not vectors:
        raise ValueError("A is empty")
    v = vectors[0]
    v = v if max(v) > 0 else tuple(-x for x in v)
    low = min(v)
    if not low > 0:
        raise ValueError("the lowest eigenvector is not strictly positive; is A irreducible?")
    return tuple(x / low for x in v)


def zamolodchikov_vector() -> tuple:
    """The increasing mass vector (m1..m8), scaled so that m1 = 1."""
    c = math.cos
    pi = math.pi
    return (
        1.0,
        2 * c(pi / 5),
        2 * c(pi / 30),
        4 * c(pi / 5) * c(7 * pi / 30),
        4 * c(pi / 5) * c(2 * pi / 15),
        4 * c(pi / 5) * c(pi / 30),
        8 * c(pi / 5) ** 2 * c(7 * pi / 30),
        8 * c(pi / 5) ** 2 * c(2 * pi / 15),
    )


def pf_closed_form() -> tuple:
    """Closed-form PF eigenvector of A(E8) in vertex order (not sorted)."""
    c = math.cos
    pi = math.pi
    return (
        2 * c(pi / 5) * c(11 * pi / 30),
        c(pi / 15),
        2 * c(pi / 5) ** 2,
        2 * c(pi / 15) * c(pi / 30),
        2 * c(4 * pi / 15) * c(pi / 5) + 0.5,
        2 * c(pi / 5) * c(7 * pi / 30),
        2 * c(pi / 30) * c(11 * pi / 30),
        c(11 * pi / 30),
    )
