"""Eigenvector machinery: catalog Cartan spectra, Cartan/Coxeter transfer,
phase dressing, closed-form eigenvectors for A_n, E6, E8, and the
Perron-Frobenius vector.  Phase dressing takes the black/white coloring of
the bipartite Coxeter element from the Cartan matrix (rootsys.coloring).

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
from itertools import combinations
from typing import List, NamedTuple, Optional, Tuple

from .lattice import bipartite_coxeter
from .rootsys import RootSystemId, coloring, root_system

__all__ = [
    "Eigenpair",
    "DELTA",
    "max_abs",
    "residual",
    "jacobi_eigh",
    "normalize_eigvec",
    "projective_distance",
    "cartan_spectrum",
    "transfer_eigenvalue",
    "cartan_coxeter_transfer",
    "coxeter_cartan_transfer",
    "coxeter_eigvec_from_cartan",
    "an_eigenvector",
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
    k: Optional[int] = None
    h: Optional[int] = None
    residual: float = 0.0


def max_abs(values) -> float:
    """max |x| over real or complex values: NaN if any term is (Python's max drops
    a NaN after the first place), and inf, not OverflowError, past the float range."""
    moduli = [math.hypot(x.real, x.imag) for x in values]
    return math.nan if any(map(math.isnan, moduli)) else max(moduli)


def _matvec(A, v) -> tuple:
    return tuple(sum(a * x for a, x in zip(row, v)) for row in A)


def residual(A, v, lam) -> float:
    """Relative infinity-norm eigen residual."""
    num = max_abs(y - lam * x for y, x in zip(_matvec(A, v), v))
    scale = max(1.0, max_abs(a for row in A for a in row) * max_abs(v))
    return float(num / scale)


def jacobi_eigh(
    A, with_vectors: bool = True
) -> Tuple[Tuple[float, ...], Optional[Tuple[Tuple[float, ...], ...]]]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a real symmetric matrix.

    Cyclic Jacobi (Golub & Van Loan, Matrix Computations, §8.5): each sweep
    zeroes every off-diagonal entry in turn with one plane rotation, until the
    off-diagonal mass is negligible next to ||A||_F.  vectors[k] belongs to
    values[k].  Input that is not symmetric, or that has not converged after
    JACOBI_MAX_SWEEPS sweeps, raises ValueError.  With with_vectors false the
    rotations skip V, which never feeds back into A, and vectors is None.
    """
    a = [[float(x) for x in row] for row in A]
    n = len(a)
    if any(len(r) != n for r in a) or any(a[i][j] != a[j][i] for i, j in combinations(range(n), 2)):
        raise ValueError("A must be a square symmetric matrix")
    V = [[float(i == j) for j in range(n)] for i in range(n)]  # row k: k-th eigenvector
    rotated = (a, V) if with_vectors else (a,)
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
            for M in rotated:  # rows p and q of Jᵗ·M
                M[p], M[q] = ([c * x - s * y for x, y in zip(M[p], M[q])],
                              [s * x + c * y for x, y in zip(M[p], M[q])])
            # Jᵗ·A·J is symmetric: its columns p and q are those rows, but for the 2 x 2 block
            a[p][p], a[q][q], a[p][q], a[q][p] = app - t * apq, aqq + t * apq, 0.0, 0.0
            for row, x, y in zip(a, a[p], a[q]):
                row[p], row[q] = x, y
    else:
        raise ValueError(f"Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps")
    order = sorted(range(n), key=lambda k: a[k][k])
    vectors = tuple(tuple(V[k]) for k in order) if with_vectors else None
    return tuple(a[k][k] for k in order), vectors


def normalize_eigvec(v) -> tuple:
    """Scale so the largest-modulus coordinate equals +1."""
    v = tuple(v)
    j = max(range(len(v)), key=lambda i: abs(v[i]))
    if v[j] == 0:
        raise ValueError("zero vector")
    out = tuple(x / v[j] for x in v)
    if all(abs(complex(x).imag) <= 1e-14 for x in out):
        return tuple(complex(x).real for x in out)
    return out


def projective_distance(u, v) -> float:
    """sin of the angle between the lines spanned by u and v: the part of u
    orthogonal to v, relative to u (accurate for nearly parallel lines)."""
    nu = math.hypot(*(abs(x) for x in u))
    nv = math.hypot(*(abs(y) for y in v))
    if nu == 0 or nv == 0:
        raise ValueError("zero vector")
    c = sum(y.conjugate() * x for x, y in zip(u, v)) / (nv * nv)
    return min(1.0, math.hypot(*(abs(x - c * y) for x, y in zip(u, v))) / nu)


def cartan_spectrum(rid: RootSystemId) -> List[Eigenpair]:
    """Spectrum of the catalog Cartan matrix with (k, h) exponent labels."""
    data = root_system(rid)
    A = data.cartan
    w, V = jacobi_eigh(A)
    pairs = []
    for lam, col, k in zip(w, V, data.exponents):
        vec = normalize_eigvec(col)
        res = residual(A, vec, lam)
        pairs.append(Eigenpair(lam, vec, k=int(k), h=data.h, residual=res))
    return pairs


def transfer_eigenvalue(mu: complex, branch: int = 1) -> complex:
    """lambda = 2 - (±sqrt(mu) + 1/±sqrt(mu)), principal square root."""
    if mu == 0:
        raise ValueError("mu must be nonzero")
    r = branch * cmath.sqrt(mu)
    return 2 - r - 1 / r


def cartan_coxeter_transfer(v1, v2, mu: complex, branch: int = 1) -> tuple:
    """Coxeter eigenvector (v1; v2) for mu -> Cartan eigenvector (v1; sqrt(mu)·v2).

    Block order follows the bipartite split used to build C = -U⁻¹L: the
    first block is the one with the identity upper-left in both factors
    (white), the second (black) picks up the sqrt(mu) factor.  The image
    is an eigenvector for lambda = 2 - sqrt(mu) - 1/sqrt(mu).
    """
    if mu == 0:
        raise ValueError("mu must be nonzero")
    r = branch * cmath.sqrt(mu)
    return (*map(complex, v1), *(r * x for x in v2))


def coxeter_cartan_transfer(w1, w2, mu: complex, branch: int = 1) -> tuple:
    """Inverse of cartan_coxeter_transfer: (w1; w2) -> (w1; w2/sqrt(mu))."""
    if mu == 0:
        raise ValueError("mu must be nonzero")
    r = branch * cmath.sqrt(mu)
    return (*map(complex, w1), *(x / r for x in w2))


def coxeter_eigvec_from_cartan(x, theta: float, A) -> tuple:
    """Phase-dress a Cartan eigenvector into a bipartite-Coxeter eigenvector.

    A is the exact integer Cartan matrix of a tree.  Coordinate j of x is
    multiplied by e^{+i theta/2} at the white vertices of
    rootsys.coloring(A) and by e^{-i theta/2} at the black ones; the result
    is an eigenvector of C_W·C_B for e^{2i theta}.  Both the precondition
    (x is an A-eigenvector for 2 - 2cos(theta)) and the postcondition are
    verified.
    """
    if residual(A, x, 2 - 2 * math.cos(theta)) > IDENTITY_TOL:
        raise ValueError("x is not an eigenvector for 2 - 2cos(theta)")
    xc = tuple(
        cmath.exp(1j * theta / 2 if c == "white" else -1j * theta / 2) * xj
        for c, xj in zip(coloring(A).values(), x)
    )
    if residual(bipartite_coxeter(A), xc, cmath.exp(2j * theta)) > IDENTITY_TOL:
        raise ValueError("phase-dressed vector failed the Coxeter residual check")
    return xc


def an_eigenvector(n: int, k: int) -> tuple:
    """Eigenvector of A(A_n) for 2 - 2cos(k*pi/(n+1)), component sums of phases.

    Component j (1-based) is sum_{m=0}^{n-j} e^{i(n-j-2m)theta}; the
    symmetric sum is real.
    """
    if not 1 <= k <= n:
        raise ValueError("exponent out of range")
    theta = k * math.pi / (n + 1)
    return tuple(
        sum(cmath.exp(1j * (n - j - 2 * m) * theta) for m in range(n - j + 1)).real
        for j in range(1, n + 1)
    )


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


def factorized_coxeter_eigenvector(k4: int, k2: int) -> tuple:
    """Eigenvector of C_BW(E8) built from factor eigenvectors: w·G⁻¹·x_*.

    x_* = X_{C(A4)}(k4·pi/5) ⊗ X_{C(A2)}(k2·pi/3) ⊗ (1) is an eigenvector
    of C(A4)⊗C(A2)⊗C(A1) for mu = e^{2i alpha}, alpha = theta+gamma+pi/2;
    G⁻¹ carries it to the E8 simple-root basis and w conjugates the
    Gabrielov Coxeter element into the bipartite one.  The factors and w
    are those of gabrielov.JOINS["E8"], imported here so that the rest of
    this module loads no move engine.
    """
    from . import gabrielov
    from .intmat import frac_inverse

    j = gabrielov.JOINS["E8"]
    n4, n2, n1 = (rid.rank for rid in j.factors)
    if not (1 <= k4 <= n4 and 1 <= k2 <= n2):
        raise ValueError(f"need 1 <= k4 <= {n4} and 1 <= k2 <= {n2}")
    theta = k4 * math.pi / (n4 + 1)
    gam = k2 * math.pi / (n2 + 1)
    x_star = tuple(
        a * b * c
        for a in an_coxeter_eigenvector(n4, theta)
        for b in an_coxeter_eigenvector(n2, gam)
        for c in an_coxeter_eigenvector(n1, 0.0)
    )
    G, _ = gabrielov.e8_factorization()
    w = gabrielov.weyl_apply(j.target, j.conjugator_word)
    return _matvec(w, _matvec(frac_inverse(G), x_star))


def perron_frobenius(A) -> tuple:
    """Positive eigenvector for the smallest Cartan eigenvalue, min entry 1.

    The symmetric solver's eigenvector for the lowest eigenvalue, with its
    sign fixed; it is strictly positive when A is an irreducible Cartan
    matrix, and anything else raises ValueError.
    """
    _, vectors = jacobi_eigh(A)
    v = vectors[0]
    v = v if max(v) > 0 else tuple(-x for x in v)
    low = min(v)
    if not low > 0:
        raise ValueError("the lowest eigenvector is not strictly positive; is A irreducible?")
    return tuple(x / low for x in v)


def zamolodchikov_vector(m: float = 1.0) -> tuple:
    """The increasing mass vector (m1..m8) with overall scale m."""
    c = math.cos
    pi = math.pi
    return tuple(m * x for x in (
        1.0,
        2 * c(pi / 5),
        2 * c(pi / 30),
        4 * c(pi / 5) * c(7 * pi / 30),
        4 * c(pi / 5) * c(2 * pi / 15),
        4 * c(pi / 5) * c(pi / 30),
        8 * c(pi / 5) ** 2 * c(7 * pi / 30),
        8 * c(pi / 5) ** 2 * c(2 * pi / 15),
    ))


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
