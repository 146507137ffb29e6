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

Everything here is floating point; the residual contract is
||A v - lambda v||_inf <= 1e-9 * max(1, ||A||_inf * ||v||_inf).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .lattice import bipartite_coxeter
from .rootsys import RootSystemId, coloring, root_system

__all__ = [
    "Eigenpair",
    "DELTA",
    "residual",
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

DELTA = math.pi / 2


@dataclass
class Eigenpair:
    lam: float
    vector: np.ndarray
    k: Optional[int] = None
    h: Optional[int] = None
    residual: float = 0.0


def residual(A, v, lam) -> float:
    """Relative infinity-norm eigen residual."""
    A = np.asarray(A, dtype=complex)
    v = np.asarray(v, dtype=complex)
    num = np.max(np.abs(A @ v - lam * v))
    scale = max(1.0, np.max(np.abs(A)) * np.max(np.abs(v)))
    return float(num / scale)


def normalize_eigvec(v: np.ndarray) -> np.ndarray:
    """Scale so the largest-modulus coordinate equals +1."""
    v = np.asarray(v, dtype=complex)
    j = int(np.argmax(np.abs(v)))
    if v[j] == 0:
        raise ValueError("zero vector")
    out = v / v[j]
    return out.real if np.allclose(out.imag, 0, atol=1e-14) else out


def projective_distance(u, v) -> float:
    """sin of the angle between the lines spanned by u and v."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise ValueError("zero vector")
    c = abs(np.vdot(u, v)) / (nu * nv)
    return math.sqrt(max(0.0, 1.0 - min(1.0, c) ** 2))


def cartan_spectrum(rid: RootSystemId) -> List[Eigenpair]:
    """Spectrum of the catalog Cartan matrix with (k, h) exponent labels."""
    data = root_system(rid)
    A = np.array(data.cartan, dtype=float)
    w, V = np.linalg.eigh(A)
    pairs = []
    for lam, col, k in zip(w, V.T, data.exponents):
        vec = normalize_eigvec(col)
        res = residual(A, vec, lam)
        pairs.append(Eigenpair(float(lam), vec, k=int(k), h=data.h, residual=res))
    return pairs


def transfer_eigenvalue(mu: complex, branch: int = 1) -> complex:
    """lambda = 2 - (±sqrt(mu) + 1/±sqrt(mu)), principal square root."""
    if mu == 0:
        raise ValueError("mu must be nonzero")
    r = branch * cmath.sqrt(mu)
    return 2 - r - 1 / r


def cartan_coxeter_transfer(v1, v2, mu: complex, branch: int = 1) -> np.ndarray:
    """Coxeter eigenvector (v1; v2) for mu -> Cartan eigenvector (v1; sqrt(mu)·v2).

    Block order follows the bipartite split used to build C = -U⁻¹L: the
    first block is the one with the identity upper-left in both factors
    (white), the second (black) picks up the sqrt(mu) factor.  The image
    is an eigenvector for lambda = 2 - sqrt(mu) - 1/sqrt(mu).
    """
    if mu == 0:
        raise ValueError("mu must be nonzero")
    r = branch * cmath.sqrt(mu)
    v1 = np.asarray(v1, dtype=complex)
    v2 = np.asarray(v2, dtype=complex)
    return np.concatenate([v1, r * v2])


def coxeter_cartan_transfer(w1, w2, mu: complex, branch: int = 1) -> np.ndarray:
    """Inverse of cartan_coxeter_transfer: (w1; w2) -> (w1; w2/sqrt(mu))."""
    if mu == 0:
        raise ValueError("mu must be nonzero")
    r = branch * cmath.sqrt(mu)
    w1 = np.asarray(w1, dtype=complex)
    w2 = np.asarray(w2, dtype=complex)
    return np.concatenate([w1, w2 / r])


def coxeter_eigvec_from_cartan(x, theta: float, A) -> np.ndarray:
    """Phase-dress a Cartan eigenvector into a bipartite-Coxeter eigenvector.

    A is the exact integer Cartan matrix of a tree.  Coordinate j of x is
    multiplied by e^{+i theta/2} at the white vertices of
    rootsys.coloring(A) and by e^{-i theta/2} at the black ones; the result
    is an eigenvector of C_W·C_B for e^{2i theta}.  Both the precondition
    (x is an A-eigenvector for 2 - 2cos(theta)) and the postcondition are
    verified.
    """
    x = np.asarray(x, dtype=complex)
    if residual(A, x, 2 - 2 * math.cos(theta)) > IDENTITY_TOL:
        raise ValueError("x is not an eigenvector for 2 - 2cos(theta)")
    phase = np.array(
        [
            cmath.exp(1j * theta / 2 if c == "white" else -1j * theta / 2)
            for c in coloring(A).values()
        ]
    )
    xc = phase * x
    C = np.array(bipartite_coxeter(A), dtype=float)
    if residual(C, xc, cmath.exp(2j * theta)) > IDENTITY_TOL:
        raise ValueError("phase-dressed vector failed the Coxeter residual check")
    return xc


def an_eigenvector(n: int, k: int) -> np.ndarray:
    """Eigenvector of A(A_n) for 2 - 2cos(k*pi/(n+1)), component sums of phases.

    Component j (1-based) is sum_{m=0}^{n-j} e^{i(n-j-2m)theta}; the
    symmetric sum is real.
    """
    if not 1 <= k <= n:
        raise ValueError("exponent out of range")
    theta = k * math.pi / (n + 1)
    out = np.zeros(n)
    for j in range(1, n + 1):
        s = sum(cmath.exp(1j * (n - j - 2 * m) * theta) for m in range(n - j + 1))
        out[j - 1] = s.real
    return out


def an_coxeter_eigenvector(n: int, theta: float) -> np.ndarray:
    """Eigenvector of C(A_n) (standard polarization) for e^{2i theta}:
    component j is sum_{m=0}^{n-j} e^{2i m theta}."""
    return np.array(
        [sum(cmath.exp(2j * m * theta) for m in range(n - j + 1)) for j in range(1, n + 1)]
    )


def eigenvalue_for_angles(theta: float, gam: float) -> float:
    """lambda(alpha) = 2 - 2cos(theta + gamma + pi/2)."""
    return 2 - 2 * math.cos(theta + gam + DELTA)


def e8_eigenvector(a: int, b: int, form: str = "simplified") -> np.ndarray:
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
        return np.array(
            [
                cos(g + t - d) + cos(g - 3 * t - d) + cos(g - t - d),
                cos(2 * g + 2 * t),
                cos(2 * g) + cos(2 * g + 2 * t) + cos(2 * g - 2 * t) + cos(4 * t) + cos(2 * t),
                cos(g + 3 * t - d) + cos(g + t - d) + cos(-g + 3 * t - d),
                2 * cos(2 * g) + 2 * cos(2 * g + 2 * t) + cos(2 * g - 2 * t)
                + cos(2 * g + 4 * t) + cos(4 * t) + 2 * cos(2 * t) + 1,
                cos(g + 3 * t - d) + cos(g + t - d),
                cos(2 * g) + cos(2 * t - 2 * d),
                cos(g - t - d),
            ]
        )
    if form != "simplified":
        raise ValueError("form must be 'simplified' or 'long'")
    return np.array(
        [
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
        ]
    )


def e6_eigenvector(a: int, b: int) -> np.ndarray:
    """Closed-form eigenvector of A(E6) for 2 - 2cos(a*pi/4 + b*pi/3 + pi/2),
    with 1 <= a <= 3, 1 <= b <= 2 covering the 6 eigenvalues."""
    if not (1 <= a <= 3 and 1 <= b <= 2):
        raise ValueError("need 1 <= a <= 3 and 1 <= b <= 2")
    t = a * math.pi / 4
    g = b * math.pi / 3
    d = DELTA
    cos = math.cos
    return np.array(
        [
            cos(3 * g + 3 * t - d),
            2 * cos(t) ** 2,
            -2 * cos(3 * g + 3 * t - d) * cos(g + t - d),
            -4 * cos(t) ** 2 * cos(g + t - d),
            1 - 2 * cos(2 * g + 3 * t) * cos(t),
            -2 * cos(g) * cos(t - d),
        ]
    )


def factorized_coxeter_eigenvector(k4: int, k2: int) -> np.ndarray:
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
    x_star = np.kron(
        np.kron(an_coxeter_eigenvector(n4, theta), an_coxeter_eigenvector(n2, gam)),
        an_coxeter_eigenvector(n1, 0.0),
    )
    G, _ = gabrielov.e8_factorization()
    Ginv = np.array(frac_inverse(G), dtype=float)
    w = np.array(gabrielov.weyl_apply(j.target, j.conjugator_word), dtype=float)
    return w @ (Ginv @ x_star)


def perron_frobenius(A) -> np.ndarray:
    """Positive eigenvector for the smallest Cartan eigenvalue, min entry 1.

    The symmetric solver's eigenvector for the lowest eigenvalue, with its
    sign fixed; it is strictly positive when A is an irreducible Cartan
    matrix, and anything else raises ValueError.
    """
    A = np.array(A, dtype=float)
    if not np.array_equal(A, A.T):
        raise ValueError("A must be symmetric")
    v = np.linalg.eigh(A)[1][:, 0]
    v = v if np.max(v) > 0 else -v
    if np.min(v) <= 0:
        raise ValueError("the lowest eigenvector is not strictly positive; is A irreducible?")
    return v / np.min(v)


def zamolodchikov_vector(m: float = 1.0) -> np.ndarray:
    """The increasing mass vector (m1..m8) with overall scale m."""
    c = math.cos
    pi = math.pi
    return m * np.array(
        [
            1.0,
            2 * c(pi / 5),
            2 * c(pi / 30),
            4 * c(pi / 5) * c(7 * pi / 30),
            4 * c(pi / 5) * c(2 * pi / 15),
            4 * c(pi / 5) * c(pi / 30),
            8 * c(pi / 5) ** 2 * c(7 * pi / 30),
            8 * c(pi / 5) ** 2 * c(2 * pi / 15),
        ]
    )


def pf_closed_form() -> np.ndarray:
    """Closed-form PF eigenvector of A(E8) in vertex order (not sorted)."""
    c = math.cos
    pi = math.pi
    return np.array(
        [
            2 * c(pi / 5) * c(11 * pi / 30),
            c(pi / 15),
            2 * c(pi / 5) ** 2,
            2 * c(pi / 15) * c(pi / 30),
            2 * c(4 * pi / 15) * c(pi / 5) + 0.5,
            2 * c(pi / 5) * c(7 * pi / 30),
            2 * c(pi / 30) * c(11 * pi / 30),
            c(11 * pi / 30),
        ]
    )
