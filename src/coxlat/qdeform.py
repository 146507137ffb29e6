"""q-deformation of generalized Cartan matrices: A(q) = qL + U.

A = L + U is the unique split into unit-diagonal lower/upper triangular
parts.  When the graph of A (vertices i, j joined iff a_ij != 0) is a
tree, the deformed spectrum is {1 + (lambda-2)sqrt(q) + q} over
eigenvalues lambda of A, and eigenvectors transport coordinatewise by
powers q^{k_i/2}.  The exponent vector k is rootsys.tree_levels of the
graph: along any edge, the numerically larger endpoint has k one more
than the smaller (making diag(q^{k_i/2}) conjugate
sqrt(q)A + (1-sqrt(q))^2 I into A(q)).

q is restricted to positive reals, so sqrt(q) is unambiguous.
Disconnected graphs are rejected along with cycles; per-component
application would be the natural extension for forests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from .intmat import IMatrix, as_imatrix
from .rootsys import tree_levels
from .spectral import IDENTITY_TOL, residual

__all__ = [
    "QDeformedCartan",
    "deform",
    "evaluate",
    "q_eigenvalue",
    "q_eigenvector",
    "conjugation_certificate",
    "q_spectrum",
    "general_eigenvalues",
    "Q_SPECTRUM_TOL",
    "CERTIFICATE_TOL",
]

# default tolerances of the `coxlat verify` q-spectrum and q-certificate
# checks, which grade the deviations q_spectrum and conjugation_certificate return
Q_SPECTRUM_TOL = 1e-8
CERTIFICATE_TOL = 1e-10


@dataclass(frozen=True)
class QDeformedCartan:
    """Unit-triangular split A = L + U (exact) with the tree exponent vector;
    evaluate(D, 1.0) is A in floats."""

    L: IMatrix
    U: IMatrix
    exponent_vector: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.L)

    @cached_property
    def _float_parts(self) -> np.ndarray:
        """L and U as one read-only float array, converted once per record."""
        parts = np.array((self.L, self.U), dtype=float)
        parts.flags.writeable = False
        return parts


def deform(A) -> QDeformedCartan:
    """Split a generalized Cartan matrix (tree graph) into L + U."""
    A = as_imatrix(A)
    ks = tree_levels(A)
    L = tuple(tuple(1 if j == i else a if j < i else 0 for j, a in enumerate(r))
              for i, r in enumerate(A))
    U = tuple(tuple(1 if j == i else a if j > i else 0 for j, a in enumerate(r))
              for i, r in enumerate(A))
    return QDeformedCartan(L=L, U=U, exponent_vector=ks)


def _check_q(q: float) -> float:
    q = float(q)
    if not (math.isfinite(q) and q > 0):
        raise ValueError("q must be positive and finite")
    return q


def evaluate(D: QDeformedCartan, q: float) -> np.ndarray:
    """qL + U as a float matrix."""
    q = _check_q(q)
    L, U = D._float_parts
    return q * L + U


def q_eigenvalue(lam: float, q: float) -> float:
    """The deformed eigenvalue 1 + (lambda - 2)sqrt(q) + q."""
    q = _check_q(q)
    return 1 + (lam - 2) * math.sqrt(q) + q


def q_eigenvector(x, D: QDeformedCartan, q: float) -> np.ndarray:
    """Transport an eigenvector of A to one of A(q): x_i -> q^{k_i/2} x_i.

    Its eigenvalue lambda is the Rayleigh quotient of x.
    """
    q = _check_q(q)
    x = np.asarray(x, dtype=complex)
    A = evaluate(D, 1.0)  # A(1) = L + U = A
    lam = float((np.conj(x) @ (A @ x)).real / (np.conj(x) @ x).real)
    if residual(A, x, lam) > IDENTITY_TOL:
        raise ValueError("x is not an eigenvector of A to tolerance")
    xq = np.power(q, np.array(D.exponent_vector) / 2.0) * x
    if residual(evaluate(D, q), xq, q_eigenvalue(lam, q)) > IDENTITY_TOL:
        raise ValueError("transported vector failed the deformed residual check")
    return xq.real if np.allclose(xq.imag, 0, atol=1e-14) else xq


def conjugation_certificate(D: QDeformedCartan, q: float) -> dict:
    """Deviation of S·(sqrt(q)A + (1-sqrt(q))² I)·S⁻¹ from A(q), S = diag(q^{k_i/2}).

    A deviation at rounding level certifies the deformed spectrum law
    constructively for this q.
    """
    q = _check_q(q)
    A = evaluate(D, 1.0)  # A(1) = L + U = A
    n = D.rank
    rq = math.sqrt(q)
    Aprime = rq * A + (1 - rq) ** 2 * np.eye(n)
    # numpy overflows to inf (and underflows to 0) where a float power raises;
    # the non-finite deviation that follows is the caller's to reject
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.power(q, np.array(D.exponent_vector) / 2.0)
        lhs = (s[:, None] * Aprime) / s[None, :]
    dev = float(np.max(np.abs(lhs - evaluate(D, q))))
    return {
        "q": q,
        "max_abs_deviation": dev,
        "exponent_vector": list(D.exponent_vector),
    }


def general_eigenvalues(M) -> np.ndarray:
    """Eigenvalues of a general real matrix, sorted by (real, imag).

    Thin wrapper over the library QR solver; used as the independent
    oracle for nonsymmetric deformed matrices.
    """
    w = np.linalg.eigvals(np.array(M, dtype=float))
    order = np.lexsort((w.imag, w.real))
    return w[order]


def q_spectrum(D: QDeformedCartan, q: float) -> dict:
    """Actual spectrum of A(q) next to the predicted {1+(lambda-2)sqrt(q)+q}.

    lambda runs over the eigenvalues of A (symmetric solver when A is
    exactly symmetric); the actual spectrum comes from the general solver,
    so the two sides never share a routine.
    """
    q = _check_q(q)
    A = evaluate(D, 1.0)  # A(1) = L + U = A
    lams = np.linalg.eigvalsh(A) if np.array_equal(A, A.T) else np.linalg.eigvals(A)
    predicted = q_eigenvalue(lams, q).astype(complex)
    predicted = predicted[np.lexsort((predicted.imag, predicted.real))]
    actual = general_eigenvalues(evaluate(D, q)).astype(complex)
    deviation = float(np.max(np.abs(actual - predicted)))
    return {
        "q": q,
        "eigenvalues": actual,
        "predicted": predicted,
        "max_abs_deviation": deviation,
    }
