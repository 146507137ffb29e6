"""Polarized lattices, Coxeter automorphisms, and bipartite decompositions.

A polarized lattice is a pair (A, L) with A = L + Lᵗ and L unimodular
(det L = ±1, as for the Seifert form of an isolated singularity); the
Coxeter automorphism C = -L⁻¹Lᵗ is then an integer matrix, returned as a
plain object array (intmat.matrix_order gives its order).  Everything
here is exact integer arithmetic on object arrays; floating point never
enters.  The standard polarization is unit upper triangular, joins keep L
unimodular, and gauge transforms are base changes in GL_n(Z).  Includes
the Kronecker join product and the black/white decomposition
C_B + C_W = 2I - A of a Cartan tree, whose colors are rootsys.coloring(A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .intmat import (
    as_imatrix,
    det_exact,
    frac_inverse,
    iidentity,
    is_symmetric,
    mat_eq,
)
from .rootsys import coloring

__all__ = [
    "PolarizedLattice",
    "standard_polarization",
    "coxeter",
    "orthogonality_check",
    "gauge_transform",
    "join",
    "steinberg_decomposition",
    "bipartite_coxeter",
]


@dataclass(frozen=True)
class PolarizedLattice:
    """Lattice with symmetric form A and unimodular Seifert form L, A = L + Lᵗ."""

    A: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        A = as_imatrix(self.A)
        L = as_imatrix(self.L)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "L", L)
        if A.shape != L.shape:
            raise ValueError("A and L must have equal shape")
        if not is_symmetric(A):
            raise ValueError("A must be symmetric")
        if not mat_eq(A, L + L.T):
            raise ValueError("A = L + L^t violated")
        if det_exact(L) not in (1, -1):
            raise ValueError("L must be unimodular (det L = ±1)")

    @property
    def rank(self) -> int:
        return self.A.shape[0]


def standard_polarization(A) -> PolarizedLattice:
    """Upper-triangular polarization: l_ii = a_ii/2, l_ij = a_ij above."""
    A = as_imatrix(A)
    if not is_symmetric(A):
        raise ValueError("A must be symmetric")
    n = A.shape[0]
    L = np.zeros((n, n), dtype=object)
    for i in range(n):
        if A[i, i] % 2 != 0:
            raise ValueError("diagonal entries must be even")
        L[i, i] = A[i, i] // 2
        for j in range(i + 1, n):
            L[i, j] = A[i, j]
    return PolarizedLattice(A=A, L=L)


def coxeter(P: PolarizedLattice) -> np.ndarray:
    """C = -L⁻¹Lᵗ, an integer matrix since L is unimodular."""
    return -(frac_inverse(P.L) @ P.L.T)


def orthogonality_check(A, C) -> bool:
    """True iff CᵗAC = A exactly."""
    A = as_imatrix(A)
    C = as_imatrix(C)
    if A.shape != C.shape:
        raise ValueError("dimension mismatch")
    return mat_eq(C.T @ A @ C, A)


def gauge_transform(P: PolarizedLattice, M) -> PolarizedLattice:
    """Base change L -> MᵗLM by M in GL_n(Z); the Coxeter element transforms to M⁻¹CM."""
    M = as_imatrix(M)
    if det_exact(M) not in (1, -1):
        raise ValueError("M must be unimodular (det M = ±1)")
    return PolarizedLattice(A=M.T @ P.A @ M, L=M.T @ P.L @ M)


def join(P1: PolarizedLattice, P2: PolarizedLattice) -> PolarizedLattice:
    """Tensor (join) product: L = L1 ⊗ L2, first factor major.

    The basis is lexicographic: e_i ⊗ f_j comes before e_k ⊗ f_l iff
    (i, j) < (k, l).  The Coxeter element of the product is -C1 ⊗ C2.
    """
    L = np.kron(P1.L, P2.L)
    return PolarizedLattice(A=L + L.T, L=L)


def steinberg_decomposition(A) -> Tuple[np.ndarray, np.ndarray]:
    """Black/white factors of the bipartite Coxeter element of a Cartan tree.

    C_B = I - P_B·A and C_W = I - P_W·A, with P_B (resp. P_W) the
    diagonal projector onto the black (resp. white) coordinates of
    rootsys.coloring(A), vertex 1 white; an A that is not a Cartan tree
    raises ValueError there.  C_B (resp. C_W) equals the product of the
    commuting simple reflections at black (resp. white) vertices, and
    C_B + C_W = 2I - A exactly.  An empty color class yields the identity
    for that factor.
    """
    A = as_imatrix(A)
    I = iidentity(A.shape[0])
    P_B = np.diag(np.array([int(c == "black") for c in coloring(A).values()], dtype=object))
    return I - P_B @ A, I - (I - P_B) @ A


def bipartite_coxeter(A) -> np.ndarray:
    """The black/white Coxeter element C_W·C_B (black reflections act first).

    This is the order used by the eigenvector phase rules (white
    coordinates carry e^{+iθ/2}); the opposite product C_B·C_W is its
    conjugate by either factor.
    """
    C_B, C_W = steinberg_decomposition(A)
    return C_W @ C_B
