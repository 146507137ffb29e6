"""Polarized lattices, Coxeter automorphisms, and bipartite decompositions.

A polarized lattice is a pair (A, L) with A = L + Lᵗ and L unimodular
(det L = ±1, as for the Seifert form of an isolated singularity); the
Coxeter automorphism C = -L⁻¹Lᵗ is then an integer matrix
(intmat.matrix_order gives its order).  Everything here is exact integer
arithmetic on intmat's tuple matrices; floating point never enters.  The
standard polarization is U of the split A = L + U (intmat.half_split, as
in qdeform), and joins keep L unimodular.  Includes the Kronecker join
product and the black/white decomposition C_B + C_W = 2I - A of a Cartan
tree, whose colors are rootsys.coloring(A).
"""

from __future__ import annotations

from collections import namedtuple
from typing import Tuple

from .intmat import (IMatrix, add, as_imatrix, det_exact, frac_inverse, half_split,
                     iidentity, is_symmetric, kron, matmul, transpose)
from .rootsys import coloring

__all__ = [
    "PolarizedLattice",
    "standard_polarization",
    "coxeter",
    "join",
    "steinberg_decomposition",
    "bipartite_coxeter",
]


class PolarizedLattice(namedtuple("PolarizedLattice", "A L")):
    """Lattice with symmetric form A and unimodular Seifert form L, A = L + Lᵗ."""

    __slots__ = ()

    def __new__(cls, A, L):
        A = as_imatrix(A)
        L = as_imatrix(L)
        if len(A) != len(L):
            raise ValueError("A and L must have equal shape")
        if not is_symmetric(A):
            raise ValueError("A must be symmetric")
        if A != add(L, transpose(L)):
            raise ValueError("A = L + L^t violated")
        if det_exact(L) not in (1, -1):
            raise ValueError("L must be unimodular (det L = ±1)")
        return super().__new__(cls, A, L)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: validate it too
        return cls(*iterable)

    @property
    def rank(self) -> int:
        return len(self.A)


def standard_polarization(A) -> PolarizedLattice:
    """Upper-triangular polarization: l_ii = a_ii/2, l_ij = a_ij above (half_split's U)."""
    A = as_imatrix(A)
    return PolarizedLattice(A=A, L=half_split(A)[1])


def coxeter(P: PolarizedLattice) -> IMatrix:
    """C = -L⁻¹Lᵗ, an integer matrix since L is unimodular.

    Computed as I - L⁻¹A, which is the same matrix because Lᵗ = A - L.
    """
    return add(iidentity(P.rank), matmul(frac_inverse(P.L), P.A), -1)


def join(P1: PolarizedLattice, P2: PolarizedLattice) -> PolarizedLattice:
    """Tensor (join) product: L = L1 ⊗ L2, first factor major.

    The basis is lexicographic: e_i ⊗ f_j comes before e_k ⊗ f_l iff
    (i, j) < (k, l).  The Coxeter element of the product is -C1 ⊗ C2.
    """
    L = kron(P1.L, P2.L)
    return PolarizedLattice(A=add(L, transpose(L)), L=L)


def steinberg_decomposition(A) -> Tuple[IMatrix, IMatrix]:
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
    black = [c == "black" for c in coloring(A).values()]
    I = iidentity(len(A))
    # row i of I - A is the simple reflection s_i's row; the rest stay rows of I
    R = add(I, A, -1)
    C_B = tuple(r if b else e for r, e, b in zip(R, I, black))
    C_W = tuple(e if b else r for r, e, b in zip(R, I, black))
    return C_B, C_W


def bipartite_coxeter(A) -> IMatrix:
    """The black/white Coxeter element C_W·C_B (black reflections act first).

    This is the order used by the eigenvector phase rules (white
    coordinates carry e^{+iθ/2}); the opposite product C_B·C_W is its
    conjugate by either factor.
    """
    C_B, C_W = steinberg_decomposition(A)
    return matmul(C_W, C_B)
