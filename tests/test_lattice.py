"""Polarized lattices, Coxeter elements, joins, and Steinberg splits."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxlat.intmat import (
    add,
    as_imatrix,
    char_poly,
    det_exact,
    frac_inverse,
    iidentity,
    kron,
    matmul,
    matrix_order,
    transpose,
)
from coxlat.lattice import (
    PolarizedLattice,
    bipartite_coxeter,
    coxeter,
    join,
    standard_polarization,
    steinberg_decomposition,
)
from coxlat.rootsys import CATALOG_IDS, RootSystemId, cartan_matrix, exponents


def _pol(name: str) -> PolarizedLattice:
    return standard_polarization(cartan_matrix(RootSystemId.parse(name)))


def _orthogonality_check(A, C) -> bool:
    """True iff CᵗAC = A exactly."""
    A = as_imatrix(A)
    C = as_imatrix(C)
    if len(A) != len(C):
        raise ValueError("dimension mismatch")
    return matmul(transpose(C), A, C) == A


def _gauge_transform(P: PolarizedLattice, M) -> PolarizedLattice:
    """Base change L -> MᵗLM by M in GL_n(Z); the Coxeter element transforms to M⁻¹CM."""
    M = as_imatrix(M)
    if det_exact(M) not in (1, -1):
        raise ValueError("M must be unimodular (det M = ±1)")
    Mt = transpose(M)
    return PolarizedLattice(A=matmul(Mt, P.A, M), L=matmul(Mt, P.L, M))


def test_standard_polarization_a2():
    P = _pol("A2")
    assert P.L == ((1, -1), (0, 1))
    assert add(P.L, transpose(P.L)) == P.A


def test_standard_polarization_odd_diagonal_raises():
    with pytest.raises(ValueError):
        standard_polarization(as_imatrix([[1, 0], [0, 2]]))


def test_non_unimodular_forms_are_rejected():
    # det L = 2: C = -L⁻¹Lᵗ would not be integral
    with pytest.raises(ValueError):
        PolarizedLattice(A=as_imatrix([[4, 0], [0, 2]]), L=as_imatrix([[2, 0], [0, 1]]))
    with pytest.raises(ValueError, match="M must be unimodular"):
        _gauge_transform(_pol("A2"), as_imatrix([[2, 0], [0, 1]]))


def test_replace_validates_like_the_constructor():
    P = _pol("A2")
    assert P._replace(A=[[2, -1], [-1, 2]]) == P  # the constructor's as_imatrix normalization
    with pytest.raises(ValueError, match="A = L \\+ L\\^t violated"):
        P._replace(A=as_imatrix([[2, 0], [0, 2]]))
    with pytest.raises(ValueError, match="A = L \\+ L\\^t violated"):  # A not symmetric
        P._replace(A=as_imatrix([[2, -1], [0, 2]]))
    with pytest.raises(ValueError, match="L must be unimodular"):
        P._replace(A=as_imatrix([[4, 0], [0, 2]]), L=as_imatrix([[2, 0], [0, 1]]))


def test_coxeter_a2_frozen():
    C = coxeter(_pol("A2"))
    assert all(type(v) is int for row in C for v in row)
    assert C == ((0, -1), (1, -1))
    assert matrix_order(C) == 3


def test_coxeter_a4_frozen():
    C = coxeter(_pol("A4"))
    assert C == (
        (0, 0, 0, -1),
        (1, 0, 0, -1),
        (0, 1, 0, -1),
        (0, 0, 1, -1),
    )


@pytest.mark.parametrize("rid", CATALOG_IDS, ids=str)
def test_coxeter_preserves_form_and_has_order_h(rid):
    A = cartan_matrix(rid)
    C = coxeter(standard_polarization(A))
    assert _orthogonality_check(A, C)
    h, _ = exponents(rid)
    assert matrix_order(C) == h


# unimodular gauge matrices as shear sequences: row i += c * row j
_shears = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=-2, max_value=2),
    ),
    min_size=0,
    max_size=5,
)


@settings(max_examples=40, deadline=None)
@given(_shears)
def test_gauge_law(shears):
    P = _pol("A3")
    rows = [list(r) for r in iidentity(3)]
    for i, j, c in shears:
        if i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    M = as_imatrix(rows)
    Q = _gauge_transform(P, M)
    assert Q.A == matmul(transpose(M), P.A, M)
    lhs = coxeter(Q)
    rhs = matmul(frac_inverse(M), coxeter(P), M)
    assert lhs == rhs


def test_join_pair_sign():
    P1, P2 = _pol("A2"), _pol("A1")
    J = join(P1, P2)
    assert J.L == kron(P1.L, P2.L)
    # Coxeter element of a two-factor join is minus the tensor product
    C1, C2 = coxeter(P1), coxeter(P2)
    assert coxeter(J) == tuple(tuple(-v for v in row) for row in kron(C1, C2))


def test_join_triple_is_tensor_product_with_order_30():
    ids = ["A4", "A2", "A1"]
    P = _pol(ids[0])
    for name in ids[1:]:
        P = join(P, _pol(name))
    Cs = [coxeter(_pol(name)) for name in ids]
    C_star = kron(kron(Cs[0], Cs[1]), Cs[2])
    assert coxeter(P) == C_star  # signs cancel over three factors
    assert matrix_order(C_star) == 30


def test_steinberg_a2_frozen():
    # vertex 1 is white, vertex 2 black
    A = cartan_matrix(RootSystemId.parse("A2"))
    C_B, C_W = steinberg_decomposition(A)
    assert C_B == ((1, 0), (1, -1))
    assert C_W == ((-1, 1), (0, 1))
    # C_W·C_B is the standard Coxeter element of A2
    assert bipartite_coxeter(A) == coxeter(_pol("A2"))


@pytest.mark.parametrize("rid", CATALOG_IDS, ids=str)
def test_steinberg_identities(rid):
    A = cartan_matrix(rid)
    C_B, C_W = steinberg_decomposition(A)
    I = iidentity(rid.rank)
    assert add(add(C_B, C_W), A) == add(I, I)
    assert matmul(C_B, C_B) == I
    assert matmul(C_W, C_W) == I
    C_bw = bipartite_coxeter(A)
    h, _ = exponents(rid)
    assert matrix_order(C_bw) == h
    # conjugate to the standard Coxeter element: same characteristic
    # polynomial, and both sides have finite order h (hence diagonalizable)
    assert char_poly(C_bw) == char_poly(coxeter(standard_polarization(A)))


def test_steinberg_rejects_non_cartan_trees():
    # the colors are read off A, so A itself must be a Cartan tree
    bad = {
        "diagonal": [[2, -1], [-1, 1]],
        "symmetric": [[2, 0], [-1, 2]],
        "not a tree": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    }
    for message, A in bad.items():
        with pytest.raises(ValueError, match=message):
            steinberg_decomposition(as_imatrix(A))
