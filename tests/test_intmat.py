"""Exact integer matrix helpers."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxlat import intmat
from coxlat.intmat import (
    add,
    as_imatrix,
    char_poly,
    det_exact,
    deviation,
    frac_inverse,
    iidentity,
    is_symmetric,
    kron,
    matmul,
    matrix_order,
    transpose,
)
from coxlat.rootsys import RootSystemId, cartan_matrix


def test_as_imatrix_rejects_floats_and_nonsquare():
    with pytest.raises(TypeError):
        as_imatrix([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_imatrix([[1, 2, 3], [4, 5, 6]])


def test_as_imatrix_rejects_fractions():
    # integral Fractions too: the exact layer holds Python ints only
    for bad in (Fraction(1, 2), Fraction(2, 1)):
        with pytest.raises(TypeError):
            as_imatrix([[bad, 0], [0, 1]])
    M = as_imatrix(np.array([[2, -1], [-1, 1]]))
    assert all(type(v) is int for row in M for v in row)
    assert as_imatrix([[np.int64(2), -1], [-1, True]]) == M == ((2, -1), (-1, 1))
    # det_exact and frac_inverse refuse to truncate what as_imatrix would reject
    with pytest.raises(TypeError):
        det_exact(((0.5,),))
    with pytest.raises(TypeError):
        frac_inverse(((Fraction(1, 2),),))


def test_identity_and_eq():
    I3 = iidentity(3)
    assert I3 == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert is_symmetric(I3)
    assert I3 != as_imatrix([[1, 0, 0], [0, 1, 0], [0, 1, 1]])


def test_arithmetic_helpers_hand_checked():
    # on tuples + would concatenate and * repeat: the helpers are entrywise
    A = as_imatrix([[1, 2], [3, 4]])
    B = as_imatrix([[0, 1], [1, 0]])
    assert matmul(A, B) == ((2, 1), (4, 3))
    assert matmul(A, B, A) == ((5, 8), (13, 20))
    assert transpose(A) == ((1, 3), (2, 4))
    assert add(A, B) == ((1, 3), (4, 4))
    assert add(A, B, -3) == ((1, -1), (0, 4))
    assert kron(A, B) == ((0, 1, 0, 2), (1, 0, 2, 0), (0, 3, 0, 4), (3, 0, 4, 0))
    assert all(type(v) is int for row in matmul(A, A) for v in row)


def test_deviation_is_exact():
    A = as_imatrix([[1, 2], [3, 4]])
    assert deviation(A, A) == 0
    d = deviation(A, as_imatrix([[1, 2], [3, 4 - 10**20]]))
    assert type(d) is int and d == 10**20
    # a float difference is not an exact deviation
    with pytest.raises(TypeError):
        deviation(((0.5,),), ((0,),))


def test_frac_inverse_known_2x2():
    M = as_imatrix([[2, 1], [1, 1]])
    Minv = frac_inverse(M)
    assert Minv == ((1, -1), (-1, 2))
    assert all(type(v) is int for row in Minv for v in row)
    assert matmul(M, Minv) == iidentity(2)


def test_frac_inverse_singular_raises():
    with pytest.raises(ValueError):
        frac_inverse(as_imatrix([[1, 2], [2, 4]]))


def test_frac_inverse_rejects_non_unimodular():
    # invertible over the rationals, but its inverse is not integral
    with pytest.raises(ValueError):
        frac_inverse(as_imatrix([[2, 0], [0, 1]]))


def _det_by_permutations(M) -> int:
    """Leibniz expansion: the reference for det_exact."""
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(M[i][perm[i]] for i in range(n))
    return total


@st.composite
def _int_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n))
    # a repeated row or a zero column makes some draws singular
    kind = draw(st.sampled_from(["any", "repeat", "zero"]))
    if kind == "repeat" and n > 1:
        rows[-1] = list(rows[0])
    elif kind == "zero":
        for r in rows:
            r[0] = 0
    return rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_int_matrices())
def test_det_exact_matches_permutation_expansion(rows):
    d = det_exact(as_imatrix(rows))
    assert type(d) is int
    assert d == _det_by_permutations(rows)


# unimodular matrices: shears (row i += c·row j) and sign flips of rows
_unimodular_steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=-3, max_value=3),
    ),
    max_size=12,
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=5), _unimodular_steps)
def test_frac_inverse_of_unimodular_is_exact(n, steps):
    rows = [list(r) for r in iidentity(n)]
    for i, j, c in steps:
        i, j = i % n, j % n
        if i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        else:
            rows[i] = [-a for a in rows[i]]
    M = as_imatrix(rows)
    Minv = frac_inverse(M)
    assert all(type(v) is int for row in Minv for v in row)
    assert matmul(Minv, M) == iidentity(n)


# det A(A_n) = n+1; D_n -> 4; E6 -> 3; E7 -> 2; E8 -> 1 (classical values)
@pytest.mark.parametrize(
    "name,det",
    [("A1", 2), ("A2", 3), ("A5", 6), ("D4", 4), ("D6", 4), ("E6", 3), ("E7", 2), ("E8", 1)],
)
def test_det_exact_cartan(name, det):
    assert det_exact(cartan_matrix(RootSystemId.parse(name))) == det


def test_char_poly_a2():
    # det(tI - A) = t^2 - 4t + 3 for the A2 Cartan matrix
    assert char_poly(cartan_matrix(RootSystemId.parse("A2"))) == [1, -4, 3]


def test_char_poly_matches_determinant():
    M = as_imatrix([[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    coeffs = char_poly(M)
    # constant term is (-1)^n det
    assert coeffs[-1] == -det_exact(M)
    assert coeffs[0] == 1


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_int_matrices())
def test_char_poly_matches_determinant_at_integer_points(rows):
    M = as_imatrix(rows)
    n = len(M)
    coeffs = char_poly(M)
    assert all(type(c) is int for c in coeffs)
    for x in range(n + 1):
        value = sum(c * x ** (n - i) for i, c in enumerate(coeffs))
        xI = tuple(tuple(x * v for v in row) for row in iidentity(n))
        assert value == det_exact(add(xI, M, -1))


def test_matrix_order(monkeypatch):
    C = as_imatrix([[0, -1], [1, -1]])
    assert matrix_order(C) == 3
    assert matrix_order(iidentity(4)) == 1
    monkeypatch.setattr(intmat, "MATRIX_ORDER_CAP", 2)
    with pytest.raises(ValueError, match="<= 2"):
        matrix_order(C)
