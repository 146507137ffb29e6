"""The dense eigen kernels against numpy.linalg, and the q-law against numpy.

spectral.jacobi_eigh (cyclic Jacobi, symmetric, on Python floats) is the float
layer's solver, and numpy.linalg.eigvalsh is its oracle.  numpy.linalg.eigvals
is the tests' one float solver of A(q), whose spectrum coxlat proves exactly
and never solves.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxlat import spectral
from coxlat.intmat import as_imatrix
from coxlat.qdeform import deform, evaluate, q_eigenvalue, q_spectrum
from coxlat.rootsys import CATALOG_IDS, RootSystemId, cartan_matrix, exponents
from coxlat.spectral import jacobi_eigh

from test_qdeform import NONSYMMETRIC, Q_GRID  # the q-law tests' grid and G2/B3


def _check_eigh(A, tol=1e-13):
    """jacobi_eigh(A) against eigvalsh: values, ascending order, orthonormal
    vectors, and A·v = lambda·v for each pair."""
    w, V = jacobi_eigh(A)
    An = np.array(A, dtype=float).reshape(len(A), len(A))
    scale = max(1.0, float(np.max(np.abs(An), initial=0.0)))
    assert list(w) == sorted(w)
    assert np.max(np.abs(np.array(w) - np.linalg.eigvalsh(An)), initial=0.0) <= tol * scale
    Vn = np.array(V, dtype=float).reshape(len(A), len(A))
    assert np.max(np.abs(Vn @ Vn.T - np.eye(len(A))), initial=0.0) <= 1e-13
    assert np.max(np.abs(An @ Vn.T - Vn.T * np.array(w)), initial=0.0) <= tol * scale
    return w, Vn


@pytest.mark.parametrize("rid", CATALOG_IDS, ids=str)
def test_jacobi_on_catalog(rid):
    w, _ = _check_eigh(cartan_matrix(rid))
    h, exps = exponents(rid)
    assert max(abs(lam - 4 * math.sin(k * math.pi / (2 * h)) ** 2)
               for lam, k in zip(w, exps)) <= 1e-13


@pytest.mark.parametrize("name", ["D4", "D6", "D8"])
def test_jacobi_doubled_exponent_gets_an_orthonormal_pair(name):
    rid = RootSystemId.parse(name)
    h, exps = exponents(rid)
    w, V = _check_eigh(cartan_matrix(rid))
    doubled = [i for i, k in enumerate(exps) if exps.count(k) == 2]
    assert len(doubled) == 2 and abs(w[doubled[0]] - w[doubled[1]]) <= 1e-13
    pair = V[doubled]
    assert np.max(np.abs(pair @ pair.T - np.eye(2))) <= 1e-13
    # the pair spans the eigenspace numpy finds
    wn, Vn = np.linalg.eigh(np.array(cartan_matrix(rid), dtype=float))
    ref = Vn[:, np.abs(wn - w[doubled[0]]) <= 1e-9]
    assert np.max(np.abs(pair.T @ pair - ref @ ref.T)) <= 1e-12


_SYMMETRIC = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.lists(st.integers(-9, 9), min_size=n * n, max_size=n * n).map(
        lambda xs: [[xs[max(i, j) * n + min(i, j)] for j in range(n)] for i in range(n)]
    )
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(A=_SYMMETRIC)
def test_jacobi_on_symmetric_integer_matrices(A):
    _check_eigh(A)


@pytest.mark.parametrize(
    "A",
    [[[5]], [[0]], [[0] * 4 for _ in range(4)], [[3, 0, 0], [0, -1, 0], [0, 0, 3]],
     [[2 if i == j else 0 for j in range(8)] for i in range(8)]],
    ids=["1x1", "zero-1x1", "zero-4x4", "diagonal-repeat", "diagonal-8x8"],
)
def test_jacobi_edge_cases(A):
    w, _ = _check_eigh(A)
    assert sorted(A[i][i] for i in range(len(A))) == list(w)


def test_jacobi_rejects_asymmetric_and_nonconvergence(monkeypatch):
    with pytest.raises(ValueError, match="symmetric"):
        jacobi_eigh([[2, -1], [-3, 2]])
    monkeypatch.setattr(spectral, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(ValueError, match="did not converge"):
        jacobi_eigh(cartan_matrix(CATALOG_IDS[-1]))


@pytest.mark.parametrize("solve, A, match", [
    pytest.param(solve, A, "finite", id=f"{solve.__name__}-{name}")
    for solve in (jacobi_eigh, spectral.perron_frobenius)
    for name, A in [("nan", [[math.nan]]), ("nan-pivot", [[math.nan, -1.0], [-1.0, 2.0]]),
                    ("inf-pair", [[2.0, math.inf], [math.inf, 2.0]]),
                    ("nan-pair", [[2.0, math.nan], [math.nan, 2.0]])]
] + [pytest.param(spectral.perron_frobenius, (), "empty", id="perron_frobenius-empty")])
def test_symmetric_solvers_refuse_nonfinite_and_empty_input(solve, A, match):
    with pytest.raises(ValueError, match=match):
        solve(A)


def _sorted_numpy(M):
    w = np.linalg.eigvals(np.array(M, dtype=float))
    return w[np.lexsort((w.imag, w.real))]


@pytest.mark.parametrize("rid", CATALOG_IDS, ids=str)
@pytest.mark.parametrize("q", Q_GRID)
def test_eigvals_on_the_q_grid(rid, q):
    D = deform(cartan_matrix(rid))
    got = _sorted_numpy(evaluate(D, q))
    # the law itself, which the solver is not told
    h, exps = exponents(rid)
    law = sorted(1 + (4 * math.sin(k * math.pi / (2 * h)) ** 2 - 2) * math.sqrt(q) + q
                 for k in exps)
    assert max(abs(z - w) for z, w in zip(got, law)) <= 1e-13
    # the solved spectrum is the one coxlat proves and prints
    assert q_spectrum(D, q) == 0.0
    # as `coxlat eigen --q` prints it, at the lambda that `coxlat eigen` solves
    law = [q_eigenvalue(p.lam, q) for p in spectral.cartan_spectrum(rid)]
    assert max(abs(z - w) for z, w in zip(got, law)) <= 1e-13


@pytest.mark.parametrize("name", list(NONSYMMETRIC))
@pytest.mark.parametrize("q", Q_GRID)
def test_eigvals_follow_the_law_off_the_catalog(name, q):
    D = deform(as_imatrix(NONSYMMETRIC[name]))
    got = _sorted_numpy(evaluate(D, q))
    assert q_spectrum(D, q) == 0.0
    # off the catalog the lambda come from numpy's solve of A = A(1), all real
    solved = _sorted_numpy(evaluate(D, 1.0))
    assert all(lam.imag == 0 for lam in solved)
    law = [q_eigenvalue(lam.real, q) for lam in solved]
    assert max(abs(z - w) for z, w in zip(got, law)) <= 1e-13
