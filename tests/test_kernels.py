"""The dense eigen kernels against numpy.linalg, and the q-law against both.

spectral.jacobi_eigh (cyclic Jacobi, symmetric) is the float layer's solver;
francis_qr.general_eigenvalues (Hessenberg QR, general real) is the tests'
float oracle for the spectrum of A(q), which coxlat proves exactly and never
solves.  Both run on Python floats; numpy stays the oracle of each.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import francis_qr
from coxlat import spectral
from coxlat.intmat import as_imatrix
from coxlat.qdeform import deform, evaluate, q_eigenvalue, q_spectrum
from coxlat.rootsys import CATALOG_IDS, RootSystemId, cartan_matrix, exponents
from coxlat.spectral import jacobi_eigh
from francis_qr import general_eigenvalues

Q_GRID = (0.25, 0.5, 2.0, 4.0)
# non-symmetric tree Cartan matrices, outside the ADE catalog
NONSYMMETRIC = {
    "G2": [[2, -1], [-3, 2]],
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
}


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


def _sorted_numpy(M):
    w = np.linalg.eigvals(np.array(M, dtype=float))
    return w[np.lexsort((w.imag, w.real))]


@pytest.mark.parametrize("rid", CATALOG_IDS, ids=str)
@pytest.mark.parametrize("q", Q_GRID)
def test_general_eigenvalues_on_the_q_grid(rid, q):
    D = deform(cartan_matrix(rid))
    M = evaluate(D, q)
    got = general_eigenvalues(M)
    assert np.max(np.abs(np.array(got) - _sorted_numpy(M))) <= 1e-12
    # and the law itself, which neither solver is told
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
def test_general_eigenvalues_follow_the_law_off_the_catalog(name, q):
    D = deform(as_imatrix(NONSYMMETRIC[name]))
    got = general_eigenvalues(evaluate(D, q))
    assert q_spectrum(D, q) == 0.0
    # off the catalog the lambda come from the oracle's solve of A = A(1), all real
    solved = general_eigenvalues(evaluate(D, 1.0))
    assert all(lam.imag == 0 for lam in solved)
    law = [q_eigenvalue(lam.real, q) for lam in solved]
    assert max(abs(z - w) for z, w in zip(got, law)) <= 1e-13


def test_general_eigenvalues_complex_pair_is_conjugate():
    M = [[1.0, 2.0, 0.5], [-3.0, 1.0, 4.0], [0.0, -1.0, 2.0]]
    got = general_eigenvalues(M)
    assert np.max(np.abs(np.array(got) - _sorted_numpy(M))) <= 1e-12
    pair = [z for z in got if z.imag]
    assert len(pair) == 2 and pair[0] == pair[1].conjugate()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(1, 8), data=st.data())
def test_general_eigenvalues_on_integer_matrices(n, data):
    xs = data.draw(st.lists(st.integers(-9, 9), min_size=n * n, max_size=n * n))
    M = [xs[i * n:(i + 1) * n] for i in range(n)]
    got = np.array(general_eigenvalues(M))
    ref = _sorted_numpy(M)
    # a defective eigenvalue is only determined to about sqrt(eps)
    err = max(min(abs(g - r) for r in ref) for g in got)
    assert err <= 1e-6 * max(1.0, float(np.max(np.abs(ref))))


def test_general_eigenvalues_rejects_nonfinite_and_nonconvergence(monkeypatch):
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="not finite"):
            general_eigenvalues([[1.0, bad], [0.0, 1.0]])
    cycle = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]  # its eigenvalues all have modulus 1
    assert np.max(np.abs(np.array(general_eigenvalues(cycle)) - _sorted_numpy(cycle))) <= 1e-12
    monkeypatch.setattr(francis_qr, "QR_MAX_ITERATIONS", 0)  # a 3 x 3 block needs a sweep
    with pytest.raises(ValueError, match="did not converge"):
        general_eigenvalues(cycle)
