"""One-parameter deformation A(q): spectrum law, certificates, exponents.

The law and the certificate are proved exactly, once per record; the tests
also check that each proof fails on records where its identity is false.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from coxlat import spectral
from coxlat.intmat import as_imatrix
from coxlat.qdeform import (
    QDeformedCartan,
    conjugation_certificate,
    deform,
    evaluate,
    q_eigenvalue,
    q_eigenvector,
    q_spectrum,
)
from coxlat.rootsys import RootSystemId, cartan_matrix

# the q grid and NONSYMMETRIC below also serve the q-law tests in test_kernels
Q_GRID = (0.25, 0.5, 2.0, 4.0)
SYSTEMS = [f"A{n}" for n in range(1, 9)] + ["D4", "D5", "E6", "E7", "E8"]
# non-symmetric tree Cartan matrices, outside the ADE catalog
NONSYMMETRIC = {
    "G2": [[2, -1], [-3, 2]],
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
}


def _D(name: str) -> QDeformedCartan:
    if name in NONSYMMETRIC:
        return deform(as_imatrix(NONSYMMETRIC[name]))
    return deform(cartan_matrix(RootSystemId.parse(name)))


def test_deform_splits_into_unit_triangulars():
    D = _D("A3")
    L = np.array(D.L, dtype=float)
    U = np.array(D.U, dtype=float)
    assert np.allclose(L + U, np.array(cartan_matrix(RootSystemId.parse("A3")), dtype=float))
    assert np.allclose(np.diag(L), 1.0)
    assert np.allclose(np.diag(U), 1.0)
    assert np.allclose(np.triu(L, 1), 0.0)
    assert np.allclose(np.tril(U, -1), 0.0)


def test_evaluate_at_one_recovers_cartan():
    for name in ("A4", "D5", "E8"):
        D = _D(name)
        A = np.array(cartan_matrix(RootSystemId.parse(name)), dtype=float)
        assert np.allclose(evaluate(D, 1.0), A)


def test_deform_rejects_bad_input():
    with pytest.raises(ValueError):
        deform(as_imatrix([[1, -1], [-1, 2]]))  # diagonal must be 2
    cycle = as_imatrix([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    with pytest.raises(ValueError):
        deform(cycle)  # not a tree
    disconnected = as_imatrix([[2, 0], [0, 2]])
    with pytest.raises(ValueError):
        deform(disconnected)
    asymmetric = as_imatrix([[2, -1], [0, 2]])
    with pytest.raises(ValueError):
        deform(asymmetric)
    # a_12·a_21 < 0: no generalized Cartan matrix, and no real symmetrization
    with pytest.raises(ValueError, match="generalized Cartan"):
        deform(as_imatrix([[2, 1], [-1, 2]]))


def test_q_must_be_positive():
    D = _D("A2")
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            evaluate(D, bad)
        with pytest.raises(ValueError):
            q_spectrum(D, bad)
        with pytest.raises(ValueError):
            conjugation_certificate(D, bad)


@pytest.mark.parametrize(
    "name,k",
    [
        ("A5", (0, 1, 2, 3, 4)),
        ("D4", (0, 1, 2, 2)),
        ("D5", (0, 1, 2, 3, 3)),
        ("E6", (0, 1, 1, 2, 3, 4)),
        ("E7", (0, 1, 1, 2, 3, 4, 5)),
        ("E8", (0, 1, 1, 2, 3, 4, 5, 6)),
    ],
)
def test_exponent_vectors(name, k):
    assert _D(name).exponent_vector == k


def test_q_eigenvalue_law_at_one():
    assert q_eigenvalue(3.0, 1.0) == 3.0


def test_a2_spectrum_frozen():
    # A2 at q=2: eigenvalues 3 - sqrt(2) and 3 + sqrt(2)
    D = _D("A2")
    got = [q_eigenvalue(p.lam, 2.0) for p in spectral.cartan_spectrum(RootSystemId.parse("A2"))]
    assert abs(got[0] - (3 - math.sqrt(2))) < 1e-12
    assert abs(got[1] - (3 + math.sqrt(2))) < 1e-12
    # both proofs return their deviation as a float, which the check grades
    dev = q_spectrum(D, 2.0)
    assert type(dev) is float and dev == 0.0
    dev = conjugation_certificate(D, 2.0)
    assert type(dev) is float and dev == 0.0


@pytest.mark.parametrize("name", SYSTEMS + list(NONSYMMETRIC))
@pytest.mark.parametrize("q", Q_GRID)
def test_spectrum_law_on_grid(name, q):
    assert q_spectrum(_D(name), q) == 0.0


def _raise(*args, **kwargs):
    raise AssertionError("an eigensolver ran")


@pytest.mark.parametrize("name", list(NONSYMMETRIC))
def test_nonsymmetric_sides_share_no_solver(name, monkeypatch):
    # both proofs are integer identities: no solver runs on either side, for any q
    monkeypatch.setattr(spectral, "jacobi_eigh", _raise)
    D = _D(name)
    for q in Q_GRID:
        assert q_spectrum(D, q) == 0.0
        assert conjugation_certificate(D, q) == 0.0


def _with_entry(M, i, j, delta):
    rows = [list(r) for r in M]
    rows[i][j] += delta
    return as_imatrix(rows)


@pytest.mark.parametrize("name", SYSTEMS)
def test_law_fails_when_l_closes_a_cycle(name):
    # L[n-1][0] += 1 adds the arc n -> 1 (A1: a diagonal entry 2 in L).  With
    # the tree path from 1 to n it closes a cycle whose weight in A(q) is one
    # factor q, where the law needs sqrt(q) per arc
    D = _D(name)
    n = len(D.L)
    bad = D._replace(L=_with_entry(D.L, n - 1, 0, 1))
    dev = q_spectrum(bad, 2.0)
    if name == "A2":
        # here the edit deletes the lower half of the only edge instead:
        # A = [[2, -1], [0, 2]] has the double eigenvalue 2, and
        # A(q) = [[1+q, -1], [0, 1+q]] the double 1 + q = 1 + (2-2)sqrt(q) + q,
        # so the law rightly holds
        assert dev == 0.0
    else:
        assert dev >= 1.0  # an integer deviation: a failure is at least 1


@pytest.mark.parametrize("name", [s for s in SYSTEMS if s != "A1"])
def test_certificate_fails_on_a_changed_exponent(name):
    # A1 has no edge: S = t^k·I commutes with everything, for any k
    D = _D(name)
    for i in range(len(D.exponent_vector)):
        ks = list(D.exponent_vector)
        ks[i] += 1
        bad = D._replace(exponent_vector=tuple(ks))
        assert conjugation_certificate(bad, 2.0) >= 1.0


def test_certificate_fails_on_a_changed_diagonal():
    D = _D("E8")
    bad = D._replace(U=_with_entry(D.U, 3, 3, 1))
    assert conjugation_certificate(bad, 2.0) == 1.0
    assert q_spectrum(bad, 2.0) >= 1.0


@pytest.mark.parametrize("b", [2**30 - 2, 2**30 - 1, 10**30], ids=["2^30-2", "2^30-1", "10^30"])
def test_law_is_proved_past_a_fixed_digit_width(b):
    # the coefficient bound of [[2, -b], [-1, 2]] is (1 + b)·2: it is 2^31 - 2
    # and 2^31 for the first two, which sit on either side of a 32-bit width
    D = deform(as_imatrix([[2, -b], [-1, 2]]))
    assert q_spectrum(D, 2.0) == 0.0
    # one more on a diagonal entry of U adds -z to det(zI - t²L₀ - U₀): an odd
    # power the law forbids, found at every width
    bad = D._replace(U=_with_entry(D.U, 0, 0, 1))
    assert q_spectrum(bad, 2.0) >= 1.0


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("q", Q_GRID)
def test_conjugation_certificate_on_grid(name, q):
    assert conjugation_certificate(_D(name), q) == 0.0


def test_certificate_identity_explicit():
    # A(q) = S A'(q) S^{-1} with S = diag(q^{k_i/2}), A' = sqrt(q) A + (1-sqrt(q))^2 I
    D = _D("E6")
    q = 2.0
    A = np.array(cartan_matrix(RootSystemId.parse("E6")), dtype=float)
    s = np.array([q ** (k / 2) for k in D.exponent_vector])
    A_prime = math.sqrt(q) * A + (1 - math.sqrt(q)) ** 2 * np.eye(6)
    lhs = evaluate(D, q)
    rhs = (s[:, None] * A_prime) / s[None, :]
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_q_eigenvector_transport():
    D = _D("A4")
    q = 4.0
    A = np.array(cartan_matrix(RootSystemId.parse("A4")), dtype=float)
    lams, vecs = np.linalg.eigh(A)
    for lam, x in zip(lams, vecs.T):
        y = np.array(q_eigenvector(x, D, q))
        Aq = np.array(evaluate(D, q))
        lam_q = q_eigenvalue(lam, q)
        assert np.max(np.abs(Aq @ y - lam_q * y)) < 1e-8


def test_q_eigenvector_rejects_garbage():
    D = _D("A4")
    with pytest.raises(ValueError):
        q_eigenvector(np.array([1.0, 0.0, 0.0, 0.0]), D, 2.0)
