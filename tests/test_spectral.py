"""Closed-form eigenvectors, the phase dressing, and the Perron-Frobenius vector."""

from __future__ import annotations

import cmath
import math
from collections import Counter

import numpy as np
import pytest

from coxlat.gabrielov import JOINS
from coxlat.lattice import bipartite_coxeter, steinberg_decomposition
from coxlat.qdeform import deform, q_eigenvector
from coxlat.rootsys import CATALOG_IDS, RootSystemId, cartan_matrix, exponents
from coxlat.spectral import (
    DELTA,
    IDENTITY_TOL,
    an_coxeter_eigenvector,
    cartan_spectrum,
    coxeter_eigvec_from_cartan,
    e6_eigenvector,
    e8_eigenvector,
    eigenvalue_for_angles,
    factorized_coxeter_eigenvector,
    jacobi_eigh,
    max_abs,
    normalize_eigvec,
    perron_frobenius,
    pf_closed_form,
    residual,
    zamolodchikov_vector,
)


def _A(name: str) -> np.ndarray:
    return np.array(cartan_matrix(RootSystemId.parse(name)), dtype=float)


def projective_distance(u, v) -> float:
    """sin of the angle between the lines spanned by u and v: the part of u
    orthogonal to v, relative to u (accurate for nearly parallel lines)."""
    nu = math.hypot(*(abs(x) for x in u))
    nv = math.hypot(*(abs(y) for y in v))
    if nu == 0 or nv == 0:
        raise ValueError("zero vector")
    c = sum(y.conjugate() * x for x, y in zip(u, v)) / (nv * nv)
    return min(1.0, math.hypot(*(abs(x - c * y) for x, y in zip(u, v))) / nu)


def test_normalize_eigvec_sets_largest_component_to_one():
    v = normalize_eigvec(np.array([1.0, -3.0, 2.0]))
    assert v[1] == 1.0
    assert projective_distance(v, np.array([1.0, -3.0, 2.0])) < 1e-14


@pytest.mark.parametrize(
    "v",
    [[math.nan, 1.0], [1.0, math.nan], [math.inf, 1.0], [1.0, -math.inf],
     [1.0, complex(0, math.nan)]],
    ids=["nan-first", "nan-last", "inf", "-inf", "complex-nan"],
)
def test_normalize_eigvec_refuses_nonfinite_entries(v):
    # a NaN compares false, so the largest-modulus pick would skip or keep it
    with pytest.raises(ValueError, match="finite"):
        normalize_eigvec(v)


@pytest.mark.parametrize("v", [(), (0.0, 0.0), (0.0, 0j)], ids=["empty", "zero", "complex-zero"])
def test_normalize_eigvec_refuses_the_zero_vector(v):
    with pytest.raises(ValueError, match="zero vector"):
        normalize_eigvec(v)


def test_the_empty_vector_has_sup_norm_zero():
    # so the residual of the 0 x 0 eigenproblem, which jacobi_eigh solves, is 0
    assert max_abs([]) == 0.0
    assert jacobi_eigh(()) == ((), ())
    assert residual((), (), 0.0) == 0.0


def test_cartan_spectrum_labels():
    pairs = cartan_spectrum(RootSystemId.parse("E8"))
    assert [p.k for p in pairs] == [1, 7, 11, 13, 17, 19, 23, 29]
    for p in pairs:
        assert abs(p.lam - 4 * math.sin(p.k * math.pi / (2 * p.h)) ** 2) < 1e-12


@pytest.mark.parametrize("rid", CATALOG_IDS, ids=str)
def test_cartan_spectrum_on_catalog(rid):
    # the spectrum `coxlat eigen` prints: 4sin^2(k*pi/2h) over the exponents,
    # each vector scaled to unit largest modulus and within the residual contract
    A = np.array(cartan_matrix(rid), dtype=float)
    h, exps = exponents(rid)
    pairs = cartan_spectrum(rid)
    assert [p.k for p in pairs] == list(exps)
    for p in pairs:
        assert abs(p.lam - 4 * math.sin(p.k * math.pi / (2 * h)) ** 2) < 1e-12
        assert abs(np.max(np.abs(p.vector)) - 1) < 1e-12
        assert p.residual == residual(A, p.vector, p.lam) <= IDENTITY_TOL


@pytest.mark.parametrize("name", ["A2", "A5", "D4", "D5", "E6", "E8"])
def test_undressed_coxeter_eigenvectors_are_cartan_eigenvectors(name):
    # the inverse of the phase dressing: each eig eigenvector of C_W·C_B for
    # e^{2i theta}, its phases e^{i c_jj theta/2} undone, is an eigenvector of A
    # for 2 - 2cos(theta) on one of the two branches theta and theta + pi
    A = cartan_matrix(RootSystemId.parse(name))
    C_B, _ = steinberg_decomposition(A)
    mus, vecs = np.linalg.eig(np.array(bipartite_coxeter(A), dtype=float))
    for mu, y in zip(mus, vecs.T):
        best = min(
            residual(A, [cmath.exp(-1j * theta / 2 * C_B[j][j]) * yj for j, yj in enumerate(y)],
                     2 - 2 * math.cos(theta))
            for theta in (cmath.phase(mu) / 2 + branch * math.pi for branch in (0, 1))
        )
        assert best <= IDENTITY_TOL


@pytest.mark.parametrize("name", ["A2", "D4", "E6", "E8"])
def test_phase_dressing_gives_coxeter_eigenvectors(name):
    rid = RootSystemId.parse(name)
    A = cartan_matrix(rid)
    C = np.array(bipartite_coxeter(A), dtype=float)
    for pair in cartan_spectrum(rid):
        theta = pair.k * math.pi / pair.h
        y = coxeter_eigvec_from_cartan(pair.vector, theta, A)
        assert residual(C, y, cmath.exp(2j * theta)) <= IDENTITY_TOL


def test_phase_dressing_rejects_non_eigenvector():
    A = cartan_matrix(RootSystemId.parse("A2"))
    with pytest.raises(ValueError, match="not an eigenvector"):
        coxeter_eigvec_from_cartan(np.array([1.0, 0.0]), math.pi / 3, A)


_A2, _A3, _E8 = (cartan_matrix(RootSystemId.parse(name)) for name in ("A2", "A3", "E8"))
# inputs the residual guards of both transfers must refuse: a NaN residual
# compares false against any tolerance, the zero vector has residual 0, and
# (1, 1), an A2 eigenvector for 1, has no A3 residual at all
_REFUSED = {
    "q-nan": lambda: q_eigenvector((math.nan, 1.0), deform(_A2), 2.0),
    "q-inf": lambda: q_eigenvector((math.inf, 1.0), deform(_A2), 2.0),
    "q-zero": lambda: q_eigenvector((0.0, 0.0), deform(_A2), 2.0),
    "dress-nan": lambda: coxeter_eigvec_from_cartan((math.nan,) * 8, math.pi / 30, _E8),
    "dress-inf": lambda: coxeter_eigvec_from_cartan((math.inf,) * 8, math.pi / 30, _E8),
    "dress-zero": lambda: coxeter_eigvec_from_cartan((0.0,) * 8, 0.123, _E8),
    "q-short": lambda: q_eigenvector((1.0, 1.0), deform(_A3), 2.0),
    "dress-short": lambda: coxeter_eigvec_from_cartan((1.0, 1.0), math.pi / 3, _A3),
}


@pytest.mark.parametrize("case", list(_REFUSED))
def test_transfers_refuse_nan_inf_and_zero_vectors(case):
    with pytest.raises(ValueError):
        _REFUSED[case]()


@pytest.mark.parametrize("A,v", [
    (_A3, (1.0, 1.0)),                # fewer entries than rows: zip would read 0.0
    (_A2, (1.0, 1.0, 1.0)),           # more entries than columns
    (((2, -1), (-1,)), (1.0, 1.0)),   # a short row
], ids=["short-v", "long-v", "short-row"])
def test_residual_refuses_mismatched_shapes(A, v):
    with pytest.raises(ValueError, match="entries"):
        residual(A, v, 1.0)


def an_eigenvector(n: int, k: int) -> tuple:
    """Eigenvector of A(A_n) for 2 - 2cos(k*pi/(n+1)), component sums of phases.

    Component j (1-based) is sum_{m=0}^{n-j} e^{i(n-j-2m)theta}; the
    symmetric sum is real.
    """
    theta = k * math.pi / (n + 1)
    return tuple(
        sum(cmath.exp(1j * (n - j - 2 * m) * theta) for m in range(n - j + 1)).real
        for j in range(1, n + 1)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_an_eigenvectors(n):
    A = _A(f"A{n}")
    for k in range(1, n + 1):
        v = an_eigenvector(n, k)
        lam = 4 * math.sin(k * math.pi / (2 * (n + 1))) ** 2
        assert residual(A, v, lam) <= IDENTITY_TOL


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (4, 1), (4, 3)])
def test_an_coxeter_eigenvectors(n, k):
    from coxlat.lattice import coxeter, standard_polarization

    C = np.array(coxeter(standard_polarization(cartan_matrix(RootSystemId("A", n)))),
                 dtype=float)
    theta = k * math.pi / (n + 1)
    v = an_coxeter_eigenvector(n, theta)
    assert residual(C, v, cmath.exp(2j * theta)) <= IDENTITY_TOL


@pytest.mark.parametrize("n", range(1, 9))
def test_cartan_spectrum_matches_an_closed_form(n):
    # the closed form is the oracle for the Jacobi eigenvectors of A_1..A_8,
    # whose eigenvalues are all simple
    for pair in cartan_spectrum(RootSystemId("A", n)):
        assert projective_distance(pair.vector, an_eigenvector(n, pair.k)) < 1e-12


def test_a1_vectors_are_scalars():
    assert an_eigenvector(1, 1) == (1.0,)
    assert an_coxeter_eigenvector(1, math.pi / 2) == (1.0 + 0.0j,)


_E8_GRID = [(a, b) for a in (1, 2, 3, 4) for b in (1, 2)]
_E6_GRID = [(a, b) for a in (1, 2, 3) for b in (1, 2)]


@pytest.mark.parametrize("a,b", _E8_GRID)
def test_e8_closed_forms(a, b):
    A = _A("E8")
    lam = eigenvalue_for_angles(a * math.pi / 5, b * math.pi / 3)
    x_simple = e8_eigenvector(a, b)
    x_long = e8_eigenvector(a, b, form="long")
    assert residual(A, x_simple, lam) <= IDENTITY_TOL
    assert residual(A, x_long, lam) <= IDENTITY_TOL
    # the two printed forms agree componentwise after the same normalization
    assert projective_distance(x_simple, x_long) < 1e-12


@pytest.mark.parametrize("a,b", _E6_GRID)
def test_e6_closed_forms(a, b):
    A = _A("E6")
    lam = eigenvalue_for_angles(a * math.pi / 4, b * math.pi / 3)
    assert residual(A, e6_eigenvector(a, b), lam) <= IDENTITY_TOL


def test_e8_eigenvalue_set_is_the_cartan_spectrum():
    h, exps = exponents(RootSystemId.parse("E8"))
    lams = sorted(eigenvalue_for_angles(a * math.pi / 5, b * math.pi / 3)
                  for a, b in _E8_GRID)
    target = [4 * math.sin(k * math.pi / (2 * h)) ** 2 for k in exps]
    assert np.max(np.abs(np.array(lams) - target)) < 1e-12


def test_angle_grid_covers_exponents():
    # theta + gamma + pi/2 = pi + k*pi/30 with k an exponent of E8
    ks = sorted(
        round(30 * ((a * math.pi / 5 + b * math.pi / 3 + DELTA) / math.pi - 1))
        for a, b in _E8_GRID
    )
    assert ks == [1, 7, 11, 13, 17, 19, 23, 29]


@pytest.mark.parametrize("k4,k2", _E8_GRID)
def test_factorized_coxeter_pipeline(k4, k2):
    C = np.array(bipartite_coxeter(cartan_matrix(RootSystemId("E", 8))), dtype=float)
    x = factorized_coxeter_eigenvector("E8", (k4, k2, 1))
    lam = cmath.exp(2j * (k4 * math.pi / 5 + k2 * math.pi / 3 + math.pi / 2))
    assert residual(C, x, lam) <= IDENTITY_TOL


# each join's angle tuples (one k per factor A_n, the A1 factor's k = 1) and the
# printed closed forms over their grid of pairs (a, b)
_JOIN_CLOSED_FORMS = {
    "E8": ([(k4, k2, 1) for k4, k2 in _E8_GRID], e8_eigenvector, _E8_GRID),
    "E6": ([(k3, k2, 1) for k3, k2 in _E6_GRID], e6_eigenvector, _E6_GRID),
}


def _undressed_join_eigenvectors(target):
    """The worst C_BW residual of w·G⁻¹·x_* over the angle tuples of target's
    join, and how often each closed-form pair (a, b) is proportional to one
    of its undressings."""
    tuples, closed_form, grid = _JOIN_CLOSED_FORMS[target]
    A = cartan_matrix(RootSystemId.parse(target))
    C_B, _ = steinberg_decomposition(A)
    C = bipartite_coxeter(A)
    closed = {ab: closed_form(*ab) for ab in grid}
    worst, reached = 0.0, Counter()
    for ks in tuples:
        angle = sum(k * math.pi / (rid.rank + 1) for k, rid in zip(ks, JOINS[target].factors))
        z = factorized_coxeter_eigenvector(target, ks)
        worst = max(worst, residual(C, z, cmath.exp(2j * angle)))
        # the phase dressing run backwards: coordinate j loses e^{i c_jj theta/2},
        # which leaves an A-eigenvector for 2 - 2cos(theta) on both branches
        for theta in (angle, angle + math.pi):
            x = [cmath.exp(-1j * theta / 2 * C_B[j][j]) * zj for j, zj in enumerate(z)]
            # by proportionality: normalizing x or e picks a sign on modulus ties
            reached.update(ab for ab, e in closed.items() if projective_distance(x, e) < 1e-12)
    return worst, reached


@pytest.mark.parametrize("target", list(_JOIN_CLOSED_FORMS))
def test_closed_forms_are_the_join_eigenvectors_undressed(target):
    # the paper's construction end to end: each closed form comes out of the
    # join's factors, once on each branch of the undressing
    worst, reached = _undressed_join_eigenvectors(target)
    assert worst <= IDENTITY_TOL
    assert reached == dict.fromkeys(_JOIN_CLOSED_FORMS[target][2], 2)


def test_the_written_e6_conjugator_breaks_the_join_eigenvectors(monkeypatch):
    # planted defect: E6's reference conjugator v as written (no repair word)
    monkeypatch.setitem(JOINS, "E6", JOINS["E6"]._replace(repair_word=None))
    worst, reached = _undressed_join_eigenvectors("E6")
    assert worst > IDENTITY_TOL  # 0.75
    assert reached != dict.fromkeys(_E6_GRID, 2)


@pytest.mark.parametrize(
    "build, args",
    [(e8_eigenvector, (1.5, 1)), (e8_eigenvector, (1, 1.0)), (e6_eigenvector, (1.5, 1)),
     (factorized_coxeter_eigenvector, ("E8", (1.5, 1, 1))),
     (factorized_coxeter_eigenvector, ("E8", (1, 2.0, 1)))],
    ids=["e8-a", "e8-b", "e6-a", "factorized-k4", "factorized-k2"],
)
def test_closed_form_builders_take_integers(build, args):
    # a fractional index passes the range check but builds no eigenvector
    with pytest.raises(TypeError):
        build(*args)


@pytest.mark.parametrize(
    "target, ks",
    [("E8", (1, 1)), ("E8", (1, 1, 1, 1)), ("E8", (0, 1, 1)), ("E8", (5, 1, 1)),
     ("E8", (1, 3, 1)), ("E8", (1, 1, 2)), ("E6", (4, 1, 1)), ("E6", (1, 1, 0))],
    ids=["too-few", "too-many", "k4-zero", "k4-high", "k2-high", "e8-a1", "k3-high", "e6-a1"],
)
def test_factorized_coxeter_eigenvector_takes_one_k_per_factor_in_range(target, ks):
    with pytest.raises(ValueError, match="one k per factor"):
        factorized_coxeter_eigenvector(target, ks)


def test_perron_frobenius_matches_closed_form():
    v = perron_frobenius(_A("E8"))
    assert all(x > 0 for x in v)
    assert np.min(v) == 1.0
    zam = zamolodchikov_vector()
    assert np.max(np.abs(np.sort(v) - zam)) <= 1e-9
    closed = pf_closed_form()
    assert np.max(np.abs(np.sort(closed) / np.min(closed) - zam)) <= 1e-9
    # sorting forgets the vertices: in vertex order the closed form is the
    # eigenvector for 4 sin²(π/2h), h = 30, and with entries 1 and 2 swapped it is not
    A, lam = cartan_matrix(RootSystemId("E", 8)), 4 * math.sin(math.pi / 60) ** 2
    assert residual(A, closed, lam) <= IDENTITY_TOL
    assert residual(A, (closed[1], closed[0], *closed[2:]), lam) > 0.1


@pytest.mark.parametrize("rid", CATALOG_IDS, ids=str)
def test_perron_frobenius_on_catalog(rid):
    # LAPACK hands back a negative lowest eigenvector for some of these
    A = np.array(cartan_matrix(rid), dtype=float)
    v = perron_frobenius(A)
    assert all(x > 0 for x in v) and np.min(v) == 1.0
    h, _ = exponents(rid)
    assert residual(A, v, 4 * math.sin(math.pi / (2 * h)) ** 2) <= IDENTITY_TOL


def test_perron_frobenius_rejects_bad_input():
    with pytest.raises(ValueError, match="symmetric"):
        perron_frobenius([[2, -1], [-3, 2]])  # G2
    reducible = np.zeros((3, 3))
    reducible[:2, :2] = _A("A2")
    reducible[2, 2] = 2.0  # A2 + A1: the lowest eigenvector vanishes on A1
    with pytest.raises(ValueError, match="positive"):
        perron_frobenius(reducible)


def test_zamolodchikov_ratios():
    zam = zamolodchikov_vector()
    assert zam[0] == 1.0
    assert abs(zam[1] / zam[0] - (1 + math.sqrt(5)) / 2) < 1e-12
    rounded = tuple(round(float(t), 2) for t in zam)
    assert rounded == (1.0, 1.62, 1.99, 2.4, 2.96, 3.22, 3.89, 4.78)
