"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Each test prints ``ACCEPTANCE <nn> <slug>: PASS|FAIL`` straight to the
terminal (outside pytest's capture) and then asserts.  The paper's
identities are computed once, by the ``coxlat verify`` checks; criteria
01–09 and 11 assert that the matching records pass at their default
tolerances, which must equal the constants pinned here.  Tolerances
must not be loosened to make a criterion pass.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np

from coxlat import cli, gabrielov, ising, lattice, qdeform, rootsys, spectral

EXACT = 0
RESIDUAL_TOL = 1e-9
Q_SPECTRUM_TOL = 1e-8
CERTIFICATE_TOL = 1e-10
ROUND_TRIP_TOL = 1e-10
GOLDEN_TOL = 1e-12
REPAIR_MAX_LEN = 12


def _record(capsys, number: int, slug: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {number:02d} {slug}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({slug}) failed"


def _passes(*names: str) -> bool:
    """True iff every named ``coxlat verify`` record passes at its default tolerance."""
    return all(cli.run_verification(name)[0]["status"] == "pass" for name in names)


def test_criterion_01_e8_gram_identity(capsys):
    t0 = time.perf_counter()
    G, _ = gabrielov.e8_factorization()
    elapsed = time.perf_counter() - t0
    printed_ok = G == gabrielov.JOINS["E8"].change_of_basis
    _record(capsys, 1, "e8-gram-identity", _passes("e8-factorization") and printed_ok and elapsed < 1.0)


def test_criterion_02_e8_coxeter_conjugation(capsys):
    _record(capsys, 2, "e8-coxeter-conjugation", _passes("e8-factorization"))


def test_criterion_03_e6_analogues(capsys):
    t0 = time.perf_counter()
    G, _ = gabrielov.e6_factorization()
    elapsed = time.perf_counter() - t0
    ok = _passes("e6-factorization") and G == gabrielov.JOINS["E6"].change_of_basis and elapsed < 1.0
    _record(capsys, 3, "e6-analogues", ok)


def test_criterion_04_gamma_square_equals_alpha_sixth(capsys):
    _record(capsys, 4, "gamma-square-alpha-sixth", _passes("gamma-alpha"))


def test_criterion_05_root_image(capsys):
    _record(capsys, 5, "root-image-60", _passes("root-image"))


def test_criterion_06_conjugating_words(capsys):
    # the written E6 word fails as-is; the e6 record passes only if that is
    # flagged and E6's pinned repair word, at most REPAIR_MAX_LEN letters, conjugates
    _record(capsys, 6, "conjugating-words", _passes("e8-factorization", "e6-factorization"))


def test_criterion_07_closed_form_eigenvectors(capsys):
    _record(capsys, 7, "closed-form-eigenvectors", _passes("e8-eigvecs", "e6-eigvecs"))


def test_criterion_08_perron_frobenius(capsys):
    _record(capsys, 8, "perron-frobenius-masses", _passes("pf-zamolodchikov"))


def test_criterion_09_q_deformation_grid(capsys):
    _record(capsys, 9, "q-deformation-grid", _passes("q-spectrum", "q-certificate"))


def _transfer_round_trip_error(rid, pair, c: complex) -> float:
    """Worst deviation of one transfer, NaN kept: the Coxeter residual of the
    dressed c·x, and c·x against the dressed vector with its phases
    e^{-i c_jj theta/2} undone; inf if the transfer refuses c·x."""
    A = rootsys.cartan_matrix(rid)
    theta = pair.k * math.pi / pair.h
    x = [c * xj for xj in pair.vector]
    try:
        y = spectral.coxeter_eigvec_from_cartan(x, theta, A)
    except ValueError:
        return math.inf
    C_B, _ = lattice.steinberg_decomposition(A)
    back = [cmath.exp(-1j * theta / 2 * C_B[j][j]) * yj for j, yj in enumerate(y)]
    coxeter = spectral.residual(lattice.bipartite_coxeter(A), y, cmath.exp(2j * theta))
    return spectral.max_abs([coxeter, *(b - xj for b, xj in zip(back, x))])


def test_criterion_10_transfer_round_trip(capsys):
    # 200 seeded draws of (catalog system, eigenpair, complex scale c): the
    # phase dressing takes c·x to an eigenvector of C_W·C_B for e^{2i theta},
    # and undoing its phases gives c·x back
    rng = np.random.default_rng(12345)
    spectra = {rid: spectral.cartan_spectrum(rid) for rid in rootsys.CATALOG_IDS}
    errors = []
    for _ in range(200):
        rid = rootsys.CATALOG_IDS[int(rng.integers(len(rootsys.CATALOG_IDS)))]
        pair = spectra[rid][int(rng.integers(rid.rank))]
        c = complex(rng.normal(), rng.normal())
        errors.append(_transfer_round_trip_error(rid, pair, c))
    _record(capsys, 10, "transfer-round-trip", spectral.max_abs(errors) <= ROUND_TRIP_TOL)


def test_criterion_11_steinberg_split(capsys):
    _record(capsys, 11, "steinberg-split", _passes("steinberg"))


def test_criterion_12_ising_chain(capsys):
    t0 = time.perf_counter()
    ok = True
    for N in range(2, 11):
        params = ising.IsingParams(N=N, J=1.0, h_z=0.2, h_x=0.9)
        H = ising.build_hamiltonian(params)
        T = ising.translation_operator(N).astype(float)
        ok = ok and np.array_equal(H, H.T)
        ok = ok and float(np.max(np.abs(T @ H - H @ T))) == 0.0
        eps = np.sort([l.epsilon for l in ising.momentum_spectrum(params)])
        dense = np.linalg.eigvalsh(H)
        ok = ok and float(np.max(np.abs(eps - (dense - dense[0])))) <= 1e-10
        classical = ising.IsingParams(N=N, J=1.0, h_z=0.2)
        Hc = ising.build_hamiltonian(classical)
        ok = ok and np.array_equal(
            np.sort(np.diag(Hc)), ising.classical_energies(classical)
        )
    probe = ising.dispersion_probe(ising.IsingParams(N=10, J=1.0, h_x=2.0), 1)
    ok = ok and probe["exploratory"] is True and len(probe["bands"]) == 1
    elapsed = time.perf_counter() - t0
    _record(capsys, 12, "ising-chain", ok and elapsed < 30.0)


def test_gate_constants_are_the_verify_defaults():
    defaults = {r["name"]: r["tolerance"] for r in cli.run_verification("all")}
    assert defaults == {
        "steinberg": EXACT,
        "e8-factorization": EXACT,
        "e6-factorization": EXACT,
        "gamma-alpha": EXACT,
        "root-image": EXACT,
        "e8-eigvecs": RESIDUAL_TOL,
        "e6-eigvecs": RESIDUAL_TOL,
        "pf-zamolodchikov": RESIDUAL_TOL,
        "q-spectrum": Q_SPECTRUM_TOL,
        "q-certificate": CERTIFICATE_TOL,
        "ising-symmetry": EXACT,
    }
    assert spectral.IDENTITY_TOL == RESIDUAL_TOL
    assert qdeform.Q_SPECTRUM_TOL == Q_SPECTRUM_TOL
    assert qdeform.CERTIFICATE_TOL == CERTIFICATE_TOL
    assert cli.GOLDEN_TOL == GOLDEN_TOL
    assert cli.REPAIR_MAX_LEN == REPAIR_MAX_LEN
