"""Transverse-field Ising chain: Hamiltonian, momentum sectors, dispersion."""

from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest

from coxlat.ising import (
    MAX_STATES,
    IsingParams,
    build_hamiltonian,
    classical_energies,
    dispersion_probe,
    free_fermion_energy,
    hamiltonian_entries,
    momentum_spectrum,
    translation_operator,
)
from coxlat.ising import _diagonal


def test_params_validation():
    with pytest.raises(ValueError):
        IsingParams(N=1)
    with pytest.raises(ValueError):
        IsingParams(N=15)  # 2^15 > MAX_STATES
    with pytest.raises(ValueError):
        IsingParams(N=4, J=0.0)
    with pytest.raises(ValueError):
        IsingParams(N=4, h_x=-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        for field in ("J", "h_z", "h_x"):
            with pytest.raises(ValueError):
                IsingParams(N=4, **{field: bad})
    # finite fields whose ||H||_inf bound N·(J + h_z + h_x) overflows
    for fields in ({"J": 1e308}, {"h_x": 1e308}, {"J": 3e307, "h_z": 3e307}):
        with pytest.raises(ValueError, match="so H would overflow"):
            IsingParams(N=8, **fields)
    IsingParams(N=8, J=1e307, h_x=1e307)  # 8·2e307 = 1.6e308 is still finite
    assert 2 ** IsingParams(N=14).N == MAX_STATES
    # N is an integer: a float is refused at construction and on _replace,
    # and an integer type is stored as int
    with pytest.raises(TypeError):
        IsingParams(8.0, 1.0, 0.0, 0.5)
    with pytest.raises(TypeError):
        IsingParams(N=8)._replace(N=8.0)
    assert type(IsingParams(N=np.int64(8)).N) is int


def test_huge_n_is_refused_before_2_to_the_n():
    # 2**N at N = 10**8 alone is a 13 MB int: N is checked before any power
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"2\\^N <= {MAX_STATES}"):
            IsingParams(N=10**8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_replace_validates_like_the_constructor():
    # _replace builds through the constructor, so N is refused before any record
    # (and so any momentum block) of size 2^N exists
    params = IsingParams(8)
    assert params._replace(h_x=1.5) == IsingParams(8, h_x=1.5)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"2\\^N <= {MAX_STATES}"):
            params._replace(N=1000)
        with pytest.raises(ValueError, match=f"2\\^N <= {MAX_STATES}"):
            IsingParams._make((10**8, 1.0, 0.0, 0.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError, match="need J > 0"):
        params._replace(J=-1.0)
    with pytest.raises(ValueError, match="so H would overflow"):
        params._replace(J=1e308)


def test_n2_classical_diagonal_frozen():
    # two sites, both bonds of the periodic ring counted: diag(-2, 2, 2, -2)
    H = build_hamiltonian(IsingParams(N=2))
    assert np.array_equal(H, np.diag([-2.0, 2.0, 2.0, -2.0]))


def test_hamiltonian_offdiagonal_structure():
    H = build_hamiltonian(IsingParams(N=3, h_x=0.5))
    # spin flips connect bitstrings at Hamming distance 1, weight -h_x
    for b in range(8):
        for c in range(8):
            d = bin(b ^ c).count("1")
            if d == 1:
                assert H[b, c] == -0.5
            elif d > 1:
                assert H[b, c] == 0.0


def _seeded_fields(seed: int):
    """J > 0 and h_z, h_x >= 0, with zero fields among them."""
    rng = random.Random(seed)
    return (rng.uniform(0.1, 3.0), rng.choice([0.0, rng.uniform(0.0, 2.0)]),
            rng.choice([0.0, rng.uniform(0.0, 2.0)]))


def _vectorized_diagonal(params):
    """The diagonal as a numpy sum over sites: the oracle of _diagonal."""
    N = params.N
    states = np.arange(1 << N)
    sz = 1 - 2 * ((states[:, None] >> np.arange(N)) & 1)
    bonds = (sz * np.roll(sz, 1, axis=1)).sum(axis=1)
    return -params.J * bonds - params.h_z * sz.sum(axis=1)


@pytest.mark.parametrize("N", range(2, 15))
def test_diagonal_matches_the_vectorized_formula_bit_for_bit(N):
    for seed in range(4):
        params = IsingParams(N, *_seeded_fields(1000 * N + seed))
        assert np.array(_diagonal(params)).tobytes() == _vectorized_diagonal(params).tobytes()


@pytest.mark.parametrize("N", range(2, 11))
def test_hamiltonian_entries_densify_to_the_oracle_bit_for_bit(N):
    for seed in range(4):
        params = IsingParams(N, *_seeded_fields(1000 * N + seed))
        H = build_hamiltonian(params)
        dense = np.zeros_like(H)
        entries = hamiltonian_entries(params)
        for (row, col), value in entries.items():
            dense[row, col] = value
        assert dense.tobytes() == H.tobytes()
        # the diagonal, plus N spin flips per state when h_x > 0
        assert len(entries) == 2**N * (1 + (N if params.h_x else 0))


def test_translation_is_a_left_rotation():
    N = 4
    T = translation_operator(N)
    assert np.array_equal(T @ T @ T @ T, np.eye(16, dtype=T.dtype))
    for b in range(16):
        rot = ((b << 1) | (b >> (N - 1))) & 0b1111
        assert T[rot, b] == 1


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 7, 8])
def test_translation_invariance(N):
    params = IsingParams(N=N, J=1.3, h_z=0.2, h_x=0.8)
    H = build_hamiltonian(params)
    T = translation_operator(N).astype(float)
    assert np.array_equal(H, H.T)
    assert np.max(np.abs(T @ H - H @ T)) == 0.0


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_momentum_spectrum_matches_dense_oracle(N):
    for h_z, h_x in ((0.4, 0.9), (0.0, 1.234)):
        params = IsingParams(N=N, J=1.0, h_z=h_z, h_x=h_x)
        levels = momentum_spectrum(params)
        assert len(levels) == 2**N
        eps = np.sort([l.epsilon for l in levels])
        dense = np.linalg.eigvalsh(build_hamiltonian(params))
        dense -= dense[0]
        assert np.max(np.abs(eps - dense)) < 1e-10
        assert eps[0] == 0.0  # ground state is the reference


def _orbit_sizes(N):
    """Sizes of the T-orbits, by brute-force rotation of every bitstring."""
    orbits = {
        frozenset(((b << m) | (b >> (N - m))) & ((1 << N) - 1) for m in range(N))
        for b in range(1 << N)
    }
    return [len(o) for o in orbits]


@pytest.mark.parametrize("N", [7, 8])
def test_momentum_spectrum_solves_half_the_sectors_on_real_blocks(N, monkeypatch):
    blocks = []
    solve = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: blocks.append(M) or solve(M))
    monkeypatch.setattr(np.linalg, "eigh", None)  # levels only: no eigenvectors
    momentum_spectrum(IsingParams(N=N, h_z=0.3, h_x=0.8))
    assert len(blocks) == N // 2 + 1
    assert all(M.dtype == np.float64 and M.ndim == 2 for M in blocks)


@pytest.mark.parametrize("N", [7, 8, 9])
def test_conjugate_sectors_share_levels(N):
    levels = momentum_spectrum(IsingParams(N=N, h_z=0.3, h_x=0.8))
    sectors = [[l.epsilon for l in levels if l.k == k] for k in range(N)]
    sizes = _orbit_sizes(N)
    for k in range(N):
        assert len(sectors[k]) == sum(k * d % N == 0 for d in sizes)
        assert sectors[k] == sectors[(N - k) % N]


@pytest.mark.parametrize("N", [2, 3, 8, 9])
def test_levels_come_in_momentum_then_energy_order(N):
    # the documented order: sector k = 0..N-1, each sector's levels ascending
    levels = momentum_spectrum(IsingParams(N=N, h_z=0.3, h_x=0.8))
    keys = [(l.k, l.epsilon) for l in levels]
    assert keys == sorted(keys)
    assert sorted({l.k for l in levels}) == list(range(N))


def test_momenta_are_wrapped_and_sorted():
    levels = momentum_spectrum(IsingParams(N=4, h_x=0.7))
    ks = [l.k for l in levels]
    assert ks == sorted(ks)
    for l in levels:
        p = 2 * math.pi * l.k / 4
        if p > math.pi:
            p -= 2 * math.pi
        assert abs(l.p - p) < 1e-12
        assert -math.pi < l.p <= math.pi


def test_classical_limit_exact():
    for N in (3, 5, 8, 10):
        params = IsingParams(N=N, J=1.0, h_z=0.7)
        H = build_hamiltonian(params)
        assert np.array_equal(np.sort(np.diag(H)), classical_energies(params))


def test_classical_limit_through_momentum_sectors():
    # at h_x = 0 every sector block is diagonal with entries E(r_a), so the
    # momentum route reproduces the classical levels exactly
    params = IsingParams(N=4, J=1.0, h_z=0.3)
    eps = np.sort([l.epsilon for l in momentum_spectrum(params)])
    cls = np.array(classical_energies(params))
    assert np.array_equal(eps, cls - cls[0])


# N = 6 has orbit sizes 1, 2, 3 and 6; N = 8 has reflection-fixed orbits,
# reflection pairs (00001011 and 00001101) and conjugated sectors k > N/2
@pytest.mark.parametrize("N", [5, 6, 8])
def test_sector_vectors_are_translation_eigenstates(N):
    # the levels labelled k are those of H on the range of the dense projector
    # P_k = (1/N)·sum_m e^{-ipm}·T^m, the eigenspace T = e^{ip}: an oracle that
    # shares neither the orbit blocks nor the reflection basis
    params = IsingParams(N=N, h_x=1.1)
    H = build_hamiltonian(params)
    e0 = np.linalg.eigvalsh(H)[0]
    T = translation_operator(N).astype(float)
    levels = momentum_spectrum(params)
    for k in range(N):
        p = 2 * math.pi * k / N
        P = sum(np.exp(-1j * p * m) * np.linalg.matrix_power(T, m) for m in range(N)) / N
        w, V = np.linalg.eigh(P)
        Q = V[:, w > 0.5]  # orthonormal basis of the range; P has eigenvalues 0 and 1
        expected = np.linalg.eigvalsh(Q.conj().T @ H @ Q) - e0
        got = np.sort([l.epsilon for l in levels if l.k == k])
        assert len(got) == len(expected)
        assert np.max(np.abs(got - expected)) <= 1e-10


def test_momentum_spectrum_builds_no_dense_matrix():
    # a quarter of the dense real H (8·4^N bytes) bounds the peak allocation
    N = 10
    momentum_spectrum(IsingParams(N=4, h_x=0.5))  # LAPACK start-up allocations
    tracemalloc.start()
    try:
        momentum_spectrum(IsingParams(N=N, h_z=0.2, h_x=0.9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 4**N / 4


def test_free_fermion_dispersion_disordered_phase():
    # h_x = 2J: the lowest excitation in each momentum sector tracks
    # 2*sqrt(J^2 + h_x^2 - 2 J h_x cos p); residual boundary effects at
    # N = 10 are below 1e-3
    params = IsingParams(N=10, J=1.0, h_x=2.0)
    levels = momentum_spectrum(params)
    worst = 0.0
    for k in range(10):
        eps_k = min(l.epsilon for l in levels if l.k == k and l.epsilon > 1e-9)
        p = 2 * math.pi * k / 10
        if p > math.pi:
            p -= 2 * math.pi
        worst = max(worst, abs(eps_k - free_fermion_energy(1.0, 2.0, p)))
    assert worst < 5e-3


def test_free_fermion_energy_values():
    assert free_fermion_energy(1.0, 1.0, 0.0) == 0.0
    assert abs(free_fermion_energy(1.0, 2.0, math.pi) - 6.0) < 1e-14


def test_free_fermion_energy_near_the_critical_field():
    # J² + h_x² - 2·J·h_x·cos 0 rounds below zero here; the gap 2|J - h_x| stays exact
    J, h_x = 1.584594825498461, 1.5845948254984614
    assert free_fermion_energy(J, h_x, 0.0) == 2 * abs(J - h_x) > 0


def test_dispersion_probe_shape():
    probe = dispersion_probe(IsingParams(N=8, J=1.0, h_x=2.0), band_count=2)
    assert probe["exploratory"] is True
    assert len(probe["bands"]) == 2
    # band 0 is the single-particle branch: epsilon^2 is exactly affine in
    # (2 sin(p/2))^2 with mass 2|J - h_x|, up to finite-size sector offsets
    band0 = probe["bands"][0]
    assert band0["rms_residual"] < 0.01
    assert abs(band0["mass"] - 2.0) < 0.05
    # band 1 sits in the two-particle continuum; only its presence is checked
    assert probe["bands"][1]["rms_residual"] < 1.0
    assert len(probe["masses"]) == 2
    assert probe["mass_ratios"][0] == 1.0


def test_dispersion_probe_zero_bands():
    probe = dispersion_probe(IsingParams(N=6, h_x=1.5), band_count=0)
    assert probe["bands"] == []


def _jordan_wigner_levels(N, J, h_x):
    """Every level of H at h_z = 0 and its sector k, from free fermions
    (Lieb, Schultz & Mattis, Ann. Phys. 16, 407 (1961); Pfeuty, Ann. Phys.
    57, 79 (1970)).  Even fermion number takes the antiperiodic momenta
    q = 2pi(m + 1/2)/N, odd the periodic q = 2pi·m/N.  A level is
    sum_q eps(q)(n_q - 1/2) with eps = free_fermion_energy, except the periodic
    q = 0 mode, which takes the signed energy 2(h_x - J) (the periodic q = pi
    mode's 2(h_x + J) is eps(pi) itself).  Its sector is sum_q n_q·qN/2pi mod N.
    Returns (E, k), one entry per level."""
    occupied = (np.arange(1 << N)[:, None] >> np.arange(N)) & 1
    odd = occupied.sum(axis=1) % 2 == 1
    energies, sectors = [], []
    for periodic in (False, True):
        twice_m = 2 * np.arange(N) + (0 if periodic else 1)  # qN/pi
        eps = np.array([free_fermion_energy(J, h_x, math.pi * t / N) for t in twice_m])
        if periodic:
            eps[0] = 2 * (h_x - J)
        occ = occupied[odd if periodic else ~odd]
        energies.append(occ @ eps - eps.sum() / 2)
        sectors.append((occ @ twice_m) % (2 * N) // 2)
    return np.concatenate(energies), np.concatenate(sectors)


def _by_sector(E, k, N):
    return [np.sort(E[k == s]) for s in range(N)]


def _sector_deviation(got, want):
    """max |level difference| over the sectors; inf if a sector's size differs."""
    if any(len(a) != len(b) for a, b in zip(got, want)):
        return math.inf
    return max(float(np.max(np.abs(a - b), initial=0.0)) for a, b in zip(got, want))


@pytest.mark.parametrize(
    "N, h_x",
    [(N, h_x) for N in (4, 5, 6, 7, 8, 10) for h_x in (0.3, 1.0, 1.7)] + [(13, 0.3), (14, 1.7)],
)
def test_momentum_spectrum_matches_jordan_wigner(N, h_x):
    J = 1.0
    levels = momentum_spectrum(IsingParams(N=N, J=J, h_z=0.0, h_x=h_x))
    eps = np.array([l.epsilon for l in levels])
    ks = np.array([l.k for l in levels])
    E, k = _jordan_wigner_levels(N, J, h_x)
    E -= E.min()
    # eigvalsh rounds a level to about eps·||H||, and ||H||_inf <= N(J + h_x)
    tol = 1e-10 * max(1.0, N * (J + h_x))
    assert len(E) == len(eps) == 2**N
    assert np.max(np.abs(np.sort(eps) - np.sort(E))) <= tol
    got, want = _by_sector(eps, ks, N), _by_sector(E, k, N)
    assert _sector_deviation(got, want) <= tol
    # the labels matter: sector k's lowest levels differ from the oracle's
    # sector k + 1, unless k + 1 = N - k is its conjugate (odd N), which H real
    # makes equal
    for s in range(N):
        if (2 * s + 1) % N:
            a, b = got[s], want[(s + 1) % N]
            m = min(len(a), len(b))
            assert np.max(np.abs(a[:m] - b[:m])) > tol
