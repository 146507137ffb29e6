"""
Transverse-field Ising chain with momentum resolution
=====================================================

H = -J sum sz sz - h_z sum sz - h_x sum sx on a periodic ring.  The
dense matrix over bitstrings shows [H, T] = 0; translation symmetry
then block-diagonalizes H, with each momentum block read off the orbit
representatives.  H is real and reflection-symmetric, so only momenta
k <= N/2 are diagonalized, each as a real block; momentum -p shares the
levels of p.  Each level gets a momentum label, and in the disordered
phase the lowest band tracks the free-fermion dispersion
2 sqrt(J^2 + h_x^2 - 2 J h_x cos p).
"""

from __future__ import annotations

import math

import numpy as np

from coxlat.ising import (
    IsingParams,
    build_hamiltonian,
    classical_energies,
    dispersion_probe,
    free_fermion_energy,
    momentum_spectrum,
    translation_operator,
)

params = IsingParams(N=10, J=1.0, h_x=2.0)
H = build_hamiltonian(params)
T = translation_operator(params.N)
print(f"N = {params.N}: {H.shape[0]} states, "
      f"[H, T] max = {float(np.max(np.abs(T @ H - H @ T)))}")

# momentum-resolved spectrum; epsilon is relative to the ground state
levels = momentum_spectrum(params)
print("\nlowest level per momentum sector:")
for k in range(params.N):
    eps = min(l.epsilon for l in levels if l.k == k and l.epsilon > 1e-9)
    p = 2 * math.pi * k / params.N
    if p > math.pi:
        p -= 2 * math.pi
    ff = free_fermion_energy(params.J, params.h_x, p)
    print(f"  k={k}  p={p:+.3f}  eps={eps:.6f}  free-fermion {ff:.6f}  "
          f"diff {abs(eps - ff):.1e}")

# exploratory: fit epsilon^2 = m^2 + c (2 sin p/2)^2 on the lowest band
probe = dispersion_probe(params, band_count=1)
band = probe["bands"][0]
print(f"\nband-0 fit: mass {band['mass']:.4f} "
      f"(free fermion gives 2|J - h_x| = {2 * abs(params.J - params.h_x):.4f}), "
      f"rms residual {band['rms_residual']:.1e}")

# the classical limit stays exact
cl = IsingParams(N=8, J=1.0, h_z=0.4)
print("\nclassical limit exact:",
      bool(np.array_equal(np.sort(np.diag(build_hamiltonian(cl))),
                          classical_energies(cl))))

# the free-fermion gap 2|J - h_x| closes at h_x = J under this normalization
print("free-fermion gap at h_x = J = 1:", free_fermion_energy(1.0, 1.0, 0.0))
