"""
One-parameter deformations of a Cartan matrix
=============================================

Splitting A = L + U into unit-triangular halves gives A(q) = qL + U.
The spectrum follows the eigenvalue law lambda(q) = 1 + (lambda-2)sqrt(q) + q,
witnessed by an explicit diagonal conjugation with exponents read off
the tree: along any edge the larger-numbered endpoint gets k + 1.  coxlat
proves both exactly, for every q > 0; numpy only cross-checks the values.
The same conjugation carries the eigenvectors of A to those of A(q).
"""

from __future__ import annotations

import numpy as np

from coxlat.qdeform import (
    conjugation_certificate,
    deform,
    evaluate,
    q_eigenvalue,
    q_eigenvector,
    q_spectrum,
)
from coxlat.rootsys import RootSystemId, cartan_matrix
from coxlat.spectral import cartan_spectrum, residual

Q_GRID = (0.25, 0.5, 2.0, 4.0)

D = deform(cartan_matrix(RootSystemId.parse("E8")))
print("E8 exponent vector:", D.exponent_vector)

# the deformed matrix interpolates through the Cartan matrix at q = 1
print("A(1) == A:", bool(np.allclose(evaluate(D, 1.0),
                                     np.array(cartan_matrix(RootSystemId.parse("E8")),
                                              dtype=float))))

# both identities are polynomial in sqrt(q): each is proved once, over the
# integers, for every q > 0, so the deviations are exact zeros
print("spectrum-law deviation (every q > 0):", q_spectrum(D, 2.0))
print("certificate deviation (every q > 0): ", conjugation_certificate(D, 2.0))

# the law's values, which `coxlat eigen E8 --q Q` prints at the lambda that
# `coxlat eigen E8` solves, against numpy's solve of A(q)
pairs = cartan_spectrum(RootSystemId.parse("E8"))
for q in Q_GRID:
    law = [q_eigenvalue(p.lam, q) for p in pairs]
    solved = np.sort(np.linalg.eigvals(np.array(evaluate(D, q))).real)
    print(f"q = {q:4}: law vs numpy.linalg.eigvals, max difference "
          f"{np.max(np.abs(solved - law)):.2e}")

# the eigenvectors deform too: x_i -> q^{k_i/2} x_i carries each eigenvector
# of A to one of A(q) for the law's eigenvalue
for q in Q_GRID:
    worst = max(residual(evaluate(D, q), q_eigenvector(p.vector, D, q), q_eigenvalue(p.lam, q))
                for p in pairs)
    print(f"q = {q:4}: {len(pairs)} transported eigenvectors, worst residual "
          f"against A(q) {worst:.1e}")

# deformations are defined for trees only
try:
    deform([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
except ValueError as exc:
    print("cycle rejected:", exc)
