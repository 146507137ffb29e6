"""
One-parameter deformations of a Cartan matrix
=============================================

Splitting A = L + U into unit-triangular halves gives A(q) = qL + U.
The spectrum follows the eigenvalue law lambda(q) = 1 + (lambda-2)sqrt(q) + q,
witnessed by an explicit diagonal conjugation with exponents read off
the tree: along any edge the larger-numbered endpoint gets k + 1.
"""

from __future__ import annotations

import numpy as np

from coxlat.qdeform import (
    conjugation_certificate,
    deform,
    evaluate,
    q_eigenvalue,
    q_spectrum,
)
from coxlat.rootsys import RootSystemId, cartan_matrix

D = deform(cartan_matrix(RootSystemId.parse("E8")))
print("E8 exponent vector:", D.exponent_vector)

# the deformed matrix interpolates through the Cartan matrix at q = 1
print("A(1) == A:", bool(np.allclose(evaluate(D, 1.0),
                                     np.array(cartan_matrix(RootSystemId.parse("E8")),
                                              dtype=float))))

# spectrum law on a grid of q values
lams = np.linalg.eigvalsh(np.array(cartan_matrix(RootSystemId.parse("E8")), dtype=float))
for q in (0.25, 0.5, 2.0, 4.0):
    rep = q_spectrum(D, q)
    print(f"q = {q:4}: spectrum-law deviation {rep['max_abs_deviation']:.2e}")

# the smallest eigenvalue tracks the law individually
q = 2.0
print("lambda_min(A(2)) predicted:", q_eigenvalue(float(lams[0]), q))
print("lambda_min(A(2)) actual:   ",
      float(sorted(np.linalg.eigvals(evaluate(D, q)).real)[0]))

# the diagonal conjugation certificate ties A(q) to sqrt(q)A + (1-sqrt(q))^2 I
cert = conjugation_certificate(D, q)
print("certificate deviation:", f"{cert['max_abs_deviation']:.2e}")

# deformations are defined for trees only
try:
    deform([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
except ValueError as exc:
    print("cycle rejected:", exc)
