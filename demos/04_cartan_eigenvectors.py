"""
Closed-form eigenvectors and the Perron-Frobenius vector
========================================================

Every E8 Cartan eigenvector is a vector of cosines in two angles
theta = a*pi/5, gamma = b*pi/3 (plus a fixed pi/2), with eigenvalue
2 - 2cos(theta + gamma + pi/2).  Phase-dressing by e^{+-i theta/2}
turns Cartan eigenvectors into bipartite-Coxeter eigenvectors, which the
joins A4*A2*A1 (E8) and A3*A2*A1 (E6) also build, one angle per factor.
The top eigenvector reproduces the famous mass vector.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from coxlat.lattice import bipartite_coxeter
from coxlat.rootsys import RootSystemId, cartan_matrix
from coxlat.spectral import (
    coxeter_eigvec_from_cartan,
    e8_eigenvector,
    eigenvalue_for_angles,
    factorized_coxeter_eigenvector,
    normalize_eigvec,
    perron_frobenius,
    residual,
    zamolodchikov_vector,
)

e8 = cartan_matrix(RootSystemId.parse("E8"))
A = np.array(e8, dtype=float)

# the eight closed forms, checked against the residual contract
print("closed-form eigenvectors of A(E8):")
for a in (1, 2, 3, 4):
    for b in (1, 2):
        lam = eigenvalue_for_angles(a * math.pi / 5, b * math.pi / 3)
        x = e8_eigenvector(a, b)
        print(f"  (a,b)=({a},{b})  lambda={lam:.6f}  residual={residual(A, x, lam):.2e}")

# both printed shapes of the same vector agree componentwise
x_long = e8_eigenvector(2, 1, form="long")
x_simple = e8_eigenvector(2, 1)
print("long vs simplified form, max diff:",
      max(abs(a - b) for a, b in zip(normalize_eigvec(x_long), normalize_eigvec(x_simple))))

# phase dressing: Cartan eigenvector -> bipartite Coxeter eigenvector.
# (a,b) = (4,2) is the positive (Perron-Frobenius) vector with eigenvalue
# 2 - 2cos(pi/30), so the dressing angle is theta = pi/30
x = e8_eigenvector(4, 2)
theta = math.pi / 30
y = coxeter_eigvec_from_cartan(x, theta, e8)
C = np.array(bipartite_coxeter(e8), dtype=float)
print("dressed vector residual vs C_W C_B:",
      f"{residual(C, y, cmath.exp(2j * theta)):.2e}")

# the same eigenvector through the tensor factorization pipeline
z = factorized_coxeter_eigenvector("E8", (4, 2, 1))
lam = cmath.exp(2j * (4 * math.pi / 5 + 2 * math.pi / 3 + math.pi / 2))
print("factorized pipeline residual:", f"{residual(C, z, lam):.2e}")

# the same pipeline through E6 = A3*A2*A1, over all six angle pairs
C6 = bipartite_coxeter(cartan_matrix(RootSystemId.parse("E6")))
worst = max(
    residual(C6, factorized_coxeter_eigenvector("E6", (k3, k2, 1)),
             cmath.exp(2j * (k3 * math.pi / 4 + k2 * math.pi / 3 + math.pi / 2)))
    for k3 in (1, 2, 3) for k2 in (1, 2)
)
print("E6 factorized pipeline, worst residual:", f"{worst:.2e}")

# Perron-Frobenius vector == the mass vector, smallest mass normalized to 1
v = np.sort(perron_frobenius(A))
print("\nPF vector (sorted):      ", np.round(v, 4))
print("closed-form mass vector: ", np.round(zamolodchikov_vector(), 4))
print("golden ratio m2/m1:      ", v[1] / v[0])
