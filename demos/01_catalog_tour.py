"""
Tour of the ADE catalog
=======================

Cartan matrices, Coxeter numbers, exponents, and the two-coloring of
each diagram, plus the numeric eigenvalue check lambda_k = 4 sin^2(k*pi/2h).
"""

from __future__ import annotations

import math

import numpy as np

from coxlat.rootsys import CATALOG_IDS, RootSystemId, cartan_matrix, coloring, exponents

# every catalog member: rank, Coxeter number and exponents
for rid in CATALOG_IDS:
    h, exps = exponents(rid)
    print(f"{rid}: rank {rid.rank:2d}  h = {h:2d}  exponents {exps}")

# a closer look at E8
e8 = RootSystemId.parse("E8")
A = cartan_matrix(e8)
print("\nE8 Cartan matrix:")
for row in A:
    print("  " + " ".join(f"{v:2d}" for v in row))

colors = coloring(A)
whites = sorted(v for v, c in colors.items() if c == "white")
blacks = sorted(v for v, c in colors.items() if c == "black")
print(f"white vertices: {whites}")
print(f"black vertices: {blacks}")

# the eigenvalues of the Cartan matrix are 4 sin^2(k*pi/2h) over the exponents
h, exps = exponents(e8)
lams = np.linalg.eigvalsh(np.array(A, dtype=float))
predicted = [4 * math.sin(k * math.pi / (2 * h)) ** 2 for k in exps]
print("\nnumeric spectrum :", np.round(lams, 6))
print("4sin^2(k pi/2h)  :", np.round(predicted, 6))
print("max deviation    :", float(np.max(np.abs(lams - predicted))))
