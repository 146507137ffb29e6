"""
Joins and the tensor-basis factorizations of E8 and E6
======================================================

The join of polarized lattices multiplies polarizations by Kronecker
product.  A4 * A2 * A1 carries an order-30 Coxeter element, and a
mutation word turns its standard basis into a set of E8 simple roots;
the change of basis G conjugates the tensor Coxeter element into a
product of simple reflections — all exactly, over the integers.  The
join's singularity weights give the same h and exponents as E8's.  The
reports give each identity's exact deviation (0 means it holds);
`coxlat verify e8-factorization` and `e6-factorization` grade them.
"""

from __future__ import annotations

from coxlat.gabrielov import (
    TREE_RELABELING,
    conjugation_report,
    e6_factorization,
    e8_factorization,
    root_image_count,
)
from coxlat.intmat import det_exact, matrix_order, transpose
from coxlat.lattice import coxeter, join, standard_polarization
from coxlat.rootsys import RootSystemId, cartan_matrix, exponents

# build the triple join A4 * A2 * A1
P = standard_polarization(cartan_matrix(RootSystemId.parse("A4")))
for name in ("A2", "A1"):
    P = join(P, standard_polarization(cartan_matrix(RootSystemId.parse(name))))
C_star = coxeter(P)
print(f"join rank {P.rank}, det L = {det_exact(P.L)} (unimodular, so C is integral), "
      f"order {matrix_order(C_star)}")

# Sebastiani–Thom: the join's singularity weights give E8's h and exponents
factors = [RootSystemId.parse(name) for name in ("A4", "A2", "A1")]
print("exponents(A4, A2, A1):", exponents(*factors))
print("exponents(E8):        ", exponents(RootSystemId.parse("E8")))

# the mutation word produces E8 simple roots; every deviation is exact
G, deviations = e8_factorization()
print("\nE8 factorization:")
for identity, dev in deviations.items():
    print(f"  {identity:24s} deviation {dev}")
print("  tree relabeling:", TREE_RELABELING)
print("  change of basis G:")
for row in transpose(G):
    print("   ", [int(v) for v in row])

# E6 from A3 * A2 * A1, same machinery
_, deviations6 = e6_factorization()
print("\nE6 factorization deviations:", list(deviations6.values()))

# conjugating words between the bipartite and factorized Coxeter elements
rep8 = conjugation_report("E8")
print(f"\nE8 conjugator {rep8['word']}: deviations {rep8['deviations']}")
rep6 = conjugation_report("E6")
print(f"E6 conjugator {rep6['word']}: deviations {rep6['deviations']}")
if rep6["repaired_word"] is not None:
    print(f"  repaired by its pinned word: {rep6['repaired_word']}")

# the 240 tensor root triples map onto the 60 roots seen by the basis change
count, all_norm_2 = root_image_count()
print(f"\nroot triples -> {count} distinct images, all of norm 2: {all_norm_2}")
