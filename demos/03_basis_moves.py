"""
Basis moves on a based lattice
==============================

Three moves act on an ordered basis: alpha_m mixes rows m, m+1 with a
pairing-dependent shear, beta_m is its inverse pattern one step lower,
and gamma_m negates a row.  Indices are 1-based and cyclic; words act
rightmost-first.  The Gram matrix changes, the lattice does not.
"""

from __future__ import annotations

from coxlat.gabrielov import (
    ALPHA1_SIX_WORD,
    GAMMA_SQUARE_WORD,
    BasedLattice,
    alpha,
    apply_word,
    beta,
    inverse_move,
    join_cartan,
    parse_word,
)
from coxlat.intmat import det_exact, iidentity
from coxlat.rootsys import RootSystemId

A_star = join_cartan([RootSystemId("A", 4), RootSystemId("A", 2), RootSystemId("A", 1)])
start = BasedLattice(A_star, iidentity(8))
print("ambient Gram determinant:", det_exact(A_star))

# one move and its inverse
moved = alpha(start, 3)
print("alpha_3 changes the basis:", moved.basis != start.basis)
print("beta_4 undoes alpha_3:    ", beta(moved, 4).basis == start.basis)
print("inverse_move bookkeeping: ", inverse_move(("alpha", 3), 8))

# unimodularity is preserved move by move
word = parse_word("g2 a5 b3 a1 a7")
b = apply_word(start, word)
print("after a 5-letter word, basis determinant:", det_exact(b.basis))

# a word identity that holds exactly from the standard basis:
# negating rows 1 and 2 equals six applications of alpha_1
left = apply_word(start, GAMMA_SQUARE_WORD)
right = apply_word(start, ALPHA1_SIX_WORD)
print("gamma2 gamma1 == alpha_1^6 from the standard basis:", left.basis == right.basis)

# ... and it is genuinely basis-dependent
# (matrices are tuples of int rows: build one from lists)
B = [list(row) for row in iidentity(8)]
B[0][1], B[0][7], B[1][7], B[2][3], B[6][7] = 2, -4, -2, -1, 2
scrambled = BasedLattice(A_star, B)
print("same identity from a scrambled basis:",
      apply_word(scrambled, GAMMA_SQUARE_WORD).basis
      == apply_word(scrambled, ALPHA1_SIX_WORD).basis)
