"""Basis moves, tensor-basis factorizations, and Weyl-group word checks."""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxlat.gabrielov import (
    ALPHA1_SIX_WORD,
    GAMMA_SQUARE_WORD,
    JOINS,
    TREE_RELABELING,
    BasedLattice,
    alpha,
    apply_word,
    beta,
    conjugation_report,
    e6_factorization,
    e8_factorization,
    gamma,
    inverse_move,
    join_cartan,
    join_coxeter,
    parse_word,
    root_image_count,
    weyl_apply,
)
from coxlat import gabrielov
from coxlat.intmat import (as_imatrix, det_exact, deviation, frac_inverse, iidentity, matmul,
                           matrix_order, transpose)
from coxlat.lattice import bipartite_coxeter, coxeter, join, standard_polarization
from coxlat.rootsys import CATALOG_IDS, RootSystemId, cartan_matrix, dynkin_edges

from test_intmat import _gauss_jordan_inverse  # frac_inverse's oracle

A_STAR = join_cartan([RootSystemId("A", 4), RootSystemId("A", 2), RootSystemId("A", 1)])


def _standard() -> BasedLattice:
    return BasedLattice(A_STAR, iidentity(8))


def _gram(b: BasedLattice):
    """Gram matrix of the basis rows of b in its ambient form."""
    return matmul(b.basis, b.ambient_gram, transpose(b.basis))


def test_parse_word_roundtrip():
    word = parse_word("g2 b4 a3 a1")
    assert word == (("gamma", 2), ("beta", 4), ("alpha", 3), ("alpha", 1))


# an index is ASCII digits: an Arabic-Indic three and a fullwidth two are refused
@pytest.mark.parametrize("bad", ["a\u0663 g\uff12", "g\uff12", "a", "a-1", "x2"])
def test_parse_word_rejects(bad):
    with pytest.raises(ValueError, match="bad move token"):
        parse_word(bad)


def test_alpha_hand_check():
    # A2 ambient, identity basis: alpha_1 sends (x1, x2) -> (x2 - (x2,x1) x1, x1)
    A2 = join_cartan([RootSystemId("A", 2)])
    b = alpha(BasedLattice(A2, iidentity(2)), 1)
    assert b.basis == ((1, 1), (1, 0))
    # moves never change the abstract lattice: Gram determinant is preserved
    assert det_exact(_gram(b)) == det_exact(A2)


def test_replace_validates_like_the_constructor():
    b = _standard()
    assert b._replace(basis=[list(row) for row in b.basis]) == b  # as_imatrix normalization
    doubled = tuple(tuple(2 * x for x in row) if i == 0 else row for i, row in enumerate(b.basis))
    with pytest.raises(ValueError, match="basis must be unimodular"):
        b._replace(basis=doubled)
    with pytest.raises(ValueError, match="basis must be square of the ambient rank"):
        b._replace(basis=iidentity(7))


def test_gamma_is_an_involution():
    b = _standard()
    assert gamma(gamma(b, 3), 3).basis == b.basis


def test_cyclic_indexing():
    # index m wraps modulo the rank: alpha_9 == alpha_1 on rank 8
    b = _standard()
    assert alpha(b, 9).basis == alpha(b, 1).basis


# a rank-0 basis has no row to move, and a join of no systems has no factor
@pytest.mark.parametrize(
    "call, message",
    [(lambda: alpha(BasedLattice((), ()), 1), "rank-0 basis"),
     (lambda: beta(BasedLattice((), ()), 1), "rank-0 basis"),
     (lambda: gamma(BasedLattice((), ()), 1), "rank-0 basis"),
     (lambda: inverse_move(("alpha", 1), 0), "rank-0 basis"),
     (lambda: join_cartan(()), "need at least one root system id"),
     (lambda: join_coxeter(()), "need at least one root system id")],
    ids=["alpha", "beta", "gamma", "inverse_move", "join_cartan", "join_coxeter"],
)
def test_moves_on_a_rank_0_basis_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


_moves = st.tuples(
    st.sampled_from(["alpha", "beta", "gamma"]),
    st.integers(min_value=1, max_value=8),
)


@settings(max_examples=60, deadline=None)
@given(prefix=st.lists(_moves, min_size=0, max_size=4), move=_moves)
def test_move_inverse_property(prefix, move):
    b = apply_word(_standard(), list(prefix))
    undone = apply_word(b, [inverse_move(move, 8), move])  # rightmost acts first
    assert undone.basis == b.basis


def test_unknown_move_kind_raises_value_error():
    # only alpha, beta and gamma are moves: no other kind is read as one of them
    with pytest.raises(ValueError, match="unknown move kind 'delta'"):
        inverse_move(("delta", 3), 8)
    with pytest.raises(ValueError, match="unknown move kind 'delta'"):
        apply_word(_standard(), [("delta", 1)])


def test_beta_undoes_alpha_explicitly():
    b = _standard()
    assert beta(alpha(b, 3), 4).basis == b.basis


def test_mutation_word_yields_unimodular_basis():
    # det = ±1 after every move of both words, in the order they act
    for j in JOINS.values():
        A = join_cartan(j.factors)
        b = BasedLattice(A, iidentity(len(A)))
        for move in reversed(j.word):
            b = apply_word(b, [move])
            assert det_exact(b.basis) in (1, -1)


@pytest.mark.parametrize(
    "names", [("A4",), ("A4", "A2"), ("A3", "A2", "A1"), ("A2", "A1", "A2", "A1")],
    ids="*".join,
)
def test_join_coxeter_is_the_coxeter_element_of_the_join(names):
    # -L⁻¹Lᵗ of the joined polarization: the factors' product carries (-1)^(m+1)
    ids = [RootSystemId.parse(name) for name in names]
    joined = reduce(join, [standard_polarization(cartan_matrix(rid)) for rid in ids])
    assert join_coxeter(ids) == coxeter(joined)


def _reflection_product(A, basis):
    """Picard–Lefschetz: s_{e_1}···s_{e_μ} over the rows e of basis, where
    s_e(v) = v − (e, v)·e in the form A is the matrix I − e·(A·e)ᵗ, so the
    last row's reflection acts first."""
    n = len(A)
    M = iidentity(n)
    for e in basis:
        Ae = [sum(a * x for a, x in zip(row, e)) for row in A]
        M = matmul(M, [[(i == k) - e[i] * Ae[k] for k in range(n)] for i in range(n)])
    return M


def _standard_basis(ids) -> BasedLattice:
    A = join_cartan(ids)
    return BasedLattice(A, iidentity(len(A)))


# every ordered join of one to three catalog systems of rank <= 4, join rank <= 27
_SMALL_JOINS = [
    ids for m in (1, 2, 3)
    for ids in itertools.product([rid for rid in CATALOG_IDS if rid.rank <= 4], repeat=m)
    if math.prod(rid.rank for rid in ids) <= 27
]


def test_join_coxeter_is_the_product_of_the_basis_reflections():
    # the two-factor joins' sign (-1)^(m+1) comes out with no rule for it
    assert len(_SMALL_JOINS) == 117
    for ids in _SMALL_JOINS:
        b = _standard_basis(ids)
        assert _reflection_product(b.ambient_gram, b.basis) == join_coxeter(ids), ids


@pytest.mark.parametrize("rid", CATALOG_IDS, ids=str)
def test_coxeter_is_the_product_of_the_simple_reflections(rid):
    A = cartan_matrix(rid)
    assert _reflection_product(A, iidentity(len(A))) == coxeter(standard_polarization(A))


@pytest.mark.parametrize("target", list(JOINS))
def test_reflection_product_survives_every_prefix_of_the_move_word(target):
    j = JOINS[target]
    b, C = _standard_basis(j.factors), join_coxeter(j.factors)
    for move in reversed(j.word):
        b = apply_word(b, [move])
        assert _reflection_product(b.ambient_gram, b.basis) == C, move


@pytest.mark.parametrize("target", list(JOINS))
def test_reflection_product_survives_non_wrapping_moves(target):
    # alpha_m with m < μ, beta_m with m > 1 and every gamma_m are braid moves
    j = JOINS[target]
    b0, C = _standard_basis(j.factors), join_coxeter(j.factors)
    mu, rng = b0.rank, random.Random(22)
    moves = ([("alpha", m) for m in range(1, mu)] + [("beta", m) for m in range(2, mu + 1)]
             + [("gamma", m) for m in range(1, mu + 1)])
    for _ in range(50):
        b = apply_word(b0, rng.choices(moves, k=10))
        assert _reflection_product(b.ambient_gram, b.basis) == C


@pytest.mark.parametrize("target", list(JOINS))
def test_the_wrapped_alpha_changes_the_reflection_product(target):
    # the cyclic alpha_μ pairs rows μ and 1 (test_cyclic_indexing): no braid move
    j = JOINS[target]
    b = _standard_basis(j.factors)
    b = alpha(b, b.rank)
    assert deviation(_reflection_product(b.ambient_gram, b.basis), join_coxeter(j.factors)) == 2


FACTORIZATION_IDENTITIES = ["G^t A_* G = A", "G^{-1} C_* G = C_G", "G = reference matrix"]


def test_e8_factorization_report():
    G, deviations = e8_factorization()
    assert deviations == dict.fromkeys(FACTORIZATION_IDENTITIES, 0)
    assert G == JOINS["E8"].change_of_basis
    # exact identities restated independently of the report
    A_e8 = join_cartan([RootSystemId("E", 8)])
    assert matmul(transpose(G), A_STAR, G) == A_e8
    C_star = join_coxeter([RootSystemId("A", 4), RootSystemId("A", 2), RootSystemId("A", 1)])
    C_g = weyl_apply(RootSystemId("E", 8), JOINS["E8"].cg_word)
    assert matmul(frac_inverse(G), C_star, G) == C_g


def test_e6_factorization_report():
    G, deviations = e6_factorization()
    assert deviations == dict.fromkeys(FACTORIZATION_IDENTITIES, 0)
    assert G == JOINS["E6"].change_of_basis


def _tree_isomorphisms(gram, target):
    """Every bijection (mutated row -> Dynkin vertex, 0-based) that maps the
    edges of the mutated Gram tree onto the Dynkin tree, by trying all n!."""
    n = len(gram)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if gram[i][j] != 0]
    dynkin = {frozenset((u - 1, v - 1)) for u, v in dynkin_edges(target)}
    return [
        perm
        for perm in itertools.permutations(range(n))
        if {frozenset((perm[u], perm[v])) for u, v in edges} == dynkin
    ]


@pytest.mark.parametrize("target,n_isomorphisms", [("E8", 1), ("E6", 2)], ids=["E8", "E6"])
def test_tree_relabeling_is_the_only_compatible_one(target, n_isomorphisms):
    # reference oracle for the pinned relabeling the factorizations use
    j = JOINS[target]
    A = join_cartan(j.factors)
    based = apply_word(BasedLattice(A, iidentity(len(A))), j.word)
    C_star = join_coxeter(j.factors)
    C_g = weyl_apply(j.target, j.cg_word)
    isos = _tree_isomorphisms(_gram(based), j.target)
    assert len(isos) == n_isomorphisms
    compatible = []
    for perm in isos:
        Gt = [None] * len(perm)
        for k, row in zip(perm, based.basis):
            Gt[k] = row  # row perm[k] of Gᵗ is mutated row k
        G = transpose(Gt)
        if matmul(frac_inverse(G), C_star, G) == C_g:
            compatible.append({k + 1: v + 1 for k, v in enumerate(perm) if k != v})
    assert compatible == [TREE_RELABELING]


def test_gamma_square_equals_alpha_sixth_from_standard_basis():
    left = apply_word(_standard(), GAMMA_SQUARE_WORD)
    right = apply_word(_standard(), ALPHA1_SIX_WORD)
    assert left.basis == right.basis


def test_gamma_square_alpha_sixth_needs_the_standard_basis():
    # the identity is basis-dependent: a generic unimodular start breaks it
    B = [list(row) for row in iidentity(8)]
    B[0][1], B[0][7], B[1][7], B[2][3], B[6][7] = 2, -4, -2, -1, 2
    b = BasedLattice(A_STAR, as_imatrix(B))
    left = apply_word(b, GAMMA_SQUARE_WORD)
    right = apply_word(b, ALPHA1_SIX_WORD)
    assert left.basis != right.basis


def test_simple_reflections_a2():
    rid = RootSystemId("A", 2)
    assert weyl_apply(rid, (1,)) == ((-1, 1), (0, 1))
    assert weyl_apply(rid, (2,)) == ((1, 0), (1, -1))
    s1s2 = weyl_apply(rid, (1, 2))
    assert s1s2 == ((0, -1), (1, -1))  # the standard Coxeter element


def test_weyl_apply_empty_word_is_identity():
    assert weyl_apply(RootSystemId("E", 6), ()) == iidentity(6)


@pytest.mark.parametrize("rid,word", [
    (RootSystemId("E", 8), (1, 4, 6, 8, 2, 3, 5, 7)),
    (RootSystemId("E", 6), (1, 4, 6, 2, 3, 5)),
], ids=["E8", "E6"])
def test_paper_bipartite_word_is_bipartite_coxeter(rid, word):
    # the paper prints C_BW as these words (white reflections left, black
    # right); the coloring of the Cartan tree builds the same element
    assert weyl_apply(rid, word) == bipartite_coxeter(cartan_matrix(rid))


def test_bipartite_word_has_coxeter_order():
    C = bipartite_coxeter(cartan_matrix(RootSystemId("E", 8)))
    assert matrix_order(C) == 30


def test_e8_conjugator_exact():
    assert conjugation_report("E8") == {"w^{-1} C_BW w = C_G": 0}
    assert JOINS["E8"].repair_word is None


def test_e6_conjugator_fails_as_written_and_is_repaired():
    assert JOINS["E6"].repair_word == (3, 1, 6)
    assert len(JOINS["E6"].repair_word) <= 12
    written, repaired = conjugation_report("E6").items()
    assert written[0] == "v^{-1} C_BW v = C_G" and written[1] > 0
    assert repaired == ("repaired w^{-1} C_BW w = C_G (word [3, 1, 6])", 0)
    # both deviations restated independently of the report
    rid = RootSystemId("E", 6)
    C_bw, C_g = bipartite_coxeter(cartan_matrix(rid)), weyl_apply(rid, JOINS["E6"].cg_word)
    for word, exact in ((JOINS["E6"].conjugator_word, False), ([3, 1, 6], True)):
        w = weyl_apply(rid, word)
        assert (matmul(C_bw, w) == matmul(w, C_g)) == exact


def _plain_bfs_conjugator(rid, C1, C2):
    """Shortest conjugator w with w⁻¹·C1·w = C2, first in shortlex order; None if none.

    Plain BFS over the Weyl group that builds every child of each element.
    """
    gens = [weyl_apply(rid, (i,)) for i in range(1, rid.rank + 1)]
    ident = iidentity(rid.rank)
    seen, queue = {ident}, deque([(ident, ())])
    while queue:
        M, word = queue.popleft()
        if matmul(C1, M) == matmul(M, C2):
            return list(word)
        for i, S in enumerate(gens, start=1):
            M2 = matmul(M, S)
            if M2 not in seen:
                seen.add(M2)
                queue.append((M2, word + (i,)))
    return None


def test_find_conjugator_smallest_word():
    # the oracle finds the shortest word, and the empty word for C = C
    rid = RootSystemId("A", 2)
    C12 = weyl_apply(rid, (1, 2))
    C21 = weyl_apply(rid, (2, 1))
    assert _plain_bfs_conjugator(rid, C12, C21) == [1]
    assert _plain_bfs_conjugator(rid, C12, C12) == []


def test_find_conjugator_no_solution():
    rid = RootSystemId("A", 2)
    C = weyl_apply(rid, (1, 2))
    assert _plain_bfs_conjugator(rid, C, iidentity(2)) is None  # all |W(A2)| = 6 searched


def test_repair_words_are_the_shortlex_first_conjugators():
    # E6's pinned repair word is the first word of W(E6) in shortlex order
    # that conjugates C_BW into C_G; E8's written word is exact
    # (test_e8_conjugator_exact), so it pins none
    e6 = JOINS["E6"]
    C_bw = bipartite_coxeter(cartan_matrix(e6.target))
    C_g = weyl_apply(e6.target, e6.cg_word)
    assert e6.repair_word == (3, 1, 6)
    assert _plain_bfs_conjugator(e6.target, C_bw, C_g) == list(e6.repair_word)
    assert JOINS["E8"].repair_word is None


def test_root_image_count():
    assert root_image_count() == (60, True)


def _root_images_by_loop(G):
    """root_image_count for a change of basis G, one triple at a time: the roots
    ±(α_{i+1} + ... + α_j) of each factor, x ⊗ y ⊗ z with x varying slowest,
    and G⁻¹ by Gauss-Jordan."""
    def roots(n):
        return [[s * (i <= k < j) for k in range(n)]
                for i in range(n) for j in range(i + 1, n + 1) for s in (1, -1)]

    Ginv = _gauss_jordan_inverse(G)
    A = cartan_matrix(RootSystemId("E", 8))
    images = set()
    for x in roots(4):
        for y in roots(2):
            for z in roots(1):
                t = [a * b * c for a in x for b in y for c in z]
                images.add(tuple(sum(g * v for g, v in zip(row, t)) for row in Ginv))
    norms = {sum(A[i][k] * v[i] * v[k] for i in range(8) for k in range(8)) for v in images}
    return len(images), norms == {2}


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_root_image_count_matches_a_plain_loop(monkeypatch, seed):
    # seed 0 is G itself; the others shear it by a seeded unimodular matrix
    G, deviations = e8_factorization()
    rng = random.Random(seed)
    S = [list(row) for row in iidentity(8)]
    for _ in range(4 * seed):
        (i, j), c = rng.sample(range(8), 2), rng.randint(-3, 3)
        S[i] = [a + c * b for a, b in zip(S[i], S[j])]
    sheared = matmul(G, as_imatrix(S))
    monkeypatch.setattr(gabrielov, "e8_factorization", lambda: (sheared, deviations))
    assert root_image_count() == _root_images_by_loop(sheared)


def test_root_image_count_is_exact_past_int64(monkeypatch):
    # a shear by 2**31 puts -2**31 into G⁻¹, so the norms pass 2**63: the
    # images stay 60 distinct vectors, and Python ints keep their norms exact
    G, deviations = e8_factorization()
    S = [list(row) for row in iidentity(8)]
    S[0][1] = 2**31
    sheared = matmul(G, as_imatrix(S))
    monkeypatch.setattr(gabrielov, "e8_factorization", lambda: (sheared, deviations))
    assert root_image_count() == (60, False)
