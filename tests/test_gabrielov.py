"""Basis moves, tensor-basis factorizations, and Weyl-group word checks."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxlat.gabrielov import (
    ALPHA1_SIX_WORD,
    E6_CBW_WORD,
    E6_CG_WORD,
    E6_CHANGE_OF_BASIS,
    E6_CONJUGATOR_WORD,
    E6_WORD,
    E8_CHANGE_OF_BASIS,
    E8_CBW_WORD,
    E8_CG_WORD,
    E8_CONJUGATOR_WORD,
    E8_WORD,
    GAMMA_SQUARE_WORD,
    TREE_RELABELING,
    BasedLattice,
    alpha,
    apply_word,
    beta,
    conjugation_report_e6,
    conjugation_report_e8,
    e6_factorization,
    e8_factorization,
    find_conjugator,
    gamma,
    inverse_move,
    join_cartan,
    join_coxeter,
    parse_word,
    root_image_count,
    weyl_apply,
)
from coxlat import gabrielov
from coxlat.intmat import det_exact, frac_inverse, iidentity, mat_eq, matrix_order
from coxlat.rootsys import RootSystemId, dynkin_edges

A_STAR = join_cartan([RootSystemId("A", 4), RootSystemId("A", 2), RootSystemId("A", 1)])


def _standard() -> BasedLattice:
    return BasedLattice(A_STAR, iidentity(8))


def test_parse_word_roundtrip():
    word = parse_word("g2 b4 a3 a1")
    assert word == (("gamma", 2), ("beta", 4), ("alpha", 3), ("alpha", 1))


def test_alpha_hand_check():
    # A2 ambient, identity basis: alpha_1 sends (x1, x2) -> (x2 - (x2,x1) x1, x1)
    A2 = join_cartan([RootSystemId("A", 2)])
    b = alpha(BasedLattice(A2, iidentity(2)), 1)
    assert b.basis.tolist() == [[1, 1], [1, 0]]
    # moves never change the abstract lattice: Gram determinant is preserved
    assert det_exact(b.gram()) == det_exact(A2)


def test_gamma_is_an_involution():
    b = _standard()
    assert mat_eq(gamma(gamma(b, 3), 3).basis, b.basis)


def test_cyclic_indexing():
    # index m wraps modulo the rank: alpha_9 == alpha_1 on rank 8
    b = _standard()
    assert mat_eq(alpha(b, 9).basis, alpha(b, 1).basis)


_moves = st.tuples(
    st.sampled_from(["alpha", "beta", "gamma"]),
    st.integers(min_value=1, max_value=8),
)


@settings(max_examples=60, deadline=None)
@given(prefix=st.lists(_moves, min_size=0, max_size=4), move=_moves)
def test_move_inverse_property(prefix, move):
    b = apply_word(_standard(), list(prefix))
    undone = apply_word(b, [inverse_move(move, 8), move])  # rightmost acts first
    assert mat_eq(undone.basis, b.basis)


def test_beta_undoes_alpha_explicitly():
    b = _standard()
    assert mat_eq(beta(alpha(b, 3), 4).basis, b.basis)


def test_mutation_word_yields_unimodular_basis():
    # det = ±1 after every move of both words, in the order they act
    for ids, word in (("A4 A2 A1", E8_WORD), ("A3 A2 A1", E6_WORD)):
        A = join_cartan([RootSystemId.parse(x) for x in ids.split()])
        b = BasedLattice(A, iidentity(A.shape[0]))
        for move in reversed(word):
            b = apply_word(b, [move])
            assert det_exact(b.basis) in (1, -1)


FACTORIZATION_IDENTITIES = ["G^t A_* G = A", "G^{-1} C_* G = C_G", "G = reference matrix"]


def test_e8_factorization_report():
    G, deviations = e8_factorization()
    assert deviations == dict.fromkeys(FACTORIZATION_IDENTITIES, 0)
    assert mat_eq(G, E8_CHANGE_OF_BASIS)
    # exact identities restated independently of the report
    A_e8 = join_cartan([RootSystemId("E", 8)])
    assert mat_eq(G.T @ A_STAR @ G, A_e8)
    C_star = join_coxeter([RootSystemId("A", 4), RootSystemId("A", 2), RootSystemId("A", 1)])
    C_g = weyl_apply(RootSystemId("E", 8), E8_CG_WORD)
    assert mat_eq(frac_inverse(G) @ C_star @ G, C_g)


def test_e6_factorization_report():
    G, deviations = e6_factorization()
    assert deviations == dict.fromkeys(FACTORIZATION_IDENTITIES, 0)
    assert mat_eq(G, E6_CHANGE_OF_BASIS)


def _tree_isomorphisms(gram, target):
    """Every bijection (mutated row -> Dynkin vertex, 0-based) that maps the
    edges of the mutated Gram tree onto the Dynkin tree, by trying all n!."""
    n = gram.shape[0]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if gram[i, j] != 0]
    dynkin = {frozenset((u - 1, v - 1)) for u, v in dynkin_edges(target)}
    return [
        perm
        for perm in itertools.permutations(range(n))
        if {frozenset((perm[u], perm[v])) for u, v in edges} == dynkin
    ]


@pytest.mark.parametrize(
    "ids,word,target,cg_word,n_isomorphisms",
    [
        ("A4 A2 A1", E8_WORD, "E8", E8_CG_WORD, 1),
        ("A3 A2 A1", E6_WORD, "E6", E6_CG_WORD, 2),
    ],
    ids=["E8", "E6"],
)
def test_tree_relabeling_is_the_only_compatible_one(ids, word, target, cg_word, n_isomorphisms):
    # reference oracle for the pinned relabeling the factorizations use
    ids = [RootSystemId.parse(x) for x in ids.split()]
    target = RootSystemId.parse(target)
    A = join_cartan(ids)
    based = apply_word(BasedLattice(A, iidentity(A.shape[0])), word)
    C_star = join_coxeter(ids)
    C_g = weyl_apply(target, cg_word)
    isos = _tree_isomorphisms(based.gram(), target)
    assert len(isos) == n_isomorphisms
    compatible = []
    for perm in isos:
        G = np.empty_like(based.basis)
        G[list(perm)] = based.basis  # row perm[k] of Gᵗ is mutated row k
        G = G.T
        if mat_eq(frac_inverse(G) @ C_star @ G, C_g):
            compatible.append({k + 1: v + 1 for k, v in enumerate(perm) if k != v})
    assert compatible == [TREE_RELABELING]


def test_gamma_square_equals_alpha_sixth_from_standard_basis():
    left = apply_word(_standard(), GAMMA_SQUARE_WORD)
    right = apply_word(_standard(), ALPHA1_SIX_WORD)
    assert mat_eq(left.basis, right.basis)


def test_gamma_square_alpha_sixth_needs_the_standard_basis():
    # the identity is basis-dependent: a generic unimodular start breaks it
    B = iidentity(8)
    B[0, 1], B[0, 7], B[1, 7], B[2, 3], B[6, 7] = 2, -4, -2, -1, 2
    b = BasedLattice(A_STAR, B)
    left = apply_word(b, GAMMA_SQUARE_WORD)
    right = apply_word(b, ALPHA1_SIX_WORD)
    assert not mat_eq(left.basis, right.basis)


def test_simple_reflections_a2():
    rid = RootSystemId("A", 2)
    assert weyl_apply(rid, (1,)).tolist() == [[-1, 1], [0, 1]]
    assert weyl_apply(rid, (2,)).tolist() == [[1, 0], [1, -1]]
    s1s2 = weyl_apply(rid, (1, 2))
    assert s1s2.tolist() == [[0, -1], [1, -1]]  # the standard Coxeter element


def test_weyl_apply_empty_word_is_identity():
    assert mat_eq(weyl_apply(RootSystemId("E", 6), ()), iidentity(6))


def test_bipartite_word_has_coxeter_order():
    C = weyl_apply(RootSystemId("E", 8), E8_CBW_WORD)
    assert matrix_order(C) == 30


def test_e8_conjugator_exact():
    rep = conjugation_report_e8()
    assert rep == {
        "word": list(E8_CONJUGATOR_WORD),
        "deviations": {"w^{-1} C_BW w = C_G": 0},
    }


def test_e6_conjugator_fails_as_written_and_is_repaired():
    rep = conjugation_report_e6()
    assert rep["word"] == list(E6_CONJUGATOR_WORD)
    assert rep["repaired_word"] == [3, 1, 6]
    assert len(rep["repaired_word"]) <= 12
    written, repaired = rep["deviations"].items()
    assert written[0] == "v^{-1} C_BW v = C_G" and written[1] > 0
    assert repaired == ("repaired w^{-1} C_BW w = C_G (word [3, 1, 6])", 0)
    # both deviations restated independently of the report
    rid = RootSystemId("E", 6)
    C_bw, C_g = weyl_apply(rid, E6_CBW_WORD), weyl_apply(rid, E6_CG_WORD)
    for word, exact in ((E6_CONJUGATOR_WORD, False), ([3, 1, 6], True)):
        w = weyl_apply(rid, word)
        assert mat_eq(C_bw @ w, w @ C_g) == exact


def test_find_conjugator_smallest_word():
    rid = RootSystemId("A", 2)
    C12 = weyl_apply(rid, (1, 2))
    C21 = weyl_apply(rid, (2, 1))
    assert find_conjugator(rid, C12, C21) == [1]
    assert find_conjugator(rid, C12, C12) == []


def test_find_conjugator_no_solution():
    rid = RootSystemId("A", 2)
    C = weyl_apply(rid, (1, 2))
    assert find_conjugator(rid, C, iidentity(2)) is None  # all |W(A2)| = 6 searched


def test_find_conjugator_gives_up_past_the_node_budget(monkeypatch):
    rid = RootSystemId("E", 6)
    C_bw, C_g = weyl_apply(rid, E6_CBW_WORD), weyl_apply(rid, E6_CG_WORD)
    assert gabrielov.BFS_MAX_NODES > 51_840  # |W(E6)|: every E6 search completes
    assert find_conjugator(rid, C_bw, C_g) == [3, 1, 6]
    # the words of length <= 2 alone are more than 20 elements
    monkeypatch.setattr(gabrielov, "BFS_MAX_NODES", 20)
    assert find_conjugator(rid, C_bw, C_g) is None


def test_root_image_count():
    assert root_image_count() == (60, True)


def test_root_image_count_refuses_inexact_int64(monkeypatch):
    # a shear by 2**31 puts -2**31 into G⁻¹: the norms could overflow int64
    G, deviations = e8_factorization()
    S = iidentity(8)
    S[0, 1] = 2**31
    monkeypatch.setattr(gabrielov, "e8_factorization", lambda: (G @ S, deviations))
    with pytest.raises(OverflowError):
        root_image_count()
