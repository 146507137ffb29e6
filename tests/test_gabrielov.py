"""Basis moves, tensor-basis factorizations, and Weyl-group word checks."""

from __future__ import annotations

import itertools
from collections import deque

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
from coxlat.intmat import as_imatrix, det_exact, frac_inverse, iidentity, matmul, matrix_order, transpose
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
    assert b.basis == ((1, 1), (1, 0))
    # moves never change the abstract lattice: Gram determinant is preserved
    assert det_exact(b.gram()) == det_exact(A2)


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
    isos = _tree_isomorphisms(based.gram(), j.target)
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


def test_bipartite_word_has_coxeter_order():
    C = weyl_apply(RootSystemId("E", 8), JOINS["E8"].cbw_word)
    assert matrix_order(C) == 30


def test_e8_conjugator_exact():
    rep = conjugation_report("E8")
    assert rep == {
        "word": list(JOINS["E8"].conjugator_word),
        "deviations": {"w^{-1} C_BW w = C_G": 0},
        "repaired_word": None,
        "budget_exhausted": False,
    }


def test_e6_conjugator_fails_as_written_and_is_repaired():
    rep = conjugation_report("E6")
    assert rep["word"] == list(JOINS["E6"].conjugator_word)
    assert rep["repaired_word"] == [3, 1, 6]
    assert len(rep["repaired_word"]) <= 12
    assert rep["budget_exhausted"] is False
    written, repaired = rep["deviations"].items()
    assert written[0] == "v^{-1} C_BW v = C_G" and written[1] > 0
    assert repaired == ("repaired w^{-1} C_BW w = C_G (word [3, 1, 6])", 0)
    # both deviations restated independently of the report
    rid = RootSystemId("E", 6)
    C_bw, C_g = weyl_apply(rid, JOINS["E6"].cbw_word), weyl_apply(rid, JOINS["E6"].cg_word)
    for word, exact in ((JOINS["E6"].conjugator_word, False), ([3, 1, 6], True)):
        w = weyl_apply(rid, word)
        assert (matmul(C_bw, w) == matmul(w, C_g)) == exact


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
    C_bw, C_g = weyl_apply(rid, JOINS["E6"].cbw_word), weyl_apply(rid, JOINS["E6"].cg_word)
    assert gabrielov.BFS_MAX_NODES > 51_840  # |W(E6)|: every E6 search completes
    assert find_conjugator(rid, C_bw, C_g) == [3, 1, 6]
    # the words of length <= 2 alone are more than 20 elements
    monkeypatch.setattr(gabrielov, "BFS_MAX_NODES", 20)
    assert find_conjugator(rid, C_bw, C_g) is None


def test_conjugation_report_tells_a_spent_budget_from_no_conjugator(monkeypatch):
    # C_G = I is conjugate to no Coxeter element: no budget finds a word
    monkeypatch.setitem(JOINS, "E6", JOINS["E6"]._replace(cg_word=()))
    rep = conjugation_report("E6")  # all of W(E6) searched
    assert (rep["repaired_word"], rep["budget_exhausted"]) == (None, False)
    monkeypatch.setattr(gabrielov, "BFS_MAX_NODES", 20)
    rep = conjugation_report("E6")
    assert (rep["repaired_word"], rep["budget_exhausted"]) == (None, True)


def _plain_bfs_conjugator(rid, C1, C2):
    """Oracle for find_conjugator: BFS that builds every child, words in shortlex order."""
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from(["A3", "A4", "D4"]),
    st.lists(st.integers(min_value=1, max_value=4), max_size=6),
    st.lists(st.integers(min_value=1, max_value=4), max_size=6),
    st.lists(st.integers(min_value=1, max_value=4), max_size=6),
)
def test_find_conjugator_matches_plain_bfs(name, c_word, w_word, other_word):
    # the skipped children change neither the word found nor None
    rid = RootSystemId.parse(name)
    C1, w, other = (weyl_apply(rid, [(i - 1) % rid.rank + 1 for i in word])
                    for word in (c_word, w_word, other_word))
    for C2 in (matmul(frac_inverse(w), C1, w), other):
        assert find_conjugator(rid, C1, C2) == _plain_bfs_conjugator(rid, C1, C2)


def test_root_image_count():
    assert root_image_count() == (60, True)


def test_root_image_count_is_exact_past_int64(monkeypatch):
    # a shear by 2**31 puts -2**31 into G⁻¹, so the norms pass 2**63: the
    # images stay 60 distinct vectors, and Python ints keep their norms exact
    G, deviations = e8_factorization()
    S = [list(row) for row in iidentity(8)]
    S[0][1] = 2**31
    sheared = matmul(G, as_imatrix(S))
    monkeypatch.setattr(gabrielov, "e8_factorization", lambda: (sheared, deviations))
    assert root_image_count() == (60, False)
