"""Basis-mutation engine on distinguished bases, and explicit E8/E6 factorizations.

The engine acts on ordered bases of a lattice with a fixed ambient
bilinear form: alpha/beta moves replace a basis vector by its reflection
partner and swap adjacent positions, gamma flips a sign.  JOINS holds one
Join record per target: a move word turns the factorized basis of
A4*A2*A1 into an E8 root basis (and A3*A2*A1 into E6), with the Gabrielov
Coxeter word, the reference conjugator and the reference G alongside.  The
change-of-basis matrix G is the mutated basis with its rows renumbered to
Bourbaki's labels by the pinned map TREE_RELABELING, and satisfies

    Gᵗ·A_*·G = A(E8)   and   G⁻¹·C_*·G = C_G(E8)

exactly; each factorization report checks both identities and G against
the reference matrix, and conjugation_report checks the reference
conjugator (and the pinned repair word where it fails) against
C_BW = lattice.bipartite_coxeter(A).  Also here: Weyl-word evaluation (a
one-letter word is a simple reflection) and the 240-to-60 root-image
count.  Matrices are intmat's tuples of int rows, and no numpy is imported.

Convention flags (frozen after exact validation against the Gram
identities above): SIGN_CONVENTION = -1 in the alpha/beta formulas, and
words compose rightmost-first.  Inner products are always taken in the
ambient form on current basis rows.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .intmat import (IMatrix, as_imatrix, det_exact, deviation, frac_inverse, iidentity,
                     kron, matmul, transpose)
from .lattice import PolarizedLattice, bipartite_coxeter, coxeter, join, standard_polarization
from .rootsys import RootSystemId, cartan_matrix

__all__ = [
    "BasedLattice",
    "Move",
    "SIGN_CONVENTION",
    "parse_word",
    "alpha",
    "beta",
    "gamma",
    "inverse_move",
    "apply_word",
    "weyl_apply",
    "join_cartan",
    "join_coxeter",
    "Join",
    "JOINS",
    "e8_factorization",
    "e6_factorization",
    "conjugation_report",
    "root_image_count",
    "GAMMA_SQUARE_WORD",
    "ALPHA1_SIX_WORD",
    "TREE_RELABELING",
]

# Frozen by validating all four (sign, order) pairs against the exact
# identity gram(E8 word) = A_G(E8): only this pair passes.
SIGN_CONVENTION = -1

Move = Tuple[str, int]  # ("alpha" | "beta" | "gamma", m)


class BasedLattice(namedtuple("BasedLattice", "ambient_gram basis")):
    """Ordered basis (rows) of a lattice with a fixed ambient form."""

    __slots__ = ()

    def __new__(cls, ambient_gram, basis):
        A = as_imatrix(ambient_gram)
        B = as_imatrix(basis)
        if len(A) != len(B):
            raise ValueError("basis must be square of the ambient rank")
        if det_exact(B) not in (1, -1):
            raise ValueError("basis must be unimodular")
        return super().__new__(cls, A, B)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: validate it too
        return cls(*iterable)

    @property
    def rank(self) -> int:
        return len(self.basis)


def _pairing(A: IMatrix, u, v) -> int:
    """uᵗ·A·v."""
    return sum(a * sum(map(mul, row, v)) for a, row in zip(u, A) if a)


def _with_rows(b: BasedLattice, rows: Dict[int, Tuple[int, ...]]) -> BasedLattice:
    """b with basis row k replaced by rows[k] (0-based); later keys win."""
    return BasedLattice(b.ambient_gram, tuple(rows.get(k, x) for k, x in enumerate(b.basis)))


def _wrap(m: int, rank: int) -> int:
    if rank == 0:
        raise ValueError("a rank-0 basis has no row to move")
    return (m - 1) % rank + 1


def alpha(b: BasedLattice, m: int) -> BasedLattice:
    """Row m <- x_{m+1} + SIGN_CONVENTION·(x_{m+1},x_m)·x_m, row m+1 <- x_m (cyclic)."""
    r = b.rank
    i, j = _wrap(m, r) - 1, _wrap(m + 1, r) - 1
    xi, xj = b.basis[i], b.basis[j]
    c = SIGN_CONVENTION * _pairing(b.ambient_gram, xj, xi)
    return _with_rows(b, {i: tuple(p + c * q for p, q in zip(xj, xi)), j: xi})


def beta(b: BasedLattice, m: int) -> BasedLattice:
    """Row m-1 <- x_m, row m <- x_{m-1} + SIGN_CONVENTION·(x_{m-1},x_m)·x_m (cyclic)."""
    r = b.rank
    i, j = _wrap(m - 1, r) - 1, _wrap(m, r) - 1
    xi, xj = b.basis[i], b.basis[j]
    c = SIGN_CONVENTION * _pairing(b.ambient_gram, xi, xj)
    return _with_rows(b, {i: xj, j: tuple(p + c * q for p, q in zip(xi, xj))})


def gamma(b: BasedLattice, m: int) -> BasedLattice:
    """Negate row m."""
    i = _wrap(m, b.rank) - 1
    return _with_rows(b, {i: tuple(-v for v in b.basis[i])})


_MOVES = {"alpha": alpha, "beta": beta, "gamma": gamma}


def inverse_move(move: Move, rank: int) -> Move:
    """Inverse of a single move: beta_{m+1} undoes alpha_m and conversely."""
    kind, m = move
    if kind not in _MOVES:
        raise ValueError(f"unknown move kind {kind!r}")
    if kind == "alpha":
        return ("beta", _wrap(m + 1, rank))
    if kind == "beta":
        return ("alpha", _wrap(m - 1, rank))
    return ("gamma", _wrap(m, rank))


def parse_word(text: str) -> Tuple[Move, ...]:
    """Parse a compact move word like "g2 g1 b4 a3" (a/b/g = alpha/beta/gamma).

    Tokens are written leftmost-first; evaluation applies them
    rightmost-first (operator composition order).  An index is ASCII digits.
    """
    kinds = {"a": "alpha", "b": "beta", "g": "gamma"}
    out = []
    for tok in text.split():
        # isdigit alone would take any Unicode digit, such as "٣" or "２"
        if tok[0] not in kinds or not (tok[1:].isascii() and tok[1:].isdigit()):
            raise ValueError(f"bad move token {tok!r}")
        out.append((kinds[tok[0]], int(tok[1:])))
    return tuple(out)


def apply_word(b: BasedLattice, word: Sequence[Move]) -> BasedLattice:
    """Apply a move word; the rightmost symbol acts first."""
    for kind, m in reversed(list(word)):
        if kind not in _MOVES:
            raise ValueError(f"unknown move kind {kind!r}")
        b = _MOVES[kind](b, m)
    return b


# the two sides of the rank-8 move identity gamma2·gamma1 = alpha1^6
GAMMA_SQUARE_WORD = parse_word("g2 g1")
ALPHA1_SIX_WORD = parse_word("a1 a1 a1 a1 a1 a1")

# label map from the mutation ordering of the E8/E6 tree to Bourbaki's
# (unlisted labels are fixed).  It is forced: for both words it is the only
# isomorphism of the mutated Gram tree onto the Dynkin tree that also
# carries C_* to C_G, which the tests confirm by enumerating all of them.
TREE_RELABELING = {2: 3, 3: 4, 4: 2}


class Join(NamedTuple):
    """A join of A_n factors and the root system its move word makes.

    The move word turns the tensor basis of the join of the factors into
    simple roots of target.  cg_word is the Gabrielov Coxeter word C_G of target
    (Bourbaki numbering; C_BW is lattice.bipartite_coxeter); conjugator_word
    is the reference Weyl word x with x⁻¹·C_BW·x = C_G, printed in reports
    as conjugator_name; change_of_basis is the reference G (columns =
    simple roots of target written in the tensor basis).  repair_word is
    set only where conjugator_word fails as written: it is the
    shortlex-first Weyl word w with w⁻¹·C_BW·w = C_G, which the tests
    confirm by a breadth-first search of the Weyl group.  Data only.
    """

    target: RootSystemId
    factors: Tuple[RootSystemId, ...]
    word: Tuple[Move, ...]
    cg_word: Tuple[int, ...]
    conjugator_word: Tuple[int, ...]
    conjugator_name: str
    change_of_basis: IMatrix
    repair_word: Optional[Tuple[int, ...]]


# target name -> its join.  E6's reference conjugator as written contains
# the cancelling pair s3∘s3 and misses the exact identity, so E6 also pins
# the shortest word that conjugates in its place.
JOINS: Dict[str, Join] = {
    str(j.target): j
    for j in (
        Join(
            target=RootSystemId("E", 8),
            factors=tuple(map(RootSystemId.parse, ("A4", "A2", "A1"))),
            word=parse_word("g2 g1 b4 b3 a3 a4 b4 a5 a6 a7 a1 a2 a3 a4 b6 b3 a1"),
            cg_word=(1, 3, 4, 2, 5, 6, 7, 8),
            conjugator_word=(7, 5, 3, 2, 6, 4, 5, 1, 3, 2, 4, 1, 3, 2, 1, 2),
            conjugator_name="w",
            change_of_basis=as_imatrix([
                [0, 0, 0, 1, -1, 0, 0, 0],
                [-1, 1, 0, 0, 0, 0, 0, 0],
                [0, 0, -1, 1, 0, 0, 0, 0],
                [-1, 1, -1, 0, 0, 1, 0, 0],
                [0, 1, -1, 0, 0, 0, 1, 0],
                [-1, 1, -1, 0, 0, 0, 1, 0],
                [0, 1, -1, 0, 0, 0, 0, 1],
                [0, 1, -1, 0, 0, 0, 0, 0],
            ]),
            repair_word=None,
        ),
        Join(
            target=RootSystemId("E", 6),
            factors=tuple(map(RootSystemId.parse, ("A3", "A2", "A1"))),
            word=parse_word("g4 g1 a1 a2 a3 a4 b6 b3 a1"),
            cg_word=(1, 3, 4, 2, 5, 6),
            conjugator_word=(5, 3, 2, 4, 1, 3, 3, 1, 2),
            conjugator_name="v",
            change_of_basis=as_imatrix([
                [0, -1, 1, 0, 0, 0],
                [-1, 0, 1, 0, 0, 0],
                [0, -1, 0, 1, 0, 0],
                [-1, 0, 0, 0, 1, 0],
                [0, 0, 0, 0, 0, 1],
                [-1, 0, 0, 0, 0, 1],
            ]),
            repair_word=(3, 1, 6),
        ),
    )
}


def _reflect(Mt: IMatrix, A: IMatrix, i: int) -> IMatrix:
    """The columns of M·s_i, given the columns Mt of M (0-based i).

    s_i is I with row i replaced by row i of I - A (its columns are images
    on simple-root coordinates), so column c of M·s_i is column c of M
    minus A[i][c] times column i: only i and its neighbors change.
    """
    cols = list(Mt)
    for c, a in enumerate(A[i]):
        if a:
            cols[c] = tuple([x - a * y for x, y in zip(Mt[c], Mt[i])])
    return tuple(cols)


def weyl_apply(rid: RootSystemId, word: Sequence[int]) -> IMatrix:
    """Product of simple reflections, rightmost letter acting first."""
    A = cartan_matrix(rid)
    Mt = iidentity(len(A))
    for i in word:
        if not 1 <= i <= len(A):
            raise ValueError(f"reflection index {i} out of range")
        Mt = _reflect(Mt, A, i - 1)
    return transpose(Mt)


def _polarizations(ids: Sequence[RootSystemId]) -> List[PolarizedLattice]:
    """The standard polarizations of a join's factors; a join needs at least one."""
    factors = [standard_polarization(cartan_matrix(rid)) for rid in ids]
    if not factors:
        raise ValueError("need at least one root system id")
    return factors


def join_cartan(ids: Sequence[RootSystemId]) -> IMatrix:
    """Gram matrix of the join of standard polarizations (tensor basis)."""
    return reduce(join, _polarizations(ids)).A


def join_coxeter(ids: Sequence[RootSystemId]) -> IMatrix:
    """Coxeter element -L⁻¹Lᵗ of the join of m standard polarizations (tensor basis).

    With L = L1 ⊗ ... ⊗ Lm, L⁻¹Lᵗ is the Kronecker product of the factors'
    -Ci, so the join's element is (-1)^(m+1)·C1 ⊗ ... ⊗ Cm: -C1 ⊗ C2 for
    two factors, C1 ⊗ C2 ⊗ C3 for three.
    """
    mats = [coxeter(P) for P in _polarizations(ids)]
    C = reduce(kron, mats)
    return C if len(mats) % 2 else tuple(tuple(-v for v in row) for row in C)


def _factorization(j: Join):
    """Change of basis G from the tensor basis of j's join to simple roots of j.target.

    Returns (G, deviations): the exact deviations of Gᵗ·A_*·G = A,
    G⁻¹·C_*·G = C_G and G = reference matrix, keyed by identity.  A_* and
    C_* are the join's Gram matrix and Coxeter element (join_cartan and
    join_coxeter, the latter signed for any number of factors).
    """
    A_star = join_cartan(j.factors)
    n = len(A_star)
    based = apply_word(BasedLattice(A_star, iidentity(n)), j.word)
    # column TREE_RELABELING[k] of G is mutated basis row k
    inv = {v: k for k, v in TREE_RELABELING.items()}
    G = transpose([based.basis[inv.get(i, i) - 1] for i in range(1, n + 1)])
    Ginv = frac_inverse(G)
    return G, {
        "G^t A_* G = A": deviation(matmul(transpose(G), A_star, G), cartan_matrix(j.target)),
        "G^{-1} C_* G = C_G": deviation(
            matmul(Ginv, join_coxeter(j.factors), G), weyl_apply(j.target, j.cg_word)
        ),
        "G = reference matrix": deviation(G, j.change_of_basis),
    }


def e8_factorization():
    """_factorization of A4*A2*A1 into E8, where C_G = s1s3s4s2s5s6s7s8."""
    return _factorization(JOINS["E8"])


def e6_factorization():
    """_factorization of A3*A2*A1 into E6."""
    return _factorization(JOINS["E6"])


def conjugation_report(target: str) -> Dict[str, int]:
    """Exact deviation of x⁻¹·C_BW·x = C_G, keyed by identity, for the
    reference conjugator x of JOINS[target].  When x fails as written and
    the join pins a repair_word w, w's deviation follows, listed last."""
    j = JOINS[target]
    C_bw = bipartite_coxeter(cartan_matrix(j.target))
    C_g = weyl_apply(j.target, j.cg_word)
    x = weyl_apply(j.target, j.conjugator_word)
    dev = deviation(matmul(C_bw, x), matmul(x, C_g))
    deviations = {f"{j.conjugator_name}^{{-1}} C_BW {j.conjugator_name} = C_G": dev}
    if dev and j.repair_word is not None:
        w = weyl_apply(j.target, j.repair_word)
        label = f"repaired w^{{-1}} C_BW w = C_G (word {list(j.repair_word)})"
        deviations[label] = deviation(matmul(C_bw, w), matmul(w, C_g))
    return deviations


def _an_roots(n: int) -> List[Tuple[int, ...]]:
    """The roots e_i - e_j (0 <= i != j <= n) of A_n in simple-root coordinates:
    α_{i+1} + ... + α_j, negated when i > j."""
    return [
        tuple((i < k <= j) - (j < k <= i) for k in range(1, n + 1))
        for i in range(n + 1)
        for j in range(n + 1)
        if i != j
    ]


def root_image_count() -> Tuple[int, bool]:
    """Image size of the root-triple map R(A4)×R(A2)×R(A1) -> Q(E8).

    Each of the 240 triples (x, y, z) maps to G⁻¹·(x ⊗ y ⊗ z); returns
    the number of distinct images and whether all have squared norm 2
    under A(E8).  (General vectors don't survive the join this way; the
    240 root triples land on exactly 60 E8 roots.)  The rows x ⊗ y ⊗ z are
    the Kronecker product of the factors' root lists, in the join's tensor
    order, and the images are exact.
    """
    G, _ = e8_factorization()
    j = JOINS["E8"]
    triples = reduce(kron, [_an_roots(rid.rank) for rid in j.factors])
    images = set(transpose(matmul(frac_inverse(G), transpose(triples))))
    A = cartan_matrix(j.target)
    return len(images), all(_pairing(A, v, v) == 2 for v in images)
