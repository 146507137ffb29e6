"""Catalog of finite simply-laced root systems in Bourbaki numbering.

Provides Cartan matrices, Dynkin tree edge lists, Coxeter numbers,
exponents, and the one walk of a Dynkin tree.  tree_levels decides what
a Cartan tree is (diagonal 2, symmetric zero pattern, tree graph) and
gives each vertex its level k_i; the bipartite (black/white) coloring of
the Coxeter element machinery (coloring) and the exponent vector of the
q-deformation are both read off those levels.  Vertices are numbered
1..rank throughout.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from typing import Dict, List, NamedTuple, Sequence, Tuple

__all__ = [
    "RootSystemId",
    "RootSystemData",
    "cartan_matrix",
    "dynkin_edges",
    "exponents",
    "tree_levels",
    "coloring",
    "root_system",
    "join_exponent_arithmetic",
    "CATALOG_IDS",
]

_ID_RE = re.compile(r"^([ADE])([0-9]+)$")
# the catalog: admissible ranks of each family
_RANKS = {"A": range(1, 9), "D": range(4, 9), "E": range(6, 9)}


class RootSystemId(namedtuple("RootSystemId", "family rank")):
    """Identifier of a catalog root system: A1-A8, D4-D8 or E6-E8."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        if rank not in _RANKS.get(family, ()):
            raise ValueError(f"root system {family}{rank} is not in the catalog")
        return super().__new__(cls, family, rank)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: validate it too
        return cls(*iterable)

    @classmethod
    def parse(cls, text: str) -> "RootSystemId":
        m = _ID_RE.match(text.strip().upper())
        if not m:
            raise ValueError(f"cannot parse root system name {text!r}")
        return cls(m.group(1), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


class RootSystemData(NamedTuple):
    """Immutable catalog record for one root system."""

    id: RootSystemId
    rank: int
    cartan: Tuple[Tuple[int, ...], ...]
    edges: Tuple[Tuple[int, int], ...]
    h: int
    exponents: Tuple[int, ...]
    coloring: Dict[int, str]


def dynkin_edges(rid: RootSystemId) -> List[Tuple[int, int]]:
    """Bourbaki Dynkin tree as a list of vertex pairs (1-based)."""
    n = rid.rank
    if rid.family == "A":
        return [(i, i + 1) for i in range(1, n)]
    if rid.family == "D":
        # chain 1..n-2 with both n-1 and n attached to n-2
        return [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    # E6/E7/E8: chain 1-3-4-...-n with 2 attached to 4
    chain = [(1, 3)] + [(i, i + 1) for i in range(3, n)]
    return chain + [(2, 4)]


def cartan_matrix(rid: RootSystemId) -> Tuple[Tuple[int, ...], ...]:
    """Simply-laced Cartan matrix: 2 on the diagonal, -1 at tree edges.

    Rows are tuples of ints, the exact matrix type of intmat.
    """
    n = rid.rank
    A = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in dynkin_edges(rid):
        A[i - 1][j - 1] = A[j - 1][i - 1] = -1
    return tuple(map(tuple, A))


def exponents(rid: RootSystemId) -> Tuple[int, List[int]]:
    """Coxeter number h and the sorted exponent list (with multiplicity)."""
    n = rid.rank
    if rid.family == "A":
        return n + 1, list(range(1, n + 1))
    if rid.family == "D":
        # 1, 3, ..., 2n-3 together with n-1 (repeated for even n)
        return 2 * n - 2, sorted(list(range(1, 2 * n - 2, 2)) + [n - 1])
    table = {
        6: (12, [1, 4, 5, 7, 8, 11]),
        7: (18, [1, 5, 7, 9, 11, 13, 17]),
        8: (30, [1, 7, 11, 13, 17, 19, 23, 29]),
    }
    h, exps = table[n]
    return h, list(exps)


def tree_levels(A) -> Tuple[int, ...]:
    """Levels k_i of the tree graph of A (i, j joined iff a_ij != 0).

    Walks from vertex 1; k goes up by 1 along each edge toward the larger
    label and down by 1 toward the smaller one, and is shifted to min 0.
    A is a Cartan tree or this raises ValueError: a diagonal entry other
    than 2, an asymmetric zero pattern, or a graph that is not a tree.
    """
    n = len(A)
    adj: Dict[int, List[int]] = {v: [] for v in range(n)}
    for i in range(n):
        if A[i][i] != 2:
            raise ValueError("diagonal entries must equal 2")
        for j in range(i + 1, n):
            if (A[i][j] != 0) != (A[j][i] != 0):
                raise ValueError("off-diagonal zero pattern must be symmetric")
            if A[i][j] != 0:
                adj[i].append(j)
                adj[j].append(i)
    if sum(map(len, adj.values())) != 2 * (n - 1):
        raise ValueError("graph is not a tree (wrong edge count)")
    k = {0: 0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in k:
                k[v] = k[u] + (1 if v > u else -1)
                stack.append(v)
    if len(k) != n:
        raise ValueError("graph is not a tree (disconnected)")
    low = min(k.values())
    return tuple(k[v] - low for v in range(n))


def coloring(A) -> Dict[int, str]:
    """The proper black/white coloring of the tree graph of A, vertex 1 white.

    Adjacent vertices differ in level by one, so the parity of k_v - k_1
    is the unique such coloring.  It fixes the bipartite Coxeter element
    C_W·C_B and the phases that dress Cartan eigenvectors into its
    eigenvectors.
    """
    k = tree_levels(A)
    return {v: "white" if (kv - k[0]) % 2 == 0 else "black" for v, kv in enumerate(k, 1)}


def root_system(rid: RootSystemId) -> RootSystemData:
    h, exps = exponents(rid)
    A = cartan_matrix(rid)
    return RootSystemData(
        id=rid,
        rank=rid.rank,
        cartan=A,
        edges=tuple(dynkin_edges(rid)),
        h=h,
        exponents=tuple(exps),
        coloring=coloring(A),
    )


def join_exponent_arithmetic(ids: Sequence[RootSystemId]) -> Tuple[int, List[int]]:
    """Exponent arithmetic for a join of root systems.

    The Coxeter eigenvalue arguments of a join are the sums k_1/h_1 + ... +
    k_m/h_m taken mod 1 over all exponent combinations.  The result is
    returned in canonical reduced form: h is the least common denominator of
    the reduced fractional parts and the exponents are the numerators over
    that h, sorted with multiplicity.

    For (A4, A2, A1) this reproduces Exp(E8) over h = 30, and for
    (A3, A2, A1) it reproduces Exp(E6) over h = 12.
    """
    if not ids:
        raise ValueError("need at least one root system id")
    H = math.lcm(*(exponents(rid)[0] for rid in ids))
    # each argument is s/H with 0 <= s < H; dividing by g = gcd(H, every s) reduces them
    sums = [0]
    for rid in ids:
        h, exps = exponents(rid)
        sums = [(s + k * (H // h)) % H for s in sums for k in exps]
    g = math.gcd(H, *sums)
    return H // g, sorted(s // g for s in sums)


CATALOG_IDS: Tuple[RootSystemId, ...] = tuple(
    RootSystemId(family, n) for family, ranks in _RANKS.items() for n in ranks
)
