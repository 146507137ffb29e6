"""Catalog of finite simply-laced root systems in Bourbaki numbering.

Each fact about a catalog system comes from one function: cartan_matrix,
dynkin_edges, exponents (h and the sorted exponents, read off the weights
of the system's singularity, for one system or a join) and coloring.
tree_levels is the one walk of a Dynkin tree: it decides what a Cartan
tree is (diagonal 2, symmetric zero pattern, tree graph) and gives each
vertex its level k_i; the bipartite (black/white) coloring of the Coxeter
element machinery (coloring) and the exponent vector of the q-deformation
are both read off those levels.  Vertices are numbered 1..rank throughout.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from operator import index
from typing import Dict, List, Tuple

__all__ = [
    "RootSystemId",
    "cartan_matrix",
    "dynkin_edges",
    "exponents",
    "tree_levels",
    "coloring",
    "CATALOG_IDS",
]

_ID_RE = re.compile(r"^([ADE])([0-9]+)$")
# the catalog: admissible ranks of each family
_RANKS = {"A": range(1, 9), "D": range(4, 9), "E": range(6, 9)}


class RootSystemId(namedtuple("RootSystemId", "family rank")):
    """Identifier of a catalog root system: A1-A8, D4-D8 or E6-E8."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        rank = index(rank)  # an int; a float raises TypeError
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


def _weights(rid: RootSystemId) -> Tuple[Tuple[int, int], ...]:
    """Weights w = p/q, as pairs (p, q), of the variables of rid's normal form (Arnold)."""
    n, z2 = rid.rank, (1, 2)
    if rid.family == "A":  # x^(n+1) + y² + z²
        return (1, n + 1), z2, z2
    if rid.family == "D":  # x^(n-1) + xy² + z²
        return (1, n - 1), (n - 2, 2 * n - 2), z2
    # E6: x³ + y⁴ + z², E7: x³ + xy³ + z², E8: x³ + y⁵ + z²
    return (1, 3), {6: (1, 4), 7: (2, 9), 8: (1, 5)}[n], z2


def exponents(*ids: RootSystemId) -> Tuple[int, List[int]]:
    """Coxeter number h and the sorted exponents (with multiplicity) of one
    catalog system, or of the Sebastiani–Thom join of several.

    A join concatenates its factors' weights.  Written a/d over one
    denominator d, they give the Milnor algebra the Poincaré polynomial
    prod (1 - s^(d-a))/(1 - s^a) in s^(1/d), and each of its terms s^(e/d) a
    Coxeter eigenvalue argument (e + sum a)/d mod 1 (Milnor–Orlik, Topology 9
    (1970)).  h is the least common denominator of the reduced arguments and
    the exponents are their numerators over h: (A4, A2, A1) gives E8's.
    """
    if not ids:
        raise ValueError("need at least one root system id")
    weights = [w for rid in ids for w in _weights(rid)]
    d = math.lcm(*(q for _, q in weights))
    num = [p * (d // q) for p, q in weights]
    # the polynomial has degree sum (d - 2a): work in power series cut past it
    size = sum(d - 2 * a for a in num) + 1
    poly = [1] + [0] * (size - 1)
    for a in num:
        for i in range(a, size):  # divide by 1 - s^a: a running sum
            poly[i] += poly[i - a]
        for i in range(size - 1, d - a - 1, -1):  # times 1 - s^(d-a)
            poly[i] -= poly[i - d + a]
    shift = sum(num)
    sums = [(e + shift) % d for e, c in enumerate(poly) for _ in range(c)]
    g = math.gcd(d, *sums)
    return d // g, sorted(s // g for s in sums)


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


CATALOG_IDS: Tuple[RootSystemId, ...] = tuple(
    RootSystemId(family, n) for family, ranks in _RANKS.items() for n in ranks
)
