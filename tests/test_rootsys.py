"""ADE catalog data: Cartan matrices, exponents, colorings, join arithmetic."""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from coxlat.intmat import as_imatrix, char_poly, det_exact, transpose
from coxlat.lattice import bipartite_coxeter
from coxlat.rootsys import (
    CATALOG_IDS,
    RootSystemId,
    cartan_matrix,
    coloring,
    dynkin_edges,
    exponents,
    tree_levels,
)


def test_parse_and_str():
    assert str(RootSystemId.parse("e8")) == "E8"
    assert RootSystemId.parse("A1").rank == 1
    assert RootSystemId.parse("d4").family == "D"
    assert RootSystemId.parse("A03") == RootSystemId("A", 3)


# ranks past the catalog (A9, D9, ...) are rejected: cartan_matrix and
# tree_levels are quadratic in the rank
@pytest.mark.parametrize(
    "bad", ["Q5", "D3", "E9", "E5", "A0", "A", "8E", "", "A9", "D9", "A100000",
            # only ASCII digits: an Arabic-Indic three, a fullwidth eight
            "A٣", "E８"]
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        RootSystemId.parse(bad)


def test_replace_validates_like_the_constructor():
    # _replace and _make build through the constructor, so no record leaves the catalog
    e8 = RootSystemId("E", 8)
    assert e8._replace(rank=7) == RootSystemId("E", 7)
    with pytest.raises(ValueError, match="root system E9 is not in the catalog"):
        e8._replace(rank=9)
    with pytest.raises(ValueError, match="root system E9 is not in the catalog"):
        RootSystemId._make(("E", 9))


def test_rank_is_an_integer():
    # a float rank is refused at construction, as by _replace; an integer type is stored as int
    with pytest.raises(TypeError):
        RootSystemId("A", 3.0)
    with pytest.raises(TypeError):
        RootSystemId("E", 8)._replace(rank=8.0)
    rid = RootSystemId("D", np.int64(5))
    assert type(rid.rank) is int and str(rid) == "D5"


def test_catalog_contents():
    names = [str(rid) for rid in CATALOG_IDS]
    assert names == [
        "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
        "D4", "D5", "D6", "D7", "D8",
        "E6", "E7", "E8",
    ]


def test_cartan_a3_explicit():
    A = cartan_matrix(RootSystemId.parse("A3"))
    assert A == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    assert all(type(v) is int for row in A for v in row)


def test_e8_edges():
    assert dynkin_edges(RootSystemId.parse("E8")) == [
        (1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4),
    ]


def test_d4_edges():
    assert dynkin_edges(RootSystemId.parse("D4")) == [(1, 2), (2, 3), (2, 4)]


@pytest.mark.parametrize("rid", CATALOG_IDS, ids=str)
def test_cartan_well_formed(rid):
    A = cartan_matrix(rid)
    assert A == transpose(A)
    assert all(A[i][i] == 2 for i in range(rid.rank))
    offdiag = [A[i][j] for i in range(rid.rank) for j in range(rid.rank) if i != j]
    assert set(map(int, offdiag)) <= {0, -1}
    assert det_exact(A) > 0  # positive definite on the catalog


# The hand table of h and Exp (Bourbaki, Lie Groups, ch. VI, Planches I and IV-VII),
# the oracle of the rule that reads them off the singularity weights.  The
# first seven rows keep their places, and with them their test ids.
_EXPONENT_TABLE = [
    ("A1", 2, [1]),
    ("A4", 5, [1, 2, 3, 4]),
    ("D4", 6, [1, 3, 3, 5]),
    ("D5", 8, [1, 3, 4, 5, 7]),
    ("E6", 12, [1, 4, 5, 7, 8, 11]),
    ("E7", 18, [1, 5, 7, 9, 11, 13, 17]),
    ("E8", 30, [1, 7, 11, 13, 17, 19, 23, 29]),
    ("A2", 3, [1, 2]),
    ("A3", 4, [1, 2, 3]),
    ("A5", 6, [1, 2, 3, 4, 5]),
    ("A6", 7, [1, 2, 3, 4, 5, 6]),
    ("A7", 8, [1, 2, 3, 4, 5, 6, 7]),
    ("A8", 9, [1, 2, 3, 4, 5, 6, 7, 8]),
    ("D6", 10, [1, 3, 5, 5, 7, 9]),
    ("D7", 12, [1, 3, 5, 6, 7, 9, 11]),
    ("D8", 14, [1, 3, 5, 7, 7, 9, 11, 13]),
]
_TABLE = {name: (h, exps) for name, h, exps in _EXPONENT_TABLE}


@pytest.mark.parametrize("name,h,exps", _EXPONENT_TABLE)
def test_exponent_tables(name, h, exps):
    got_h, got = exponents(RootSystemId.parse(name))
    assert (got_h, got) == (h, exps)


def test_exponents_need_an_id():
    with pytest.raises(ValueError, match="need at least one root system id"):
        exponents()


@functools.cache
def _cyclotomic(d: int) -> tuple:
    """Φ_d, highest degree first: z^d - 1 divided exactly by Φ_e for each
    proper divisor e of d."""
    phi = [1] + [0] * (d - 1) + [-1]
    for e in range(1, d):
        if d % e == 0:
            divisor = _cyclotomic(e)  # monic
            for i in range(len(phi) - len(divisor) + 1):
                for j, c in enumerate(divisor[1:], 1):
                    phi[i + j] -= phi[i] * c
            assert not any(phi[len(phi) - len(divisor) + 1:])  # the division is exact
            phi = phi[: len(phi) - len(divisor) + 1]
    return tuple(phi)


def _poly_mul(p, q) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@pytest.mark.parametrize("rid", CATALOG_IDS, ids=str)
def test_coxeter_polynomial_is_the_exponent_product(rid):
    # det(zI - C) = prod over k in Exp of (z - ζ_h^k) for C = C_W·C_B, exactly
    # (Kostant 1959; Bourbaki, ch. V §6.2).  Exp is Galois-stable: every unit u
    # mod h permutes it, so the product is prod over d | h of Φ_d raised to the
    # multiplicity of h/d, the exponent of order d
    h, exps = exponents(rid)
    for u in range(1, h):
        if math.gcd(u, h) == 1:
            assert sorted(u * k % h for k in exps) == exps, u
    product = [1]
    for d in range(1, h + 1):
        if h % d == 0:
            for _ in range(exps.count(h // d)):
                product = _poly_mul(product, _cyclotomic(d))
    assert product == char_poly(bipartite_coxeter(cartan_matrix(rid)))


@pytest.mark.parametrize("rid", CATALOG_IDS, ids=str)
def test_exponents_match_cartan_spectrum(rid):
    # lambda_k = 4 sin^2(k*pi/2h) over the exponents, against numpy's eigvalsh
    h, exps = exponents(rid)
    assert len(exps) == rid.rank
    assert sum(exps) == rid.rank * h // 2
    lams = np.linalg.eigvalsh(np.array(cartan_matrix(rid), dtype=float))
    predicted = np.array([4 * math.sin(k * math.pi / (2 * h)) ** 2 for k in exps])
    assert np.max(np.abs(np.sort(lams) - predicted)) < 1e-12


@pytest.mark.parametrize("rid", CATALOG_IDS, ids=str)
def test_bipartition_proper(rid):
    colors = coloring(cartan_matrix(rid))
    assert colors[1] == "white"
    assert set(colors) == set(range(1, rid.rank + 1))
    for i, j in dynkin_edges(rid):
        assert colors[i] != colors[j]


def test_tree_levels_e8():
    assert tree_levels(cartan_matrix(RootSystemId.parse("E8"))) == (0, 1, 1, 2, 3, 4, 5, 6)


@pytest.mark.parametrize(
    "A,message",
    [
        ([[1, -1], [-1, 2]], "diagonal entries must equal 2"),
        ([[2, -1], [0, 2]], "zero pattern must be symmetric"),
        ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], "not a tree"),
        # n - 1 edges, so only the walk from vertex 1 can tell
        ([[2, 0, 0, 0], [0, 2, -1, -1], [0, -1, 2, -1], [0, -1, -1, 2]], "disconnected"),
    ],
    ids=["diagonal-1", "asymmetric", "3-cycle", "disconnected"],
)
def test_tree_levels_rejects_non_cartan_trees(A, message):
    with pytest.raises(ValueError, match=message):
        tree_levels(as_imatrix(A))


def test_join_exponent_arithmetic_e8():
    ids = [RootSystemId.parse(s) for s in ("A4", "A2", "A1")]
    h, exps = exponents(*ids)
    assert h == 30
    assert exps == [1, 7, 11, 13, 17, 19, 23, 29]


def test_join_exponent_arithmetic_e6():
    ids = [RootSystemId.parse(s) for s in ("A3", "A2", "A1")]
    h, exps = exponents(*ids)
    assert h == 12
    assert exps == [1, 4, 5, 7, 8, 11]


def _fraction_join_exponents(ids):
    """Oracle: the sums k_1/h_1 + ... + k_m/h_m over the hand table, as
    Fractions mod 1, written over the least common denominator of their
    reduced forms."""
    fracs = [Fraction(0)]
    for rid in ids:
        h, exps = _TABLE[str(rid)]
        fracs = [f + Fraction(k, h) for f in fracs for k in exps]
    fracs = [f - math.floor(f) for f in fracs]
    hout = math.lcm(*(f.denominator for f in fracs))
    return hout, sorted(int(f * hout) for f in fracs)


_SMALL_IDS = [rid for rid in CATALOG_IDS if rid.rank <= 4]


@pytest.mark.parametrize("first", CATALOG_IDS, ids=str)
def test_join_exponent_arithmetic_matches_fractions(first):
    # first alone, first with every catalog id, and (ranks <= 4) every triple
    joins = [(first,)] + [(first, rid) for rid in CATALOG_IDS]
    if first.rank <= 4:
        joins += [(first, b, c) for b in _SMALL_IDS for c in _SMALL_IDS]
    for ids in joins:
        assert exponents(*ids) == _fraction_join_exponents(ids), ids
