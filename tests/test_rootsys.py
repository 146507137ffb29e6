"""ADE catalog data: Cartan matrices, exponents, colorings, join arithmetic."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from coxlat.intmat import as_imatrix, det_exact, is_symmetric
from coxlat.rootsys import (
    CATALOG_IDS,
    RootSystemId,
    cartan_matrix,
    coloring,
    dynkin_edges,
    exponents,
    join_exponent_arithmetic,
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
    assert is_symmetric(A)
    assert all(A[i][i] == 2 for i in range(rid.rank))
    offdiag = [A[i][j] for i in range(rid.rank) for j in range(rid.rank) if i != j]
    assert set(map(int, offdiag)) <= {0, -1}
    assert det_exact(A) > 0  # positive definite on the catalog


@pytest.mark.parametrize(
    "name,h,exps",
    [
        ("A1", 2, [1]),
        ("A4", 5, [1, 2, 3, 4]),
        ("D4", 6, [1, 3, 3, 5]),
        ("D5", 8, [1, 3, 4, 5, 7]),
        ("E6", 12, [1, 4, 5, 7, 8, 11]),
        ("E7", 18, [1, 5, 7, 9, 11, 13, 17]),
        ("E8", 30, [1, 7, 11, 13, 17, 19, 23, 29]),
    ],
)
def test_exponent_tables(name, h, exps):
    got_h, got = exponents(RootSystemId.parse(name))
    assert (got_h, got) == (h, exps)


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
    h, exps = join_exponent_arithmetic(ids)
    assert h == 30
    assert exps == [1, 7, 11, 13, 17, 19, 23, 29]


def test_join_exponent_arithmetic_e6():
    ids = [RootSystemId.parse(s) for s in ("A3", "A2", "A1")]
    h, exps = join_exponent_arithmetic(ids)
    assert h == 12
    assert exps == [1, 4, 5, 7, 8, 11]


def _fraction_join_exponents(ids):
    """Oracle: the sums k_1/h_1 + ... + k_m/h_m as Fractions mod 1, written
    over the least common denominator of their reduced forms."""
    fracs = [Fraction(0)]
    for rid in ids:
        h, exps = exponents(rid)
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
        assert join_exponent_arithmetic(ids) == _fraction_join_exponents(ids), ids
