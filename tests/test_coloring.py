import random
import time

import pytest

from homtoric import graph as G
from homtoric.graph import Graph
from homtoric.coloring import (analyze_certificate, chromatic_number,
                               find_low_degree_binomial, format_certificate,
                               is_k_colorable)
from homtoric import homset
from homtoric.homset import HomTooLarge
from homtoric.toric import Binomial, build_system, iter_fibers

from helpers import (graphs_upto_iso, naive_is_k_colorable, naive_low_degree_binomial,
                     with_seeded_loops)


def k5_binomial(system):
    def var(s):
        return system.homs.index[tuple(int(c) - 1 for c in s)]
    return Binomial.make([var(s) for s in "123 145 325 341 521 543".split()],
                         [var(s) for s in "125 143 321 345 523 541".split()])


def octa_binomial(system):
    def var(s):
        return system.homs.index[tuple(int(c) - 1 for c in s)]
    return Binomial.make([var(s) for s in "135 146 236 245".split()],
                         [var(s) for s in "136 145 235 246".split()])


# identifications per first-factor match, 0-based, with adjacency marks;
# rows follow the published tables shifted down by one
K5_TABLE = {
    1: {(2, 4)},
    2: {(1, 3)},
    3: {(0, 2)},
    4: {(0, 2), (1, 3), (2, 4)},
    5: {(0, 4)},
    6: {(0, 4), (1, 3), (0, 2)},
}

OCTA_TABLE = {
    1: {(4, 5)},
    2: {(2, 3)},
    3: {(0, 1)},
    4: {(0, 1), (2, 3), (4, 5)},
}


def test_k5_certificate_matches_table():
    k5 = G.complete(5)
    system = build_system(G.complete(3), k5)
    cert = analyze_certificate(k5, system, k5_binomial(system))
    assert cert.verdict == "NOT_4_COLORABLE"
    assert len(cert.table) == 6
    for row in cert.table:
        pairs = {p for p, _ in row.identifications}
        assert pairs == K5_TABLE[row.position + 1]
        # every row carries at least one adjacent identification
        assert any(mk == "adjacent" for _, mk in row.identifications)


def test_octahedron_certificate_matches_table():
    octa = G.octahedron()
    system = build_system(G.complete(3), octa)
    cert = analyze_certificate(octa, system, octa_binomial(system),
                               relation=[(0, 1), (2, 3), (4, 5)])
    assert cert.verdict == "PROPERTY"
    assert len(cert.table) == 4
    for row in cert.table:
        pairs = {p for p, _ in row.identifications}
        assert pairs == OCTA_TABLE[row.position + 1]
        assert any(mk == "relation" for _, mk in row.identifications)


def test_verdicts_agree_with_bruteforce():
    assert chromatic_number(G.complete(5)) == 5
    assert is_k_colorable(G.octahedron(), 4)
    assert chromatic_number(G.octahedron()) == 3
    assert chromatic_number(G.cycle(5)) == 3
    assert chromatic_number(G.complete(4)) == 4


def test_colorings_match_the_backtracker_they_replaced():
    assert chromatic_number(Graph(0)) == 0
    assert chromatic_number(Graph(4)) == 1
    cases = [Graph(0), Graph(4)]
    for n in range(1, 6):
        for i, g in enumerate(graphs_upto_iso(n)):
            cases += [g, with_seeded_loops(g, 100 * n + i)]
    for g in cases:
        for k in range(1, 5):
            assert is_k_colorable(g, k) == naive_is_k_colorable(g, k), (g, k)
        chi = chromatic_number(g)
        if g.is_loopfree():
            assert naive_is_k_colorable(g, chi), g
            assert chi <= 1 or not naive_is_k_colorable(g, chi - 1), g
        else:
            assert chi == g.n, g


def test_colorability_stops_at_the_first_map(monkeypatch):
    # Graph(12) has 4^12 maps into K4; one settles the answer, and no
    # HomSet of them is built
    def listed(*args):
        raise AssertionError("Hom(G, K4) listed whole")

    monkeypatch.setattr(homset, "HomSet", listed)
    start = time.perf_counter()
    assert is_k_colorable(Graph(12), 4)
    assert chromatic_number(Graph(12)) == 1
    assert time.perf_counter() - start < 0.5


def test_colorability_refuses_before_the_search():
    # 3^26 assignments exceed SEARCH_CAP, so the search never starts
    with pytest.raises(HomTooLarge, match="exceeds the cap"):
        is_k_colorable(G.path(26), 3)


def test_octahedron_without_relation_is_inconclusive():
    octa = G.octahedron()
    system = build_system(G.complete(3), octa)
    cert = analyze_certificate(octa, system, octa_binomial(system))
    assert cert.verdict == "INCONCLUSIVE"  # 4-colorable, so it must be


def test_search_octahedron_finds_degree4():
    system, b = find_low_degree_binomial(G.octahedron(), degree_cap=4)
    assert b is not None
    assert b.degree == 4
    assert set(b.plus).isdisjoint(b.minus)
    assert system.membership(b)


def test_search_k4_finds_nothing_small():
    system, b = find_low_degree_binomial(G.complete(4), degree_cap=4)
    assert b is None
    # stronger: the fibers themselves are all singletons up to degree 4
    for t in (2, 3, 4):
        assert not list(iter_fibers(system, t, min_size=2))


def test_search_k5_nothing_up_to_four():
    system, b = find_low_degree_binomial(G.complete(5), degree_cap=4)
    assert b is None


def test_search_matches_pair_scan():
    # three relabelings of the octahedron have a degree-4 binomial; K4, K5
    # and K_{2,2,1} have none up to degree 4.  K_{1,1,2,2} has one of degree
    # 4 too, but its degree-4 layer (1.2M monomials) takes 0.8 s a pass, so
    # it is compared at cap 3 only
    rng = random.Random(7)
    graphs = []
    for _ in range(3):
        perm = rng.sample(range(6), 6)
        graphs.append(Graph(6, [(perm[u], perm[v]) for u, v in G.octahedron().edges]))
    graphs += [G.complete(4), G.complete(5), G.complement(Graph(5, [(0, 1), (2, 3)]))]
    cases = [(g, cap) for g in graphs for cap in (3, 4)]
    cases.append((G.complement(Graph(6, [(2, 3), (4, 5)])), 3))
    for g, cap in cases:
        assert find_low_degree_binomial(g, degree_cap=cap)[1] == naive_low_degree_binomial(g, cap)


def test_search_requires_triangle():
    with pytest.raises(ValueError):
        find_low_degree_binomial(G.cycle(5), degree_cap=3)


def test_search_cap_below_two_is_refused():
    # binomials start at degree 2: a lower cap would search no layer and
    # report that no binomial exists
    for cap in (1, 0, -3):
        with pytest.raises(ValueError, match="^degree cap must be at least 2$"):
            find_low_degree_binomial(G.octahedron(), degree_cap=cap)


def test_certificate_preconditions():
    k5 = G.complete(5)
    system = build_system(G.complete(3), k5)
    b = k5_binomial(system)
    with pytest.raises(ValueError):
        analyze_certificate(k5, system, Binomial(b.plus * 2, b.minus * 2))
    shared = Binomial(b.plus, b.plus[:1] + b.minus[1:])
    with pytest.raises(ValueError):
        analyze_certificate(k5, system, shared)


def test_format_certificate_mentions_markers():
    k5 = G.complete(5)
    system = build_system(G.complete(3), k5)
    cert = analyze_certificate(k5, system, k5_binomial(system))
    text = format_certificate(cert)
    assert "NOT_4_COLORABLE" in text
    assert "[adjacent]" in text
