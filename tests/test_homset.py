import random
import time

import pytest

from homtoric import graph as G
from homtoric.graph import Graph
from homtoric import homset
from homtoric.homset import HomTooLarge, enumerate_homs, indep_encode, iter_homs

from helpers import (graphs_upto_iso, hom_sources, hom_targets, naive_homs,
                     naive_independent_sets, with_seeded_loops)


def test_p4_p3_eight_homs():
    homs = enumerate_homs(G.path(4), G.path(3))
    assert len(homs) == 8
    # 1-based maps from the worked example, shifted down by one
    expected = sorted(tuple(x - 1 for x in m) for m in
                      [(1, 2, 3, 2), (1, 2, 1, 2), (2, 1, 2, 1), (2, 1, 2, 3),
                       (2, 3, 2, 1), (2, 3, 2, 3), (3, 2, 1, 2), (3, 2, 3, 2)])
    assert list(homs.maps) == expected


def test_k3_k4_count_against_bruteforce():
    homs = enumerate_homs(G.complete(3), G.complete(4))
    assert len(homs) == 24  # 4 * 3 * 2 injective placements
    assert list(homs.maps) == naive_homs(G.complete(3), G.complete(4))


def test_c4_spoon_seven_homs():
    c4 = G.cycle(4)
    homs = enumerate_homs(c4, G.spoon())
    sets, _ = indep_encode(c4, homs)
    assert len(homs) == 7
    assert sorted(sets, key=lambda s: (len(s), sorted(s))) == [
        frozenset(), frozenset({0}), frozenset({1}), frozenset({2}),
        frozenset({3}), frozenset({0, 2}), frozenset({1, 3})]


def test_enumeration_matches_bruteforce_everywhere():
    # loops, isolated vertices, several components, no vertices; a target
    # with an isolated vertex
    for g in hom_sources():
        for h in hom_targets():
            assert list(enumerate_homs(g, h).maps) == naive_homs(g, h), (g.edges, h.edges)


def test_count_cap_boundary():
    g, h = G.path(4), G.path(3)
    assert len(enumerate_homs(g, h, count_cap=8)) == 8
    with pytest.raises(HomTooLarge, match=r"^more than 7 homomorphisms$"):
        enumerate_homs(g, h, count_cap=7)


def test_all_enumerated_maps_preserve_edges():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 5)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.5])
        h = G.spoon() if rng.random() < 0.5 else G.complete(3)
        for m in enumerate_homs(g, h):
            for u, v in g.edges:
                assert h.adjacent(m[u], m[v])


def test_hom_count_monotone_in_target():
    # growing the target on a fixed vertex set only adds homomorphisms
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(2, 4)
        edges = [(u, v) for u in range(n) for v in range(u, n)]
        rng.shuffle(edges)
        cut = rng.randint(0, len(edges))
        h1 = Graph(n, edges[:cut])
        h2 = Graph(n, edges)
        g = G.path(3)
        small = set(enumerate_homs(g, h1).maps)
        big = set(enumerate_homs(g, h2).maps)
        assert small <= big


def test_hom_count_antitone_in_source():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(2, 4)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(edges)
        cut = rng.randint(0, len(edges))
        g1 = Graph(n, edges[:cut])
        g2 = Graph(n, edges)
        h = G.complete(3)
        assert set(enumerate_homs(g2, h).maps) <= set(enumerate_homs(g1, h).maps)


def test_search_cap():
    # 5**20 assignments are over the cap: refused before the search starts
    assert 5 ** 20 > homset.SEARCH_CAP
    with pytest.raises(HomTooLarge, match=r"= 5\*\*20 exceeds the cap$"):
        enumerate_homs(G.path(20), G.complete(5))


def test_iter_homs_yields_each_map_once():
    # every graph on at most 5 vertices, each also with seeded loops
    targets = [G.spoon(), G.complete(2), G.complete(3), G.path(3), G.complete_looped(2)]
    for n in range(1, 6):
        for k, g in enumerate(graphs_upto_iso(n)):
            for case in (g, with_seeded_loops(g, 10 * n + k)):
                for h in targets:
                    maps = list(iter_homs(case, h))
                    assert len(maps) == len(set(maps))
                    assert set(maps) == set(naive_homs(case, h)), (case, h)


def test_iter_homs_ends_at_a_component_with_no_map():
    # 16 disjoint edges and then a triangle on the highest vertices: the
    # triangle has no map into K2, so the search ends at its root rather
    # than retrying all 2^16 images of the edges' roots
    n = 35
    g = Graph(n, [(2 * i, 2 * i + 1) for i in range(16)] + [(32, 33), (33, 34), (32, 34)])
    start = time.perf_counter()
    assert G.is_bipartite(g) is None
    assert time.perf_counter() - start < 0.05
    assert list(iter_homs(g, G.complete(2))) == []


def test_iter_homs_of_the_empty_graph():
    assert list(iter_homs(Graph(0), G.complete(3))) == [()]
    assert list(iter_homs(Graph(0), Graph(0))) == [()]


def test_iter_homs_refuses_on_the_first_next():
    maps = iter_homs(G.path(20), G.complete(5))
    with pytest.raises(HomTooLarge, match=r"= 5\*\*20 exceeds the cap$"):
        next(maps)


def test_indep_encode_bijection():
    # Hom(G, spoon) is the package's one source of independent sets: every
    # graph on at most 5 vertices, each also with seeded loops, and Graph(0)
    graphs = [Graph(0)]
    for n in range(1, 6):
        for k, g in enumerate(graphs_upto_iso(n)):
            graphs += [g, with_seeded_loops(g, 10 * n + k)]
    for g in graphs:
        homs = enumerate_homs(g, G.spoon())
        sets, index = indep_encode(g, homs)
        assert sorted(sets, key=lambda s: (len(s), sorted(s))) == naive_independent_sets(g)
        assert all(index[s] == i for i, s in enumerate(sets))


def test_indep_encode_all_looped_map_is_empty_set():
    g = G.cycle(4)
    homs = enumerate_homs(g, G.spoon())
    sets, _ = indep_encode(g, homs)
    i = homs.index[(1, 1, 1, 1)]
    assert sets[i] == frozenset()


def test_indep_encode_complete_graph():
    g = G.complete(4)
    homs = enumerate_homs(g, G.spoon())
    sets, _ = indep_encode(g, homs)
    assert len(homs) == 5  # empty set and four singletons
    assert max(len(s) for s in sets) == 1


def test_indep_encode_requires_spoon():
    homs = enumerate_homs(G.path(3), G.complete(3))
    with pytest.raises(ValueError):
        indep_encode(G.path(3), homs)
