import random
import time

import pytest

from homtoric import graph as G
from homtoric.graph import (Graph, GraphError, bfs, build_named, complement, components,
                            induced_subgraph, is_almost_bipartite, is_bipartite,
                            parse_graph_text)
from homtoric.homset import HomTooLarge, enumerate_homs

from helpers import (brute_bipartition_exists, graphs_upto_iso, naive_almost_bipartite,
                     naive_homs, queue_bfs_order, queue_components, queue_is_bipartite,
                     with_seeded_loops)


def test_build_named_spoon():
    g = build_named("spoon")
    assert g.n == 2
    assert g.edges == frozenset({(0, 1), (1, 1)})


def test_build_named_complement_c8():
    g = build_named("complement:cycle:8")
    assert g.n == 8
    assert len(g.edges) == 20  # C(8,2) - 8


def test_build_named_octahedron():
    g = build_named("octahedron")
    assert g.n == 6
    assert len(g.edges) == 12
    non_edges = {(0, 1), (2, 3), (4, 5)}
    for e in non_edges:
        assert e not in g.edges


def test_build_named_families_and_errors():
    assert build_named("path:4").edges == frozenset({(0, 1), (1, 2), (2, 3)})
    assert build_named("complete-looped:2").edges == frozenset({(0, 0), (0, 1), (1, 1)})
    assert build_named("edges:3:0-1,1-2").edges == frozenset({(0, 1), (1, 2)})
    with pytest.raises(GraphError):
        build_named("cycle:2")
    with pytest.raises(GraphError):
        build_named("dodecahedron")
    with pytest.raises(GraphError):
        build_named("path:x")


def test_induced_subgraph_k4():
    sub = induced_subgraph(G.complete(4), {0, 1, 2})
    assert sub.graph == G.complete(3)


def test_induced_subgraph_spoon_loop():
    sub = induced_subgraph(G.spoon(), {1})
    assert sub.graph.edges == frozenset({(0, 0)})


def test_induced_subgraph_octahedron_triangle():
    # brute-force adjacency: {0,2,4} are pairwise adjacent
    octa = G.octahedron()
    for u in (0, 2, 4):
        for v in (0, 2, 4):
            if u != v:
                assert octa.adjacent(u, v)
    sub = induced_subgraph(octa, {0, 2, 4})
    assert sub.graph == G.complete(3)
    assert sub.vertices == (0, 2, 4)


def test_induced_subgraph_bad_vertex():
    with pytest.raises(GraphError):
        induced_subgraph(G.path(3), {0, 7})


def test_complement_involution():
    for g in graphs_upto_iso(5):
        assert complement(complement(g)) == g


def test_complement_rejects_loops():
    with pytest.raises(GraphError):
        complement(G.spoon())


def test_bipartite_matches_bruteforce():
    for n in range(1, 6):
        for g in graphs_upto_iso(n):
            assert (is_bipartite(g) is not None) == brute_bipartition_exists(g)


def _traversal_cases():
    for n in range(1, 7):
        yield from graphs_upto_iso(n)
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 7)
        yield Graph(n, [(u, v) for u in range(n) for v in range(u, n)
                        if rng.random() < (0.25 if u == v else 0.35)])


def test_bfs_matches_the_queue_loops_it_replaced():
    # bipartite_grobner orients its moves by part1, so the exact parts
    # must stay, not just the existence of a bipartition
    targets = [G.spoon(), G.complete(3), G.complete_looped(2)]
    for g in _traversal_cases():
        pairs = bfs(g)
        assert [v for v, _ in pairs] == queue_bfs_order(g)
        seen = set()
        for v, parent in pairs:
            assert parent is None or (parent in seen and g.adjacent(v, parent))
            seen.add(v)
        assert components(g) == queue_components(g)
        assert is_bipartite(g) == queue_is_bipartite(g)
        for h in targets:
            assert list(enumerate_homs(g, h).maps) == naive_homs(g, h)


def test_bipartite_larger_instances():
    assert is_bipartite(G.cycle(12)) is not None
    assert is_bipartite(G.cycle(11)) is None
    assert is_bipartite(G.complete(3)) is None
    star = Graph(12, [(0, i) for i in range(1, 12)])
    bip = is_bipartite(star)
    assert bip.part1 == frozenset({0})


def test_bipartite_refuses_before_the_search():
    # 2^40 assignments exceed SEARCH_CAP, so the search never starts
    with pytest.raises(HomTooLarge, match="exceeds the cap"):
        is_bipartite(G.path(40))


def test_bipartition_is_valid():
    bip = is_bipartite(G.cycle(4))
    assert bip.part1 == frozenset({0, 2})
    assert bip.part2 == frozenset({1, 3})


def test_almost_bipartite_c5():
    split = is_almost_bipartite(G.cycle(5))
    assert split.apex == 0
    assert split.part1 | split.part2 == frozenset({1, 2, 3, 4})


def test_almost_bipartite_k4_fails():
    assert is_almost_bipartite(G.complete(4)) is None
    assert is_bipartite(G.complete(4)) is None


def test_almost_bipartite_matches_the_deletion_route():
    # cutting the apex's edges in place keeps each component's lowest
    # vertex, so the split equals the one read off the relabelled graph
    for n in range(1, 7):
        for k, g in enumerate(graphs_upto_iso(n)):
            for case in (g, with_seeded_loops(g, 10 * n + k)):
                assert is_almost_bipartite(case) == naive_almost_bipartite(case), case


def test_bipartite_of_many_components_stops_at_the_first_map():
    # Graph(24) has 2^24 maps into K2; the first one is the answer
    start = time.perf_counter()
    bip = is_bipartite(Graph(24))
    assert time.perf_counter() - start < 0.5
    assert bip.part1 == frozenset(range(24)) and bip.part2 == frozenset()


def test_graph_text_roundtrip():
    octahedron = ("n 6\ne 0 2\ne 0 3\ne 0 4\ne 0 5\ne 1 2\ne 1 3\ne 1 4\ne 1 5\n"
                  "e 2 4\ne 2 5\ne 3 4\ne 3 5\n")
    assert parse_graph_text(octahedron) == G.octahedron()
    assert parse_graph_text("# comment\nn 2\ne 0 1\ne 1 1\n") == G.spoon()
    with pytest.raises(GraphError):
        parse_graph_text("e 0 1\nq bogus\nn 2")
