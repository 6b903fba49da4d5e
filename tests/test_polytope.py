import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homtoric import graph as G
from homtoric import polytope
from homtoric.graph import Graph
from homtoric.polytope import (LatticePolytope, PolytopeCapExceeded, build_polytope,
                               facets, simplicity, stable_set_iso, stable_set_polytope)

from helpers import naive_facets, naive_hyperplane_through, naive_independent_sets


def square_sets(maps):
    return [frozenset(v for v in range(4) if m[v] == 0) for m in maps]


# the eight facet incidence sets of the square-into-spoon polytope,
# written as independent sets in 1-based vertex names
SQUARE_FACETS = [
    {"1", "2", "13", "24"},
    {"2", "3", "13", "24"},
    {"1", "4", "13", "24"},
    {"3", "4", "13", "24"},
    {"", "1", "2", "3", "13"},
    {"", "1", "3", "4", "13"},
    {"", "1", "2", "4", "24"},
    {"", "2", "3", "4", "24"},
]


def test_square_polytope_shape():
    poly = build_polytope(G.cycle(4), G.spoon())
    assert poly.num_vertices == 7
    assert poly.ambient_dim == 12
    assert all(set(v) <= {0, 1} for v in poly.vertices)


def test_square_polytope_facets_match_table():
    poly = build_polytope(G.cycle(4), G.spoon())
    desc = facets(poly)
    assert desc.dim == 4
    assert len(desc.facets) == 8
    sets = square_sets(poly.labels)

    def name(s):
        return "".join(str(v + 1) for v in sorted(s))

    got = {frozenset(name(sets[i]) for i in f.incident) for f in desc.facets}
    expected = {frozenset(f) for f in SQUARE_FACETS}
    assert got == expected


def test_square_polytope_simplicity():
    poly = build_polytope(G.cycle(4), G.spoon())
    desc = facets(poly)
    rep = simplicity(poly, desc)
    assert not rep.simple
    sets = square_sets(poly.labels)
    counts = {frozenset(s): c for s, c in zip(sets, rep.counts)}
    assert counts[frozenset()] == 4
    for v in range(4):
        assert counts[frozenset({v})] == 5  # 3 deletion facets + 2 edge facets
    assert counts[frozenset({0, 2})] == 6
    assert counts[frozenset({1, 3})] == 6


def test_triangle_into_square_empty():
    poly = build_polytope(G.cycle(3), G.cycle(4))
    assert poly.num_vertices == 0
    assert facets(poly).dim == -1


def test_segment():
    poly = build_polytope(G.complete(2), G.complete(2))
    desc = facets(poly)
    assert poly.num_vertices == 2
    assert desc.dim == 1
    assert sorted(f.incident for f in desc.facets) == [(0,), (1,)]
    rep = simplicity(poly, desc)
    assert rep.simple
    assert rep.counts == (1, 1)


def test_point_polytope():
    # a single homomorphism gives a point with no facets
    one = build_polytope(G.spoon(), G.complete_looped(1))
    assert one.num_vertices == 1
    assert facets(one).dim == 0
    assert facets(one).facets == ()


def test_stable_set_iso_c4_matches_reduced_rows():
    iso = stable_set_iso(G.cycle(4))
    for pt, s in zip(iso.points, iso.sets):
        assert pt == tuple(1 if v in s else 0 for v in range(4))
    assert len(set(iso.points)) == 7


def test_stable_set_iso_injective_random():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(3, 7)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.5])
        if not all(g.degree_on_edge(v) for v in range(n)):
            continue
        iso = stable_set_iso(g)
        assert len(set(iso.points)) == len(iso.points)
        assert sorted(iso.sets, key=lambda s: (len(s), sorted(s))) == \
            naive_independent_sets(g)


def test_stable_set_iso_preserves_facet_structure():
    # same facet count and incidence multiset on both sides of the collapse
    for g in (G.cycle(4), G.cycle(5), G.complete(3)):
        big = build_polytope(g, G.spoon())
        small = stable_set_polytope(g)
        fb, fs = facets(big), facets(small)
        assert fb.dim == fs.dim
        assert len(fb.facets) == len(fs.facets)
        inc_b = sorted(tuple(sorted(f.incident)) for f in fb.facets)
        inc_s = sorted(tuple(sorted(f.incident)) for f in fs.facets)
        assert inc_b == inc_s


def test_stable_set_iso_preconditions():
    with pytest.raises(ValueError):
        stable_set_iso(G.spoon())
    with pytest.raises(ValueError):
        stable_set_iso(Graph(3, [(0, 1)]))


def test_simplex_from_complete_graph():
    poly = stable_set_polytope(G.complete(3))
    desc = facets(poly)
    assert poly.num_vertices == 4
    assert desc.dim == 3
    assert len(desc.facets) == 4
    assert simplicity(poly, desc).simple


def test_c5_stable_set_polytope_eleven_facets():
    poly = stable_set_polytope(G.cycle(5))
    desc = facets(poly)
    assert len(desc.facets) == 11
    # 5 nonnegativity + 5 edge + 1 odd-hole inequality
    by_kind = {"nonneg": 0, "edge": 0, "hole": 0}
    for f in desc.facets:
        n = f.normal
        pos = [i for i, x in enumerate(n) if x != 0]
        if len(pos) == 1 and n[pos[0]] == -1 and f.offset == 0:
            by_kind["nonneg"] += 1
        elif sorted(n) == [0, 0, 0, 1, 1] and f.offset == 1:
            u, v = [i for i, x in enumerate(n) if x == 1]
            assert G.cycle(5).adjacent(u, v)
            by_kind["edge"] += 1
        elif n == (1, 1, 1, 1, 1) and f.offset == 2:
            by_kind["hole"] += 1
    assert by_kind == {"nonneg": 5, "edge": 5, "hole": 1}


def test_vertex_cap():
    poly = stable_set_polytope(G.cycle(5))
    with pytest.raises(PolytopeCapExceeded):
        facets(poly, vertex_cap=5)


def test_vertex_cap_refuses_before_elimination(monkeypatch):
    # 3,120 vertices: the cap must fire before any vertex difference is
    # eliminated
    poly = build_polytope(G.cycle(5), G.complete(6))

    def fail(matrix):
        raise AssertionError("eliminated before the vertex cap")

    monkeypatch.setattr(polytope, "echelon", fail)
    with pytest.raises(PolytopeCapExceeded, match="3120 vertices"):
        facets(poly)


def _random_point_sets(rng):
    for d in range(1, 9):
        for _ in range(400):
            pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d)]
            kind = rng.randrange(4)
            if kind == 1 and d > 1:         # a repeated point
                pts[rng.randrange(1, d)] = pts[rng.randrange(d)]
            elif kind == 2 and d > 2:       # a point on the line of two others
                i, j = rng.sample(range(d), 2)
                k = rng.choice([x for x in range(d) if x not in (i, j)])
                pts[k] = tuple(2 * a - b for a, b in zip(pts[i], pts[j]))
            elif kind == 3:                 # 0/1 points, as polytope vertices are
                pts = [tuple(rng.randint(0, 1) for _ in range(d)) for _ in range(d)]
            yield pts


def test_hyperplane_matches_cofactor_normal():
    # one batch per dimension; entries up to 6 in the differences keep
    # every intermediate of the elimination far inside int64 at d <= 8
    rng = random.Random(11)
    by_dim = {}
    for pts in _random_point_sets(rng):
        by_dim.setdefault(len(pts), []).append(pts)
    outcomes = set()
    for batch in by_dim.values():
        normals, offsets = polytope._hyperplanes(np.array(batch, dtype=np.int64))
        for pts, n, offset in zip(batch, normals.tolist(), offsets.tolist()):
            ours = (tuple(n), offset) if any(n) else None
            assert ours == naive_hyperplane_through(pts), pts
            outcomes.add(ours is None)
    assert outcomes == {True, False}


def _oracle_polytopes():
    # every polytope of this file and of the golden polytope commands
    for g, h in ((G.cycle(4), G.spoon()), (G.cycle(5), G.spoon()),
                 (G.complement(G.cycle(6)), G.spoon()), (G.cycle(3), G.spoon()),
                 (G.complete(2), G.complete(2)), (G.spoon(), G.complete_looped(1)),
                 (G.cycle(3), G.cycle(4))):
        yield build_polytope(g, h)
    for g in (G.cycle(4), G.cycle(5), G.complete(3)):
        yield stable_set_polytope(g)


def test_facets_match_naive():
    for poly in _oracle_polytopes():
        assert facets(poly) == naive_facets(poly)


@st.composite
def _point_sets(draw):
    # 1-12 distinct 0/1 points in dimension 1-6; few points or repeated
    # coordinates give lower-dimensional sets
    d = draw(st.integers(1, 6))
    size = min(draw(st.integers(1, 12)), 2 ** d)
    return draw(st.lists(st.tuples(*[st.integers(0, 1)] * d), min_size=size,
                         max_size=size, unique=True))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(points=_point_sets())
def test_facets_match_naive_on_random_point_sets(points):
    poly = LatticePolytope(tuple(range(len(points[0]))), tuple(points),
                           tuple(range(len(points))))
    assert facets(poly) == naive_facets(poly)


def test_c6_stable_set_polytope_twelve_facets():
    # C(18, 6) = 18,564 subsets span several chunks; C6 is bipartite, so
    # the facets are the 6 nonnegativity and the 6 edge inequalities
    poly = stable_set_polytope(G.cycle(6))
    assert poly.num_vertices == 18
    desc = facets(poly)
    assert desc.dim == 6
    assert 18564 > 2 * polytope.CHUNK
    nonneg = {tuple(-int(i == v) for i in range(6)) for v in range(6)}
    edges = {tuple(int(i in (u, (u + 1) % 6)) for i in range(6)) for u in range(6)}
    assert {(f.normal, f.offset) for f in desc.facets} == \
        {(n, 0) for n in nonneg} | {(n, 1) for n in edges}


def test_caps_refuse_before_any_batch(monkeypatch):
    def fail(points):
        raise AssertionError("batch built before the cap")

    monkeypatch.setattr(polytope, "_hyperplanes", fail)
    poly = stable_set_polytope(G.cycle(6))
    with pytest.raises(PolytopeCapExceeded, match="18 vertices"):
        facets(poly, vertex_cap=17)
    with pytest.raises(PolytopeCapExceeded, match="dimension 6"):
        facets(poly, dim_cap=5)
    # int64 stays exact only up to dimension 16, whatever the cap asks
    simplex = LatticePolytope(tuple(range(17)), ((0,) * 17,) + tuple(
        tuple(int(i == j) for i in range(17)) for j in range(17)), tuple(range(18)))
    with pytest.raises(PolytopeCapExceeded, match="dimension 17 above the cap 16"):
        facets(simplex, dim_cap=20)


def test_non_01_vertex_rejected():
    poly = LatticePolytope((0, 1), ((0, 0), (1, 0), (0, 2)), (0, 1, 2))
    with pytest.raises(ValueError, match="0/1 vertices"):
        facets(poly)


def test_isolated_source_vertex_rejected():
    # the isolated vertex's image is invisible to the edge coordinates, so
    # two homomorphisms would share one polytope vertex
    with pytest.raises(ValueError, match="vertex on no edge"):
        build_polytope(Graph(3, [(0, 1)]), G.complete(3))
