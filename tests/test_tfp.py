import random

import pytest

from homtoric import graph as G
from homtoric.graph import Graph
from homtoric.homset import HomTooLarge
from homtoric.tfp import (GlueError, GlueSpec, LiftTooLarge, _distinct_matchings,
                          check_codim_zero, forest_pipeline, glue_basis, glue_grobner,
                          outerplanar_pipeline, trivial_weighted_basis)
from homtoric.toric import (Binomial, OrientedBasis, build_system, markov_basis,
                            markov_width, verify_grobner, verify_markov)

from helpers import naive_distinct_matchings, naive_glue_basis


def diamond():
    return Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def fan(n):
    """Triangulated polygon: center 0 joined to a path 1..n-1."""
    edges = [(0, i) for i in range(1, n)] + [(i, i + 1) for i in range(1, n - 1)]
    return Graph(n, edges)


def degree12_binomial(system):
    def var(s):
        return system.homs.index[tuple(int(c) - 1 for c in s)]
    left = [var(s) for s in "123 214 341 432 231 142 413 324 312 421 134 243".split()]
    right = [var(s) for s in "124 213 342 431 234 143 412 321 314 423 132 241".split()]
    return Binomial.make(left, right)


# ---------------------------------------------------------------------------
# separations and the codimension check

def test_gluespec_rejects_crossing_edge():
    with pytest.raises(GlueError):
        GlueSpec(G.cycle(4), [0, 1], [2, 3], G.spoon())


def test_gluespec_rejects_uncovered_vertex():
    with pytest.raises(GlueError):
        GlueSpec(G.path(4), [0, 1], [1, 2], G.spoon())


def test_gluespec_applies_its_caps():
    # the caps bound every system of the spec, so no later call can skip them
    with pytest.raises(HomTooLarge):
        GlueSpec(G.path(3), [0, 1], [1, 2], G.complete(3), count_cap=2)


def test_codim_zero_small_intersections():
    sp = G.spoon()
    # K2 intersection
    assert check_codim_zero(GlueSpec(diamond(), [0, 1, 2], [1, 2, 3], sp))
    assert check_codim_zero(GlueSpec(diamond(), [0, 1, 2], [1, 2, 3], G.complete(4)))
    # K1 intersection
    assert check_codim_zero(GlueSpec(G.path(3), [0, 1], [1, 2], sp))
    assert check_codim_zero(GlueSpec(G.path(3), [0, 1], [1, 2], G.complete(3)))
    # empty intersection
    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert check_codim_zero(GlueSpec(two_edges, [0, 1], [2, 3], sp))
    # looped-vertex intersection
    looped = Graph(3, [(0, 1), (1, 1), (1, 2)])
    assert check_codim_zero(GlueSpec(looped, [0, 1], [1, 2], G.complete_looped(2)))


def test_codim_zero_failures():
    sp = G.spoon()
    # path-of-length-two intersection is dependent for the spoon target
    assert not check_codim_zero(GlueSpec(G.path(5), [0, 1, 2, 3], [1, 2, 3, 4], sp))
    # two shared vertices without the edge: dependent
    assert not check_codim_zero(GlueSpec(G.cycle(4), [0, 1, 2], [0, 2, 3], sp))


def test_glue_rejected_when_dependent():
    spec = GlueSpec(G.cycle(4), [0, 1, 2], [0, 2, 3], G.spoon())
    with pytest.raises(GlueError):
        glue_basis(spec, OrientedBasis.make(()), OrientedBasis.make(()))


# ---------------------------------------------------------------------------
# gluing generating sets

def test_glue_two_triangles_over_edge():
    sp = G.spoon()
    spec = GlueSpec(diamond(), [0, 1, 2], [1, 2, 3], sp)
    tri = markov_basis(build_system(G.complete(3), sp), 3).basis
    res = glue_basis(spec, tri, tri)
    system = build_system(diamond(), sp)
    assert verify_markov(system, res.basis, 3)
    assert markov_width(system, 3) <= 2
    assert not res.truncated


def test_glue_path_from_edges_quad_only():
    for h in (G.spoon(), G.complete(3), G.complete_looped(2)):
        spec = GlueSpec(G.path(3), [0, 1], [1, 2], h)
        empty = OrientedBasis.make(())
        res = glue_basis(spec, empty, empty)
        assert res.basis.degrees() in ([], [2])
        assert res.basis.is_squarefree()
        system = build_system(G.path(3), h)
        assert verify_markov(system, res.basis, 3)


def test_glue_degree_bound():
    # glued degrees never exceed max(2, input degrees)
    sp = G.spoon()
    spec = GlueSpec(diamond(), [0, 1, 2], [1, 2, 3], sp)
    tri = markov_basis(build_system(G.complete(3), sp), 3).basis
    res = glue_basis(spec, tri, tri)
    bound = max([2] + [b.degree for b in tri])
    assert all(b.degree <= bound for b in res.basis)


def test_glue_squarefree_preserved():
    spec = GlueSpec(fan(4), [0, 1, 2], [0, 2, 3], G.complete(4))
    base = OrientedBasis.make([degree12_binomial(build_system(G.complete(3), G.complete(4)))])
    res = glue_basis(spec, base, base, lift_cap=10000, allow_truncation=True)
    assert res.basis.is_squarefree()
    assert set(res.degrees_full) == {2, 12}


def test_lift_cap_raises_without_truncation():
    spec = GlueSpec(fan(4), [0, 1, 2], [0, 2, 3], G.complete(4))
    base = OrientedBasis.make([degree12_binomial(build_system(G.complete(3), G.complete(4)))])
    with pytest.raises(LiftTooLarge):
        glue_basis(spec, base, base, lift_cap=100)


def test_distinct_matchings_in_first_occurrence_order():
    for ps, qs in (([0, 0, 1, 2], [3, 4, 4, 5]), ([1, 1, 2, 2], [0, 3, 3, 5]),
                   ([7, 7, 7], [1, 2, 2]), ([4], [9])):
        assert _distinct_matchings(ps, qs) == naive_distinct_matchings(ps, qs)


def test_truncated_glue_matches_per_binomial_budgets():
    k4 = build_system(G.complete(3), G.complete(4))
    base = OrientedBasis.make([degree12_binomial(k4)])
    tri = markov_basis(build_system(G.complete(3), G.spoon()), 3).basis
    # two 4-cycles on vertex 0: factors share intersection classes, so
    # lifts repeat and matchings need deduplication
    bowtie = GlueSpec(Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6), (0, 6)]),
                      [0, 1, 2, 3], [0, 4, 5, 6], G.complete(3))
    cases = [(GlueSpec(fan(4), [0, 1, 2], [0, 2, 3], G.complete(4)), base, base,
              (0, 1, 2, 7, 50, 499, 500, 501, 4000, 12000)),
             (GlueSpec(diamond(), [0, 1, 2], [1, 2, 3], G.spoon()), tri, tri,
              (0, 3, 10, 40, 10**6)),
             (bowtie, markov_basis(bowtie.sys1, 2).basis, markov_basis(bowtie.sys2, 2).basis,
              (0, 5, 300, 10**6))]
    for spec, b1, b2, caps in cases:
        for cap in caps:
            assert (glue_basis(spec, b1, b2, lift_cap=cap, allow_truncation=True)
                    == naive_glue_basis(spec, b1, b2, cap))


# ---------------------------------------------------------------------------
# lifted orientations

def build_tree_grobner(tree, h):
    def build(graph):
        if len(graph.edges) <= 1:
            return trivial_weighted_basis(build_system(graph, h))
        degs = {v: len(graph.neighbors(v)) for v in range(graph.n)}
        leaf = max(v for v in range(graph.n) if degs[v] == 1)
        side1 = [v for v in range(graph.n) if v != leaf]
        side2 = [leaf, next(iter(graph.neighbors(leaf)))]
        spec = GlueSpec(graph, side1, side2, h)
        gb1 = build(spec.sub1.graph)
        gb2 = trivial_weighted_basis(spec.sys2)
        return glue_grobner(spec, gb1, gb2)
    return build(tree)


def test_glue_grobner_trees_verify():
    rng = random.Random(17)
    targets = [G.spoon(), G.complete(3), G.path(3)]
    for _ in range(6):
        n = rng.randint(3, 6)
        # random tree by attaching each vertex to an earlier one
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        tree = Graph(n, edges)
        h = targets[rng.randrange(3)]
        gb = build_tree_grobner(tree, h)
        system = build_system(tree, h)
        assert verify_grobner(system, gb, 3)
        assert gb.is_squarefree()
        assert gb.degree <= 2


def test_glue_grobner_disjoint_union():
    two = Graph(4, [(0, 1), (2, 3)])
    spec = GlueSpec(two, [0, 1], [2, 3], G.complete(3))
    gb1 = trivial_weighted_basis(spec.sys1)
    gb2 = trivial_weighted_basis(spec.sys2)
    gb = glue_grobner(spec, gb1, gb2)
    system = build_system(two, G.complete(3))
    assert verify_grobner(system, gb, 3)


def test_glue_grobner_needs_weights():
    spec = GlueSpec(G.path(3), [0, 1], [1, 2], G.spoon())
    with pytest.raises(GlueError):
        glue_grobner(spec, OrientedBasis.make(()), OrientedBasis.make(()))


# ---------------------------------------------------------------------------
# pipelines

def test_forest_pipeline_star():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    for h in (G.spoon(), G.complete(3), G.path(3)):
        res = forest_pipeline(star, h)
        assert res.basis.is_squarefree()
        assert res.basis.degree <= 2
        assert verify_markov(res.system, res.basis, 3)
        assert res.witness.normal and res.witness.cohen_macaulay


def test_forest_pipeline_disconnected():
    forest = Graph(5, [(0, 1), (2, 3), (3, 4)])
    res = forest_pipeline(forest, G.spoon())
    assert verify_markov(res.system, res.basis, 3)
    # an isolated vertex is a one-vertex tree
    with_isolated = Graph(4, [(0, 1), (1, 2)])
    res = forest_pipeline(with_isolated, G.spoon())
    assert res.basis.is_squarefree() and res.basis.degree <= 2


def test_forest_pipeline_isolated_vertex_verifies():
    # maps that differ only on the isolated vertex are equal columns, joined
    # by one linear binomial each besides the first of their class
    with_isolated = Graph(4, [(0, 1), (1, 2)])
    for h, linear in ((G.spoon(), 5), (G.complete(3), 24), (G.path(3), 12)):
        res = forest_pipeline(with_isolated, h)
        assert sum(b.degree == 1 for b in res.basis) == linear
        assert verify_markov(res.system, res.basis, 3)


def test_forest_pipeline_rejects_cycles_and_loops():
    with pytest.raises(GlueError):
        forest_pipeline(G.cycle(3), G.spoon())
    with pytest.raises(GlueError):
        forest_pipeline(G.spoon(), G.spoon())
    # a cycle next to an isolated vertex or next to a tree is still a cycle
    with pytest.raises(GlueError):
        forest_pipeline(Graph(4, [(0, 1), (1, 2), (0, 2)]), G.spoon())
    with pytest.raises(GlueError):
        forest_pipeline(Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]), G.spoon())


def test_outerplanar_pentagon_fan_spoon():
    res = outerplanar_pipeline(fan(5), G.spoon())
    assert verify_markov(res.system, res.basis, 3)
    assert markov_width(res.system, 3) == 2
    assert set(res.degrees_full) <= {2}


def test_outerplanar_pentagon_fan_k4_degrees():
    base = OrientedBasis.make([degree12_binomial(build_system(G.complete(3), G.complete(4)))])
    res = outerplanar_pipeline(fan(5), G.complete(4), base_basis=base,
                               lift_cap=20000, allow_truncation=True,
                               base_normal=True)
    assert set(res.degrees_full) == {2, 12}
    assert 12 in res.basis.degrees()
    assert res.truncated
    assert res.witness.normal


def test_outerplanar_rejects_non_triangulations():
    with pytest.raises(GlueError):
        outerplanar_pipeline(G.cycle(5), G.spoon())
    with pytest.raises(GlueError):
        outerplanar_pipeline(G.complete(4), G.spoon())
