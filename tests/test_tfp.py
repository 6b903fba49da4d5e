import random
from collections import Counter
from itertools import accumulate, chain, combinations_with_replacement, product

import pytest

from homtoric import graph as G
from homtoric import tfp
from homtoric.graph import Graph
from homtoric.homset import HomTooLarge
from homtoric.tfp import (GlueError, GlueSpec, LiftTooLarge, _distinct_matchings, _matchings,
                          _pairing_count, _pairings, check_codim_zero, forest_pipeline,
                          glue_basis, glue_grobner, outerplanar_pipeline)
from homtoric.toric import (Binomial, OrientedBasis, build_system, markov_basis,
                            verify_grobner, verify_markov)

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
    assert markov_basis(system, 3).width <= 2
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
    def pattern(xs):
        return tuple(sorted(Counter(xs).values()))

    cases = [([0, 0, 1, 2], [3, 4, 4, 5]), ([1, 1, 2, 2], [0, 3, 3, 5]), ([7, 7, 7], [1, 2, 2])]
    # every pair of sorted multisets of one size up to 6 over at most 3 values
    for k in range(1, 7):
        sets = [list(c) for c in combinations_with_replacement(range(3), k)]
        cases += product(sets, sets)
    for ps, qs in cases:
        naive = naive_distinct_matchings(ps, qs)
        assert [tuple(zip(ps, m)) for m in _distinct_matchings(ps, qs, [0] * len(ps))] == naive
        assert _pairing_count(pattern(ps), pattern(qs)) == len(naive)


def test_matchings_stay_inside_classes():
    # two classes: the product of each class's pairings, first class slowest
    ps, qs, cls = [0, 0, 1, 5, 6], [2, 3, 3, 7, 8], [0, 0, 0, 1, 1]
    expected = [a + b for a in _distinct_matchings(ps[:3], qs[:3], cls[:3])
                for b in _distinct_matchings(ps[3:], qs[3:], cls[3:])]
    assert list(_distinct_matchings(ps, qs, cls)) == expected
    assert len(expected) == _pairing_count((1, 2), (1, 2)) * _pairing_count((1, 1), (1, 1))
    assert _pairing_count((1,) * 12, (1,) * 12) == 479001600


def test_matching_tables_per_run_pattern_match_distinct_matchings():
    # every run pattern up to degree 4: per position after the first, a
    # new class (so new plus and minus runs), or in one class a new plus
    # run or not and a new minus run or not.  The pattern's table of
    # minus positions, read at actual values, lists _distinct_matchings
    # in order, any prefix of it too, and in full has _pairings rows
    steps = ((1, 1, 1), (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1))
    patterns = 0
    for d in range(1, 5):
        for flags in product(steps, repeat=d - 1):
            flags = ((1, 1, 1),) + flags
            cls, p, q = (list(accumulate(f[o] for f in flags)) for o in range(3))
            ps, qs = ([10 * c + v for c, v in zip(cls, side)] for side in (p, q))
            starts = bytes(chain(*flags, (1, 1, 1)))    # as _lift_run keys an element
            full = list(_distinct_matchings(ps, qs, cls))
            assert _pairings(starts) == len(full)
            for count in range(1, len(full) + 1):
                rows = _matchings(starts, count).tolist()
                assert [tuple(qs[j] for j in row) for row in rows] == full[:count]
            patterns += 1
    assert patterns == 1 + 5 + 25 + 125


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


def _recorded_glues(monkeypatch, run):
    """Every glue_basis call that ``run`` makes: its spec, bases and result."""
    calls = []

    def record(spec, b1, b2, **kw):
        calls.append((spec, b1, b2, glue_basis(spec, b1, b2, **kw)))
        return calls[-1][-1]
    monkeypatch.setattr(tfp, "glue_basis", record)
    run()
    monkeypatch.undo()
    return calls


def test_forest_glues_match_naive(monkeypatch):
    # the 35 tree shapes of the forest-verify benchmark into its 3 targets
    def run():
        shapes = random.Random(20240801)
        for n in range(2, 7):
            for _ in range(7):
                tree = Graph(n, [(shapes.randrange(v), v) for v in range(1, n)])
                for h in (G.spoon(), G.complete(3), G.path(3)):
                    forest_pipeline(tree, h)
    calls = _recorded_glues(monkeypatch, run)
    assert len(calls) == 210
    for spec, b1, b2, res in calls:
        assert res == naive_glue_basis(spec, b1, b2, 500_000)


def test_fan_k4_glues_match_naive(monkeypatch):
    base = OrientedBasis.make([degree12_binomial(build_system(G.complete(3), G.complete(4)))])
    for cap in (5000, 20000):
        calls = _recorded_glues(monkeypatch, lambda: outerplanar_pipeline(
            fan(5), G.complete(4), base_basis=base, lift_cap=cap, allow_truncation=True))
        assert len(calls) == 2
        for spec, b1, b2, res in calls:
            assert res == naive_glue_basis(spec, b1, b2, cap)
        assert res.truncated


def test_lift_blocks_cut_inside_an_element(monkeypatch):
    # blocks of 7 rows: caps end lifts mid-block, mid-matching and mid-element
    monkeypatch.setattr(tfp, "BLOCK", 7)
    base = OrientedBasis.make([degree12_binomial(build_system(G.complete(3), G.complete(4)))])
    spec = GlueSpec(fan(4), [0, 1, 2], [0, 2, 3], G.complete(4))
    for cap in (1, 6, 7, 8, 13, 15, 4095, 4097):
        assert (glue_basis(spec, base, base, lift_cap=cap, allow_truncation=True)
                == naive_glue_basis(spec, base, base, cap))


def _bowtie():
    """Two 4-cycles on vertex 0 into K3, with each side's Markov basis."""
    spec = GlueSpec(Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6), (0, 6)]),
                    [0, 1, 2, 3], [0, 4, 5, 6], G.complete(3))
    return spec, markov_basis(spec.sys1, 2).basis, markov_basis(spec.sys2, 2).basis


def test_elements_whose_sides_share_a_variable():
    spec, b1, b2 = _bowtie()
    # x * b stays in the ideal; its lifts share the lifts of x and strip them
    shared = [Binomial(tuple(sorted(b.plus + (v,))), tuple(sorted(b.minus + (v,))))
              for b, v in zip(b1, (0, 5, 17, 3))]
    b1 = OrientedBasis.make(list(b1) + shared)
    for cap in (0, 10, 100, 700, 10**6):
        assert (glue_basis(spec, b1, b2, lift_cap=cap, allow_truncation=True)
                == naive_glue_basis(spec, b1, b2, cap))


def test_self_move_counts_and_yields_nothing():
    spec, b1, b2 = _bowtie()
    empty = glue_basis(spec, OrientedBasis.make(()), b2)
    pool = len(spec.ys_by_class[spec.cls1[4]])
    selfmove = OrientedBasis.make([Binomial((4,), (4,))])
    res = glue_basis(spec, selfmove, b2)
    assert res.basis == empty.basis
    assert res.attempted == empty.attempted + pool
    assert res.degrees_full == (1, 2)
    for cap in (0, 1, pool, empty.attempted):
        assert (glue_basis(spec, selfmove, b2, lift_cap=cap, allow_truncation=True)
                == naive_glue_basis(spec, selfmove, b2, cap))


# ---------------------------------------------------------------------------
# lifted orientations

def build_tree_grobner(tree, h):
    def build(graph):
        if len(graph.edges) <= 1:
            return OrientedBasis((), ((),) * build_system(graph, h).num_vars)
        degs = {v: len(graph.neighbors(v)) for v in range(graph.n)}
        leaf = max(v for v in range(graph.n) if degs[v] == 1)
        side1 = [v for v in range(graph.n) if v != leaf]
        side2 = [leaf, next(iter(graph.neighbors(leaf)))]
        spec = GlueSpec(graph, side1, side2, h)
        gb1 = build(spec.sub1.graph)
        gb2 = OrientedBasis((), ((),) * spec.sys2.num_vars)
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
    gb1 = OrientedBasis((), ((),) * spec.sys1.num_vars)
    gb2 = OrientedBasis((), ((),) * spec.sys2.num_vars)
    gb = glue_grobner(spec, gb1, gb2)
    system = build_system(two, G.complete(3))
    assert verify_grobner(system, gb, 3)


def test_glue_grobner_needs_weights():
    spec = GlueSpec(G.path(3), [0, 1], [1, 2], G.spoon())
    with pytest.raises(GlueError):
        glue_grobner(spec, OrientedBasis.make(()), OrientedBasis.make(()))


def _weighted_quadratics(system, weight):
    return OrientedBasis(markov_basis(system, 2).basis.elements,
                         tuple(weight(v) for v in range(system.num_vars)))


def test_glue_grobner_needs_weights_that_separate_every_element():
    # P3 -> spoon has the one quadratic x_{0} x_{2} - x_{} x_{0,2}; equal
    # weights tie on it on whichever side of the glue it stands, and
    # weights that separate it glue
    for side1, side2 in (([0, 1, 2], [2, 3]), ([0, 1], [1, 2, 3])):
        spec = GlueSpec(G.path(4), side1, side2, G.spoon())
        tied = [_weighted_quadratics(s, lambda v: (1,)) for s in (spec.sys1, spec.sys2)]
        assert sorted(map(len, tied)) == [0, 1]
        with pytest.raises(GlueError, match="input weights do not separate a basis element"):
            glue_grobner(spec, *tied)
        apart = [_weighted_quadratics(s, lambda v: (v * v,)) for s in (spec.sys1, spec.sys2)]
        assert verify_grobner(spec.sys_union, glue_grobner(spec, *apart), 3)


# ---------------------------------------------------------------------------
# pipelines

def test_forest_pipeline_star():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    for h in (G.spoon(), G.complete(3), G.path(3)):
        res = forest_pipeline(star, h)
        assert res.basis.is_squarefree()
        assert res.basis.degree <= 2
        assert verify_markov(res.system, res.basis, 3)


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
    assert markov_basis(res.system, 3).width == 2
    assert set(res.degrees_full) <= {2}


def test_outerplanar_pentagon_fan_k4_degrees():
    base = OrientedBasis.make([degree12_binomial(build_system(G.complete(3), G.complete(4)))])
    res = outerplanar_pipeline(fan(5), G.complete(4), base_basis=base,
                               lift_cap=20000, allow_truncation=True)
    assert set(res.degrees_full) == {2, 12}
    assert 12 in res.basis.degrees()
    assert res.truncated


def test_outerplanar_rejects_non_triangulations():
    with pytest.raises(GlueError):
        outerplanar_pipeline(G.cycle(5), G.spoon())
    with pytest.raises(GlueError):
        outerplanar_pipeline(G.complete(4), G.spoon())
