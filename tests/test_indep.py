import random

import pytest

from homtoric import graph as G
from homtoric.graph import Graph
from homtoric.indep import (IndepSystem, MultiDegree, almost_bipartite_grobner,
                            bipartite_grobner, complement_cycle_basis,
                            multidegree, top_graded)
from homtoric.toric import Binomial, iter_fibers, markov_basis, verify_grobner, verify_markov

from helpers import MoveIndex, is_chain_monomial, naive_image


def names(isys, b):
    return (tuple(isys.set_name(v) for v in b.plus),
            tuple(isys.set_name(v) for v in b.minus))


# ---------------------------------------------------------------------------
# multidegree

def test_multidegree_of_empty_power():
    isys = IndepSystem(G.cycle(4))
    empty = isys.var(())
    md = multidegree(isys, (empty, empty, empty))
    assert md == MultiDegree(3, (0, 0, 0, 0))


def test_multidegree_pair_equality():
    isys = IndepSystem(G.cycle(4))
    m = (isys.var({0, 2}), isys.var(()))
    n = (isys.var({0}), isys.var({2}))
    assert multidegree(isys, m) == multidegree(isys, n)
    assert isys.system.membership(Binomial.make(m, n))


def test_multidegree_characterizes_membership():
    # same degree + same multidegree <=> same edge statistics, on random
    # isolated-free sources
    rng = random.Random(3)
    for _ in range(8):
        n = rng.randint(3, 5)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.6])
        if not all(g.degree_on_edge(v) for v in range(n)):
            continue
        isys = IndepSystem(g)
        monos = [(i, j, k) for i in range(isys.num_vars)
                 for j in range(i, isys.num_vars)
                 for k in range(j, isys.num_vars)]
        rng.shuffle(monos)
        for m in monos[:40]:
            for p in monos[:40]:
                lhs = naive_image(isys.system, m) == naive_image(isys.system, p)
                rhs = multidegree(isys, m) == multidegree(isys, p)
                assert lhs == rhs


def test_multidegree_fails_with_isolated_vertex():
    # a vertex on no edge is invisible to the edge statistics
    g = Graph(3, [(0, 1)])
    isys = IndepSystem(g)
    m = (isys.var({2}),)
    n = (isys.var(()),)
    assert naive_image(isys.system, m) == naive_image(isys.system, n)
    assert multidegree(isys, m) != multidegree(isys, n)


# ---------------------------------------------------------------------------
# bipartite sorting basis

def test_bipartite_grobner_c4_exact():
    isys = IndepSystem(G.cycle(4))
    basis = bipartite_grobner(isys)
    got = {names(isys, b) for b in basis}
    assert got == {(("{0}", "{2}"), ("{0,2}", "{}")),
                   (("{1}", "{3}"), ("{1,3}", "{}"))}


def test_bipartite_grobner_k2_empty():
    isys = IndepSystem(G.complete(2))
    assert len(bipartite_grobner(isys)) == 0


def test_bipartite_grobner_p4_verifies():
    isys = IndepSystem(G.path(4))
    basis = bipartite_grobner(isys)
    assert verify_grobner(isys.system, basis, 4)


def test_normal_form_fixpoint():
    # the chain monomial of C4 is a sink of the sorting moves
    isys = IndepSystem(G.cycle(4))
    index = MoveIndex(bipartite_grobner(isys))
    m = tuple(sorted((isys.var(()), isys.var({0, 2}))))
    assert index.directed_neighbors(m) == []


def test_normal_form_c4_reduction():
    isys = IndepSystem(G.cycle(4))
    index = MoveIndex(bipartite_grobner(isys))
    m = tuple(sorted((isys.var({0}), isys.var({2}))))
    assert index.directed_neighbors(m) == [tuple(sorted((isys.var(()), isys.var({0, 2}))))]


def test_normal_form_constant_on_fibers_bipartite():
    # the sorting moves lead every fiber to a single sink, its chain monomial
    for g in (G.cycle(4), G.path(5), G.cycle(6)):
        isys = IndepSystem(g)
        bip = G.is_bipartite(g)
        index = MoveIndex(bipartite_grobner(isys, bip))
        for t in (2, 3):
            for _, monos in iter_fibers(isys.system, t, min_size=2):
                sinks = [m for m in monos if not index.directed_neighbors(m)]
                assert len(sinks) == 1
                assert is_chain_monomial(isys, bip.part1, sinks[0])


def test_bipartite_grobner_requires_bipartite():
    with pytest.raises(ValueError):
        bipartite_grobner(IndepSystem(G.cycle(5)))


def test_bipartite_grobner_members_squarefree_quadratic():
    for g in (G.cycle(6), G.path(5), Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])):
        isys = IndepSystem(g)
        basis = bipartite_grobner(isys)
        assert basis.is_squarefree()
        assert basis.degree <= 2
        for b in basis:
            assert isys.system.membership(b)


# ---------------------------------------------------------------------------
# almost-bipartite basis

def test_almost_bipartite_c5_contains_worked_generators():
    isys = IndepSystem(G.cycle(5))
    tagged = almost_bipartite_grobner(isys)
    keys = {b.unordered_key() for b in tagged.basis}

    def key(plus_sets, minus_sets):
        b = Binomial.make(tuple(isys.var(s) for s in plus_sets),
                          tuple(isys.var(s) for s in minus_sets))
        return b.unordered_key()

    # apex 0; worked example written with apex 1 in 1-based labels
    assert key(({1}, {3}), ({1, 3}, ())) in keys           # uncovered
    assert key(({2}, {4}), ({2, 4}, ())) in keys           # uncovered
    assert key(({0}, {1, 3}), ({0, 3}, {1})) in keys       # mixed
    assert key(({0}, {2, 4}), ({0, 2}, {4})) in keys       # mixed
    assert key(({0, 2}, {3}), ({0, 3}, {2})) in keys       # mixed
    tags = {tagged.tags[b] for b in tagged.basis}
    assert tags <= {"uncovered", "covered", "mixed"}


def test_almost_bipartite_c5_c7_verify():
    for n in (5, 7):
        isys = IndepSystem(G.cycle(n))
        tagged = almost_bipartite_grobner(isys)
        assert tagged.basis.is_squarefree()
        assert tagged.basis.degree <= 2
        assert verify_grobner(isys.system, tagged.basis, 4)


def test_almost_bipartite_on_bipartite_restricts_to_sorting_basis():
    # apex-free part of the basis = sorting basis of the graph minus apex
    g = G.path(4)
    isys = IndepSystem(g)
    tagged = almost_bipartite_grobner(isys)
    apex = tagged.labeling.apex
    assert apex == 0
    sub = G.induced_subgraph(g, [v for v in range(g.n) if v != apex])
    isub = IndepSystem(sub.graph)
    expected = set()
    for b in bipartite_grobner(isub):
        relabel = lambda m: tuple(sorted(
            isys.var(frozenset(sub.vertices[x] for x in isub.sets[v])) for v in m))
        expected.add((relabel(b.plus), relabel(b.minus)))
    got = {(b.plus, b.minus) for b in tagged.basis
           if tagged.tags[b] == "uncovered"}
    assert got == expected


def test_almost_bipartite_random_graphs_verify():
    rng = random.Random(41)
    found = 0
    while found < 6:
        n = rng.randint(4, 6)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.5])
        if not all(g.degree_on_edge(v) for v in range(n)):
            continue
        if G.is_bipartite(g) is not None or G.is_almost_bipartite(g) is None:
            continue
        found += 1
        isys = IndepSystem(g)
        tagged = almost_bipartite_grobner(isys)
        assert verify_grobner(isys.system, tagged.basis, 3)


def test_sorting_basis_rejects_isolated_vertices():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        bipartite_grobner(IndepSystem(g))


# ---------------------------------------------------------------------------
# top graded part

def test_top_graded_c4_trivial():
    isys = IndepSystem(G.cycle(4))
    top = top_graded(isys)
    assert top.alpha == 2
    assert {frozenset(s) for s in top.sets} == {frozenset({0, 2}), frozenset({1, 3})}
    assert len(top.basis) == 0


def test_top_graded_complete_trivial():
    isys = IndepSystem(G.complete(4))
    top = top_graded(isys)
    assert top.alpha == 1
    assert len(top.sets) == 4
    assert len(top.basis) == 0


def test_top_graded_cycle6():
    isys = IndepSystem(G.cycle(6))
    top = top_graded(isys)
    assert top.alpha == 3
    assert {frozenset(s) for s in top.sets} == {frozenset({0, 2, 4}), frozenset({1, 3, 5})}


def test_top_graded_membership_checks_variable_range():
    top = top_graded(IndepSystem(G.cycle(6)))
    with pytest.raises(IndexError):
        top.subsystem.membership(Binomial((-1,), (0,)))
    with pytest.raises(IndexError):
        top.subsystem.membership(Binomial((0,), (len(top.vars),)))


# ---------------------------------------------------------------------------
# complements of even cycles

def test_complement_cycle_k2():
    isys, basis, special = complement_cycle_basis(2)
    assert special.degree == 2
    assert verify_markov(isys.system, basis, 3)
    assert markov_basis(isys.system, 3).width == 2


def test_complement_cycle_k3_matches_prism():
    isys, basis, special = complement_cycle_basis(3)
    assert special.degree == 3
    assert special.unordered_key() == Binomial.make(
        (isys.var({0, 1}), isys.var({2, 3}), isys.var({4, 5})),
        (isys.var({1, 2}), isys.var({3, 4}), isys.var({5, 0}))).unordered_key()
    assert verify_markov(isys.system, basis, 4)


def test_complement_cycle_k4_width():
    isys, basis, special = complement_cycle_basis(4)
    assert special.degree == 4
    assert verify_markov(isys.system, basis, 5)
    assert markov_basis(isys.system, 5).width == 4


def test_complement_cycle_rejects_k1():
    with pytest.raises(ValueError):
        complement_cycle_basis(1)
