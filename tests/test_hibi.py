import random
from itertools import combinations

import pytest

from homtoric import graph as G
from homtoric import hibi, homset
from homtoric.hibi import (Poset, PosetError, all_posets,
                           build_bp, hibi_vs_topgraded, lower, lower_ideals,
                           parse_poset_text, upper, xi, xi_bijection)
from homtoric.indep import IndepSystem, top_graded
from homtoric.util import ResourceCapExceeded

from helpers import naive_all_posets, naive_independent_sets


def test_poset_transitive_closure():
    p = Poset(3, [(0, 1), (1, 2)])
    assert p.le(0, 2)
    assert not p.le(2, 0)


def test_poset_rejects_cycles():
    with pytest.raises(PosetError):
        Poset(2, [(0, 1), (1, 0)])


def test_lower_ideals_chain_and_antichain():
    chain = Poset(2, [(0, 1)])
    assert [sorted(s) for s in lower_ideals(chain)] == [[], [0], [0, 1]]
    anti = Poset(2, [])
    assert len(lower_ideals(anti)) == 4
    chain5 = Poset(5, [(i, i + 1) for i in range(4)])
    assert len(lower_ideals(chain5)) == 6


def test_lower_ideal_cap_is_a_resource_cap(monkeypatch):
    anti = Poset(3, [])     # 8 lower ideals
    monkeypatch.setattr(hibi, "IDEAL_CAP", 7)
    with pytest.raises(hibi.PosetTooLarge, match="too many lower ideals"):
        lower_ideals(anti)
    monkeypatch.setattr(hibi, "IDEAL_CAP", 8)
    assert len(lower_ideals(anti)) == 8
    assert issubclass(hibi.PosetTooLarge, ResourceCapExceeded)
    assert not issubclass(hibi.PosetTooLarge, ValueError)


def test_lower_ideal_cap_fires_before_the_sets_are_built():
    # the 20-element antichain has 2**20 lower ideals, above IDEAL_CAP;
    # they are counted on bitmasks, so the cap fires at once
    assert 2**20 > hibi.IDEAL_CAP
    with pytest.raises(hibi.PosetTooLarge, match="too many lower ideals"):
        lower_ideals(Poset(20, []))


def test_lower_ideals_match_the_subset_search():
    # the bitmask closure test and its (size, lex) order against a search
    # over every subset
    rng = random.Random(7)
    for n in range(7):
        for _ in range(6):
            poset = Poset(n, [(a, b) for a, b in combinations(range(n), 2) if rng.random() < 0.3])
            subsets = [frozenset(c) for k in range(n + 1) for c in combinations(range(n), k)]
            ideals = [s for s in subsets
                      if all(a in s for b in s for a in range(n) if poset.le(a, b))]
            assert lower_ideals(poset) == sorted(ideals, key=lambda s: (len(s), sorted(s)))


def test_build_bp_chain():
    # chain a < b: edges (a,l)-(a,u), (b,l)-(b,u), (b,l)-(a,u)
    p = Poset(2, [(0, 1)])
    bp = build_bp(p)
    assert bp.edges == frozenset({(lower(0), upper(0)),
                                  tuple(sorted((lower(1), upper(1)))),
                                  tuple(sorted((lower(1), upper(0))))})


def test_build_bp_antichain_is_matching():
    p = Poset(4, [])
    bp = build_bp(p)
    assert bp.edges == frozenset(tuple(sorted((lower(i), upper(i))))
                                 for i in range(4))


def test_bp_always_bipartite():
    for p in all_posets(4):
        bp = build_bp(p)
        bip = G.is_bipartite(bp)
        assert bip is not None


def test_xi_extremes():
    p = Poset(3, [(0, 1)])
    assert xi(p, frozenset()) == frozenset({upper(i) for i in range(3)})
    assert xi(p, frozenset(range(3))) == frozenset({lower(i) for i in range(3)})


def test_xi_bijection_small_posets():
    for n in range(1, 5):
        for p in all_posets(n):
            bij = xi_bijection(p)
            # count equals brute-force maximum independent sets
            bp = build_bp(p)
            maximum = [s for s in naive_independent_sets(bp) if len(s) == p.n]
            assert len(bij.ideals) == len(maximum)
            assert set(bij.images) == set(maximum)


def _broken_xi(kind):
    """xi with one fault: ``drop`` leaves a vertex out of the image of the
    empty ideal, ``merge`` sends the whole poset to that image too, and
    ``swap`` trades upper(1) for lower(0) there, which is adjacent to
    upper(0)."""
    def broken(poset, ideal):
        if kind == "merge" and len(ideal) == poset.n:
            ideal = frozenset()
        image = xi(poset, ideal)
        if ideal or kind == "merge":
            return image
        return image - {upper(0)} if kind == "drop" else image - {upper(1)} | {lower(0)}
    return broken


@pytest.mark.parametrize("kind, message", [("drop", "wrong cardinality"),
                                           ("merge", "not a bijection"),
                                           ("swap", "is not independent")])
def test_xi_checks_catch_a_broken_xi(monkeypatch, kind, message):
    vee = Poset(3, [(0, 1), (0, 2)])
    monkeypatch.setattr(hibi, "xi", _broken_xi(kind))
    with pytest.raises(AssertionError, match=message):
        xi_bijection(vee)
    with pytest.raises(AssertionError, match="top variables disagree with the xi images"):
        hibi_vs_topgraded(vee)


def test_xi_checks_catch_two_ideals_with_one_image(monkeypatch):
    # the ideals listed with one of them twice: the images cover every
    # maximum independent set, but one of them twice
    vee = Poset(3, [(0, 1), (0, 2)])
    ideals = lower_ideals(vee)
    monkeypatch.setattr(hibi, "lower_ideals", lambda poset: ideals + ideals[:1])
    with pytest.raises(AssertionError, match="not a bijection"):
        xi_bijection(vee)
    with pytest.raises(AssertionError, match="top variables disagree with the xi images"):
        hibi_vs_topgraded(vee)


def test_xi_bijection_inherits_the_hom_caps(monkeypatch):
    # the ideals are listed first, so the ideal cap fires before the
    # search cap; the B_P of a 20-element chain has 2**40 assignments into
    # the spoon, above SEARCH_CAP
    with pytest.raises(homset.HomTooLarge, match=r"= 2\*\*40 exceeds the cap"):
        xi_bijection(Poset(20, [(i, i + 1) for i in range(19)]))
    monkeypatch.setattr(homset, "SEARCH_CAP", 2 ** 6 - 1)
    with pytest.raises(homset.HomTooLarge, match=r"= 2\*\*6 exceeds the cap"):
        xi_bijection(Poset(3, []))
    monkeypatch.setattr(hibi, "IDEAL_CAP", 7)
    with pytest.raises(hibi.PosetTooLarge, match="too many lower ideals"):
        xi_bijection(Poset(3, []))
    assert len(xi_bijection(Poset(2, [])).images) == 4


def test_alpha_of_bp_is_poset_size():
    for p in all_posets(4):
        bp = build_bp(p)
        alpha = max(len(s) for s in naive_independent_sets(bp))
        assert alpha == p.n


def test_hibi_comparison_examples():
    chain2 = hibi_vs_topgraded(Poset(2, [(0, 1)]))
    assert len(chain2.hibi_basis) == 0
    assert chain2.generators_match and chain2.mutual_generation

    anti2 = hibi_vs_topgraded(Poset(2, []))
    assert len(anti2.hibi_basis) == 1
    assert anti2.generators_match and anti2.mutual_generation

    vee = hibi_vs_topgraded(Poset(3, [(0, 1), (0, 2)]))
    assert len(vee.hibi_basis) == 1
    assert vee.generators_match and vee.mutual_generation


def test_hibi_relations_are_members():
    for p in all_posets(4):
        cmp = hibi_vs_topgraded(p)
        assert cmp.memberships
        assert cmp.mutual_generation


def test_top_graded_of_chain_bp_matches_relations():
    # two-element chain: both routes give the trivial ideal
    p = Poset(2, [(0, 1)])
    bp = build_bp(p)
    top = top_graded(IndepSystem(bp))
    assert len(top.basis) == 0
    assert len(top.vars) == 3


def test_poset_text_parsing():
    p = parse_poset_text("# demo\np 3\nc 0 1\nc 1 2\n")
    assert p.le(0, 2)
    with pytest.raises(PosetError):
        parse_poset_text("c 0 1\n")
    with pytest.raises(PosetError):
        parse_poset_text("p 2\nz 0 1\n")


def _as_relations(posets):
    return [(p.n, p.leq) for p in posets]


def test_all_posets_match_naive():
    # same posets, same order, same representatives as the one-assignment
    # loop; the counts are OEIS A000112
    for n, count in zip(range(1, 6), (1, 2, 5, 16, 63)):
        got = all_posets(n)
        assert len(got) == count
        assert _as_relations(got) == _as_relations(naive_all_posets(n))


def test_all_posets_block_boundaries(monkeypatch):
    # classes that first appear in a later block keep their product-order
    # representative, and classes seen in an earlier block stay dropped
    expected = _as_relations(naive_all_posets(4))
    for block in (1, 7, 100):
        monkeypatch.setattr(hibi, "BLOCK", block)
        assert _as_relations(all_posets(4)) == expected
