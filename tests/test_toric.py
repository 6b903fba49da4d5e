import random
import tracemalloc
from bisect import bisect_right
from itertools import combinations, combinations_with_replacement
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from homtoric import graph as G
from homtoric.graph import Graph
from homtoric.indep import IndepSystem, complement_cycle_basis
from homtoric import toric
from homtoric.cli import main
from homtoric.tfp import forest_pipeline, outerplanar_pipeline
from homtoric.toric import (Binomial, OrientedBasis, ResourceCapExceeded, _rank, build_system,
                            format_binomial, iter_fibers, markov_basis, parse_basis_text,
                            strip_common, verify_grobner, verify_markov)

from helpers import (MoveIndex, engine_layer, graphs_upto_iso, hom_sources, hom_targets,
                     naive_check_basis_members, naive_fiber_is_grobner, naive_fibers,
                     naive_layer_fibers, naive_markov_basis, naive_markov_width,
                     naive_invariant, naive_membership, naive_pivot_columns,
                     naive_system_columns, naive_verify_markov, same_partition, unbucketed_layer,
                     unbucketed_markov_basis, unbucketed_verify_grobner,
                     unbucketed_verify_markov, unsettled_split)


def spoon_sets(g):
    return IndepSystem(g)


# ---------------------------------------------------------------------------
# binomial basics

def test_strip_common():
    assert strip_common((0, 1, 1, 3), (1, 2, 3)) == ((0, 1), (2,))
    assert strip_common((5, 5), (5, 5)) == ((), ())


def test_binomial_make_strips_and_rejects_zero():
    b = Binomial.make((0, 1, 1), (1, 2, 2))
    assert (b.plus, b.minus) == ((0, 1), (2, 2))
    assert not b.is_squarefree()
    assert Binomial.make((0, 1), (1, 0)) is None


# ---------------------------------------------------------------------------
# system construction

# the 12x7 incidence table of the square-into-spoon system, rows (edge, s)
# with s the part of the edge landing on the unlooped vertex; column order
# {}, {1}, {2}, {3}, {4}, {2,4}, {1,3} in 1-based vertex names.
SQUARE_MATRIX = {
    ("12", ""):  (1, 0, 0, 1, 1, 0, 0),
    ("12", "1"): (0, 1, 0, 0, 0, 0, 1),
    ("12", "2"): (0, 0, 1, 0, 0, 1, 0),
    ("23", ""):  (1, 1, 0, 0, 1, 0, 0),
    ("23", "2"): (0, 0, 1, 0, 0, 1, 0),
    ("23", "3"): (0, 0, 0, 1, 0, 0, 1),
    ("34", ""):  (1, 1, 1, 0, 0, 0, 0),
    ("34", "3"): (0, 0, 0, 1, 0, 0, 1),
    ("34", "4"): (0, 0, 0, 0, 1, 1, 0),
    ("14", ""):  (1, 0, 1, 1, 0, 0, 0),
    ("14", "1"): (0, 1, 0, 0, 0, 0, 1),
    ("14", "4"): (0, 0, 0, 0, 1, 1, 0),
}
SQUARE_COLUMNS = ["", "1", "2", "3", "4", "24", "13"]


def test_square_spoon_matrix_reproduced_exactly():
    c4 = G.cycle(4)
    system = build_system(c4, G.spoon())
    isys = IndepSystem(c4)

    def col_index(name):
        s = frozenset(int(c) - 1 for c in name)
        return isys.index[s]

    def row_index(edge_name, s_name):
        u, v = sorted(int(c) - 1 for c in edge_name)
        s = {int(c) - 1 for c in s_name}
        if u in s:
            rho = (0, 1)
        elif v in s:
            rho = (1, 0)
        else:
            rho = (1, 1)
        return system.rows.index(((u, v), rho))

    dense = [[0] * system.num_vars for _ in range(len(system.rows))]
    for j, col in enumerate(system.cols):
        for r in col:
            dense[r][j] = 1
    for (edge_name, s_name), row in SQUARE_MATRIX.items():
        r = row_index(edge_name, s_name)
        for col_name, expected in zip(SQUARE_COLUMNS, row):
            assert dense[r][col_index(col_name)] == expected, (edge_name, s_name, col_name)


def test_single_edge_system_trivial():
    for h in (G.spoon(), G.complete(3), G.complete_looped(2)):
        system = build_system(G.complete(2), h)
        cols = set(system.cols)
        assert len(cols) == system.num_vars  # distinct unit-pattern columns
        assert markov_basis(system, 3).width == 0


def test_column_sums_homogeneous():
    for g in (G.cycle(4), G.path(5), G.octahedron()):
        for h in (G.spoon(), G.complete(3)):
            system = build_system(g, h)
            assert (system.dense_matrix().sum(axis=0) == len(g.edges)).all()


def test_dense_matrix_matches_columns():
    cases = [(g, h) for g, h, _ in _fiber_cases()]
    cases += [(G.build_named("edges:3:"), G.path(3)), (G.cycle(3), G.cycle(4))]
    for g, h in cases:
        system = build_system(g, h)
        a = system.dense_matrix()
        assert a.dtype == np.int64 and a.shape == (len(system.rows), system.num_vars)
        assert a.tolist() == [[col.count(j) for col in system.cols]
                              for j in range(len(system.rows))]


def test_columns_match_the_per_map_oracle():
    def check(system):
        rows, cols = naive_system_columns(system.g, system.h, system.homs)
        assert system.rows == rows
        assert system.cols == cols
        assert all(type(j) is int for col in system.cols for j in col)
        assert system.dense_matrix().tolist() == [[col.count(j) for col in cols]
                                                  for j in range(len(rows))]

    pairs = [(g, h) for g in hom_sources() for h in hom_targets()]
    pairs += [(G.complete(3), G.octahedron()), (G.cycle(5), G.complete_looped(3))]
    for g, h in pairs:
        system = build_system(g, h)
        check(system)
        check(system.restrict_columns(range(0, system.num_vars, 2)))


# ---------------------------------------------------------------------------
# membership

def paper_var(system, digits):
    return system.homs.index[tuple(int(c) - 1 for c in digits)]


def degree12_binomial(system):
    left = [paper_var(system, s) for s in
            "123 214 341 432 231 142 413 324 312 421 134 243".split()]
    right = [paper_var(system, s) for s in
             "124 213 342 431 234 143 412 321 314 423 132 241".split()]
    return Binomial.make(left, right)


def test_membership_degree12():
    system = build_system(G.complete(3), G.complete(4))
    assert system.membership(degree12_binomial(system))


def test_membership_prism_cubic():
    isys, basis, cubic = complement_cycle_basis(3)
    assert isys.system.membership(cubic)


def test_membership_trivial_and_errors():
    system = build_system(G.path(3), G.path(3))
    assert system.membership(Binomial((0,), (0,)))
    with pytest.raises(IndexError):
        system.membership(Binomial((999,), (0,)))


def test_membership_range_ends():
    system = build_system(G.path(3), G.path(3))
    last = system.num_vars - 1
    assert system.membership(Binomial((last,), (last,)))
    for v in (-1, system.num_vars):
        with pytest.raises(IndexError, match=f"^variable {v} out of range$"):
            system.membership(Binomial((0,), (v,)))


# ---------------------------------------------------------------------------
# fibers

def _fiber_cases():
    isolated, edgeless = Graph(4, [(0, 1), (1, 2)]), Graph(2, [])
    for g in [G.path(4), G.cycle(5), G.complete(3), isolated, edgeless]:
        for h in (G.path(3), G.complete(3), G.complete_looped(2)):
            yield g, h, (2, 3)
    for g in [G.path(4), G.cycle(5), G.complete(3), G.complement(G.cycle(6)),
              isolated, edgeless]:
        yield g, G.spoon(), (1, 2, 3)


def test_fibers_match_naive_grouping():
    for g, h, degrees in _fiber_cases():
        system = build_system(g, h)
        for t in degrees:
            ours = {}
            for key, monos in iter_fibers(system, t):
                assert monos == sorted(monos)
                for m in monos:
                    ours[m] = key
            idx, fid = unbucketed_layer(system, t)
            assert sorted(ours) == list(map(tuple, idx.tolist()))
            assert same_partition([ours[m] for m in map(tuple, idx.tolist())], fid)
            naive = naive_fibers(system, t)
            assert sum(len(v) for v in naive.values()) == len(ours)
            for monos in naive.values():
                keys = {ours[m] for m in monos}
                assert len(keys) == 1
            # distinct naive fibers must get distinct keys
            reps = [monos[0] for monos in naive.values()]
            assert len({ours[m] for m in reps}) == len(reps)


def test_key_rows_independent_modulo_degree():
    # the key keeps rank [1; A] - 1 rows of A, and with the all-ones row
    # they span the row space of [1; A]
    assert build_system(G.path(7), G.complete(3)).key_matrix.shape[0] == 20
    assert build_system(G.complement(G.cycle(8)), G.spoon()).key_matrix.shape[0] == 8
    for g, h, _ in _fiber_cases():
        system = build_system(g, h)
        if not system.num_vars:         # K3 into P3
            assert system.key_matrix.shape[0] == 0
            continue
        ones = [[1] * system.num_vars]
        a = [[col.count(j) for col in system.cols] for j in range(len(system.rows))]
        key = system.key_matrix.tolist()
        assert all(row in a for row in key)
        rank = len(naive_pivot_columns(list(zip(*(ones + a)))))
        assert len(naive_pivot_columns(list(zip(*(ones + key))))) == len(key) + 1 == rank


def test_key_is_the_first_independent_rows_of_a():
    # the elimination sees no zero row, no repeat of an earlier row and no
    # edge's last used row, which are never pivots: the key is still every
    # row of A independent of the all-ones row and the rows above it
    full = build_system(G.path(4), G.complete(3))
    systems = [build_system(g, h) for g, h, _ in _fiber_cases()] + [
        full.restrict_columns(i for i, m in enumerate(full.homs.maps) if m[0] < 2),
        build_system(Graph(4, [(0, 1), (0, 2), (0, 3)]), G.spoon()),
        build_system(G.path(6), G.complete(3))]
    repeats = zeros = 0
    for system in systems:
        a = system.dense_matrix().tolist()
        pivots = naive_pivot_columns(list(zip(*([[1] * system.num_vars] + a))))
        assert system.key_matrix.tolist() == [a[p - 1] for p in pivots if p]
        zeros += sum(not any(row) for row in a)
        repeats += len(a) - len({tuple(row) for row in a})
    assert zeros and repeats


def test_mono_cap():
    system = build_system(G.cycle(6), G.spoon())
    with pytest.raises(ResourceCapExceeded):
        list(iter_fibers(system, 4, mono_cap=10))


def test_walkers_refuse_a_layer_over_the_mono_cap_up_front(tmp_path, capsys):
    # C4 -> spoon has 7 variables: the 28 monomials of degree 2 fit under
    # the cap 30, the 84 of degree 3 do not.  The cap counts these real
    # layers, not the padded ones (36 rows at cap 2), so every walker runs
    # at cap 2 and refuses at cap 3 before any block is built, where the
    # empty basis would already fail.
    system = build_system(G.cycle(4), G.spoon())
    empty = OrientedBasis.make(())
    assert comb(system.num_vars + 2, 2) == 36 > 30
    assert not verify_grobner(system, empty, 2, mono_cap=30)
    assert not verify_markov(system, empty, 2, mono_cap=30)
    assert markov_basis(system, 2, mono_cap=30) == markov_basis(system, 2)

    def built(*args):
        raise AssertionError("a block was built before the cap check")

    with mock.patch.object(toric._Layers, "_block", built):
        for walk in (lambda: verify_grobner(system, empty, 3, mono_cap=30),
                     lambda: verify_markov(system, empty, 3, mono_cap=30),
                     lambda: markov_basis(system, 3, mono_cap=30),
                     lambda: list(iter_fibers(system, 3, mono_cap=30))):
            with pytest.raises(ResourceCapExceeded,
                               match="^84 monomials of degree 3 exceed the cap 30$"):
                walk()
    basis = tmp_path / "empty.txt"
    basis.write_text("")
    code = main(["--mono-cap", "30", "verify-grobner", "cycle:4", "spoon",
                 "--basis", str(basis), "--cap", "3"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        3, "", "resource cap: 84 monomials of degree 3 exceed the cap 30\n")


def test_layers_start_at_degree_one():
    system = build_system(G.path(3), G.complete(3))
    for degree in (0, -1):
        with pytest.raises(ValueError, match="degree must be at least 1"):
            list(iter_fibers(system, degree))


# ---------------------------------------------------------------------------
# markov bases

def test_p4_p3_exact_basis():
    system = build_system(G.path(4), G.path(3))
    res = markov_basis(system, 3)
    got = {(b.plus, b.minus) for b in res.basis}
    v = lambda s: paper_var(system, s)
    expected = {
        ((v("1212"), v("3232")), (v("1232"), v("3212"))),
        ((v("2121"), v("2323")), (v("2123"), v("2321"))),
    }
    assert got == expected
    assert res.width == 2


def test_prism_basis_quadratics_and_cubic():
    isys, _, cubic = complement_cycle_basis(3)
    res = markov_basis(isys.system, 4)
    assert res.width == 3
    keys = {b.unordered_key() for b in res.basis}
    assert cubic.unordered_key() in keys
    # the edge-times-empty quadratics all appear
    for u in range(6):
        v = (u + 1) % 6
        b = Binomial.make((isys.var({u, v}), isys.var(())),
                          (isys.var({u}), isys.var({v})))
        assert b.unordered_key() in keys


def test_complete_graphs_trivial_width():
    for n in (3, 4, 5):
        system = build_system(G.complete(n), G.spoon())
        assert markov_basis(system, 3).width == 0


def test_width_complement_c4():
    system = IndepSystem(G.complement(G.cycle(4))).system
    assert markov_basis(system, 3).width == 2
    assert naive_markov_width(system, 3) == 2


def test_width_triangle_into_looped_edge():
    # binary-model style target: cycles need degree-four moves
    system = build_system(G.cycle(3), G.complete_looped(2))
    assert markov_basis(system, 5).width == 4
    assert naive_markov_width(system, 4) == 4


def test_width_matches_naive_oracle_randomized():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(3, 5)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.6])
        if not all(g.degree_on_edge(v) for v in range(n)):
            continue
        system = build_system(g, G.spoon())
        assert markov_basis(system, 3).width == naive_markov_width(system, 3)


def test_markov_basis_verifies_itself():
    for g in (G.cycle(5), G.complement(G.cycle(6)), G.path(5)):
        system = build_system(g, G.spoon())
        res = markov_basis(system, 3)
        assert verify_markov(system, res.basis, 3)


def test_markov_basis_minimality():
    for g in (G.cycle(5), G.complement(G.cycle(6))):
        system = build_system(g, G.spoon())
        res = markov_basis(system, 3)
        for drop in range(len(res.basis)):
            pruned = OrientedBasis.make([b for i, b in enumerate(res.basis.elements)
                                         if i != drop])
            assert not verify_markov(system, pruned, 3)


def test_fibers_of_three_or_more_monomials_split_and_join():
    # P5 -> P3 has no degree-one moves, so every degree-2 monomial starts
    # as its own component and each degree-2 fiber needs size - 1 moves
    system = build_system(G.path(5), G.path(3))
    fibers = [sorted(monos) for _, monos in iter_fibers(system, 2, min_size=2)]
    assert max(len(f) for f in fibers) >= 4
    res = markov_basis(system, 2)
    assert res.additions_by_degree[2] == sum(len(f) - 1 for f in fibers)
    # joining all but the last monomial of a fiber leaves two components
    big = max(fibers, key=len)
    elems = [Binomial.make(m, f[0]) for f in fibers if f is not big for m in f[1:]]
    elems += [Binomial.make(m, big[0]) for m in big[1:-1]]
    assert not verify_markov(system, OrientedBasis.make(elems), 2)
    elems.append(Binomial.make(big[-1], big[0]))
    assert verify_markov(system, OrientedBasis.make(elems), 2)


def test_verify_markov_rejects_empty_basis_on_nontrivial_ideal():
    system = build_system(G.path(4), G.path(3))
    assert not verify_markov(system, OrientedBasis.make(()), 2)


def test_verify_markov_rejects_non_member():
    system = build_system(G.path(4), G.path(3))
    bogus = OrientedBasis.make([Binomial((0,), (1,))])
    with pytest.raises(ValueError):
        verify_markov(system, bogus, 2)


def test_verify_markov_checks_degree_one_fibers():
    # the isolated vertex doubles every map of the path: every degree-2
    # fiber is joined completely by quadrics, but the equal columns are not
    system = build_system(Graph(4, [(0, 1), (1, 2)]), G.path(3))
    elems = [Binomial(m, f[0]) for _, f in iter_fibers(system, 2, min_size=2)
             for m in f[1:]]
    basis = OrientedBasis.make(elems)
    assert basis.degrees() == [2]
    # the oracle agrees: degree 2 alone is joined, degree 1 is not
    assert naive_verify_markov(system, basis, 2, layers=[naive_fibers(system, 2)])
    assert not naive_verify_markov(system, basis, 2)
    assert not verify_markov(system, basis, 2)
    assert not verify_grobner(system, basis, 2)
    assert verify_markov(system, markov_basis(system, 2).basis, 2)


def test_degree_one_fibers_share_a_block_with_degree_two():
    # K2 plus an isolated vertex into the looped edge: the isolated vertex
    # doubles every map, so the 8 columns pair up into 4 degree-1 fibers of
    # equal columns.  The padded layer is one block at the default BLOCK
    # and is cut into blocks of 16 and 5 rows; each time some block holds
    # degree-1 and degree-2 fibers together.  The 4 linear generators
    # count towards degree 2; they generate the ideal and their moves
    # leave one sink a fiber, and without any one of them neither verifier
    # passes.
    system = build_system(Graph(3, [(0, 1)]), G.complete_looped(2))
    assert system.num_vars == 8
    for size in (toric.BLOCK, 16, 5):
        with mock.patch.object(toric, "BLOCK", size):
            res = markov_basis(system, 2)
            assert res.additions_by_degree == {2: 4} and res.basis.degrees() == [1]
            together = set()
            for block in toric._Layers(system, 2, 10**7).blocks():
                degree = (block.mono < system.num_vars).sum(axis=1)
                heads = block.order[block.counts.cumsum() - block.counts]
                together.add(frozenset(degree[heads[block.counts >= 2]].tolist()))
            assert frozenset({1, 2}) in together, size
            assert verify_markov(system, res.basis, 2) and verify_grobner(system, res.basis, 2)
            for drop in range(len(res.basis)):
                kept = OrientedBasis(res.basis.elements[:drop] + res.basis.elements[drop + 1:])
                assert not verify_markov(system, kept, 2), (size, drop)
                assert not verify_grobner(system, kept, 2), (size, drop)
    assert naive_verify_markov(system, res.basis, 2)


def test_verification_needs_a_cap_of_at_least_one():
    # a cap below 1 would check no layer and accept anything; the cap is
    # refused before the basis is read, so even a non-member gets that error
    system = build_system(G.cycle(4), G.spoon())
    bogus = OrientedBasis.make([Binomial((0,), (1,))])
    for verify in (verify_markov, verify_grobner):
        for cap in (0, -2):
            with pytest.raises(ValueError, match="^degree cap must be at least 1$"):
                verify(system, bogus, cap)
            with pytest.raises(ValueError, match="^degree cap must be at least 1$"):
                verify(system, OrientedBasis.make(()), cap)
    # cap 1 stays valid: equal columns make degree-1 fibers of two monomials
    isolated = build_system(Graph(3, [(0, 1)]), G.path(3))
    assert verify_markov(system, OrientedBasis.make(()), 1)
    assert not verify_markov(isolated, OrientedBasis.make(()), 1)
    assert not verify_grobner(isolated, OrientedBasis.make(()), 1)
    star = markov_basis(isolated, 2).basis          # lead -> each other column
    assert verify_markov(isolated, star, 1)
    assert not verify_grobner(isolated, star, 1)    # two sinks in a fiber of three
    assert verify_grobner(isolated, OrientedBasis.make(b.flipped() for b in star), 1)


def test_verify_markov_rejects_sides_of_different_degree():
    # without edges every image is empty: all variables form one degree-1
    # fiber, and x0 - x1*x2 is in the ideal
    system = build_system(Graph(2, []), G.path(3))
    assert markov_basis(system, 2).width == 1
    bad = OrientedBasis.make([Binomial((0,), (1, 2))])
    with pytest.raises(ValueError):
        verify_markov(system, bad, 2)
    with pytest.raises(ValueError):
        verify_grobner(system, bad, 2)


def _engine_cases():
    sources = [g for n in range(1, 6) for g in graphs_upto_iso(n, connected=True)]
    sources += [Graph(3, [(0, 1)]), Graph(4, [(0, 1), (1, 2)])]
    for h, cap in ((G.spoon(), 3), (G.complete(3), 2), (G.path(3), 3)):
        for g in sources:
            yield g, h, cap


def _mixed_blocks(system, cap, orbits=False):
    """True when a block of the padded layer holds buckets of two or more
    degrees (z counts); z has a class of its own then."""
    layers = toric._Layers(system, cap, 10**7)
    return layers.k > 1 and any(len(np.unique(block.comps[:, -1])) > 1
                                for block in layers.blocks(orbits=orbits))


def test_engine_matches_naive_oracles():
    # the gcd-component engine against fiber-by-fiber searches over all
    # moves: same minimal basis, also when blocks of 16 and 5 rows cut the
    # padded layers into buckets, some blocks holding buckets of several
    # degrees, and the same verdict on that basis and on every basis with
    # one element left out (the first three of them in those blocks)
    verdicts, mixed = set(), set()
    for g, h, cap in _engine_cases():
        system = build_system(g, h)
        basis = markov_basis(system, cap).basis
        assert ({(b.plus, b.minus) for b in basis}
                == set(naive_markov_basis(system, cap))), (g.edges, h.edges)
        assert basis == OrientedBasis.make(basis.elements[::-1] + basis.elements[:1])
        layers = [naive_fibers(system, t) for t in range(1, cap + 1)]
        kept = [OrientedBasis.make(b for i, b in enumerate(basis) if i != drop)
                for drop in range(-1, len(basis))]
        oks = [verify_markov(system, b, cap) for b in kept]
        for drop, (b, ok) in enumerate(zip(kept, oks)):
            assert ok == naive_verify_markov(system, b, cap, layers), \
                (g.edges, h.edges, drop - 1)
            verdicts.add(ok)
        for size in (16, 5):
            with mock.patch.object(toric, "BLOCK", size):
                assert markov_basis(system, cap).basis == basis
                assert [verify_markov(system, b, cap) for b in kept[:4]] == oks[:4], \
                    (size, g.edges)
                if _mixed_blocks(system, cap):
                    mixed.add(size)
    assert verdicts == {True, False}
    assert mixed == {16, 5}


def _same_split(got, want):
    return all(np.array_equal(a, b) for a, b in zip(got, want))


def _unsettled_by_degree(block, n_vars, pairs):
    """(degree, {t: (rows, low, lead)}): the degree of every row of the
    padded ``block``, and ``unsettled_split`` run on each degree t apart as
    the single-degree oracle reads it (the rows of degree t with z
    stripped, their fibers and the pairs between them), mapped back to
    block rows."""
    degree = (block.mono < n_vars).sum(axis=1)
    heads = degree[block.order[block.counts.cumsum() - block.counts]]
    out = {}
    for t in np.unique(heads).tolist():
        rows = np.flatnonzero(degree == t)
        where = np.full(len(degree), -1, dtype=np.int64)
        where[rows] = np.arange(len(rows))
        keep = heads == t
        view = toric._Block(toric._take(block.mono[:, :t], rows), None, None,
                            where[block.order[keep.repeat(block.counts)]],
                            block.counts[keep], block.room, None)
        if pairs is not None:
            ends = where[pairs]
            ends = ends[ends[:, 0] >= 0]        # both ends lie in one fiber
        out[t] = tuple(rows[a] for a in unsettled_split(
            view, n_vars, None if pairs is None else ends))
    return degree, out


def _padded_sides(sides, cap, n_vars):
    """The pairs ``verify_markov`` joins: every side of degree d <= cap
    times z^(cap - d), as one group of degree cap."""
    padded = [np.concatenate((s, np.full((len(s), 2, cap - d), n_vars, dtype=np.int32)), axis=2)
              for d, s in sides.items() if d <= cap]
    return {cap: np.concatenate(padded)} if padded else {}


def _star_kinds(block, n_vars):
    """(fibers settled by their tail alone, fibers that the stars of their
    head and tail cover with no bridge between them) among the fibers of
    two or more monomials of ``block``.  A row is in the star of a
    monomial when they share a variable other than the pad z = ``n_vars``;
    the head and tail are a fiber's first and last rows in lex order."""
    many = block.counts >= 2
    counts = block.counts[many]
    if not len(counts):
        return 0, 0
    mono = block.mono[block.order[many.repeat(block.counts)]]
    first = counts.cumsum() - counts

    def star(end):
        ends = np.where(mono[end] == n_vars, -1, mono[end]).repeat(counts, axis=0)
        return (mono[:, :, None] == ends[:, None, :]).any(axis=(1, 2))

    near, far = star(first), star(first + counts - 1)
    head = np.logical_and.reduceat(near, first)
    cover = np.logical_and.reduceat(near | far, first)
    bridge = np.logical_or.reduceat(near & far, first)
    return int((~head & cover & bridge).sum()), int((cover & ~bridge).sum())


def test_split_settles_fibers_against_the_unsettled_oracle():
    # the split with fibers settled from their head and tail against the
    # class sort on every fiber, degree by degree: every graph on at most 4
    # vertices into each target, every block of the padded layer of degree
    # <= 4 (lower where a layer would pass 20,000 monomials, to keep the
    # test fast), whole and cut into blocks of 16 and 5 rows, some holding
    # buckets of several degrees, with no pairs and with the moves of a
    # Markov basis missing one element.  The sweep reaches fibers that only
    # their tail settles and fibers that the two stars cover with no bridge
    seen, mixed = set(), set()
    kinds = np.zeros(2, dtype=np.int64)
    for n in range(1, 5):
        for g in graphs_upto_iso(n):
            for h in _TARGETS.values():
                system = build_system(g, h)
                nv = system.num_vars
                cap = max(t for t in range(1, 5) if t == 1 or comb(nv + t - 1, t) <= 20_000)
                basis = markov_basis(system, max(cap, 2)).basis.elements
                top = _padded_sides(toric._basis_sides(system, OrientedBasis(
                    basis[:len(basis) // 2] + basis[len(basis) // 2 + 1:])), cap, nv)
                for size in (toric.BLOCK, 16, 5):
                    with mock.patch.object(toric, "BLOCK", size):
                        layers = toric._Layers(system, cap, 10**7)
                        for block in layers.blocks():
                            if layers.k > 1 and len(np.unique(block.comps[:, -1])) > 1:
                                mixed.add(size)
                            kinds += _star_kinds(block, nv)
                            for pairs in (None, layers.moves(block, top)):
                                got = toric._split(block, nv, pairs)
                                degree, want = _unsettled_by_degree(block, nv, pairs)
                                assert set(degree[got[0]].tolist()) <= set(want)
                                for t, w in want.items():
                                    sel = degree[got[0]] == t
                                    assert _same_split(tuple(a[sel] for a in got), w), \
                                        (g.edges, h.edges, size, t)
                                seen.add((pairs is None, len(got[0]) > 0))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    assert mixed == {16, 5}
    assert kinds.all(), kinds


def _one_fiber(monos):
    """A block of one fiber of the given degree-2 monomials, in lex order."""
    mono = toric._take(np.array(monos, dtype=np.int32), np.arange(len(monos)))
    return toric._Block(mono, None, None, np.arange(len(monos)), np.array([len(monos)]),
                        4, None)


@pytest.mark.parametrize("monos, want, sorted_rows", [
    # head 11 and tail 23 are joined by 12: settled by the tail pass
    ([[1, 1], [1, 2], [2, 3]], ([], [], []), []),
    # the stars of 11 and 34 cover it with no bridge, and 12 - 23 joins
    # them: it stays open and comes out whole
    ([[1, 1], [1, 2], [2, 3], [3, 4]], ([], [], []), [4]),
    # the stars of 11 and 45 cover it with no bridge, and it splits
    ([[1, 1], [1, 2], [3, 4], [4, 5]], ([0, 1, 2, 3], [0, 0, 2, 2], [0, 0, 0, 0]), [4]),
])
def test_split_settles_a_fiber_from_both_ends(monos, want, sorted_rows):
    # the class sort sees only the fibers that the two stars leave open
    block = _one_fiber(monos)
    with mock.patch.object(toric, "_min_labels", wraps=toric._min_labels) as labels:
        got = toric._split(block, 6)
    assert _same_split(got, unsettled_split(block, 6))
    assert [a.tolist() for a in got] == list(map(list, want))
    assert [len(c.args[0]) for c in labels.call_args_list] == sorted_rows


def test_split_drops_the_pairs_of_settled_fibers():
    # one block of three fibers of degree 2, listed in the order S, T, X:
    # S = {00, 01, 02} is settled (every monomial holds its head's 0); T =
    # {66, 67, 78, 89} stays open, as the stars of 66 and 89 cover it with
    # no bridge, but is connected (67 - 78); and X = {33, 45, 55} splits
    # into {33} and {45, 55}.  X's rows come before T's in lex order but
    # its positions in the class sort after T's, so a pair of X read at
    # its rows instead of its positions would join T to X and leave X
    # split, and a pair of T would reach past the last position
    mono = toric._take(np.array([[0, 0], [0, 1], [0, 2], [3, 3], [4, 5], [5, 5], [6, 6],
                                 [6, 7], [7, 8], [8, 9]], dtype=np.int32), np.arange(10))
    block = toric._Block(mono, None, None, np.array([0, 1, 2, 6, 7, 8, 9, 3, 4, 5]),
                         np.array([3, 4, 3]), 4, None)
    x_split = ([3, 4, 5], [3, 4, 4], [3, 3, 3])
    none = ([], [], [])
    for pairs, want in ((None, x_split), ([[0, 2]], x_split), ([[0, 2], [6, 9]], x_split),
                        ([[7, 8]], x_split), ([[3, 5]], none), ([[0, 2], [3, 5]], none),
                        ([[4, 3]], none)):
        pairs = None if pairs is None else np.array(pairs)
        got = toric._split(block, 10, pairs)
        assert _same_split(got, unsettled_split(block, 10, pairs)), pairs
        assert [a.tolist() for a in got] == list(map(list, want)), pairs


def _block_walk(system, t):
    """(blocks, one bucket larger than a block) for the padded layer of
    degree t."""
    blocks = list(toric._Layers(system, t, 10**7).blocks())
    return len(blocks), any(len(b.comps) == 1 and len(b.mono) > toric.BLOCK for b in blocks)


def test_block_engine_matches_unbucketed_engine():
    # blocks of whole buckets against the whole-layer engine they replace:
    # the same MarkovResult; the same verdicts on the basis, on its flip
    # and on every basis with one element left out; the same fibers, each
    # in lex order.  Blocks of 16 and 5 rows cut these small padded layers
    # into many blocks, some holding buckets of several degrees, and leave
    # some buckets larger than a block.
    cases = list(_engine_cases()) + [(G.path(5), G.complete(3), 3),
                                     (G.cycle(4), G.complete_looped(3), 2)]
    oracles = []                # the whole-layer results, whatever the block
    for g, h, cap in cases:
        system = build_system(g, h)
        oracles.append((system, unbucketed_markov_basis(system, cap),
                        [sorted(sorted(v) for v in naive_fibers(system, t).values())
                         for t in range(1, cap + 1)]))
    seen, mixed = set(), set()
    for block in (toric.BLOCK, 16, 5):
        with mock.patch.object(toric, "BLOCK", block):
            for (g, h, cap), (system, want, naive) in zip(cases, oracles):
                n_blocks, oversized = _block_walk(system, cap)
                seen.add((block, n_blocks > 1, oversized))
                if _mixed_blocks(system, cap):
                    mixed.add(block)
                res = markov_basis(system, cap)
                assert res == want, (block, g.edges, h.edges)
                basis = res.basis
                small = block == 16 and system.num_vars <= 20    # few blocks a layer
                for drop in range(-1, len(basis) if small else 0):
                    kept = OrientedBasis(basis.elements[:drop] + basis.elements[drop + 1:]
                                         if drop >= 0 else basis.elements)
                    assert (verify_markov(system, kept, cap)
                            == unbucketed_verify_markov(system, kept, cap)), (g.edges, drop)
                    if drop < 3:
                        for b in (kept, OrientedBasis.make(e.flipped() for e in kept)):
                            assert (verify_grobner(system, b, cap)
                                    == unbucketed_verify_grobner(system, b, cap)), (g.edges, drop)
                for t in range(1, cap + 1):
                    fibers = [monos for _, monos in iter_fibers(system, t)]
                    assert all(monos == sorted(monos) for monos in fibers)
                    assert sorted(fibers) == naive[t - 1]
    assert {(toric.BLOCK, False, False), (16, True, True), (5, True, True)} <= seen
    assert mixed == {16, 5}


def test_block_memory_follows_the_block_constant():
    # path:6 -> K3 has 152,096 monomials at t = 3, more than two blocks; the
    # arrays of one block peak at about 110 B a row, the whole-layer engine
    # at more than twice the bound
    system = build_system(G.path(6), G.complete(3))
    assert comb(system.num_vars + 2, 3) == 152_096
    bound = 160 * toric.BLOCK
    markov_basis(system, 2)                         # build the key once
    peaks = []
    for engine in (markov_basis, unbucketed_markov_basis):
        tracemalloc.start()
        try:
            engine(system, 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < bound < peaks[1], peaks


def test_largest_bucket_of_the_best_edge():
    # the buckets of one edge's edge maps, counted combinatorially: those
    # of degree t alone, and with z in a class of its own those of the
    # padded layer, every degree 0..t
    cases = ((G.cycle(6), G.complete_looped(3), 3, 64_836_045, 531_441),
             (G.path(7), G.complete(3), 3, 1_198_144, 32_768),
             (G.complement(G.cycle(8)), G.spoon(), 5, 20_349, 3_003))
    for g, h, t, layer, largest in cases:
        system = build_system(g, h)
        n = system.num_vars
        assert comb(n + t - 1, t) == layer
        classes = toric._bucket_classes(system, t)
        assert len(classes) == n + 1
        if layer <= toric.BLOCK:        # one class, z included: the padded layer is one block
            assert not classes.any()
            continue
        assert classes[n] == classes[:n].max() + 1 == len(np.unique(classes)) - 1
        for sizes, total_size in ((np.bincount(classes[:n]), layer),
                                  (np.bincount(classes), comb(n + t, t))):
            assert toric._largest_bucket(sizes.tolist(), t) == largest
            comps = toric._compositions(len(sizes), t)
            counts = [[comb(s + c - 1, c) for c in range(t + 1)] for s in sizes]
            total = sum(np.prod([counts[i][c] for i, c in enumerate(row)])
                        for row in comps.tolist())
            assert total == total_size and len(comps) == comb(t + len(sizes) - 1, t)
    # K2 -> K8 gives every variable its own edge map: one bucket per
    # monomial, a bucket list larger than the layer, so no edge is taken
    # and z shares the one class
    system = build_system(G.complete(2), G.complete(8))
    assert comb(system.num_vars + 3, 4) == 455_126 > toric.BLOCK
    assert not toric._bucket_classes(system, 4).any()


def test_packed_layer_matches_void_view_grouping():
    # the packed int64 key against the int16 image rows it replaced: same
    # monomial rows, same partition into fibers (numbered differently)
    edgeless = (Graph(2, []), Graph(3, []))
    cases = [(g, h, range(1, cap + 1)) for g, h, cap in _engine_cases()]
    cases += [(g, h, (1, 2, 3)) for g in edgeless for h in (G.spoon(), G.complete(3))]
    cases += [(G.complement(G.cycle(8)), G.spoon(), range(1, 6)),
              (G.cycle(6), G.complete_looped(3), (2,))]
    for g, h, degrees in cases:
        system = build_system(g, h)
        for t in degrees:
            idx, fid = engine_layer(system, t)
            ref_idx, ref_fid = naive_layer_fibers(system, t)
            assert np.array_equal(idx, ref_idx), (g.edges, h.edges, t)
            assert same_partition(fid, ref_fid), (g.edges, h.edges, t)
    # 36 key rows of 2 bits: the last case refines its fibers by two words
    wide = build_system(G.cycle(6), G.complete_looped(3))
    assert wide.key_matrix.shape[0] == 36
    assert wide.packed_columns(2, 0).shape[1] == 2


def test_rank_is_the_lex_position():
    for n in range(1, 7):
        for t in range(1, 5):
            monos = np.array(list(combinations_with_replacement(range(n), t)))
            assert np.array_equal(_rank(monos, n), np.arange(len(monos))), (n, t)
    # C(2003, 4) rows do not fit int32: the int64 ranks keep their order
    n, t = 2000, 4
    top = comb(n + t - 1, t) - 1
    assert top >= 2**31
    ends = np.array([[0] * t, [n - 1] * t])
    assert _rank(ends, n).tolist() == [0, top]
    rng = np.random.default_rng(5)
    monos = np.unique(np.sort(rng.integers(0, n, size=(500, t)), axis=1), axis=0)
    assert (np.diff(_rank(monos, n)) > 0).all()


def _outcome(f, *args):
    try:
        return "returned", f(*args)
    except (IndexError, ValueError) as e:
        return type(e).__name__, str(e)


def test_packed_membership_matches_counter_images():
    # members, flipped, truncated, mixed-degree, random and out-of-range
    # elements: the same verdict one by one, and the same first error when
    # a basis is checked whole
    rng = random.Random(11)
    edgeless = [(Graph(2, []), G.spoon(), 2), (Graph(3, []), G.complete(3), 2)]
    seen = set()
    for g, h, cap in list(_engine_cases()) + edgeless:
        system = build_system(g, h)
        n = system.num_vars
        basis = markov_basis(system, cap).basis
        elems = [Binomial((), ()), Binomial((n,), (0,)), Binomial((0,), (-1,))]
        for b in basis:
            elems += [b, b.flipped(), Binomial(b.plus[1:], b.minus),
                      Binomial(b.plus + b.minus[:1], b.minus)]
        for _ in range(12 if n else 0):
            p, q = rng.randint(0, 3), rng.randint(0, 3)
            elems.append(Binomial(tuple(sorted(rng.randrange(n) for _ in range(p))),
                                  tuple(sorted(rng.randrange(n) for _ in range(q)))))
        for b in elems:
            out = _outcome(system.membership, b)
            assert out == _outcome(naive_membership, system, b), (g.edges, h.edges, b)
            seen.add(out[1] if out[0] == "returned" else out[0])
        for _ in range(4):
            rng.shuffle(elems)
            k = rng.randint(0, len(elems))
            assert (_outcome(system.check_basis_members, OrientedBasis(tuple(elems[:k])))
                    == _outcome(naive_check_basis_members, system, elems[:k]))
    assert seen == {True, False, "IndexError"}
    # maps that differ only on the last vertex of the path differ only in
    # the last rows of A, past the first 63 bits at two bits a row
    system = build_system(G.path(5), G.complete_looped(3))
    assert len(system.rows) * 2 > 63
    maps = system.homs.maps
    for i, m in enumerate(maps):
        for j in range(i + 1, len(maps)):
            if maps[j][:-1] == m[:-1]:
                b = Binomial((i, i), (i, j))
                assert not system.membership(b) and not naive_membership(system, b)
    # whole bases checked in one batch: that system's Markov basis, two
    # words a side, and the degree-12 glue basis of the fan into K4, six
    # words a side, each with non-members and out-of-range elements mixed in
    fan = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)])
    base = OrientedBasis.make([degree12_binomial(build_system(G.complete(3), G.complete(4)))])
    glued = outerplanar_pipeline(fan, G.complete(4), base_basis=base, lift_cap=5000,
                                 allow_truncation=True)
    assert glued.basis.degree == 12
    for system, basis in ((system, markov_basis(system, 2).basis), (glued.system, glued.basis)):
        n = system.num_vars
        assert _outcome(system.check_basis_members, basis) == ("returned", None)
        elems = list(basis)
        for b in rng.sample(elems, 8):
            elems += [b.flipped(), Binomial(b.plus[1:], b.minus),
                      Binomial(b.plus[:-1] + (n,), b.minus), Binomial(b.plus, (-1,) + b.minus[1:])]
        for _ in range(4):
            rng.shuffle(elems)
            k = rng.randint(len(elems) // 2, len(elems))
            assert (_outcome(system.check_basis_members, OrientedBasis(tuple(elems[:k])))
                    == _outcome(naive_check_basis_members, system, elems[:k]))


def _assert_view_of_elements(basis):
    """``basis.shapes`` holds, per shape in order of its first element, the
    positions of the elements of that shape and their rows plus | minus."""
    want = {}
    for i, b in enumerate(basis.elements):
        where, rows = want.setdefault((len(b.plus), len(b.minus)), ([], []))
        where.append(i)
        rows.append(list(b.plus + b.minus))
    assert list(basis.shapes) == list(want)
    for shape, (where, rows) in want.items():
        got_where, got_rows = basis.shapes[shape]
        assert got_where.tolist() == where and got_rows.tolist() == rows
        assert got_rows.shape == (len(rows), sum(shape))


def test_from_rows_matches_make_on_random_rows():
    # seeded random rows of degrees 1-4, split over several arrays of
    # either int width, with duplicates within and across arrays, rows of
    # a lower degree beside higher ones (as stripped lifts come), empty
    # arrays, a single row and no rows: the basis ``make`` gives for the
    # same binomials, with a view equal to the rows of its elements
    rng = np.random.default_rng(22)
    cases = [[], [np.zeros((0, 4), dtype=np.int64)], [np.array([[2, 5, 1, 3]])]]
    for _ in range(40):
        arrays = []
        for _ in range(rng.integers(1, 6)):
            d, k = int(rng.integers(1, 5)), int(rng.integers(0, 25))
            rows = np.sort(rng.integers(0, 5, (k, 2, d)), axis=2).reshape(k, 2 * d)
            if k and rng.random() < 0.5:
                rows = np.concatenate((rows, rows[rng.integers(0, k, k)]))
            arrays.append(rows.astype(np.int32 if rng.random() < 0.5 else np.int64))
        cases.append(arrays + arrays[:1])
    for arrays in cases:
        binomials = [Binomial(tuple(r[:len(r) // 2]), tuple(r[len(r) // 2:]))
                     for a in arrays for r in a.tolist()]
        basis = OrientedBasis.from_rows(arrays)
        assert basis == OrientedBasis.make(binomials)
        assert len(basis) == len(set(binomials))
        _assert_view_of_elements(basis)


def test_shapes_view_matches_the_elements():
    # bases from make, from markov_basis and from glue_basis (the fan into
    # K4 mixes the 12/12 shape with the 2/2 swaps), and a parsed basis
    # whose sides have unequal lengths: each view equals the rows of the
    # elements, and the fallback view of the same elements equals it too
    system = build_system(G.path(4), G.spoon())
    markov = markov_basis(system, 3).basis
    fan = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)])
    base = OrientedBasis.make([degree12_binomial(build_system(G.complete(3), G.complete(4)))])
    glued = outerplanar_pipeline(fan, G.complete(4), base_basis=base, lift_cap=5000,
                                 allow_truncation=True).basis
    assert set(glued.shapes) == {(2, 2), (12, 12)}
    parsed = parse_basis_text("0*1 - 2\n3 - 4*5*6\n1*2 - 3*4\n0*7 - 5*6\n4 - 7\n", system)
    assert len({p == q for p, q in parsed.shapes}) == 2
    for basis in (OrientedBasis.make(markov.elements[::-1]), markov, glued, parsed):
        _assert_view_of_elements(basis)
        fallback = OrientedBasis(basis.elements).shapes
        assert list(fallback) == list(basis.shapes)
        for shape, (where, rows) in fallback.items():
            assert np.array_equal(where, basis.shapes[shape][0])
            assert np.array_equal(rows, basis.shapes[shape][1])


def test_membership_through_the_view_keeps_its_errors():
    # bases built from rows (the view attached) with a non-member or a
    # variable out of range in front of, among or behind the members: the
    # first failure in basis order decides, IndexError for a variable out
    # of range and ValueError for a non-member, as element by element
    system = build_system(G.path(4), G.spoon())
    n = system.num_vars
    members = [np.array([b.plus + b.minus]) for b in markov_basis(system, 3).basis]
    assert len(members) > 2 and not naive_membership(system, Binomial((0,), (1,)))
    odd = {"non-member": [[0, 1]], "high": [[0, n]], "negative": [[-1, 2]],
           "non-member at 2": [[0, 0, 0, 1]], "high at 3": [[0, 1, 2, 0, 1, n]]}
    seen = set()
    for rows in ([odd["non-member"], odd["high at 3"]], [odd["high"], odd["non-member at 2"]],
                 [odd["negative"]], [odd["non-member at 2"]], [odd["high at 3"]], []):
        basis = OrientedBasis.from_rows(members + [np.array(r) for r in rows])
        out = _outcome(system.check_basis_members, basis)
        assert out == _outcome(naive_check_basis_members, system, basis.elements)
        first = _outcome(system.first_non_member, basis)
        if out[0] == "ValueError":
            assert out[1] == f"binomial {first[1].plus} - {first[1].minus} is not in the ideal"
        else:
            assert first == out
        seen.add(out[0] if out[0] != "returned" else out[1])
    assert seen == {"IndexError", "ValueError", None}


@st.composite
def _small_graphs(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    loops = draw(st.sets(st.integers(0, n - 1), max_size=1))
    return Graph(n, sorted(edges) + [(v, v) for v in loops])


_TARGETS = {"spoon": G.spoon(), "K3": G.complete(3), "P3": G.path(3),
            "looped2": G.complete_looped(2)}


def _drawn_cap(system):
    """3, or 2 when the degree-3 layer has more than 3,000 monomials."""
    return 3 if comb(system.num_vars + 2, 3) <= 3000 else 2


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(g=_small_graphs(), target=st.sampled_from(sorted(_TARGETS)), t=st.integers(1, 3))
def test_layer_partition_matches_naive_fibers(g, target, t):
    system = build_system(g, _TARGETS[target])
    while t > 1 and comb(system.num_vars + t - 1, t) > 3000:
        t -= 1                          # keep the pure-python oracle fast
    with mock.patch.object(toric, "BLOCK", 5):     # many blocks, one bucket too large
        idx, fid = engine_layer(system, t)
    label = {m: i for i, monos in enumerate(naive_fibers(system, t).values())
             for m in monos}
    assert len(label) == len(idx)
    assert same_partition(fid, [label[m] for m in map(tuple, idx.tolist())])


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(g=_small_graphs(max_n=5), target=st.sampled_from(sorted(_TARGETS)))
def test_engine_matches_naive_markov_width(g, target):
    # the layer engine against the fiber-by-fiber oracles: the same width,
    # its own basis verifies, and the basis is a star per split fiber, so
    # leaving out any one element leaves a component unjoined, as the
    # naive verifier finds for the middle one; cut into blocks of 5 rows,
    # the same basis and the same verdicts
    system = build_system(g, _TARGETS[target])
    n = system.num_vars
    assume(comb(n + 1, 2) <= 3000)      # keep the pure-python oracle fast
    cap = 3 if comb(n + 2, 3) <= 3000 else 2
    assert markov_basis(system, cap).width == naive_markov_width(system, cap)
    basis = markov_basis(system, cap).basis
    assert verify_markov(system, basis, cap)
    if len(basis):
        mid = len(basis) // 2
        kept = OrientedBasis(basis.elements[:mid] + basis.elements[mid + 1:])
        assert verify_markov(system, kept, cap) == naive_verify_markov(system, kept, cap)
    for drop in range(len(basis)):
        kept = OrientedBasis(basis.elements[:drop] + basis.elements[drop + 1:])
        assert not verify_markov(system, kept, cap), drop
    with mock.patch.object(toric, "BLOCK", 5):
        assert markov_basis(system, cap).basis == basis
        for drop in range(len(basis)):
            kept = OrientedBasis(basis.elements[:drop] + basis.elements[drop + 1:])
            assert not verify_markov(system, kept, cap), drop


def _relabeled(h, rng):
    perm = list(range(h.n))
    rng.shuffle(perm)
    return Graph(h.n, [(perm[u], perm[v]) for u, v in h.edges])


def _walked_buckets(system, t):
    """The classes of ``system``'s variables and z and the layer indices of
    the buckets of the padded layer of degree t that ``markov_basis``
    walks."""
    layers = toric._Layers(system, t, 10**7)
    comps = toric._compositions(layers.k, t)
    return layers.classes, layers.k, set(layers._orbits(comps)[0].tolist())


def test_orbit_engine_matches_unbucketed_engine():
    # one bucket per Aut(H)-orbit, the split fibers mapped to the rest of
    # the orbit, against the whole-layer engine: the same MarkovResult,
    # basis and additions_by_degree, also where a walked block holds
    # buckets of several degrees.  Randomly relabeled targets move the
    # automorphisms to other classes; a restricted system keeps only the
    # automorphisms that map its maps onto themselves.
    rng = random.Random(15)
    symmetric = [G.complete(3), G.path(3), G.complete_looped(2), G.complete_looped(3),
                 G.cycle(4)]
    targets = list(_TARGETS.values()) + [_relabeled(h, rng) for h in symmetric]
    sources = sorted({g for g, _, _ in _engine_cases()}, key=lambda g: (g.n, sorted(g.edges)))
    systems = [build_system(g, h) for g in sources for h in targets]
    systems = [system for system in systems if system.num_vars <= 60]   # a fast oracle
    full = build_system(G.path(4), G.complete(3))
    restricted = full.restrict_columns(i for i, m in enumerate(full.homs.maps) if m[0] < 2)
    assert len(toric._automorphisms(restricted)) == 2       # the swap of 0 and 1
    mixed = set()
    for block in (16, 5):
        with mock.patch.object(toric, "BLOCK", block):
            for system in systems + [restricted]:
                n = system.num_vars
                cap = 3 if comb(n + 2, 3) <= 5000 else 2
                assert markov_basis(system, cap) == unbucketed_markov_basis(system, cap), \
                    (block, system.g.edges, system.h.edges)
                if _mixed_blocks(system, cap, orbits=True):
                    mixed.add(block)
    assert mixed == {16, 5}


def test_orbit_engine_maps_split_fibers_to_unwalked_buckets():
    # path:5 -> K3 cut into blocks of 16 rows: some degree-2 generators lie
    # in buckets that are never walked, so they come only from the mapping
    system = build_system(G.path(5), G.complete(3))
    with mock.patch.object(toric, "BLOCK", 16):
        res = markov_basis(system, 3)
        assert res == unbucketed_markov_basis(system, 3)
        classes, k, walked = _walked_buckets(system, 2)
    assert len(toric._automorphisms(system)) == 6
    buckets = [_rank(np.sort(classes[list(b.plus)])[None], k)[0] for b in res.basis]
    assert res.additions_by_degree[2] == len(buckets) > 0
    assert any(b not in walked for b in buckets) and any(b in walked for b in buckets)


def test_orbit_engine_without_automorphisms_past_the_cap():
    # past the search cap only the identity is used: every bucket is walked
    # and the result is unchanged
    system = build_system(G.path(5), G.complete_looped(2))
    with mock.patch.object(toric, "BLOCK", 16):
        res = markov_basis(system, 3)
        with mock.patch.object(toric, "AUT_HOM_CAP", 3):
            assert len(toric._automorphisms(system)) == 1
            classes, k, walked = _walked_buckets(system, 3)
            assert len(walked) == comb(k + 2, 3)
            assert markov_basis(system, 3) == res
    assert len(toric._automorphisms(system)) == 2
    assert res == unbucketed_markov_basis(system, 3)


def _invariant(system, basis):
    return toric._invariant(toric._basis_sides(system, basis), toric._automorphisms(system),
                            system.num_vars)


def _orbit_mover(system, basis):
    """The last element of ``basis`` that an automorphism maps to another
    unordered binomial, or None.  The walk takes the lex-first bucket of
    an orbit, so a late element tends to lie in a bucket it leaves out."""
    for b in reversed(basis.elements):
        for perm in toric._automorphisms(system)[1:].tolist():
            image = sorted(tuple(sorted(perm[v] for v in side)) for side in (b.plus, b.minus))
            if image != sorted((b.plus, b.minus)):
                return b
    return None


def test_orbit_verifier_matches_unbucketed_verifier():
    # verify_markov walks one bucket per Aut(H)-orbit when the basis is
    # invariant, else every bucket: the verdict against the whole-layer
    # walk on markov_basis outputs (over randomly relabeled targets and a
    # restricted system with two automorphisms) and glued forest bases,
    # and on each with one element of a nontrivial orbit left out, which is
    # no longer invariant and no longer a Markov basis
    rng = random.Random(17)
    targets = [G.complete(3), G.path(3), G.spoon()] + [
        _relabeled(h, rng) for h in (G.complete(3), G.complete_looped(3), G.cycle(4))]
    sources = [G.path(3), G.path(4), G.cycle(4), Graph(4, [(0, 1), (0, 2), (0, 3)]),
               Graph(4, [(0, 1), (1, 2)])]
    full = build_system(G.path(4), G.complete(3))
    restricted = full.restrict_columns(i for i, m in enumerate(full.homs.maps) if m[0] < 2)
    assert len(toric._automorphisms(restricted)) == 2
    cases = []
    for system in [build_system(g, h) for g in sources for h in targets] + [restricted]:
        cap = 3 if comb(system.num_vars + 2, 3) <= 5000 else 2
        cases.append((system, markov_basis(system, cap).basis, cap))
    for n in (5, 6):
        res = forest_pipeline(G.path(n), G.complete(3))
        cases.append((res.system, res.basis, 3))
    dropped = 0
    for system, basis, cap in cases:
        bases = [basis]
        mover = _orbit_mover(system, basis) if _invariant(system, basis) else None
        if mover is not None:
            kept = OrientedBasis(tuple(b for b in basis if b != mover))
            assert not _invariant(system, kept)
            bases.append(kept)
            dropped += 1
        for block in (16, 5):
            with mock.patch.object(toric, "BLOCK", block):
                for b in bases:
                    expected = unbucketed_verify_markov(system, b, cap)
                    assert verify_markov(system, b, cap) == expected, \
                        (block, system.g.edges, system.h.edges, len(b))
                    assert expected == (b is basis)
    assert dropped >= 10
    assert all(_invariant(system, basis) for system, basis, _ in cases[-2:])


def test_orbit_verifier_without_automorphisms_past_the_cap():
    # past the search cap only the identity is used, so every basis is
    # invariant and every bucket is walked
    res = forest_pipeline(G.path(5), G.complete(3))
    kept = OrientedBasis(res.basis.elements[1:])
    with mock.patch.object(toric, "BLOCK", 16), mock.patch.object(toric, "AUT_HOM_CAP", 3):
        assert len(toric._automorphisms(res.system)) == 1
        assert _invariant(res.system, kept)
        for basis in (res.basis, kept):
            assert (verify_markov(res.system, basis, 3)
                    == unbucketed_verify_markov(res.system, basis, 3))
    assert not _invariant(res.system, kept)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(g=_small_graphs(), target=st.sampled_from(sorted(_TARGETS)), data=st.data())
def test_orbit_verdict_matches_whole_layer_verdict_on_drawn_systems(g, target, data):
    # in blocks of 16 rows, so small systems get buckets: the verdict
    # against the whole-layer walk on the Markov basis and on it with one
    # drawn element dropped or flipped; a basis invariant under Aut(H) is
    # walked one bucket per orbit, any other in every bucket
    system = build_system(g, _TARGETS[target])
    cap = _drawn_cap(system)
    basis = markov_basis(system, cap).basis
    elems = basis.elements
    bases = [basis]
    if elems:
        i = data.draw(st.integers(0, len(elems) - 1))
        bases.append(OrientedBasis(elems[:i] + elems[i + 1:]))
        bases.append(OrientedBasis(elems[:i] + (elems[i].flipped(),) + elems[i + 1:]))
    with mock.patch.object(toric, "BLOCK", 16):
        for b in bases:
            assert verify_markov(system, b, cap) == unbucketed_verify_markov(system, b, cap)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(g=_small_graphs(), target=st.sampled_from(sorted(_TARGETS)), data=st.data())
def test_invariance_matches_the_naive_test_on_drawn_bases(g, target, data):
    # the one-word invariance test against the lexsorted rank pairs of
    # naive_invariant, on the Markov basis and on it with one drawn
    # element dropped or flipped
    system = build_system(g, _TARGETS[target])
    basis = markov_basis(system, _drawn_cap(system)).basis
    perms, n, elems = toric._automorphisms(system), system.num_vars, basis.elements
    bases = [basis]
    if elems:
        i = data.draw(st.integers(0, len(elems) - 1))
        bases.append(OrientedBasis(elems[:i] + elems[i + 1:]))
        bases.append(OrientedBasis(elems[:i] + (elems[i].flipped(),) + elems[i + 1:]))
    for b in bases:
        sides = toric._basis_sides(system, b)
        assert toric._invariant(sides, perms, n) == naive_invariant(sides, perms, n)


def test_invariance_is_exact_where_two_layer_ranks_overflow_a_word():
    # C(n + d - 1, d)^2 >= 2^63, so a word of two layer ranks would not
    # fit; bases closed under the reversal v -> n - 1 - v (elements and
    # their images, some flipped), and each with one element dropped, one
    # side moved or the images left out
    rng = random.Random(29)
    verdicts = set()
    for n, d in ((100_000, 2), (3_000, 3)):
        assert comb(n + d - 1, d) ** 2 >= 2**63 > comb(n + d - 1, d)
        reverse = np.arange(n + 1, dtype=np.int32)
        reverse[:n] = reverse[n - 1::-1]
        perms = np.stack([np.arange(n + 1, dtype=np.int32), reverse])
        for _ in range(4):
            low = ([rng.randrange(n) for _ in range(20)]
                   + [n - 1 - rng.randrange(30) for _ in range(20)])    # ranks near C
            elems = set()
            while len(elems) < 12:
                lead, trail = (tuple(sorted(rng.sample(low, d))) for _ in range(2))
                if lead != trail:
                    elems.add((lead, trail))
            closed = sorted(elems | {tuple(tuple(sorted(int(reverse[v]) for v in side))
                                           for side in e[::-1]) for e in elems})
            moved = closed[1:] + [(closed[0][0], tuple(sorted(set(low) - set(closed[0][0])))[:d])]
            for case in (closed, closed[1:], moved, sorted(elems)):
                sides = {d: np.array(case, dtype=np.int32)}
                verdict = toric._invariant(sides, perms, n)
                assert verdict == naive_invariant(sides, perms, n)
                verdicts.add(verdict)
    assert verdicts == {True, False}
    # two elements whose words of layer ranks, lead * C + trail, agree
    # modulo 2^64; a permutation that maps one onto the other moves a
    # basis holding only the first
    n = 150_000
    size = comb(n + 1, 2)
    k = round(2**64 / size)

    def before(a):                      # the degree-2 monomials before (a, a) in lex order
        return a * n - a * (a - 1) // 2

    def monomial(rank):
        a = bisect_right(range(n), rank, key=before) - 1
        return (a, a + rank - before(a))
    for gap in range(n, 4 * n, 1000):  # the second trail a row or more past its lead
        ranks = (1, 1 + k + gap + k * size - 2**64, 1 + k, 1 + k + gap)
        monos = [monomial(r) for r in ranks]
        if len(set(sum(monos, ()))) == 8:
            break
    assert [int(r) for r in _rank(np.array(monos), n)] == list(ranks)
    assert (ranks[0] * size + ranks[1] - ranks[2] * size - ranks[3]) % 2**64 == 0
    swap = np.arange(n + 1, dtype=np.int32)
    for x, y in zip(sum(monos[:2], ()), sum(monos[2:], ())):
        swap[x], swap[y] = y, x
    perms = np.stack([np.arange(n + 1, dtype=np.int32), swap])
    for case, expected in (([monos[:2]], False), ([monos[:2], monos[2:]], True)):
        sides = {2: np.array(case, dtype=np.int32)}
        assert toric._invariant(sides, perms, n) == naive_invariant(sides, perms, n) == expected


# ---------------------------------------------------------------------------
# restriction

def test_restrict_columns_keeps_columns_and_rejects_reordering():
    system = build_system(G.path(4), G.path(3))
    sub = system.restrict_columns((1, 4, 6))
    assert sub.homs.maps == tuple(system.homs.maps[v] for v in (1, 4, 6))
    assert sub.cols == tuple(system.cols[v] for v in (1, 4, 6))
    assert sub.rows == system.rows
    assert np.array_equal(sub.dense_matrix(), system.dense_matrix()[:, [1, 4, 6]])
    for bad in ((4, 1), (1, 1), (-1, 2), (0, system.num_vars)):
        with pytest.raises(ValueError):
            system.restrict_columns(bad)


def test_width_monotone_under_target_growth():
    rng = random.Random(5)
    g = G.cycle(4)
    for _ in range(8):
        n = rng.randint(2, 3)
        all_edges = [(u, v) for u in range(n) for v in range(u, n)]
        rng.shuffle(all_edges)
        cut = rng.randint(1, len(all_edges))
        h1 = Graph(n, all_edges[:cut])
        h2 = Graph(n, all_edges)
        w1 = markov_basis(build_system(g, h1), 3).width
        w2 = markov_basis(build_system(g, h2), 3).width
        assert w1 <= w2


# ---------------------------------------------------------------------------
# directed verification

def test_verify_grobner_flipped_orientation_fails():
    from homtoric.indep import bipartite_grobner
    # the smallest sorting basis where reversing one element breaks the
    # directed check is the one on the 4-path; on the 4-cycle each single
    # reversal stays consistent but reversing both elements does not
    isys = IndepSystem(G.path(4))
    basis = bipartite_grobner(isys)
    assert verify_grobner(isys.system, basis, 4)
    flipped = OrientedBasis.make([basis.elements[0].flipped()] +
                                 list(basis.elements[1:]))
    assert not verify_grobner(isys.system, flipped, 4)

    c4 = IndepSystem(G.cycle(4))
    cbasis = bipartite_grobner(c4)
    both = OrientedBasis.make([b.flipped() for b in cbasis.elements])
    assert not verify_grobner(c4.system, both, 4)


def test_verify_grobner_matches_naive_check_with_connectivity_pass():
    # the fiber check relies on "acyclic with one sink" implying connected;
    # compare with the reference that tests connectivity explicitly, on the
    # sorting and apex bases of small connected graphs and on a copy of
    # each with one element dropped and with one element flipped
    from homtoric.indep import almost_bipartite_grobner, bipartite_grobner
    verdicts = []
    for n in range(2, 6):
        for g in graphs_upto_iso(n, connected=True):
            isys = IndepSystem(g)
            if G.is_bipartite(g) is not None:
                basis = bipartite_grobner(isys)
            elif G.is_almost_bipartite(g) is not None:
                basis = almost_bipartite_grobner(isys).basis
            else:
                continue
            elems = list(basis.elements)
            variants = [basis]
            if elems:
                variants.append(OrientedBasis.make(elems[:-1]))
                variants.append(OrientedBasis.make([elems[0].flipped()] + elems[1:]))
            fibers = [monos for t in range(1, 5)
                      for monos in naive_fibers(isys.system, t).values()
                      if len(monos) >= 2]
            for variant in variants:
                index = MoveIndex(variant)
                naive = all(naive_fiber_is_grobner(monos, index) for monos in fibers)
                assert verify_grobner(isys.system, variant, 4) == naive, (g, variant)
                verdicts.append(naive)
    assert True in verdicts and False in verdicts


def test_verify_grobner_matches_naive_check_on_random_orientations():
    # Markov bases oriented at random: each variant drops, flips or adds
    # the reverse of elements; every degree-1..3 fiber is checked by the
    # reference, degree-1 fibers included (the sources with a vertex on no
    # edge have equal columns)
    rng = random.Random(11)
    pairs = [(g, h) for n in range(1, 5) for g in graphs_upto_iso(n, connected=True)
             for h in (G.path(3), G.complete(3), G.spoon())]
    pairs += [(Graph(4, [(0, 1), (1, 2)]), G.path(3)), (Graph(4, [(0, 1), (1, 2)]), G.spoon()),
              (Graph(2, []), G.path(3))]
    verdicts = []
    for g, h in pairs:
        system = build_system(g, h)
        basis = markov_basis(system, 3).basis
        fibers = [monos for t in range(1, 4) for monos in naive_fibers(system, t).values()
                  if len(monos) >= 2]
        variants = [basis]
        for _ in range(6):
            elems = []
            for b in basis:
                r = rng.random()
                if r >= 0.15:
                    elems.append(b.flipped() if r < 0.45 else b)
                if rng.random() < 0.05:
                    elems.append(b.flipped())
            variants.append(OrientedBasis.make(elems))
        for variant in variants:
            index = MoveIndex(variant)
            naive = all(naive_fiber_is_grobner(monos, index) for monos in fibers)
            assert verify_grobner(system, variant, 3) == naive, (g.edges, h.edges, variant)
            verdicts.append(naive)
    assert len(verdicts) == 231
    assert verdicts.count(True) > 50 and verdicts.count(False) > 50


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(g=_small_graphs(), target=st.sampled_from(sorted(_TARGETS)), data=st.data())
def test_verify_grobner_matches_naive_check_on_drawn_orientations(g, target, data):
    # a Markov basis whose every element is drawn kept, flipped, dropped or
    # joined by its reverse: the directed check against the reference over
    # every fiber of two or more monomials up to the cap, in one block and
    # in blocks of 5 rows
    system = build_system(g, _TARGETS[target])
    assume(comb(system.num_vars + 1, 2) <= 3000)    # keep the pure-python oracle fast
    cap = _drawn_cap(system)
    basis = markov_basis(system, cap).basis
    ops = data.draw(st.lists(st.sampled_from(("keep", "flip", "drop", "both")),
                             min_size=len(basis), max_size=len(basis)))
    elems = []
    for b, op in zip(basis, ops):
        elems += {"keep": [b], "flip": [b.flipped()], "drop": [], "both": [b, b.flipped()]}[op]
    variant = OrientedBasis.make(elems)
    index = MoveIndex(variant)
    naive = all(naive_fiber_is_grobner(monos, index)
                for t in range(1, cap + 1) for monos in naive_fibers(system, t).values()
                if len(monos) >= 2)
    assert verify_grobner(system, variant, cap) == naive
    with mock.patch.object(toric, "BLOCK", 5):
        assert verify_grobner(system, variant, cap) == naive


def test_verify_grobner_rejects_cycle_beside_unique_sink():
    # one fiber gets the chain c -> b -> a plus the reverse move b -> c: it
    # keeps a unique sink, so only the acyclicity pass rejects it, and
    # acyclicity is what lets a unique sink stand in for connectivity
    system = build_system(G.path(5), G.path(3))
    fibers = [sorted(monos) for _, monos in iter_fibers(system, 2, min_size=2)]
    cyclic = next(f for f in fibers if len(f) >= 3)
    a, b, c = cyclic[:3]
    elems = [Binomial.make(m, f[0]) for f in fibers if f is not cyclic for m in f[1:]]
    elems += [Binomial.make(b, a), Binomial.make(c, b)]
    elems += [Binomial.make(m, a) for m in cyclic[3:]]
    assert verify_grobner(system, OrientedBasis.make(elems), 2)
    bad = OrientedBasis.make(elems + [Binomial.make(b, c)])
    assert not verify_grobner(system, bad, 2)
    index = MoveIndex(bad)
    assert not all(naive_fiber_is_grobner(f, index) for f in fibers)


def test_verify_grobner_trivial_ideal():
    system = build_system(G.complete(2), G.complete(4))
    assert verify_grobner(system, OrientedBasis.make(()), 3)
    # a member whose two sides are equal moves every monomial it divides
    # to itself; that is no edge, so the single sinks stay single
    assert verify_grobner(system, OrientedBasis((Binomial((0,), (0,)),)), 3)


def test_two_cycle_orientation_rejected():
    # opposite orientations of one binomial create a directed 2-cycle
    system = build_system(G.path(4), G.path(3))
    b = markov_basis(system, 2).basis.elements[0]
    bad = OrientedBasis((b, b.flipped()))
    assert not verify_grobner(system, bad, 2)


# ---------------------------------------------------------------------------
# basis file format

def test_basis_text_roundtrip():
    system = build_system(G.path(4), G.path(3))
    basis = markov_basis(system, 2).basis
    text = "\n".join(format_binomial(b, system) for b in basis)
    assert parse_basis_text(text, system).elements == basis.elements
    maps_text = "\n".join(format_binomial(b, system, maps=True) for b in basis)
    assert parse_basis_text(maps_text, system).elements == basis.elements


def test_basis_text_errors():
    system = build_system(G.path(4), G.path(3))
    with pytest.raises(ValueError):
        parse_basis_text("0*1 + 2*3", system)
    with pytest.raises(ValueError):
        parse_basis_text("0*1 - 0*1", system)
    with pytest.raises(ValueError):
        parse_basis_text("0*99 - 1*2", system)
