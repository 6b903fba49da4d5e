"""Acceptance suite: one test per criterion, each ending in a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is exact (integer combinatorics throughout).
"""

import io
import random
import time
from contextlib import redirect_stdout
from itertools import combinations_with_replacement, permutations

from homtoric import graph as G
from homtoric.graph import Graph
from homtoric.indep import (IndepSystem, almost_bipartite_grobner,
                            bipartite_grobner, complement_cycle_basis,
                            multidegree)
from homtoric.coloring import analyze_certificate, chromatic_number, is_k_colorable
from homtoric.hibi import all_posets, hibi_vs_topgraded, xi_bijection
from homtoric.polytope import build_polytope, facets, simplicity, stable_set_polytope
from homtoric.tfp import forest_pipeline, outerplanar_pipeline
from homtoric.toric import (Binomial, OrientedBasis, build_system, iter_fibers,
                            markov_basis, verify_grobner, verify_markov)

from helpers import graphs_upto_iso, naive_image

SEED = 20240801


def report(num, text):
    print(f"ACCEPTANCE {num:>2} PASS: {text}")


def paper_var(system, digits):
    return system.homs.index[tuple(int(c) - 1 for c in digits)]


def degree12_binomial(system):
    left = [paper_var(system, s) for s in
            "123 214 341 432 231 142 413 324 312 421 134 243".split()]
    right = [paper_var(system, s) for s in
             "124 213 342 431 234 143 412 321 314 423 132 241".split()]
    return Binomial.make(left, right)


def test_criterion_01_path_generators():
    start = time.time()
    system = build_system(G.path(4), G.path(3))
    res = markov_basis(system, 3)
    v = lambda s: paper_var(system, s)
    expected = {
        ((v("1212"), v("3232")), (v("1232"), v("3212"))),
        ((v("2121"), v("2323")), (v("2123"), v("2321"))),
    }
    assert {(b.plus, b.minus) for b in res.basis} == expected
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(1, f"path-into-path basis is exactly the two quadratics ({elapsed:.2f}s)")


def test_criterion_02_complement_cycle_widths():
    start = time.time()
    for k in (2, 3, 4):
        isys, _, special = complement_cycle_basis(k)
        res = markov_basis(isys.system, k + 1)
        assert res.width == k, f"k={k} gave width {res.width}"
        if k == 3:
            keys = {b.unordered_key() for b in res.basis}
            assert special.unordered_key() in keys
    elapsed = time.time() - start
    assert elapsed < 60
    report(2, f"complement-of-even-cycle widths are 2,3,4 with the degree-3 "
              f"matching binomial present ({elapsed:.1f}s)")


def test_criterion_03_bipartite_suite():
    start = time.time()
    checked = 0
    for n in range(2, 7):
        for g in graphs_upto_iso(n, connected=True):
            bip = G.is_bipartite(g)
            if bip is None:
                continue
            isys = IndepSystem(g)
            basis = bipartite_grobner(isys, bip)
            assert verify_grobner(isys.system, basis, 4), sorted(g.edges)
            checked += 1
    assert checked == 27
    elapsed = time.time() - start
    assert elapsed < 600
    report(3, f"sorting bases pass the directed check on all {checked} connected "
              f"bipartite graphs up to 6 vertices ({elapsed:.1f}s)")


def test_criterion_04_almost_bipartite_suite():
    start = time.time()
    # odd cycles, with the worked five-element generator list for the 5-cycle
    isys5 = IndepSystem(G.cycle(5))
    tagged5 = almost_bipartite_grobner(isys5)
    keys = {b.unordered_key() for b in tagged5.basis}

    def key(plus_sets, minus_sets):
        return Binomial.make(tuple(isys5.var(s) for s in plus_sets),
                             tuple(isys5.var(s) for s in minus_sets)).unordered_key()

    for listed in [(({1}, {3}), ({1, 3}, ())),
                   (({2}, {4}), ({2, 4}, ())),
                   (({0}, {1, 3}), ({0, 3}, {1})),
                   (({0}, {2, 4}), ({0, 2}, {4})),
                   (({0, 2}, {3}), ({0, 3}, {2}))]:
        assert key(*listed) in keys
    assert verify_grobner(isys5.system, tagged5.basis, 4)
    isys7 = IndepSystem(G.cycle(7))
    assert verify_grobner(isys7.system, almost_bipartite_grobner(isys7).basis, 4)
    rng = random.Random(SEED)
    found = 0
    while found < 25:
        n = rng.randint(4, 6)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.5])
        if not all(g.degree_on_edge(v) for v in range(n)):
            continue
        if G.is_almost_bipartite(g) is None:
            continue
        found += 1
        isys = IndepSystem(g)
        tagged = almost_bipartite_grobner(isys)
        assert verify_grobner(isys.system, tagged.basis, 4), sorted(g.edges)
    elapsed = time.time() - start
    assert elapsed < 600
    report(4, f"apex bases verified on the 5- and 7-cycles plus 25 random "
              f"almost-bipartite graphs ({elapsed:.1f}s)")


def test_criterion_05_multigrading_equivalence():
    # membership <=> (equal degree, equal multidegree), exhaustively for all
    # monomials of degree <= 3 over every graph on <= 5 vertices whose
    # vertices all lie on an edge (isolated vertices break the equivalence:
    # r_{v} - r_{} is a member with distinct multidegrees)
    start = time.time()
    checked = 0
    for n in range(2, 6):
        for g in graphs_upto_iso(n, no_isolated=True):
            isys = IndepSystem(g)
            for t in (1, 2, 3):
                image_groups = {}
                grading_groups = {}
                for m in combinations_with_replacement(range(isys.num_vars), t):
                    image_groups.setdefault(naive_image(isys.system, m), []).append(m)
                    md = multidegree(isys, m)
                    grading_groups.setdefault((md.total, md.by_vertex), []).append(m)
                part1 = sorted(map(sorted, image_groups.values()))
                part2 = sorted(map(sorted, grading_groups.values()))
                assert part1 == part2, (sorted(g.edges), t)
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 300
    report(5, f"degree+multidegree partition equals the fiber partition on all "
              f"{checked} isolated-free graphs up to 5 vertices ({elapsed:.1f}s)")


def test_criterion_06_forest_pipeline():
    start = time.time()
    rng = random.Random(SEED)
    targets = [G.spoon(), G.complete(3), G.path(3)]
    for i in range(50):
        n = rng.randint(2, 7)
        tree = Graph(n, [(rng.randrange(v), v) for v in range(1, n)])
        for h in targets:
            res = forest_pipeline(tree, h)
            assert res.basis.degree <= 2
            assert res.basis.is_squarefree()
            assert verify_markov(res.system, res.basis, 3), (sorted(tree.edges), h)
    elapsed = time.time() - start
    assert elapsed < 600
    report(6, f"50 random trees x 3 targets: glued bases are quadratic, "
              f"square-free, and generate ({elapsed:.1f}s)")


def test_criterion_07_triangle_into_k4():
    start = time.time()
    system = build_system(G.complete(3), G.complete(4))
    b12 = degree12_binomial(system)
    assert system.membership(b12)
    for t in (2, 3, 4):
        assert not list(iter_fibers(system, t, min_size=2)), f"degree {t}"
    fan = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)])
    res = outerplanar_pipeline(fan, G.complete(4),
                               base_basis=OrientedBasis.make([b12]),
                               lift_cap=20000, allow_truncation=True)
    assert set(res.degrees_full) <= {2, 12}
    assert 12 in res.degrees_full
    assert 12 in res.basis.degrees()
    elapsed = time.time() - start
    assert elapsed < 900
    report(7, f"degree-12 member verified, no relations up to degree 4, fan "
              f"pipeline degrees within {{2,12}} ({elapsed:.1f}s)")


def test_criterion_08_square_polytope():
    start = time.time()
    poly = build_polytope(G.cycle(4), G.spoon())
    assert poly.num_vertices == 7
    desc = facets(poly)
    assert len(desc.facets) == 8
    sets = [frozenset(v for v in range(4) if m[v] == 0) for m in poly.labels]
    def nm(s):
        return frozenset(str(v + 1) for v in sorted(s)) if s else frozenset({"0"})
    got = {frozenset("".join(sorted(str(v + 1) for v in sets[i])) or "-"
                     for i in f.incident) for f in desc.facets}
    expected = {frozenset(x) for x in [
        {"1", "2", "13", "24"}, {"2", "3", "13", "24"},
        {"1", "4", "13", "24"}, {"3", "4", "13", "24"},
        {"-", "1", "2", "3", "13"}, {"-", "1", "3", "4", "13"},
        {"-", "1", "2", "4", "24"}, {"-", "2", "3", "4", "24"}]}
    assert got == expected
    rep = simplicity(poly, desc)
    assert not rep.simple
    counts = {frozenset(s): c for s, c in zip(sets, rep.counts)}
    # the empty set sits in 4 facets and the two pairs in 6, as published;
    # the published facet table itself puts each singleton in 5
    assert counts[frozenset()] == 4
    assert counts[frozenset({0, 2})] == 6 and counts[frozenset({1, 3})] == 6
    assert all(counts[frozenset({v})] == 5 for v in range(4))
    empty = build_polytope(G.cycle(3), G.cycle(4))
    assert empty.num_vertices == 0
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(8, f"square polytope: 7 vertices, the 8 published facets, counts "
              f"4/5/6, not simple; triangle-into-square empty ({elapsed:.2f}s)")


def test_criterion_09_pentagon_stable_set_facets():
    start = time.time()
    poly = stable_set_polytope(G.cycle(5))
    desc = facets(poly)
    assert len(desc.facets) == 11
    hole = [f for f in desc.facets if f.normal == (1, 1, 1, 1, 1)]
    assert len(hole) == 1 and hole[0].offset == 2
    elapsed = time.time() - start
    assert elapsed < 10
    report(9, f"pentagon stable-set polytope has 11 facets including the "
              f"odd-hole inequality with right side 2 ({elapsed:.2f}s)")


def test_criterion_10_poset_suite():
    start = time.time()
    checked = 0
    for n in range(1, 6):
        for poset in all_posets(n):
            xi_bijection(poset)  # raises if not a verified bijection
            cmp = hibi_vs_topgraded(poset)
            assert cmp.memberships
            assert cmp.mutual_generation
            checked += 1
    assert checked == 1 + 2 + 5 + 16 + 63
    elapsed = time.time() - start
    assert elapsed < 600
    report(10, f"lattice bijection and generator correspondence verified on "
               f"all {checked} posets up to 5 elements ({elapsed:.1f}s)")


K5_TABLE = {1: {(2, 4)}, 2: {(1, 3)}, 3: {(0, 2)},
            4: {(0, 2), (1, 3), (2, 4)}, 5: {(0, 4)},
            6: {(0, 4), (1, 3), (0, 2)}}
OCTA_TABLE = {1: {(4, 5)}, 2: {(2, 3)}, 3: {(0, 1)},
              4: {(0, 1), (2, 3), (4, 5)}}


def test_criterion_11_coloring_certificates():
    start = time.time()
    k5 = G.complete(5)
    sys5 = build_system(G.complete(3), k5)
    b6 = Binomial.make(
        [paper_var(sys5, s) for s in "123 145 325 341 521 543".split()],
        [paper_var(sys5, s) for s in "125 143 321 345 523 541".split()])
    cert = analyze_certificate(k5, sys5, b6)
    assert cert.verdict == "NOT_4_COLORABLE"
    for row in cert.table:
        assert {p for p, _ in row.identifications} == K5_TABLE[row.position + 1]
        assert any(mk == "adjacent" for _, mk in row.identifications)
    octa = G.octahedron()
    syso = build_system(G.complete(3), octa)
    b4 = Binomial.make(
        [paper_var(syso, s) for s in "135 146 236 245".split()],
        [paper_var(syso, s) for s in "136 145 235 246".split()])
    cert_o = analyze_certificate(octa, syso, b4, relation=[(0, 1), (2, 3), (4, 5)])
    assert cert_o.verdict == "PROPERTY"
    for row in cert_o.table:
        assert {p for p, _ in row.identifications} == OCTA_TABLE[row.position + 1]
        assert any(mk == "relation" for _, mk in row.identifications)
    assert chromatic_number(k5) == 5
    assert is_k_colorable(octa, 4)
    elapsed = time.time() - start
    assert elapsed < 30
    report(11, f"both published identification tables reproduced; brute force "
               f"confirms the verdicts ({elapsed:.1f}s)")


def _isomorphic(g1, g2):
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    for perm in permutations(range(g1.n)):
        if all(tuple(sorted((perm[u], perm[v]))) in g2.edges for u, v in g1.edges):
            return True
    return False


def test_criterion_12_reduced_census():
    start = time.time()
    complete_widths = []
    easy_widths = []
    width3 = []
    total = 0
    for n in range(2, 7):
        for g in graphs_upto_iso(n, connected=True):
            total += 1
            isys = IndepSystem(g)
            w = markov_basis(isys.system, 4).width
            assert w in (0, 2, 3), (sorted(g.edges), w)
            if g == G.complete(n):
                complete_widths.append(w)
            if G.is_bipartite(g) is not None or G.is_almost_bipartite(g) is not None:
                easy_widths.append(w)
            if w == 3:
                width3.append(g)
    assert total == 142
    assert complete_widths == [0] * 5
    assert all(w <= 2 for w in easy_widths)
    assert len(width3) == 1
    assert _isomorphic(width3[0], G.complement(G.cycle(6)))
    elapsed = time.time() - start
    assert elapsed < 1800
    report(12, f"census over {total} connected graphs up to 6 vertices: widths "
               f"in {{0,2,3}}, complete graphs 0, (almost-)bipartite <= 2, the "
               f"complement of the 6-cycle alone at 3 ({elapsed:.1f}s)")


def test_criterion_13_thread_determinism():
    from homtoric.cli import main
    start = time.time()
    commands = [
        ["width", "complement:cycle:6", "spoon", "--cap", "4"],
        ["markov", "path:4", "path:3", "--cap", "3"],
        ["reproduce", "--all"],
        ["--json", "polytope", "cycle:4", "spoon", "--facets"],
    ]
    for cmd in commands:
        outputs = []
        for threads in ("1", "4"):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(["--threads", threads] + cmd)
            assert code == 0
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1], cmd
    elapsed = time.time() - start
    report(13, f"byte-identical output across 1-thread and 4-thread runs "
               f"({elapsed:.1f}s)")
