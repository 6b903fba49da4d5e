"""Ideals of independent sets: everything specific to the spoon target.

Variables of the ring correspond to independent sets of the source graph.
For a bipartite source each variable splits as (A, B) = (S & V1, S & V2);
for an almost-bipartite source (bipartite after deleting one apex vertex)
variables additionally carry a marker recording whether the apex is in
the set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import graph as graphs
from .graph import Graph, Bipartition
from .homset import enumerate_homs, indep_encode
from .toric import Binomial, OrientedBasis, ToricSystem, markov_basis


class IndepSystem:
    """Toric system for G -> spoon together with the independent-set
    encoding of its variables."""

    __slots__ = ("graph", "system", "sets", "index")

    def __init__(self, g: Graph, **caps):
        self.graph = g
        homs = enumerate_homs(g, graphs.spoon(), **caps)
        self.system = ToricSystem(g, graphs.spoon(), homs)
        self.sets, self.index = indep_encode(g, homs)

    @property
    def num_vars(self):
        return len(self.sets)

    def var(self, vertices) -> int:
        s = frozenset(vertices)
        if s not in self.index:
            raise KeyError(f"{sorted(s)} is not an independent set of the graph")
        return self.index[s]

    def set_name(self, i: int) -> str:
        return "{" + ",".join(map(str, sorted(self.sets[i]))) + "}"


@dataclass(frozen=True)
class MultiDegree:
    total: int
    by_vertex: tuple


def multidegree(isys: IndepSystem, mono) -> MultiDegree:
    """Per-vertex count of factors containing the vertex."""
    counts = [0] * isys.graph.n
    for v in mono:
        for x in isys.sets[v]:
            counts[x] += 1
    return MultiDegree(len(mono), tuple(counts))


# ---------------------------------------------------------------------------
# bipartite sources

def _straighten(a, b, c, d):
    """((A&C, B|D), (A|C, B&D)) - the comparable pair with the same
    vertex statistics."""
    return (a & c, b | d), (a | c, b & d)


def _require_no_isolated(g: Graph):
    # a vertex on no edge is invisible to the edge statistics, so the
    # quadratic sorting binomials cannot generate the ideal (degree-one
    # generators like r_{v} - r_{} appear instead)
    if not all(g.degree_on_edge(v) for v in range(g.n)):
        raise ValueError("source graph must have every vertex on an edge")


def bipartite_grobner(isys: IndepSystem, bip: Bipartition = None) -> OrientedBasis:
    """All sorting binomials r_{A,B} r_{C,D} - r_{A&C, B|D} r_{A|C, B&D}
    over incomparable pairs of independent sets, oriented with the
    incomparable pair leading.  This oriented set passes the directed
    fiber-graph check for any loop-free bipartite source without isolated
    vertices."""
    g = isys.graph
    _require_no_isolated(g)
    if bip is None:
        bip = graphs.is_bipartite(g)
    if bip is None:
        raise ValueError("graph is not bipartite")
    labeled = [(i, s & bip.part1, s & bip.part2) for i, s in enumerate(isys.sets)]
    return OrientedBasis.make([Binomial(plus, minus) for plus, minus
                               in _sorting_moves(isys, labeled, lambda p, q: p | q)])


def _sorting_moves(isys: IndepSystem, labeled, make_set):
    """(plus, minus) of the sorting move of every incomparable pair among
    ``labeled`` (variable, A, B) triples, in order; ``make_set`` turns a
    straightened (A, B) back into its independent set."""
    for (i, a, b), (j, c, d) in combinations(labeled, 2):
        (t1a, t1b), (t2a, t2b) = _straighten(a, b, c, d)
        s1, s2 = make_set(t1a, t1b), make_set(t2a, t2b)
        if {s1, s2} != {isys.sets[i], isys.sets[j]}:
            yield (i, j), tuple(sorted((isys.index[s1], isys.index[s2])))


# ---------------------------------------------------------------------------
# almost-bipartite sources

@dataclass(frozen=True)
class ApexLabeling:
    apex: int
    part1: frozenset
    part2: frozenset
    circ: tuple     # (var, A, B) for sets without the apex
    bullet: tuple   # (var, C, D) for sets containing the apex


def apex_labeling(isys: IndepSystem) -> ApexLabeling:
    split = graphs.is_almost_bipartite(isys.graph)
    if split is None:
        raise ValueError("graph is not almost bipartite")
    v1, v2 = split.part1, split.part2
    circ, bullet = [], []
    for i, s in enumerate(isys.sets):
        if split.apex in s:
            bullet.append((i, s & v1, s & v2))
        else:
            circ.append((i, s & v1, s & v2))
    return ApexLabeling(split.apex, v1, v2, tuple(circ), tuple(bullet))


@dataclass(frozen=True)
class TaggedBasis:
    basis: OrientedBasis
    tags: dict          # Binomial -> "uncovered" | "covered" | "mixed"
    labeling: ApexLabeling = None


def almost_bipartite_grobner(isys: IndepSystem) -> TaggedBasis:
    """Quadratic square-free oriented basis for an almost-bipartite source.

    Three families: sorting binomials among apex-free variables
    (uncovered), among apex variables (covered), and the mixed moves that
    shift a subset E out of the apex-free A-part into the apex C-part or
    transfer a single vertex from the apex D-part to the apex-free B-part.
    Every element is oriented with the unstraightened side leading, so
    directed moves run toward the normal form.
    """
    g = isys.graph
    _require_no_isolated(g)
    lab = apex_labeling(isys)
    nbrs = {v: g.neighbors(v) for v in range(g.n)}
    elems = {}

    def emit(plus, minus, tag):
        b = Binomial.make(plus, minus)
        if b is None:
            return
        key = b.unordered_key()
        prev = elems.get(key)
        if prev is not None and prev[0] != b:
            raise AssertionError("conflicting orientations for one binomial")
        elems[key] = (b, tag)

    apex = frozenset({lab.apex})
    for plus, minus in _sorting_moves(isys, lab.circ, lambda p, q: p | q):
        emit(plus, minus, "uncovered")
    for plus, minus in _sorting_moves(isys, lab.bullet, lambda p, q: p | q | apex):
        emit(plus, minus, "covered")

    # mixed moves: shift E from the circ A-part into the bullet C-part
    for i, a, b in lab.circ:
        for j, c, d in lab.bullet:
            pool = sorted(a - c)
            for mask in range(1, 1 << len(pool)):
                e = frozenset(pool[t] for t in range(len(pool)) if mask >> t & 1)
                ne = frozenset().union(*(nbrs[x] for x in e)) - e
                s1 = (a - e) | b | (ne & d)
                s2 = c | e | (d - ne) | apex
                k1, k2 = isys.index.get(s1), isys.index.get(s2)
                if k1 is None or k2 is None:
                    continue
                emit((i, j), tuple(sorted((k1, k2))), "mixed")

    # mixed moves: transfer one vertex from the bullet D-part to the circ B-part
    for i, a, b in lab.circ:
        for j, c, d in lab.bullet:
            for u in sorted(d - b):
                s1 = a | b | {u}
                k1 = isys.index.get(s1)
                if k1 is None:
                    continue
                s2 = c | (d - {u}) | apex
                emit((i, j), tuple(sorted((k1, isys.index[s2]))), "mixed")

    basis = OrientedBasis.make([b for b, _ in elems.values()])
    tags = {b: tag for b, tag in elems.values()}
    return TaggedBasis(basis, tags, lab)


# ---------------------------------------------------------------------------
# top graded part

@dataclass(frozen=True)
class TopGraded:
    alpha: int
    vars: tuple            # variable indices of the full system
    sets: tuple            # the maximum independent sets, aligned with vars
    subsystem: ToricSystem
    basis: OrientedBasis


def top_graded(isys: IndepSystem, degree_cap: int = 3) -> TopGraded:
    """Restriction to the variables of maximum independent-set size; the
    restriction is a face of the underlying polytope, so its generators
    come straight from the layered fiber construction."""
    alpha = max((len(s) for s in isys.sets), default=0)
    idxs = tuple(i for i, s in enumerate(isys.sets) if len(s) == alpha)
    sub = isys.system.restrict_columns(idxs)
    res = markov_basis(sub, degree_cap)
    return TopGraded(alpha, idxs, tuple(isys.sets[i] for i in idxs), sub, res.basis)


# ---------------------------------------------------------------------------
# complements of even cycles

def complement_cycle_basis(k: int):
    """Minimal quadratics plus the alternating-matching binomial of degree
    k for the complement of the cycle on 2k vertices; its width is exactly
    k."""
    if k < 2:
        raise ValueError("needs k >= 2")
    g = graphs.complement(graphs.cycle(2 * k))
    isys = IndepSystem(g)
    n = 2 * k
    even = sorted(isys.var({2 * i, (2 * i + 1) % n}) for i in range(k))
    odd = sorted(isys.var({(2 * i + 1) % n, (2 * i + 2) % n}) for i in range(k))
    special = Binomial.make(*sorted((tuple(even), tuple(odd))))
    quads = markov_basis(isys.system, 2).basis
    basis = OrientedBasis.make(list(quads) + [special])
    return isys, basis, special
