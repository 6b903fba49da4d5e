"""Codimension-zero gluing of ideals of graph homomorphisms.

Two induced subgraphs G1, G2 of a common graph G = G1 u G2 over a target
H give a fiber-product description of I(G -> H).  When the column
configuration of the intersection system is linearly independent, a
generating set of the glued ideal is obtained by lifting generating sets
of both sides in all compatible ways and adding the quadratic swaps of
second components between homomorphisms that agree on the intersection.
Lift families are counted, not listed: a family's size is the product of
its factors' extension pool sizes and of each class's pairing count, exact
integers for all the elements of one shape at once.  Which pairings are
distinct depends only on an element's run pattern (where its classes and
its runs of equal plus or minus factors begin), so they are listed once
per pattern, as positions of minus factors, and cached.  Strides, pools and
matchings of all the elements of a shape are gathered with numpy, and lifts
are built as ``pair_index[x, y]`` lookups in blocks of at most ``BLOCK``
rows; a lift's sides share a variable only where its element's sides do.
Bases are read as ``shapes`` rows; lifts and swaps stay int rows until
``OrientedBasis.from_rows`` sorts them and makes each element, a tuple,
from its row.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import accumulate, chain, combinations, islice, product
from math import prod
from operator import add

import numpy as np

from . import graph as graphs
from .graph import Graph, induced_subgraph
from .toric import Binomial, OrientedBasis, ToricSystem, build_system, markov_basis
from .util import ResourceCapExceeded, echelon

BLOCK = 1 << 14     # lift rows built at a time
PIPELINE_LIFT_CAP = 500_000     # lift family size per gluing of a pipeline
MATCHING_TABLES = 1 << 10   # (run pattern, count) tables of matchings kept


class GlueError(ValueError):
    pass


class LiftTooLarge(ResourceCapExceeded):
    pass


class GlueSpec:
    """A separation of a graph into two induced sides covering all edges,
    with the systems over ``h`` of the union, both sides and their
    intersection (each hom enumeration bounded by ``caps``), the restriction
    tables, the pair table (-1 off the union) and the class ranks.  A
    pipeline passes one ``_systems`` dict (graph -> system over ``h``) to
    all of its separations, so each graph's system is built once."""

    __slots__ = ("side1", "side2", "shared", "h", "sub1", "sub2", "inter",
                 "sys_union", "sys1", "sys2", "sys_inter", "cls1", "cls2", "cid1", "cid2",
                 "pair_index", "r1", "r2", "xs_by_class", "ys_by_class")

    def __init__(self, union: Graph, side1, side2, h: Graph, *, _systems=None, **caps):
        self.side1 = tuple(sorted(set(side1)))
        self.side2 = tuple(sorted(set(side2)))
        if set(self.side1) | set(self.side2) != set(range(union.n)):
            raise GlueError("sides must cover all vertices")
        s1, s2 = set(self.side1), set(self.side2)
        for u, v in union.edges:
            if not ((u in s1 and v in s1) or (u in s2 and v in s2)):
                raise GlueError(f"edge ({u},{v}) crosses the separation")
        self.shared = tuple(sorted(s1 & s2))
        self.h = h
        self.sub1 = induced_subgraph(union, self.side1)
        self.sub2 = induced_subgraph(union, self.side2)
        self.inter = induced_subgraph(union, self.shared)

        systems = {} if _systems is None else _systems
        parts = (union, self.sub1.graph, self.sub2.graph, self.inter.graph)
        for g in parts:
            if g not in systems:
                systems[g] = build_system(g, h, **caps)
        self.sys_union, self.sys1, self.sys2, self.sys_inter = (systems[g] for g in parts)

        pos1 = [self.sub1.index[w] for w in self.shared]
        pos2 = [self.sub2.index[w] for w in self.shared]
        self.cls1 = [tuple(m[p] for p in pos1) for m in self.sys1.homs.maps]
        self.cls2 = [tuple(m[p] for p in pos2) for m in self.sys2.homs.maps]
        rank = {c: i for i, c in enumerate(sorted(set(self.cls1) | set(self.cls2)))}
        self.cid1, self.cid2 = (np.array([rank[c] for c in cls], dtype=np.int64)
                                for cls in (self.cls1, self.cls2))

        index1, index2, maps = self.sys1.homs.index, self.sys2.homs.index, self.sys_union.homs.maps
        self.r1 = [index1[tuple(m[v] for v in self.sub1.vertices)] for m in maps]
        self.r2 = [index2[tuple(m[v] for v in self.sub2.vertices)] for m in maps]
        self.pair_index = np.full((len(self.cls1), len(self.cls2)), -1, dtype=np.int64)
        self.pair_index[self.r1, self.r2] = range(len(self.r1))

        self.xs_by_class, self.ys_by_class = {}, {}
        for by_class, cls in ((self.xs_by_class, self.cls1), (self.ys_by_class, self.cls2)):
            for i, c in enumerate(cls):
                by_class.setdefault(c, []).append(i)


def check_codim_zero(spec: GlueSpec) -> bool:
    """Exact integer rank test on the intersection configuration.

    The columns are indexed by Hom(G1 n G2, H).  Besides the edge rows of
    the intersection system, rows that are linear in both side systems are
    available for the grading: the total degree (when both sides carry an
    edge) and the vertex-image statistics of every shared vertex lying on
    an edge in both sides.
    """
    homs = spec.sys_inter.homs
    if (ncols := len(homs)) <= 1:
        return True
    rows = spec.sys_inter.dense_matrix().tolist()
    g1, g2 = spec.sub1.graph, spec.sub2.graph
    if g1.edges and g2.edges:
        rows.append([1] * ncols)
    for w in spec.shared:
        if g1.degree_on_edge(spec.sub1.index[w]) and g2.degree_on_edge(spec.sub2.index[w]):
            p = spec.inter.index[w]
            rows.extend([1 if m[p] == t else 0 for m in homs.maps] for t in range(spec.h.n))
    return len(echelon(rows)[0]) == ncols


@dataclass(frozen=True)
class GlueResult:
    basis: OrientedBasis
    degrees_full: tuple      # exact degree set of the complete family
    truncated: bool
    materialized: int
    attempted: int           # pre-deduplication size of the complete family


@cache
def _pairing_count(runs, counts, start=0):
    """Distinct pairings of two multisets with multiplicities ``runs`` and
    ``counts``: integer matrices with these margins (row 0 filled one unit at
    a time from column ``start`` on), k! for k ones each."""
    if not runs or not runs[0]:
        return _pairing_count(runs[1:], tuple(sorted(c for c in counts if c))) if runs else 1
    return sum(_pairing_count((runs[0] - 1,) + runs[1:],
                              counts[:j] + (counts[j] - 1,) + counts[j + 1:], j)
               for j in range(start, len(counts)) if counts[j])


@cache
def _pairings(starts):
    """Distinct pairings of an element, from the bytes of its run-start flags
    (class, plus factor, minus factor) at each position, in sorted order,
    and at one more position, where every run ends."""
    cls, p, q = (list(accumulate(starts[o:-3:3])) for o in range(3))
    return prod(_pairing_count(*(tuple(sorted(Counter(r for r, e in zip(side, cls) if e == c)
                                              .values())) for side in (p, q)))
                for c in set(cls))


@lru_cache(maxsize=MATCHING_TABLES)
def _matchings(starts, count):
    """The first ``count`` distinct pairings of an element with run-start
    bytes ``starts`` (see ``_pairings``) in ``_distinct_matchings`` order,
    each as the positions of the minus factors matched to the plus factors
    in turn, read-only as every caller shares it.  A factor is named by the
    first position of its run, so the run pattern alone decides the
    pairings and their order."""
    cls, p, q = (list(accumulate((i * f for i, f in enumerate(starts[o:-3:3])), max))
                 for o in range(3))
    table = np.array([*islice(_distinct_matchings(p, q, cls), count)], dtype=np.int64)
    table.flags.writeable = False
    return table.reshape(count, len(cls))


def _distinct_matchings(ps, qs, cls):
    """The partners of ``ps`` among ``qs`` in each class ``cls`` (all sorted by
    class, then variable) per distinct pairing, in first occurrence order in
    the ``product`` over classes of the permutations of their qs: lex order,
    not decreasing within a run of equal ps, ``qs`` first."""
    yield tuple(qs)
    left, seq = Counter(qs), []
    cand = {c: sorted({q for q, e in zip(qs, cls) if e == c}) for c in cls}

    def fill(i):
        if i == len(ps):
            yield tuple(seq)
            return
        for v in cand[cls[i]]:
            if left[v] and (not i or ps[i] != ps[i - 1] or v >= seq[-1]):
                left[v] -= 1
                seq.append(v)
                yield from fill(i + 1)
                seq.pop()
                left[v] += 1
    yield from islice(fill(0), 1, None)


def _lift_run(spec, side, shape, rows):
    """Count the lifts of the elements of one shape, the rows ``plus |
    minus`` of a basis view, without listing them.  Returns the family
    sizes (an object array of ints) and a generator of the lifts of the
    first ``steps[j]`` steps of element j (matchings in order, extensions
    in ``product`` order), as int arrays of rows ``plus | minus`` of at
    most ``BLOCK`` rows; a lift whose sides share a variable is stripped,
    and dropped when zero.  Elements are grouped by run pattern: one
    cached table of matchings serves every element of a pattern."""
    cid, other = (spec.cid1, spec.cid2) if side == 1 else (spec.cid2, spec.cid1)
    nv, size = len(cid), np.bincount(other, minlength=cid.max(initial=0) + 1)
    kp, kq = (np.sort(cid[x] * nv + x, axis=1) for x in (rows[:, :shape[0]], rows[:, shape[0]:]))
    cls, (n, d) = kp // nv, kp.shape
    if shape[0] != shape[1] or (cls != kq // nv).any():
        raise GlueError("binomial sides disagree on intersection classes; "
                        "not liftable (is it really a member?)")
    starts = np.ones((n, d + 1, 3), dtype=bool)     # a last position ends every run
    for o, run in enumerate((cls, kp, kq)):
        starts[:, 1:d, o] = run[:, 1:] != run[:, :-1]
    keys = starts.reshape(n, 3 * d + 3).view(np.dtype((np.void, 3 * d + 3)))[:, 0].tolist()
    z = size[cls]
    fam = np.prod(z, axis=1, dtype=object) * list(map(_pairings, keys))

    def lifts(steps):
        cum = np.ones((n, d + 1), dtype=np.int64)     # min(prod(z[:, i:]), steps)
        for i in range(d - 1, -1, -1):
            np.minimum(cum[:, i + 1] * z[:, i], steps, out=cum[:, i])
        count = -(-steps // np.maximum(cum[:, 0], 1))   # matchings used, cum[:, 0] steps each
        pos = np.concatenate([*map(_matchings, keys, count.tolist())])
        ends, ps, qs = np.cumsum(steps), kp % nv, kq % nv
        fac = np.array([cum[:, 1:], z, np.cumsum(size)[cls] - z, ps])
        one = np.array([cum[:, 0], ends - steps, np.cumsum(count) - count,
                        (ps[:, :, None] == qs[:, None, :]).any(axis=(1, 2)) | (d == 0)])
        order = np.argsort(other, kind="stable")
        table = spec.pair_index if side == 1 else spec.pair_index.T
        for lo in range(0, ends[-1], BLOCK):
            g = np.arange(lo, min(lo + BLOCK, ends[-1]))
            e = ends.searchsorted(g, side="right")
            (stride, pool, base, ps), (per, begin, combo, strip) = fac[:, e], one[:, e]
            s = g - begin
            lift = np.sort(table[np.array([ps, qs[e[:, None], pos[combo + s // per]]]),
                                 order[base + s[:, None] // stride % pool]], axis=2)
            keep = strip == 0
            yield np.concatenate(lift, axis=1)[keep]
            yield from (np.array([b.plus + b.minus])
                        for b in map(Binomial.make, *lift[:, ~keep].tolist()) if b)
    return fam, lifts


def _quad_rows(spec):
    """x1y1 * x2y2 - x1y2 * x2y1 for x1 < x2 and y1 < y2 in one class, sides unsorted."""
    for c, xs in spec.xs_by_class.items():
        ys = list(combinations(spec.ys_by_class.get(c, ()), 2))
        rows = spec.pair_index[xs].tolist() if ys else ()
        for (r1, r2), (y1, y2) in product(combinations(rows, 2), ys):
            yield r1[y1], r2[y2], r1[y2], r2[y1]


def glue_basis(spec: GlueSpec, basis1: OrientedBasis, basis2: OrientedBasis, *,
               lift_cap: int = 200_000, allow_truncation: bool = False) -> GlueResult:
    """Lift(B1) u Lift(B2) u Quad for a codimension-zero separation.

    A binomial lifts by every pairing of its sides that agrees on the
    intersection and every extension to the other side.  Families are
    counted, not listed; lifts are pair-table rows built in blocks, shape
    by shape in the order of the basis view, cut after ``lift_cap`` steps
    (with ``allow_truncation``; else an error), and a lift that strips to
    zero is one step.  Sizes and degrees are exact."""
    if not check_codim_zero(spec):
        raise GlueError("intersection configuration is not linearly independent")
    degrees, attempted, runs = set(), 0, []
    for side, basis in ((1, basis1), (2, basis2)):
        (spec.sys1 if side == 1 else spec.sys2).check_basis_members(basis)
        for shape, (_, rows) in basis.shapes.items():
            fam, run_lifts = _lift_run(spec, side, shape, rows)
            attempted += fam.sum()
            degrees |= {max(shape)} if fam.any() else set()
            runs.append((fam, run_lifts))
    quads = np.sort(np.array([*_quad_rows(spec)], dtype=np.int64).reshape(-1, 2, 2), axis=2)
    attempted += len(quads)
    degrees |= {2} if len(quads) else set()
    if attempted > lift_cap and not allow_truncation:
        raise LiftTooLarge(
            f"lift family has {attempted} members, above the cap {lift_cap}; "
            f"pass allow_truncation to keep an exact degree summary")
    # materialization pass: the first lift_cap enumeration steps, in order
    lifts, done = [], 0
    for fam, run_lifts in runs:
        left = np.maximum(lift_cap - done - np.cumsum(fam) + fam, 0)
        lifts.append(run_lifts(np.minimum(left, fam).astype(np.int64)))
        done += fam.sum()
    basis = OrientedBasis.from_rows(chain([quads.reshape(-1, 4)], *lifts))
    return GlueResult(basis, tuple(sorted(degrees)), attempted > lift_cap, len(basis),
                      attempted)


# ---------------------------------------------------------------------------
# lifted Groebner orientation

def glue_grobner(spec: GlueSpec, gb1: OrientedBasis, gb2: OrientedBasis) -> OrientedBasis:
    """Glue two weighted Groebner bases.

    The output orientation compares, lexicographically, the pulled-back
    side weights followed by an alignment weight for the quadratic swaps:
    an exact realization of perturbing the pullback order by an
    arbitrarily small multiple of the swap order.  Output weights are
    attached so glued systems can be glued again.
    """
    if gb1.weights is None or gb2.weights is None:
        raise GlueError("glue_grobner needs weighted bases")
    width = max([len(w) for w in gb1.weights + gb2.weights] or [0])
    w1, w2 = ([tuple(w) + (0,) * (width - len(w)) for w in gb.weights] for gb in (gb1, gb2))
    for gb, w in ((gb1, w1), (gb2, w2)):
        for b in gb:
            if _weight_sum(w, b.plus) == _weight_sum(w, b.minus):
                raise GlueError("input weights do not separate a basis element")
    weights = tuple(tuple(map(add, w1[x], w2[y])) + (x * y,) for x, y in zip(spec.r1, spec.r2))
    result = glue_basis(spec, gb1, gb2)
    oriented = []
    for b in result.basis:
        wp, wm = _weight_sum(weights, b.plus), _weight_sum(weights, b.minus)
        if wp == wm:
            raise AssertionError("glued weights fail to separate a binomial")
        oriented.append(b if wp > wm else b.flipped())
    return OrientedBasis(OrientedBasis.make(oriented).elements, weights)


def _weight_sum(weights, mono):
    """The sum of ``weights[v]`` (tuples of one length) over the factors v of ``mono``."""
    total = [0] * len(weights[0])
    for v in mono:
        for i, x in enumerate(weights[v]):
            total[i] += x
    return tuple(total)


# ---------------------------------------------------------------------------
# graph-class pipelines

@dataclass(frozen=True)
class PipelineResult:
    system: ToricSystem
    basis: OrientedBasis
    degrees_full: tuple
    truncated: bool


def forest_pipeline(g: Graph, h: Graph) -> PipelineResult:
    """Recursive leaf gluing: every forest ideal is generated by the
    quadratic square-free swaps collected along the decomposition."""
    if not (g.is_loopfree() and len(g.edges) == g.n - len(graphs.components(g))):
        raise GlueError("graph is not a forest")
    systems = {}

    def build(graph: Graph):
        if len(graph.edges) <= 1:
            return OrientedBasis.make(()), set(), None
        comps = graphs.components(graph)
        if len(comps) > 1:
            side2 = comps[-1]
            side1 = sorted(v for c in comps[:-1] for v in c)
        else:
            leaf = max(v for v in range(graph.n) if len(graph.neighbors(v)) == 1)
            side1 = [v for v in range(graph.n) if v != leaf]
            side2 = [leaf, next(iter(graph.neighbors(leaf)))]
        spec = GlueSpec(graph, side1, side2, h, _systems=systems)
        b1, d1, _ = build(spec.sub1.graph)
        b2, d2, _ = build(spec.sub2.graph)
        res = glue_basis(spec, b1, b2, lift_cap=PIPELINE_LIFT_CAP)
        return res.basis, d1 | d2 | set(res.degrees_full), spec.sys_union

    basis, degrees, system = build(g)   # the outermost union system
    system = system or build_system(g, h)
    # maps that differ only on isolated vertices have equal columns; the
    # gluing treats each side's maps as distinct, so join them linearly
    first, linear = {}, []
    for k, col in enumerate(system.cols):
        if col in first:
            linear.append((first[col], k))
        else:
            first[col] = k
    if linear:
        basis = OrientedBasis.from_rows([np.array(linear), *(r for _, r in basis.shapes.values())])
        degrees.add(1)
    return PipelineResult(system, basis, tuple(sorted(degrees)), False)


def _ear_order(g: Graph):
    """Removal order of degree-2 ears of a triangulated polygon, lowest
    index first; None when the graph is not such a triangulation."""
    if g.n < 3 or len(g.edges) != 2 * g.n - 3 or not g.is_loopfree():
        return None
    alive = set(range(g.n))
    adj = {v: set(g.neighbors(v)) for v in range(g.n)}
    order = []
    while len(alive) > 3:
        ear = next((v for v in sorted(alive)
                    if len(adj[v] & alive) == 2 and g.adjacent(*adj[v] & alive)), None)
        if ear is None:
            return None
        alive.remove(ear)
        order.append(ear)
    return order if all(g.adjacent(a, b) for a, b in combinations(sorted(alive), 2)) else None


def outerplanar_pipeline(g: Graph, h: Graph, base_basis: OrientedBasis = None, *,
                         lift_cap: int = PIPELINE_LIFT_CAP,
                         allow_truncation: bool = False) -> PipelineResult:
    """Ear-by-ear gluing of a maximal outerplanar graph over shared edges.

    ``base_basis`` is the generating set of the triangle ideal I(K3 -> H);
    when omitted it is computed by the layered fiber search up to degree
    3, which is only adequate for small targets.
    """
    if _ear_order(g) is None:
        raise GlueError("graph is not a maximal outerplanar triangulation")
    if base_basis is None:
        base_basis = markov_basis(build_system(graphs.complete(3), h), 3).basis
    systems = {}

    def build(graph: Graph):
        if graph.n == 3:
            return base_basis, set(b.degree for b in base_basis), False, None
        ear = _ear_order(graph)[0]
        side1 = [v for v in range(graph.n) if v != ear]
        side2 = sorted(graph.neighbors(ear)) + [ear]
        spec = GlueSpec(graph, side1, side2, h, _systems=systems)
        b1, d1, t1, _ = build(spec.sub1.graph)
        res = glue_basis(spec, b1, base_basis, lift_cap=lift_cap,
                         allow_truncation=allow_truncation)
        return (res.basis, d1 | set(res.degrees_full), t1 or res.truncated,
                spec.sys_union)

    basis, degrees, truncated, system = build(g)   # the outermost union system
    system = system or build_system(g, h)
    return PipelineResult(system, basis, tuple(sorted(degrees)), truncated)
