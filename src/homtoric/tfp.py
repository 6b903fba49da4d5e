"""Codimension-zero gluing of ideals of graph homomorphisms.

Two induced subgraphs G1, G2 of a common graph G = G1 u G2 over a target
H give a fiber-product description of I(G -> H).  When the column
configuration of the intersection system is linearly independent, a
generating set of the glued ideal is obtained by lifting generating sets
of both sides in all compatible ways and adding the quadratic swaps of
second components between homomorphisms that agree on the intersection.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from . import graph as graphs
from .graph import Graph, induced_subgraph
from .toric import (Binomial, OrientedBasis, ToricSystem, build_system,
                    NormalityWitness, markov_basis)
from .util import echelon


class GlueError(ValueError):
    pass


class LiftTooLarge(RuntimeError):
    pass


class GlueSpec:
    """A separation of a graph into two induced sides covering all edges."""

    __slots__ = ("union", "side1", "side2", "shared", "h",
                 "sub1", "sub2", "inter", "_ctx")

    def __init__(self, union: Graph, side1, side2, h: Graph):
        self.union = union
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
        self._ctx = None

    # -- hom bookkeeping -----------------------------------------------------

    def context(self, **caps):
        if self._ctx is None:
            self._ctx = _GlueContext(self, **caps)
        return self._ctx


class _GlueContext:
    """Hom sets of both sides, the union, and the restriction tables."""

    def __init__(self, spec: GlueSpec, **caps):
        self.spec = spec
        h = spec.h
        self.sys_union = build_system(spec.union, h, **caps)
        self.sys1 = build_system(spec.sub1.graph, h, **caps)
        self.sys2 = build_system(spec.sub2.graph, h, **caps)
        self.sys_inter = build_system(spec.inter.graph, h, **caps)

        pos1 = [spec.sub1.index[w] for w in spec.shared]
        pos2 = [spec.sub2.index[w] for w in spec.shared]
        self.cls1 = [tuple(m[p] for p in pos1) for m in self.sys1.homs.maps]
        self.cls2 = [tuple(m[p] for p in pos2) for m in self.sys2.homs.maps]

        self.pair_index = {}
        self.r1 = []
        self.r2 = []
        for k, m in enumerate(self.sys_union.homs.maps):
            x = self.sys1.homs.index[tuple(m[v] for v in spec.sub1.vertices)]
            y = self.sys2.homs.index[tuple(m[v] for v in spec.sub2.vertices)]
            self.pair_index[(x, y)] = k
            self.r1.append(x)
            self.r2.append(y)

        self.xs_by_class = {}
        for x, c in enumerate(self.cls1):
            self.xs_by_class.setdefault(c, []).append(x)
        self.ys_by_class = {}
        for y, c in enumerate(self.cls2):
            self.ys_by_class.setdefault(c, []).append(y)


def check_codim_zero(spec: GlueSpec, **caps) -> bool:
    """Exact integer rank test on the intersection configuration.

    The columns are indexed by Hom(G1 n G2, H).  Besides the edge rows of
    the intersection system, rows that are linear in both side systems are
    available for the grading: the total degree (when both sides carry an
    edge) and the vertex-image statistics of every shared vertex lying on
    an edge in both sides.
    """
    ctx = spec.context(**caps)
    homs = ctx.sys_inter.homs
    ncols = len(homs)
    if ncols <= 1:
        return True
    rows = ctx.sys_inter.dense_matrix().tolist()
    g1, g2 = spec.sub1.graph, spec.sub2.graph
    if g1.edges and g2.edges:
        rows.append([1] * ncols)
    for w in spec.shared:
        on1 = g1.degree_on_edge(spec.sub1.index[w])
        on2 = g2.degree_on_edge(spec.sub2.index[w])
        if on1 and on2:
            p = spec.inter.index[w]
            for target in range(spec.h.n):
                rows.append([1 if m[p] == target else 0 for m in homs.maps])
    return len(echelon(rows)[0]) == ncols


@dataclass(frozen=True)
class GlueResult:
    basis: OrientedBasis
    degrees_full: tuple      # exact degree set of the complete family
    truncated: bool
    materialized: int
    attempted: int           # pre-deduplication size of the complete family


def _distinct_matchings(ps, qs):
    """Distinct multiset pairings between two equal-size lists."""
    seen = set()
    for perm in permutations(qs):
        pairing = tuple(sorted(zip(ps, perm)))
        if pairing not in seen:
            seen.add(pairing)
            yield pairing


def _lift_plan(ctx, b: Binomial, side: int):
    """Grouping of a binomial's factors by intersection class together with
    the exact (pre-deduplication) size of its lift family."""
    cls = ctx.cls1 if side == 1 else ctx.cls2
    others = ctx.ys_by_class if side == 1 else ctx.xs_by_class
    by_class_p, by_class_q = {}, {}
    for v in b.plus:
        by_class_p.setdefault(cls[v], []).append(v)
    for v in b.minus:
        by_class_q.setdefault(cls[v], []).append(v)
    if {c: len(v) for c, v in by_class_p.items()} != {c: len(v) for c, v in by_class_q.items()}:
        raise GlueError("binomial sides disagree on intersection classes; "
                        "not liftable (is it really a member?)")
    class_list = sorted(by_class_p)
    matchings, liftable, attempted = [], True, 1
    for c in class_list:
        ext = others.get(c, [])
        ms = list(_distinct_matchings(sorted(by_class_p[c]), sorted(by_class_q[c])))
        matchings.append(ms)
        attempted *= len(ms) * (len(ext) ** len(by_class_p[c]))
        if not ext:
            liftable = False
    return liftable, (attempted if liftable else 0), class_list, matchings


def _lift_materialize(ctx, side: int, class_list, matchings, budget):
    """Yield lifted binomials in a deterministic order, at most ``budget``
    enumeration steps."""
    others = ctx.ys_by_class if side == 1 else ctx.xs_by_class

    def embed(v, w):
        return ctx.pair_index[(v, w)] if side == 1 else ctx.pair_index[(w, v)]

    steps = 0
    for match_combo in product(*matchings):
        pairs = [pair for cls_pairs in match_combo for pair in cls_pairs]
        pools = []
        for c, cls_pairs in zip(class_list, match_combo):
            pools.extend([others[c]] * len(cls_pairs))
        for choice in product(*pools):
            steps += 1
            if steps > budget:
                return
            lifted = Binomial.make(
                [embed(p, w) for (p, _), w in zip(pairs, choice)],
                [embed(q, w) for (_, q), w in zip(pairs, choice)])
            if lifted is not None:
                yield lifted


def _quad_binomials(ctx):
    for c in sorted(ctx.xs_by_class):
        xs = ctx.xs_by_class[c]
        ys = ctx.ys_by_class.get(c, [])
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                for k in range(len(ys)):
                    for l in range(k + 1, len(ys)):
                        plus = tuple(sorted((ctx.pair_index[(xs[i], ys[k])],
                                             ctx.pair_index[(xs[j], ys[l])])))
                        minus = tuple(sorted((ctx.pair_index[(xs[i], ys[l])],
                                              ctx.pair_index[(xs[j], ys[k])])))
                        yield Binomial(plus, minus)


def glue_basis(spec: GlueSpec, basis1: OrientedBasis, basis2: OrientedBasis, *,
               lift_cap: int = 200_000, allow_truncation: bool = False,
               **caps) -> GlueResult:
    """Lift(B1) u Lift(B2) u Quad for a codimension-zero separation.

    Lifting enumerates, for every binomial, all pairings of its two sides
    that agree on the intersection and all extensions to the other side.
    When the complete family exceeds ``lift_cap`` the materialized basis is
    truncated (with ``allow_truncation``) or an error is raised; the degree
    set of the complete family is reported exactly either way.
    """
    if not check_codim_zero(spec, **caps):
        raise GlueError("intersection configuration is not linearly independent")
    ctx = spec.context(**caps)
    # exact accounting pass: liftability and family size, no enumeration
    degrees = set()
    attempted = 0
    plans = []
    for side, basis in ((1, basis1), (2, basis2)):
        system = ctx.sys1 if side == 1 else ctx.sys2
        system.check_basis_members(basis)
        for b in basis:
            liftable, n, class_list, matchings = _lift_plan(ctx, b, side)
            attempted += n
            if liftable:
                degrees.add(b.degree)
                plans.append((side, class_list, matchings, n))
    quads = list(_quad_binomials(ctx))
    attempted += len(quads)
    if quads:
        degrees.add(2)
    if attempted > lift_cap and not allow_truncation:
        raise LiftTooLarge(
            f"lift family has {attempted} members, above the cap {lift_cap}; "
            f"pass allow_truncation to keep an exact degree summary")
    # materialization pass
    out = set(quads)
    budget = lift_cap
    truncated = attempted > lift_cap
    for side, class_list, matchings, n in plans:
        if budget <= 0:
            break
        for lifted in _lift_materialize(ctx, side, class_list, matchings, budget):
            out.add(lifted)
        budget -= n
    basis = OrientedBasis.make(out)
    return GlueResult(basis, tuple(sorted(degrees)), truncated, len(basis), attempted)


# ---------------------------------------------------------------------------
# lifted Groebner orientation

def _pad(w, width):
    return tuple(w) + (0,) * (width - len(w))


def glue_grobner(spec: GlueSpec, gb1: OrientedBasis, gb2: OrientedBasis, *,
                 lift_cap: int = 200_000, **caps) -> OrientedBasis:
    """Glue two weighted Groebner bases.

    The output orientation compares, lexicographically, the pulled-back
    side weights followed by an alignment weight for the quadratic swaps:
    an exact realization of perturbing the pullback order by an
    arbitrarily small multiple of the swap order.  Output weights are
    attached so glued systems can be glued again.
    """
    if gb1.weights is None or gb2.weights is None:
        raise GlueError("glue_grobner needs weighted bases")
    ctx = spec.context(**caps)
    for gb in (gb1, gb2):
        for b in gb:
            if gb.monomial_weight(b.plus) == gb.monomial_weight(b.minus):
                raise GlueError("input weights do not separate a basis element")
    width = max([len(w) for w in gb1.weights + gb2.weights] or [0])
    weights = []
    for k in range(ctx.sys_union.num_vars):
        x, y = ctx.r1[k], ctx.r2[k]
        main = tuple(a + b for a, b in zip(_pad(gb1.weights[x], width),
                                           _pad(gb2.weights[y], width)))
        weights.append(main + (x * y,))
    weights = tuple(weights)
    wsum = OrientedBasis((), weights).monomial_weight
    result = glue_basis(spec, gb1, gb2, lift_cap=lift_cap, **caps)
    oriented = []
    for b in result.basis:
        wp, wm = wsum(b.plus), wsum(b.minus)
        if wp == wm:
            raise AssertionError("glued weights fail to separate a binomial")
        oriented.append(b if wp > wm else b.flipped())
    return OrientedBasis(OrientedBasis.make(oriented).elements, weights)


def trivial_weighted_basis(system) -> OrientedBasis:
    """Empty basis with zero weights; the seed for gluing pipelines."""
    return OrientedBasis((), tuple(() for _ in range(system.num_vars)))


# ---------------------------------------------------------------------------
# graph-class pipelines

@dataclass(frozen=True)
class PipelineResult:
    system: ToricSystem
    basis: OrientedBasis
    degrees_full: tuple
    truncated: bool
    witness: NormalityWitness


def forest_pipeline(g: Graph, h: Graph, *, lift_cap: int = 500_000,
                    allow_truncation: bool = False, **caps) -> PipelineResult:
    """Recursive leaf gluing: every forest ideal is generated by the
    quadratic square-free swaps collected along the decomposition."""
    if not (g.is_loopfree() and len(g.edges) == g.n - len(graphs.components(g))):
        raise GlueError("graph is not a forest")

    def build(graph: Graph):
        degrees = set()
        truncated = False
        if len(graph.edges) <= 1:
            return OrientedBasis.make(()), degrees, truncated
        comps = graphs.components(graph)
        if len(comps) > 1:
            side2 = comps[-1]
            side1 = sorted(v for c in comps[:-1] for v in c)
        else:
            degs = {v: len(graph.neighbors(v)) for v in range(graph.n)}
            leaf = max(v for v in range(graph.n) if degs[v] == 1)
            nbr = next(iter(graph.neighbors(leaf)))
            side1 = [v for v in range(graph.n) if v != leaf]
            side2 = [leaf, nbr]
        spec = GlueSpec(graph, side1, side2, h)
        b1, d1, t1 = build(spec.sub1.graph)
        b2, d2, t2 = build(spec.sub2.graph)
        res = glue_basis(spec, b1, b2, lift_cap=lift_cap,
                         allow_truncation=allow_truncation, **caps)
        return res.basis, d1 | d2 | set(res.degrees_full), t1 or t2 or res.truncated

    basis, degrees, truncated = build(g)
    system = build_system(g, h, **caps)
    # maps that differ only on isolated vertices have equal columns; the
    # gluing treats each side's maps as distinct, so join them linearly
    first, linear = {}, []
    for k, col in enumerate(system.cols):
        if col in first:
            linear.append(Binomial.make((first[col],), (k,)))
        else:
            first[col] = k
    if linear:
        basis = OrientedBasis.make(basis.elements + tuple(linear))
        degrees.add(1)
    witness = NormalityWitness(normal=True, cohen_macaulay=True, koszul=False)
    return PipelineResult(system, basis, tuple(sorted(degrees)), truncated, witness)


def _ear_order(g: Graph):
    """Removal order of degree-2 ears of a triangulated polygon, lowest
    index first; None when the graph is not such a triangulation."""
    if g.n < 3 or len(g.edges) != 2 * g.n - 3 or not g.is_loopfree():
        return None
    alive = set(range(g.n))
    adj = {v: set(g.neighbors(v)) for v in range(g.n)}
    order = []
    while len(alive) > 3:
        ear = None
        for v in sorted(alive):
            nb = adj[v] & alive
            if len(nb) == 2:
                a, b = sorted(nb)
                if g.adjacent(a, b):
                    ear = v
                    break
        if ear is None:
            return None
        alive.remove(ear)
        order.append(ear)
    a, b, c = sorted(alive)
    if not (g.adjacent(a, b) and g.adjacent(a, c) and g.adjacent(b, c)):
        return None
    return order


def outerplanar_pipeline(g: Graph, h: Graph, base_basis: OrientedBasis = None, *,
                         base_cap: int = 3, lift_cap: int = 500_000,
                         allow_truncation: bool = False, base_normal=None,
                         **caps) -> PipelineResult:
    """Ear-by-ear gluing of a maximal outerplanar graph over shared edges.

    ``base_basis`` is the generating set of the triangle ideal I(K3 -> H);
    when omitted it is computed by the layered fiber search up to
    ``base_cap``, which is only adequate for small targets.
    """
    if _ear_order(g) is None:
        raise GlueError("graph is not a maximal outerplanar triangulation")
    if base_basis is None:
        base_basis = markov_basis(build_system(graphs.complete(3), h, **caps),
                                  base_cap).basis

    def build(graph: Graph):
        if graph.n == 3:
            return base_basis, set(b.degree for b in base_basis), False
        order = _ear_order(graph)
        ear = order[0]
        a, b = sorted(graph.neighbors(ear))
        side1 = [v for v in range(graph.n) if v != ear]
        side2 = [a, b, ear]
        spec = GlueSpec(graph, side1, side2, h)
        b1, d1, t1 = build(spec.sub1.graph)
        res = glue_basis(spec, b1, base_basis, lift_cap=lift_cap,
                         allow_truncation=allow_truncation, **caps)
        return res.basis, d1 | set(res.degrees_full), t1 or res.truncated

    basis, degrees, truncated = build(g)
    system = build_system(g, h, **caps)
    witness = (NormalityWitness(normal=True, cohen_macaulay=True, koszul=False)
               if base_normal else NormalityWitness())
    return PipelineResult(system, basis, tuple(sorted(degrees)), truncated, witness)
