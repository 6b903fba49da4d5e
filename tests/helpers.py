"""Shared test helpers: exhaustive graph generation up to isomorphism and
independent brute-force oracles for cross-checking the library."""

from collections import Counter, deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product
from math import gcd
from random import Random

import numpy as np

from homtoric.graph import (AlmostBipartiteSplit, Bipartition, Graph, complete,
                            complete_looped, components, induced_subgraph, path, spoon)
from homtoric.hibi import Poset
from homtoric.polytope import Facet, FacetDescription


@lru_cache(maxsize=None)
def graphs_upto_iso(n, connected=False, no_isolated=False):
    """All loop-free graphs on n vertices up to isomorphism."""
    if n == 0:
        return ()
    pairs = list(combinations(range(n), 2))
    m = len(pairs)
    pair_pos = {p: i for i, p in enumerate(pairs)}
    masks = np.arange(1 << m, dtype=np.int64)
    canon = masks.copy()
    for perm in permutations(range(n)):
        targets = [pair_pos[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
        pm = np.zeros_like(masks)
        for b in range(m):
            pm |= ((masks >> b) & 1) << targets[b]
        np.minimum(canon, pm, out=canon)
    reps = np.unique(canon)
    out = []
    for mask in map(int, reps):
        g = Graph(n, [pairs[b] for b in range(m) if mask >> b & 1])
        if connected and len(components(g)) > 1:
            continue
        if no_isolated and not all(g.degree_on_edge(v) for v in range(g.n)):
            continue
        out.append(g)
    return tuple(out)


# The three queue loops that walked G before ``graph.bfs`` existed:
# enumerate_homs' vertex order, the components and the 2-coloring.

def queue_bfs_order(g):
    order = []
    seen = [False] * g.n
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            order.append(u)
            for w in sorted(g.neighbors(u)):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    return order


def queue_components(g):
    seen = set()
    out = []
    for root in range(g.n):
        if root in seen:
            continue
        comp = {root}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        out.append(sorted(comp))
    return out


def queue_is_bipartite(g):
    """BFS 2-coloring from the lowest vertex of each component; loops or an
    odd cycle give None.  Color-0 vertices land in part1."""
    if any(u == v for u, v in g.edges):
        return None
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    part1 = frozenset(v for v in range(g.n) if color[v] == 0)
    part2 = frozenset(v for v in range(g.n) if color[v] == 1)
    return Bipartition(part1, part2)


def naive_almost_bipartite(g):
    """The apex split by deletion: the lowest vertex whose induced
    complement ``queue_is_bipartite`` splits, parts relabelled back."""
    for apex in range(g.n):
        sub = induced_subgraph(g, [u for u in range(g.n) if u != apex])
        bip = queue_is_bipartite(sub.graph)
        if bip is not None:
            return AlmostBipartiteSplit(apex, frozenset(sub.vertices[i] for i in bip.part1),
                                        frozenset(sub.vertices[i] for i in bip.part2))
    return None


def naive_is_k_colorable(g, k):
    """The backtracking colorer that Hom(g, K_k) replaced: vertices by
    descending degree, each tried on the colors its colored neighbours
    leave free."""
    if not g.is_loopfree():
        return False
    colors = [-1] * g.n
    order = sorted(range(g.n), key=lambda v: -len(g.neighbors(v)))

    def backtrack(i):
        if i == g.n:
            return True
        v = order[i]
        used = {colors[u] for u in g.neighbors(v) if colors[u] != -1}
        for c in range(k):
            if c not in used:
                colors[v] = c
                if backtrack(i + 1):
                    return True
                colors[v] = -1
        return False

    return backtrack(0)


def with_seeded_loops(g, seed):
    """g with a loop added at each vertex a seeded coin picks."""
    rng = Random(seed)
    return Graph(g.n, [*g.edges, *((v, v) for v in range(g.n) if rng.random() < 0.4)])


def hom_sources():
    """Sources for the hom search and the columns of A: the graph with no
    vertices and every loop-free graph on 1..4 vertices (isolated vertices
    and several components included), each also with seeded loops."""
    out = [Graph(0)]
    for n in range(1, 5):
        for k, g in enumerate(graphs_upto_iso(n)):
            out += [g, with_seeded_loops(g, 100 * n + k)]
    return out


def hom_targets():
    """spoon, K3, P3, the looped K2 and a spoon with an isolated vertex."""
    return [spoon(), complete(3), path(3), complete_looped(2), Graph(3, [(0, 1), (1, 1)])]


def naive_homs(g, h):
    """Product filtering over all vertex maps."""
    out = []
    for m in product(range(h.n), repeat=g.n):
        if all(h.adjacent(m[u], m[v]) for u, v in g.edges):
            out.append(m)
    return sorted(out)


def brute_bipartition_exists(g):
    """Try all 2^n two-colorings."""
    if any(u == v for u, v in g.edges):
        return False
    for mask in range(1 << g.n):
        if all((mask >> u & 1) != (mask >> v & 1) for u, v in g.edges):
            return True
    return g.n == 0


def naive_independent_sets(g):
    out = []
    for mask in range(1 << g.n):
        s = [v for v in range(g.n) if mask >> v & 1]
        if any(g.has_loop(v) for v in s):
            continue
        if all(not g.adjacent(u, v) for u, v in combinations(s, 2)):
            out.append(frozenset(s))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def naive_pivot_columns(matrix):
    """Pivot columns by Gauss-Jordan elimination over the rationals."""
    mat = [[Fraction(x) for x in row] for row in matrix]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pivot = mat[r][c]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c] / pivot
                for cc in range(c, ncols):
                    mat[i][cc] -= f * mat[r][cc]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(pivots)


def _naive_det(mat):
    """Fraction-free integer determinant by its own Bareiss loop."""
    m = [row[:] for row in mat]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for c in range(n - 1):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return 0
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        for i in range(c + 1, n):
            for cc in range(c + 1, n):
                m[i][cc] = (m[i][cc] * m[c][c] - m[i][c] * m[c][cc]) // prev
            m[i][c] = 0
        prev = m[c][c]
    return sign * m[n - 1][n - 1]


def naive_hyperplane_through(points):
    """Primitive integer normal of the hyperplane through d points of Z^d
    by cofactor expansion (generalized cross product of the differences),
    first nonzero entry positive; None when the points are dependent."""
    d = len(points[0])
    base = points[0]
    rows = [[x - b for x, b in zip(p, base)] for p in points[1:]]
    normal = [(-1) ** i * _naive_det([[row[c] for c in range(d) if c != i] for row in rows])
              for i in range(d)]
    if all(x == 0 for x in normal):
        return None
    offset = sum(a * b for a, b in zip(normal, base))
    g = 0
    for x in normal + [offset]:
        g = gcd(g, abs(x))
    sign = 1 if next(x for x in normal if x) > 0 else -1
    return tuple(sign * x // g for x in normal), sign * offset // g


def naive_facets(poly):
    """Facets by brute force: the cofactor normal of every spanning vertex
    subset, kept when supporting and when its incident set spans a
    (dim-1)-flat, with ranks over the rationals."""
    nverts = poly.num_vertices
    if nverts == 0:
        return FacetDescription(-1, (), ())
    base = poly.vertices[0]
    pivots = naive_pivot_columns([[x - b for x, b in zip(v, base)] for v in poly.vertices[1:]])
    dim = len(pivots)
    if dim == 0:
        return FacetDescription(0, pivots, ())
    coords = [tuple(v[c] for c in pivots) for v in poly.vertices]
    found = {}
    for subset in combinations(range(nverts), dim):
        plane = naive_hyperplane_through([coords[i] for i in subset])
        if plane is None:
            continue
        n, offset = plane
        if (n, offset) in found or (tuple(-x for x in n), -offset) in found:
            continue
        vals = [sum(a * b for a, b in zip(n, c)) for c in coords]
        if all(v <= offset for v in vals):
            pass
        elif all(v >= offset for v in vals):
            n = tuple(-x for x in n)
            offset = -offset
            vals = [-v for v in vals]
        else:
            continue
        incident = tuple(i for i, v in enumerate(vals) if v == offset)
        inc_pts = [coords[i] for i in incident]
        rank = len(naive_pivot_columns([[x - b for x, b in zip(p, inc_pts[0])]
                                        for p in inc_pts[1:]]))
        if rank == dim - 1:
            found[(n, offset)] = Facet(n, offset, incident)
    ordered = sorted(found.values(), key=lambda f: (f.normal, f.offset))
    return FacetDescription(dim, pivots, tuple(ordered))


def naive_all_posets(n):
    """Posets on n labeled elements up to isomorphism, one strict order at
    a time in product order, each kept when no relabeling of an earlier one
    gives its sorted relation."""
    pairs = list(combinations(range(n), 2))
    seen = set()
    out = []
    for assignment in product((0, 1, 2), repeat=len(pairs)):
        rel = set()
        for (a, b), state in zip(pairs, assignment):
            if state == 1:
                rel.add((a, b))
            elif state == 2:
                rel.add((b, a))
        if any((b, c) in rel and (a, c) not in rel
               for a, b in rel for c in range(n)):
            continue
        canon = min(tuple(sorted((p[a], p[b]) for a, b in rel))
                    for p in permutations(range(n)))
        if canon not in seen:
            seen.add(canon)
            out.append(Poset(n, rel))
    return out


def naive_system_columns(g, h, homs):
    """(rows, cols) of the edge-separator matrix by the per-map loop that
    built ``ToricSystem`` before its entries array: the rows edge by edge
    (edges sorted, each edge's maps sorted, a loop's map as (w,)), and per
    map the sorted tuple of the rows it gives the edges."""
    rows = []
    for (u, v) in sorted(g.edges):
        if u == v:
            maps = [(w,) for w in range(h.n) if h.adjacent(w, w)]
        else:
            maps = sorted((a, b) for a in range(h.n) for b in range(h.n) if h.adjacent(a, b))
        rows.extend(((u, v), rho) for rho in maps)
    row_index = {r: i for i, r in enumerate(rows)}
    cols = []
    for m in homs.maps:
        entries = [row_index[((u, v), (m[u],) if u == v else (m[u], m[v]))]
                   for (u, v) in sorted(g.edges)]
        cols.append(tuple(sorted(entries)))
    return tuple(rows), tuple(cols)


def naive_image(system, mono):
    """The image of a monomial under A as sorted (row, count) pairs, summed
    from the column entries of its factors."""
    img = Counter()
    for v in mono:
        img.update(system.cols[v])
    return tuple(sorted(img.items()))


def is_chain_monomial(isys, part1, mono):
    """Factors form a chain A_1 <= ... <= A_k with B_1 >= ... >= B_k."""
    pairs = [(isys.sets[v] & part1, isys.sets[v] - part1) for v in mono]
    return all((a1 <= a2 and b1 >= b2) or (a2 <= a1 and b2 >= b1)
               for a1, b1 in pairs for a2, b2 in pairs)


def naive_fibers(system, degree):
    """Pure-python fiber grouping by exact image, no numpy involved."""
    fibers = {}
    for mono in combinations_with_replacement(range(system.num_vars), degree):
        fibers.setdefault(naive_image(system, mono), []).append(mono)
    return {k: sorted(v) for k, v in fibers.items()}


def naive_layer_fibers(system, degree):
    """(idx, fid) like ``toric._layer`` by the earlier grouping: one int16
    image row under ``key_matrix`` per monomial, the monomials in lex order
    (the order of ``combinations_with_replacement``), and ``np.unique`` over
    a void view of those rows."""
    key = system.key_matrix.astype(np.int16)
    n_vars = key.shape[1]
    idx = np.array(list(combinations_with_replacement(range(n_vars), degree)),
                   dtype=np.int64).reshape(-1, degree)
    img = np.zeros((len(idx), key.shape[0]), dtype=np.int16)
    for i in range(degree):
        img += key.T[idx[:, i]]
    if img.shape[1] == 0:
        return idx, np.zeros(len(idx), dtype=np.intp)
    void = np.ascontiguousarray(img).view(
        np.dtype((np.void, img.dtype.itemsize * img.shape[1]))).ravel()
    return idx, np.unique(void, return_inverse=True)[1].reshape(-1)


def same_partition(a, b):
    """True when the label arrays ``a`` and ``b`` cut their rows into the
    same classes, whatever the numbering."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    pairs = {(x, y) for x, y in zip(a.tolist(), b.tolist())}
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


def naive_membership(system, binomial):
    """Membership by exact images as Counters, no numpy involved: raises
    IndexError for a variable out of range, as ``ToricSystem.membership``."""
    for v in binomial.plus + binomial.minus:
        if not 0 <= v < system.num_vars:
            raise IndexError(f"variable {v} out of range")
    return naive_image(system, binomial.plus) == naive_image(system, binomial.minus)


def naive_check_basis_members(system, elements):
    """The element-by-element basis check: IndexError or ValueError at the
    first element out of range or not in the ideal."""
    for b in elements:
        if not naive_membership(system, b):
            raise ValueError(f"binomial {b.plus} - {b.minus} is not in the ideal")


def _naive_moves(pairs):
    """Map each side of every (plus, minus) pair to the sides it moves to,
    both directions."""
    moves = {}
    for p, q in pairs:
        moves.setdefault(tuple(sorted(p)), []).append(tuple(sorted(q)))
        moves.setdefault(tuple(sorted(q)), []).append(tuple(sorted(p)))
    return moves


def _naive_components(monos, moves):
    """Component partition under ``moves`` (see ``_naive_moves``): a search
    that replaces every sub-multiset of a monomial that is a move side."""
    monoset = set(monos)
    seen = set()
    comps = []
    for start in sorted(monos):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            m = stack.pop()
            cm = Counter(m)
            subs = {s for d in range(1, len(m) + 1) for s in combinations(m, d)}
            for side in subs:
                for q in moves.get(side, ()):
                    nxt = tuple(sorted((cm - Counter(side) + Counter(q)).elements()))
                    if nxt in monoset and nxt not in seen:
                        seen.add(nxt)
                        comp.add(nxt)
                        stack.append(nxt)
        comps.append(sorted(comp))
    return comps


def naive_markov_basis(system, cap):
    """Independent layered reimplementation used as the basis oracle: for
    t = 1..cap, while a fiber has two or more components under the moves
    found so far, join the smallest monomials of its first two components.
    Returns the (plus, minus) pairs with common factors stripped."""
    from collections import Counter, deque
    basis = []
    for t in range(1, cap + 1):
        fibers = naive_fibers(system, t)
        for key in sorted(fibers):
            monos = fibers[key]
            if len(monos) < 2:
                continue
            while True:
                comps = _naive_components(monos, _naive_moves(basis))
                if len(comps) == 1:
                    break
                a, b = comps[0][0], comps[1][0]
                ca, cb = Counter(a), Counter(b)
                common = ca & cb
                p = tuple(sorted((ca - common).elements()))
                q = tuple(sorted((cb - common).elements()))
                basis.append((p, q))
    return basis


def naive_markov_width(system, cap):
    """Width oracle: the largest degree in ``naive_markov_basis``."""
    return max((max(len(p), len(q)) for p, q in naive_markov_basis(system, cap)),
               default=0)


def naive_verify_markov(system, basis, cap, layers=None):
    """True when every fiber of degree 1..cap is a single component under
    the moves of ``basis``.  ``layers`` may hold ``naive_fibers`` of
    degrees 1..cap, computed once for many bases of one system."""
    moves = _naive_moves((b.plus, b.minus) for b in basis)
    if layers is None:
        layers = [naive_fibers(system, t) for t in range(1, cap + 1)]
    for fibers in layers:
        for monos in fibers.values():
            if len(monos) > 1 and len(_naive_components(monos, moves)) > 1:
                return False
    return True


class MoveIndex:
    """Lookup from a leading monomial side to the binomials it leads."""

    __slots__ = ("directed", "lead_degrees")

    def __init__(self, basis=()):
        self.directed = {}
        self.lead_degrees = set()
        for b in basis:
            self.directed.setdefault(b.plus, []).append(b.minus)
            self.lead_degrees.add(len(b.plus))

    def directed_neighbors(self, mono):
        """Monomials reached by one oriented move lead -> trail."""
        out = []
        for d in self.lead_degrees:
            if d > len(mono):
                continue
            for sub in set(combinations(mono, d)):
                for q in self.directed.get(sub, ()):
                    out.append(tuple(sorted(_multiset_sub(mono, sub) + q)))
        return out


def _multiset_sub(mono, sub):
    out = list(mono)
    for x in sub:
        out.remove(x)
    return tuple(out)


def naive_fiber_is_grobner(monos, index):
    """Directed fiber-graph check of one fiber with an explicit undirected
    connectivity pass, kept as the reference for ``verify_grobner``;
    ``index`` is the ``MoveIndex`` of the oriented basis."""
    monos = sorted(monos)
    pos = {m: i for i, m in enumerate(monos)}
    n = len(monos)
    out_edges = [set() for _ in range(n)]
    for i, m in enumerate(monos):
        for nb in index.directed_neighbors(m):
            j = pos.get(nb)
            if j is None:
                raise AssertionError("move left the fiber; non-member basis element?")
            if j != i:
                out_edges[i].add(j)
    # connectivity (undirected)
    if n > 1:
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(n):
            for j in out_edges[i]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
        if len({find(i) for i in range(n)}) != 1:
            return False
    # unique sink
    sinks = [i for i in range(n) if not out_edges[i]]
    if len(sinks) != 1:
        return False
    # acyclicity (Kahn)
    indeg = [0] * n
    for i in range(n):
        for j in out_edges[i]:
            indeg[j] += 1
    stack = [i for i in range(n) if indeg[i] == 0]
    seen = 0
    while stack:
        i = stack.pop()
        seen += 1
        for j in out_edges[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                stack.append(j)
    return seen == n


def naive_low_degree_binomial(g, degree_cap):
    """The earlier coloring search: at each degree, scan every fiber of the
    triangle-placement ideal of ``g`` pair by pair for two monomials with
    disjoint supports, and return the lexicographically smallest such
    pair (as a Binomial) at the first degree that has one; None when no
    degree up to the cap has one."""
    from homtoric.graph import complete
    from homtoric.toric import Binomial, build_system, iter_fibers
    system = build_system(complete(3), g)
    for t in range(2, degree_cap + 1):
        best = None
        for _, monos in iter_fibers(system, t, min_size=2):
            for i in range(len(monos)):
                for j in range(i + 1, len(monos)):
                    if set(monos[i]).isdisjoint(monos[j]):
                        pair = (monos[i], monos[j])
                        if best is None or pair < best:
                            best = pair
                        break
        if best is not None:
            return Binomial(*best)
    return None


def naive_distinct_matchings(ps, qs):
    """Distinct pairings of two equal-size lists, by a seen-set over the
    permutations of ``qs``, in the order they first occur."""
    seen, out = set(), []
    for perm in permutations(qs):
        pairing = tuple(sorted(zip(ps, perm)))
        if pairing not in seen:
            seen.add(pairing)
            out.append(pairing)
    return out


def naive_glue_basis(spec, basis1, basis2, lift_cap):
    """The earlier truncated gluing, ``glue_basis`` with allow_truncation:
    every liftable binomial's lifts are enumerated under its own budget,
    the steps left of ``lift_cap`` after the binomials before it, with
    its own class grouping, ``naive_distinct_matchings`` and index loops for
    the quadratic swaps."""
    from homtoric.tfp import GlueResult
    from homtoric.toric import Binomial, OrientedBasis
    pair_index = {(x, y): k for k, (x, y) in enumerate(zip(spec.r1, spec.r2))}
    degrees, attempted, plans = set(), 0, []
    for side, basis in ((1, basis1), (2, basis2)):
        cls = spec.cls1 if side == 1 else spec.cls2
        others = spec.ys_by_class if side == 1 else spec.xs_by_class
        for b in basis:
            by_p, by_q = {}, {}
            for v in b.plus:
                by_p.setdefault(cls[v], []).append(v)
            for v in b.minus:
                by_q.setdefault(cls[v], []).append(v)
            classes, matchings, n = sorted(by_p), [], 1
            for c in classes:
                ms = naive_distinct_matchings(sorted(by_p[c]), sorted(by_q[c]))
                matchings.append(ms)
                n *= len(ms) * len(others.get(c, [])) ** len(by_p[c])
            attempted += n
            if n:
                degrees.add(b.degree)
                plans.append((side, others, classes, matchings, n))
    quads = []
    for c in sorted(spec.xs_by_class):
        xs, ys = spec.xs_by_class[c], spec.ys_by_class.get(c, [])
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                for k in range(len(ys)):
                    for l in range(k + 1, len(ys)):
                        quads.append(Binomial(
                            tuple(sorted((pair_index[(xs[i], ys[k])],
                                          pair_index[(xs[j], ys[l])]))),
                            tuple(sorted((pair_index[(xs[i], ys[l])],
                                          pair_index[(xs[j], ys[k])])))))
    attempted += len(quads)
    if quads:
        degrees.add(2)
    out = set(quads)
    budget = lift_cap
    for side, others, classes, matchings, n in plans:
        if budget <= 0:
            break
        steps = 0
        for combo in product(*matchings):
            pairs = [pair for cls_pairs in combo for pair in cls_pairs]
            pools = [others[c] for c, cls_pairs in zip(classes, combo) for _ in cls_pairs]
            for choice in product(*pools):
                steps += 1
                if steps > budget:
                    break
                lifted = Binomial.make(
                    [pair_index[(p, w)] if side == 1 else pair_index[(w, p)]
                     for (p, _), w in zip(pairs, choice)],
                    [pair_index[(q, w)] if side == 1 else pair_index[(w, q)]
                     for (_, q), w in zip(pairs, choice)])
                if lifted is not None:
                    out.add(lifted)
            if steps > budget:
                break
        budget -= n
    basis = OrientedBasis.make(out)
    return GlueResult(basis, tuple(sorted(degrees)), attempted > lift_cap, len(basis), attempted)


# ---------------------------------------------------------------------------
# the unbucketed layer engine: every degree layer built and split whole

def unbucketed_layer(system, degree, mono_cap=10**7):
    """(idx, fid): every degree-``degree`` monomial as a sorted row of
    variable indices, the rows in lexicographic order, and the fiber id of
    each row, fibers numbered in the order of their packed key (word 0
    first).  Layer t puts each variable j in front of the rows of layer t -
    1 that start at j or later, and fibers are refined one key word at a
    time by ``np.unique``."""
    from homtoric.toric import ResourceCapExceeded, _pack
    if degree < 1:
        raise ValueError("degree must be at least 1")
    packed = _pack(system.key_matrix, degree.bit_length(), 0)
    n_vars, n_words = packed.shape
    idx = np.arange(n_vars, dtype=np.int32).reshape(n_vars, 1)
    words = packed
    for t in range(2, degree + 1):
        starts = np.searchsorted(idx[:, 0], np.arange(n_vars))
        total = int((len(idx) - starts).sum())
        if total > mono_cap:
            raise ResourceCapExceeded(
                f"{total} monomials of degree {t} exceed the cap {mono_cap}")
        new_idx = np.empty((total, t), dtype=np.int32)
        new_words = np.empty((total, n_words), dtype=np.int64)
        pos = 0
        for j, s in enumerate(starts.tolist()):
            e = pos + len(idx) - s
            new_idx[pos:e, 0] = j
            new_idx[pos:e, 1:] = idx[s:]
            np.add(words[s:], packed[j], out=new_words[pos:e])
            pos = e
        idx, words = new_idx, new_words
    n = len(idx)
    ranks = (np.unique(word, return_inverse=True)[1] for word in words.T)
    fid = next(ranks, np.zeros(n, dtype=np.intp))
    for rank in ranks:
        fid *= n
        fid += rank
        fid = np.unique(fid, return_inverse=True)[1]
    return idx, fid


def unbucketed_split_layer(system, degree, mono_cap=10**7, pairs=None):
    """(mono, root, lead): the monomials of the fibers of two or more
    monomials in lex order, the position of the smallest monomial of
    every component under "shares a variable" (joined further by
    ``pairs``, lex ranks of the layer), and for each root the position of
    the smallest monomial of its fiber."""
    from homtoric.toric import _min_labels
    idx, fid = unbucketed_layer(system, degree, mono_cap)
    n_rows, t = idx.shape
    counts = np.bincount(fid)
    n_fibers = len(counts)
    if n_fibers == n_rows:
        none = np.zeros(0, dtype=np.intp)
        return idx, none, none
    n_vars = system.num_vars
    rows = np.flatnonzero(counts[fid] >= 2)
    fib, mono = fid[rows], idx[rows]
    n = len(mono)
    keys = (mono.astype(np.int64) + fib[:, None].astype(np.int64) * n_vars).ravel()
    sort = np.argsort(keys, kind="stable")
    keys = keys[sort]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    owner = sort // t
    sizes = np.diff(np.append(starts, len(owner)))
    shared = sizes >= 2
    owner = owner[np.repeat(shared, sizes)]
    sizes = sizes[shared]
    if pairs is not None and len(pairs):
        owner = np.concatenate([owner, np.searchsorted(rows, pairs).ravel()])
        sizes = np.concatenate([sizes, np.full(len(pairs), 2)])
    label = _min_labels(np.arange(n), owner, sizes)
    root = np.flatnonzero(label == np.arange(n))
    first = np.full(n_fibers, n, dtype=np.intp)
    np.minimum.at(first, fib[root], root)
    return mono, root, first[fib[root]]


def unsettled_split(block, n_vars, pairs=None):
    """``toric._split`` without settling any fiber first: the (fiber,
    variable) class sort and min-label propagation run on every fiber of
    two or more monomials of the block.  Returns the same (rows, low,
    lead) of the split fibers."""
    from homtoric.toric import _min_labels, _run_lengths
    many = block.counts >= 2
    rows = block.order[many.repeat(block.counts)]
    counts = block.counts[many]
    n, t, room = len(rows), block.mono.shape[1], block.room
    none = np.zeros(0, dtype=np.int64)
    if not n:
        return none, none, none
    fiber = np.arange(len(counts), dtype=np.int64).repeat(counts)
    keys = np.empty((t, n), dtype=np.int64)
    for q in range(t):
        keys[q] = block.mono[:, q][rows] + fiber * n_vars
    keys = ((keys << room) | np.arange(n, dtype=np.int64)).ravel()
    keys.sort()
    start = np.ones(len(keys), dtype=bool)
    start[1:] = (keys[1:] ^ keys[:-1]) >= 1 << room
    shared = ~start
    shared[:-1] |= ~start[1:]
    owner = keys[shared] & ((1 << room) - 1)
    sizes = _run_lengths(start[shared])
    if pairs is not None and len(pairs):
        where = np.empty(len(block.mono), dtype=np.int64)
        where[rows] = np.arange(n)
        owner = np.concatenate([owner, where[pairs].ravel()])
        sizes = np.concatenate([sizes, np.full(len(pairs), 2, dtype=np.int64)])
    label = _min_labels(np.arange(n), owner, sizes)
    first = (counts.cumsum() - counts)[fiber]
    split = np.zeros(len(counts), dtype=bool)
    split[fiber[label != first]] = True
    keep = split[fiber]
    if not keep.any():
        return none, none, none
    return rows[keep], rows[label[keep]], rows[first[keep]]


def _unbucketed_moves(sides, layers, t, n_vars):
    """Moves u*lead -> u*trail in layer t as lex ranks, for every element
    of degree d in ``sides`` and every monomial u of ``layers[t - d]``."""
    from homtoric.toric import _rank
    out = [np.zeros((0, 2), dtype=np.int64)]
    for d, s in sides.items():
        u = layers.get(t - d)
        if u is not None:
            ends = []
            for side in (0, 1):
                mono = np.empty((len(u), len(s), t), dtype=np.int32)
                mono[:, :, :t - d] = u[:, None]
                mono[:, :, t - d:] = s[:, side]
                mono.sort(axis=2)
                ends.append(_rank(mono.reshape(-1, t), n_vars))
            out.append(np.stack(ends, axis=1))
    return np.concatenate(out)


_UNIT = {0: np.zeros((1, 0), dtype=np.int32)}


def unbucketed_markov_basis(system, cap, mono_cap=10**7):
    """``markov_basis`` on whole layers."""
    from homtoric.toric import Binomial, MarkovResult, OrientedBasis
    additions, counts = [], Counter()
    for t in range(1, cap + 1):
        mono, root, lead = unbucketed_split_layer(system, t, mono_cap)
        split = root != lead
        new = [Binomial(tuple(p), tuple(m))
               for p, m in zip(mono[lead[split]].tolist(), mono[root[split]].tolist())]
        additions.extend(new)
        counts[max(t, 2)] += len(new)
    return MarkovResult(OrientedBasis.make(additions), cap,
                        {t: counts[t] for t in range(2, cap + 1)})


def unbucketed_verify_markov(system, basis, cap, mono_cap=10**7):
    """``verify_markov`` on whole layers."""
    from homtoric.toric import _basis_sides
    sides = _basis_sides(system, basis)
    for t in range(1, cap + 1):
        pairs = _unbucketed_moves(sides, _UNIT, t, system.num_vars)
        _, root, lead = unbucketed_split_layer(system, t, mono_cap, pairs)
        if (root != lead).any():
            return False
    return True


def naive_invariant(sides, perms, n_vars):
    """``toric._invariant`` as it was before the one-word keys: every side
    moved, re-sorted by ``np.sort`` and ranked in its layer, the two ranks
    of every element put low first and the pairs sorted by ``np.lexsort``;
    each permutation's pairs compared with the identity's."""
    from homtoric.toric import _rank
    for d, s in sides.items():
        pairs = []
        for perm in perms:
            rank = _rank(np.sort(perm[s], axis=2).reshape(-1, d), n_vars).reshape(-1, 2)
            rank.sort(axis=1)
            pairs.append(rank[np.lexsort((rank[:, 1], rank[:, 0]))])
        if not all(np.array_equal(p, pairs[0]) for p in pairs[1:]):
            return False
    return True


def unbucketed_verify_grobner(system, basis, cap, mono_cap=10**7):
    """``verify_grobner`` on whole layers."""
    from homtoric.toric import _basis_sides
    sides = _basis_sides(system, basis)
    layers = dict(_UNIT)
    for t in range(1, cap + 1):
        layers[t], fid = unbucketed_layer(system, t, mono_cap)
        src, dst = _unbucketed_moves(sides, layers, t, system.num_vars).T
        left = np.bincount(src, minlength=len(fid))
        if np.bincount(fid[left == 0]).max(initial=0) > 1:
            return False
        while len(src):
            into = left[dst] == 0
            if not into.any():
                return False
            left -= np.bincount(src[into], minlength=len(left))
            src, dst = src[~into], dst[~into]
    return True


def engine_layer(system, degree):
    """(idx, fid) like ``unbucketed_layer`` read off ``iter_fibers``: the
    layer's monomials in lex order and the fiber number of each."""
    from homtoric.toric import iter_fibers
    fiber = {m: f for f, monos in iter_fibers(system, degree) for m in monos}
    idx = np.array(sorted(fiber), dtype=np.int64).reshape(-1, degree)
    return idx, np.array([fiber[m] for m in map(tuple, idx.tolist())], dtype=np.intp)
