"""Enumeration of graph homomorphisms.

A homomorphism G -> H is stored as the tuple (phi(0), ..., phi(n-1)).
``HomSet`` holds all of them in lexicographic order of that tuple; the
position of a map in the list is its variable index in the associated
polynomial ring.

``enumerate_homs`` backtracks over G in BFS order, trying each vertex only
on the neighbours of its parent's image, read from adjacency tuples of H
built once per call.  It refuses a search over more than ``SEARCH_CAP``
assignments V(G) -> V(H) before it starts, and stops once it has found
more than ``count_cap`` homomorphisms.
"""

from __future__ import annotations

import sys

from .graph import Graph, bfs, spoon
from .util import ResourceCapExceeded


SEARCH_CAP = 10**12     # |V(H)|^|V(G)| assignments; a larger search is refused


class HomTooLarge(ResourceCapExceeded):
    """Search space above the configured resource cap."""


class HomSet:
    """All homomorphisms G -> H, sorted lexicographically by map tuple."""

    __slots__ = ("target", "maps", "index")

    def __init__(self, target: Graph, maps):
        self.target = target
        self.maps = tuple(sorted(maps))
        self.index = {m: i for i, m in enumerate(self.maps)}

    def __len__(self):
        return len(self.maps)

    def __iter__(self):
        return iter(self.maps)


def enumerate_homs(g: Graph, h: Graph, *, count_cap: int = 10**7) -> HomSet:
    """Backtracking over the vertices of G in BFS order, each vertex tried
    on a candidate list: the neighbours (loops included) of its BFS
    parent's image, or all of H for the first vertex of a component; only
    the looped ones when the vertex has a loop.  A candidate is kept when
    it is adjacent to the images of the vertex's other earlier neighbours.
    The search recurses once per vertex of G, so a source with more
    vertices than half the recursion limit is refused."""
    if g.n > 0 and h.n ** g.n > SEARCH_CAP:
        raise HomTooLarge(f"|V(H)|^|V(G)| = {h.n}**{g.n} exceeds the cap")
    if g.n > (depth := sys.getrecursionlimit() // 2):
        raise HomTooLarge(f"{g.n} source vertices exceed the search depth {depth}")
    looped = {w for w in range(h.n) if h.has_loop(w)}
    near = [h.neighbors(w) | ({w} & looped) for w in range(h.n)]
    adjacent = [tuple(sorted(a)) for a in near]
    adjacent_looped = [tuple(sorted(a & looped)) for a in near]
    order = bfs(g)
    pos = {v: i for i, (v, _) in enumerate(order)}
    # per vertex: its candidates (by the parent's image, or one tuple for a
    # root) and its other earlier neighbours
    checks = []
    for i, (v, parent) in enumerate(order):
        loop = g.has_loop(v)
        if parent is None:
            cands = tuple(sorted(looped)) if loop else tuple(range(h.n))
        else:
            cands = adjacent_looped if loop else adjacent
        others = [u for u in g.neighbors(v) if pos[u] < i and u != parent]
        checks.append((v, parent, cands, others))
    maps = []
    assign = [0] * g.n

    def backtrack(i):
        if i == g.n:
            maps.append(tuple(assign))
            if len(maps) > count_cap:
                raise HomTooLarge(f"more than {count_cap} homomorphisms")
            return
        v, parent, cands, others = checks[i]
        pool = cands if parent is None else cands[assign[parent]]
        for u in others:
            pool = [w for w in pool if w in near[assign[u]]]
        for w in pool:
            assign[v] = w
            backtrack(i + 1)

    backtrack(0)
    return HomSet(h, maps)


UNLOOPED = 0


def indep_encode(g: Graph, homs: HomSet):
    """Bijection Hom(G, spoon) <-> independent sets of G.

    The independent set is the preimage of the unlooped vertex 0.
    Returns (sets, index) with sets[i] the frozenset for variable i.
    """
    if homs.target != spoon():
        raise ValueError("independence encoding needs the spoon target")
    sets = [frozenset(v for v in range(g.n) if m[v] == UNLOOPED) for m in homs.maps]
    index = {s: i for i, s in enumerate(sets)}
    if len(index) != len(sets):
        raise AssertionError("independent-set encoding is not injective")
    return sets, index
