"""Enumeration of graph homomorphisms.

A homomorphism G -> H is stored as the tuple (phi(0), ..., phi(n-1)).
``HomSet`` holds all of them in lexicographic order of that tuple; the
position of a map in the list is its variable index in the associated
polynomial ring.

``iter_homs`` is the one search, a generator: it walks G in BFS order
with an explicit stack, so with no depth limit, trying each vertex only on
the neighbours of its parent's image.  It refuses a search over more than
``SEARCH_CAP`` assignments V(G) -> V(H) before it tries one.  A yes/no
question reads the first map; ``enumerate_homs`` lists at most ``count_cap``.
"""

from __future__ import annotations

from itertools import islice

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


def iter_homs(g: Graph, h: Graph):
    """Every map in Hom(G, H) once.  Each vertex of G, in BFS order, is
    tried on the neighbours (loops included) of its BFS parent's image, or
    on all of H if it is a root; only on looped ones if it has a loop.  A
    candidate is kept when it is adjacent to the images of the vertex's
    other earlier neighbours.  A root tries 0 first, so for K2 the first
    map is the lex-first map."""
    if h.n ** g.n > SEARCH_CAP:
        raise HomTooLarge(f"|V(H)|^|V(G)| = {h.n}**{g.n} exceeds the cap")
    looped = {w for w in range(h.n) if h.has_loop(w)}
    near = [h.neighbors(w) | ({w} & looped) for w in range(h.n)]
    adjacent = [tuple(sorted(a)) for a in near]
    adjacent_looped = [tuple(sorted(a & looped)) for a in near]
    order = bfs(g)
    pos = {v: i for i, (v, _) in enumerate(order)}
    # per vertex: candidates (by the parent's image, one tuple for a root), earlier neighbours
    checks = []
    for i, (v, parent) in enumerate(order):
        if parent is None:
            cands = tuple(sorted(looped)) if g.has_loop(v) else tuple(range(h.n))
        else:
            cands = adjacent_looped if g.has_loop(v) else adjacent
        others = [u for u in g.neighbors(v) if pos[u] < i and u != parent]
        checks.append((v, parent, cands, others))
    assign = [0] * g.n

    def frame(i):
        v, parent, cands, others = checks[i]
        pool = cands if parent is None else cands[assign[parent]]
        for u in others:
            pool = [w for w in pool if w in near[assign[u]]]
        return v, iter(pool)

    if g.n == 0:
        yield ()
        return
    # stack[i]: vertex i of the BFS order and its untried candidates
    stack = [frame(0)]
    while stack:
        v, untried = stack[-1]
        for assign[v] in untried:
            if len(stack) == g.n:
                yield tuple(assign)
            else:
                stack.append(frame(len(stack)))
                break
        else:
            stack.pop()


def enumerate_homs(g: Graph, h: Graph, *, count_cap: int = 10**7) -> HomSet:
    """``iter_homs(g, h)`` as a ``HomSet``; over ``count_cap`` maps is refused."""
    maps = list(islice(iter_homs(g, h), count_cap + 1))
    if len(maps) > count_cap:
        raise HomTooLarge(f"more than {count_cap} homomorphisms")
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
