"""Finite simple graphs with optional loops.

Vertices are dense integers 0..n-1.  Edges are stored as sorted pairs
(u, v) with u <= v; a loop is the pair (v, v).  Graphs are immutable
after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .util import content_lines


class GraphError(ValueError):
    pass


def _norm_edge(u, v):
    return (u, v) if u <= v else (v, u)


class Graph:
    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        es = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            es.add(_norm_edge(u, v))
        self.n = n
        self.edges = frozenset(es)
        adj = [set() for _ in range(n)]
        for u, v in es:
            adj[u].add(v)
            adj[v].add(u)
        self._adj = tuple(frozenset(a) for a in adj)

    def adjacent(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def neighbors(self, v: int) -> frozenset:
        """Open neighborhood, loops excluded."""
        return self._adj[v] - {v}

    def has_loop(self, v: int) -> bool:
        return (v, v) in self.edges

    def degree_on_edge(self, v: int) -> bool:
        """True when v lies on at least one edge (loops count)."""
        return bool(self._adj[v]) or self.has_loop(v)

    def is_loopfree(self) -> bool:
        return not any(u == v for u, v in self.edges)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


@dataclass(frozen=True)
class Bipartition:
    part1: frozenset
    part2: frozenset


@dataclass(frozen=True)
class AlmostBipartiteSplit:
    apex: int
    part1: frozenset
    part2: frozenset


@dataclass(frozen=True)
class InducedSubgraph:
    graph: Graph
    vertices: tuple          # vertices[i] = original label of new vertex i
    index: dict              # original label -> new index


# ---------------------------------------------------------------------------
# constructors

def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete needs n >= 1")
    return Graph(n, combinations(range(n), 2))


def complete_looped(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete-looped needs n >= 1")
    es = list(combinations(range(n), 2)) + [(v, v) for v in range(n)]
    return Graph(n, es)


def spoon() -> Graph:
    """The independence target: vertices {0, 1}, edge 0-1 and a loop at 1.

    Homomorphisms G -> spoon correspond to independent sets of G, the
    independent set being the preimage of the unlooped vertex 0.
    """
    return Graph(2, [(0, 1), (1, 1)])


def octahedron() -> Graph:
    """Six vertices, all pairs adjacent except the antipodal pairs
    (0,1), (2,3), (4,5)."""
    anti = {(0, 1), (2, 3), (4, 5)}
    es = [e for e in combinations(range(6), 2) if e not in anti]
    return Graph(6, es)


def empty_graph(n: int) -> Graph:
    return Graph(n, [])


def complement(g: Graph) -> Graph:
    if not g.is_loopfree():
        raise GraphError("complement is defined for loop-free graphs")
    es = [e for e in combinations(range(g.n), 2) if e not in g.edges]
    return Graph(g.n, es)


def loopify(g: Graph) -> Graph:
    return Graph(g.n, list(g.edges) + [(v, v) for v in range(g.n)])


# ---------------------------------------------------------------------------
# named specs

def build_named(spec: str) -> Graph:
    """Build a graph from a textual spec.

    Accepted forms: ``path:n``, ``cycle:n``, ``complete:n``,
    ``complete-looped:n``, ``spoon``, ``octahedron``, ``empty:n``,
    ``complement:<spec>``, ``loopify:<spec>``, and the edge-list literal
    ``edges:<n>:<u>-<v>,<u>-<v>,...``.
    """
    spec = spec.strip()
    if spec == "spoon":
        return spoon()
    if spec == "octahedron":
        return octahedron()
    if spec.startswith("complement:"):
        return complement(build_named(spec[len("complement:"):]))
    if spec.startswith("loopify:"):
        return loopify(build_named(spec[len("loopify:"):]))
    if spec.startswith("edges:"):
        rest = spec[len("edges:"):]
        try:
            head, _, body = rest.partition(":")
            n = int(head)
            es = []
            if body:
                for item in body.split(","):
                    u, _, v = item.partition("-")
                    es.append((int(u), int(v)))
            return Graph(n, es)
        except ValueError as exc:
            raise GraphError(f"bad edge-list literal {spec!r}") from exc
    name, _, arg = spec.partition(":")
    builders = {"path": path, "cycle": cycle, "complete": complete,
                "complete-looped": complete_looped, "empty": empty_graph}
    if name in builders:
        try:
            n = int(arg)
        except ValueError as exc:
            raise GraphError(f"spec {spec!r} needs an integer parameter") from exc
        return builders[name](n)
    raise GraphError(f"unknown graph spec {spec!r}")


def parse_graph_text(text: str) -> Graph:
    """Text format: line ``n <count>``, then ``e <u> <v>`` lines; ``#`` comments."""
    n = None
    es = []
    for raw, line in content_lines(text):
        parts = line.split()
        if parts[0] == "n" and len(parts) == 2:
            n = int(parts[1])
        elif parts[0] == "e" and len(parts) == 3:
            es.append((int(parts[1]), int(parts[2])))
        else:
            raise GraphError(f"bad graph line: {raw!r}")
    if n is None:
        raise GraphError("graph text missing 'n <count>' line")
    return Graph(n, es)


def parse_labeled_graph_text(text: str):
    """Like ``parse_graph_text`` but with optional ``v <label>`` lines that
    pin the vertex set to explicit (possibly non-contiguous) labels, as
    used by gluing inputs.  Returns (labels, edges) in original labels."""
    n = None
    labels = set()
    es = []
    for raw, line in content_lines(text):
        parts = line.split()
        if parts[0] == "n" and len(parts) == 2:
            n = int(parts[1])
        elif parts[0] == "v" and len(parts) >= 2:
            labels.update(int(x) for x in parts[1:])
        elif parts[0] == "e" and len(parts) == 3:
            es.append((int(parts[1]), int(parts[2])))
        else:
            raise GraphError(f"bad graph line: {raw!r}")
    if n is not None:
        labels.update(range(n))
    labels.update(v for e in es for v in e)
    if not labels:
        raise GraphError("graph text declares no vertices")
    return tuple(sorted(labels)), es


def load_graph(source: str) -> Graph:
    """Accept a named spec or a path to a graph file."""
    import os
    if os.path.exists(source):
        with open(source) as fh:
            return parse_graph_text(fh.read())
    return build_named(source)


# ---------------------------------------------------------------------------
# surgery and predicates

def induced_subgraph(g: Graph, vertices) -> InducedSubgraph:
    vs = sorted(set(vertices))
    if any(not (0 <= v < g.n) for v in vs):
        raise GraphError("vertex set not contained in the graph")
    index = {v: i for i, v in enumerate(vs)}
    es = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return InducedSubgraph(Graph(len(vs), es), tuple(vs), index)


def bfs(g: Graph) -> list:
    """Breadth-first (vertex, parent) pairs over every component.  Each
    component starts at its lowest vertex, whose parent is None, and
    neighbors are visited in ascending order."""
    order, seen, head = [], [False] * g.n, 0
    for root in range(g.n):
        if not seen[root]:
            seen[root] = True
            order.append((root, None))
        while head < len(order):
            u = order[head][0]
            head += 1
            for w in sorted(g.neighbors(u)):
                if not seen[w]:
                    seen[w] = True
                    order.append((w, u))
    return order


def components(g: Graph):
    """Vertex lists of the components, each sorted, lowest vertex first."""
    out = []
    for v, parent in bfs(g):
        if parent is None:
            out.append([])
        out[-1].append(v)
    return [sorted(c) for c in out]


def is_bipartite(g: Graph):
    """Parts read off the first map in ``iter_homs(g, K2)``, which sends each
    component's lowest vertex to 0 (part1); None for a loop or an odd cycle.
    2^n at most ``SEARCH_CAP``."""
    from .homset import iter_homs      # homset imports this module
    m = next(iter_homs(g, complete(2)), None)
    if m is None:
        return None
    return Bipartition(*(frozenset(v for v in range(g.n) if m[v] == c) for c in (0, 1)))


def is_almost_bipartite(g: Graph):
    """Lowest vertex whose edges' removal leaves a graph that ``is_bipartite`` splits
    (2^n at most ``SEARCH_CAP``); the apex, isolated, lands in part1 and is dropped."""
    for apex in range(g.n):
        bip = is_bipartite(Graph(g.n, [e for e in g.edges if apex not in e]))
        if bip is not None:
            return AlmostBipartiteSplit(apex, bip.part1 - {apex}, bip.part2)
    return None
