"""Algebraic obstructions to 4-colorability.

The ideal of triangle placements into K4 is generated by a single binomial
of degree 12, so any binomial of smaller degree in the triangle-placement
ideal of a graph must collapse under every 4-coloring: some permutation
matches the two sides factor by factor, forcing vertex-color
identifications.  A certificate is such a binomial plus the table of
identifications forced by each choice of matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from . import graph as graphs
from .graph import Graph
from .homset import iter_homs
from .toric import DEFAULT_MONO_CAP, Binomial, ToricSystem, build_system, iter_fibers

GENERATOR_DEGREE_K3_K4 = 12


@dataclass(frozen=True)
class TableRow:
    position: int               # image of the first factor under the matching
    identifications: tuple      # ((u, v), marker) with marker in {"", "adjacent", "relation"}


@dataclass(frozen=True)
class ObstructionCertificate:
    graph: Graph
    binomial: Binomial
    degree: int
    table: tuple                # TableRow per possible image of factor 1
    verdict: str                # NOT_4_COLORABLE | PROPERTY | INCONCLUSIVE
    relation: tuple = ()


def find_low_degree_binomial(g: Graph, degree_cap: int = 6, *,
                             mono_cap: int = DEFAULT_MONO_CAP):
    """(system, binomial): the system of triangle placements into ``g`` and
    a smallest-degree binomial with disjoint monomial supports in its
    ideal, the lexicographically smallest such pair; None for the binomial
    when nothing exists up to the cap.

    A placement is fixed by its edge maps, so the degree-1 fibers are
    single monomials.  At the first degree t with a fiber of two or more
    monomials, no two monomials of one fiber share a variable: dividing
    both by it would give such a fiber at degree t - 1.  So the answer is
    the first two monomials of the fiber whose first monomial is
    smallest.  A cap below 2 would search no layer, so it is refused."""
    if degree_cap < 2:
        raise ValueError("degree cap must be at least 2")
    system = build_system(graphs.complete(3), g)
    if system.num_vars == 0:
        raise ValueError("no triangle placements in the graph; the ideal is empty")
    for t in range(2, degree_cap + 1):
        fiber = min((monos for _, monos in iter_fibers(system, t, min_size=2,
                                                       mono_cap=mono_cap)), default=None)
        if fiber is not None:
            return system, Binomial(fiber[0], fiber[1])
    return system, None


def analyze_certificate(g: Graph, system: ToricSystem, b: Binomial,
                        relation=()) -> ObstructionCertificate:
    """Scan all matchings of the two sides of a binomial in the triangle
    ideal of ``g``.  NOT_4_COLORABLE when every permutation forces an
    identification of adjacent vertices; PROPERTY when every permutation
    forces a pair from the supplied relation.  The degree must be below
    GENERATOR_DEGREE_K3_K4, the degree of the one generator of the ideal
    of triangles into K4.
    """
    d = b.degree
    if d >= GENERATOR_DEGREE_K3_K4:
        raise ValueError(f"certificate degree must be below {GENERATOR_DEGREE_K3_K4}")
    if not set(b.plus).isdisjoint(b.minus):
        raise ValueError("certificate binomial must have disjoint supports")
    if not system.membership(b):
        raise ValueError("binomial is not in the triangle ideal")
    rel = {tuple(sorted(p)) for p in relation}
    phis = [system.homs.maps[v] for v in b.plus]
    psis = [system.homs.maps[v] for v in b.minus]

    def idents(i, j):
        pairs = set()
        for a, bb in zip(phis[i], psis[j]):
            if a != bb:
                pairs.add((a, bb) if a < bb else (bb, a))
        return tuple(sorted(pairs))

    ident_cache = {(i, j): idents(i, j) for i in range(d) for j in range(d)}
    every_adjacent = True
    every_relation = bool(rel)
    for perm in permutations(range(d)):
        forced = set()
        for i in range(d):
            forced.update(ident_cache[(i, perm[i])])
        if not any(g.adjacent(u, v) for u, v in forced):
            every_adjacent = False
        if rel and not (forced & rel):
            every_relation = False
        if not every_adjacent and not (rel and every_relation):
            break
    rows = []
    for j in range(d):
        marked = []
        for u, v in ident_cache[(0, j)]:
            if g.adjacent(u, v):
                marked.append(((u, v), "adjacent"))
            elif (u, v) in rel:
                marked.append(((u, v), "relation"))
            else:
                marked.append(((u, v), ""))
        rows.append(TableRow(j, tuple(marked)))
    if every_adjacent:
        verdict = "NOT_4_COLORABLE"
    elif rel and every_relation:
        verdict = "PROPERTY"
    else:
        verdict = "INCONCLUSIVE"
    return ObstructionCertificate(g, b, d, tuple(rows), verdict,
                                  tuple(sorted(rel)))


# ---------------------------------------------------------------------------
# colorings as homomorphisms into K_k

def is_k_colorable(g: Graph, k: int) -> bool:
    """Whether Hom(g, K_k) has a map (none if g has a loop); k^n <= ``SEARCH_CAP``."""
    return next(iter_homs(g, graphs.complete(k)), None) is not None


def chromatic_number(g: Graph) -> int:
    """The first k in 1..n with ``is_k_colorable(g, k)``, else n (0 for
    ``Graph(0)``); each k^n tried is at most ``SEARCH_CAP``."""
    return next((k for k in range(1, g.n + 1) if is_k_colorable(g, k)), g.n)


def format_certificate(cert: ObstructionCertificate) -> str:
    lines = [f"degree {cert.degree} binomial, verdict {cert.verdict}"]
    for row in cert.table:
        parts = []
        for (u, v), marker in row.identifications:
            text = f"{u}={v}"
            if marker:
                text += f" [{marker}]"
            parts.append(text)
        lines.append(f"  match 1 -> {row.position + 1}: " + (", ".join(parts) or "none"))
    return "\n".join(lines)
