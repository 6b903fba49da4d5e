"""Lattice polytopes of graph homomorphisms.

The polytope of a system is the convex hull of its 0/1 columns.  Facet
enumeration works in exact integer arithmetic on affine-hull coordinates:
candidate hyperplanes are spanned by affinely independent vertex subsets,
kept when supporting, and deduplicated by primitive integer normal.  The
affine-hull coordinates, every rank and every normal come from one
fraction-free elimination, ``util.echelon``; a normal is read off the
echelon form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .graph import Graph
from .toric import ToricSystem, build_system
from .util import ResourceCapExceeded, echelon


class PolytopeCapExceeded(ResourceCapExceeded):
    pass


@dataclass(frozen=True)
class LatticePolytope:
    rows: tuple          # ambient coordinate labels: (edge, edge map)
    vertices: tuple      # 0/1 integer tuples, one per homomorphism
    labels: tuple        # homomorphism map tuples, aligned with vertices

    @property
    def ambient_dim(self):
        return len(self.rows)

    @property
    def num_vertices(self):
        return len(self.vertices)


@dataclass(frozen=True)
class Facet:
    normal: tuple        # primitive integer normal in affine-hull coordinates
    offset: int          # n . x <= offset, tight on the facet
    incident: tuple      # vertex indices on the facet


@dataclass(frozen=True)
class FacetDescription:
    dim: int
    pivot_coords: tuple  # ambient coordinates used as affine-hull coordinates
    facets: tuple


def build_polytope(g: Graph, h: Graph, **caps) -> LatticePolytope:
    system = build_system(g, h, **caps)
    return polytope_of_system(system)


def polytope_of_system(system: ToricSystem) -> LatticePolytope:
    verts = tuple(map(tuple, system.dense_matrix().T.tolist()))
    if len(set(verts)) != len(verts):
        raise ValueError("duplicate polytope vertices: the source has a vertex "
                         "on no edge, so its image does not show in the columns")
    return LatticePolytope(tuple(system.rows), verts, tuple(system.homs.maps))


# ---------------------------------------------------------------------------
# facets

def _primitive(normal, offset):
    g = 0
    for x in normal:
        g = gcd(g, abs(x))
    g = gcd(g, abs(offset))
    if g > 1:
        normal = tuple(x // g for x in normal)
        offset = offset // g
    return tuple(normal), offset


def _hyperplane_through(points):
    """Primitive integer normal of the hyperplane through d affinely
    independent points of Z^d; None when the points are dependent.

    Eliminates [D^T | I]: row i holds coordinate i of every difference
    p - p_0, then e_i.  When the first d - 1 columns are all pivots, the
    last row is zero on D^T, and its identity part records the combination
    of coordinates that cancels every difference: the normal.  Each of its
    entries is a d-minor, so it is the cofactor vector up to sign.
    Otherwise the differences have rank below d - 1."""
    d = len(points[0])
    base = points[0]
    rows = [[p[i] - base[i] for p in points[1:]] + [int(i == j) for j in range(d)]
            for i in range(d)]
    pivots, rows = echelon(rows)
    if pivots[:d - 1] != tuple(range(d - 1)):
        return None
    normal = rows[d - 1][d - 1:]
    offset = sum(a * b for a, b in zip(normal, base))
    normal, offset = _primitive(normal, offset)
    for x in normal:
        if x != 0:
            if x < 0:
                normal = tuple(-y for y in normal)
                offset = -offset
            break
    return normal, offset


def facets(poly: LatticePolytope, *, vertex_cap: int = 30,
           dim_cap: int = 8) -> FacetDescription:
    """Brute-force facet enumeration over spanning vertex subsets."""
    nverts = poly.num_vertices
    if nverts == 0:
        return FacetDescription(-1, (), ())
    if nverts > vertex_cap:
        raise PolytopeCapExceeded(f"{nverts} vertices above the cap {vertex_cap}")
    # the pivot coordinates of the vertex differences project the affine
    # hull injectively, so they serve as exact integer coordinates
    base = poly.vertices[0]
    pivots = echelon([[x - b for x, b in zip(v, base)] for v in poly.vertices[1:]])[0]
    dim = len(pivots)
    if dim > dim_cap:
        raise PolytopeCapExceeded(f"dimension {dim} above the cap {dim_cap}")
    if dim == 0:
        return FacetDescription(0, pivots, ())
    coords = [tuple(v[c] for c in pivots) for v in poly.vertices]
    found = {}
    for subset in combinations(range(nverts), dim):
        plane = _hyperplane_through([coords[i] for i in subset])
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
        if len(incident) == nverts:
            continue  # improper face: hyperplane contains the whole polytope
        # the incident set must span a (dim-1)-flat
        inc_pts = [coords[i] for i in incident]
        base = inc_pts[0]
        rank = len(echelon([[x - b for x, b in zip(p, base)] for p in inc_pts[1:]])[0])
        if rank == dim - 1:
            found[(n, offset)] = Facet(n, offset, incident)
    ordered = sorted(found.values(), key=lambda f: (f.normal, f.offset))
    return FacetDescription(dim, pivots, tuple(ordered))


@dataclass(frozen=True)
class SimplicityReport:
    dim: int
    counts: tuple        # facet-incidence count per vertex
    simple: bool


def simplicity(poly: LatticePolytope, desc: FacetDescription) -> SimplicityReport:
    counts = [0] * poly.num_vertices
    for f in desc.facets:
        for i in f.incident:
            counts[i] += 1
    simple = all(c == desc.dim for c in counts)
    return SimplicityReport(desc.dim, tuple(counts), simple)


# ---------------------------------------------------------------------------
# stable set polytope

@dataclass(frozen=True)
class StableSetIso:
    points: tuple        # image of each homomorphism in Z^{V(G)}
    sets: tuple          # the corresponding independent sets


def stable_set_iso(g: Graph, system: ToricSystem = None, **caps) -> StableSetIso:
    """Projection of the homomorphism polytope for the spoon target onto
    one coordinate per vertex; an affine isomorphism onto the stable set
    polytope.  Needs a loop-free source where every vertex lies on an
    edge."""
    if not g.is_loopfree():
        raise ValueError("stable set polytope needs a loop-free graph")
    if not all(g.degree_on_edge(v) for v in range(g.n)):
        raise ValueError("isolated vertices have no incident coordinate; "
                         "take a direct product with a segment instead")
    from . import graph as graphs
    if system is None:
        system = build_system(g, graphs.spoon(), **caps)
    # for vertex v pick any row (e, rho) where v maps to the unlooped vertex
    chosen = {}
    for ridx, ((u, w), rho) in enumerate(system.rows):
        if u == w:
            continue
        if rho[0] == 0:
            chosen.setdefault(u, ridx)
        if rho[1] == 0:
            chosen.setdefault(w, ridx)
    points = []
    sets = []
    for col, m in zip(system.cols, system.homs.maps):
        colset = set(col)
        pt = tuple(1 if chosen[v] in colset else 0 for v in range(g.n))
        # consistency: each coordinate is independent of the chosen edge
        s = frozenset(v for v in range(g.n) if m[v] == 0)
        if pt != tuple(1 if v in s else 0 for v in range(g.n)):
            raise AssertionError("coordinate collapse disagrees across edges")
        points.append(pt)
        sets.append(s)
    if len(set(points)) != len(points):
        raise AssertionError("stable-set projection is not injective")
    return StableSetIso(tuple(points), tuple(sets))


def stable_set_polytope(g: Graph, **caps) -> LatticePolytope:
    iso = stable_set_iso(g, **caps)
    rows = tuple(("vertex", (v,)) for v in range(g.n))
    return LatticePolytope(rows, iso.points, tuple(tuple(sorted(s)) for s in iso.sets))


# ---------------------------------------------------------------------------
# faces from target surgery

@dataclass(frozen=True)
class FaceCertificate:
    deleted_vertices: tuple
    deleted_edges: tuple
    zero_rows: tuple     # ambient coordinates that vanish on the face
    face_vertices: tuple  # indices into the big polytope's vertex list
    improper: bool


def face_check(g: Graph, h2: Graph, h1: Graph, **caps) -> FaceCertificate:
    """Certificate that the polytope for target H1 <= H2 is a face of the
    polytope for H2: the sum of all coordinates naming deleted vertices or
    edges vanishes exactly on the homomorphisms into H1."""
    if h1.n > h2.n:
        raise ValueError("H1 must be a subgraph of H2 (vertices are a prefix)")
    kept = set(range(h1.n))
    if not all(e in h2.edges for e in h1.edges):
        raise ValueError("H1 edges must be edges of H2")
    deleted_vertices = tuple(range(h1.n, h2.n))
    deleted_edges = tuple(sorted(e for e in h2.edges
                                 if set(e) <= kept and e not in h1.edges))
    system = build_system(g, h2, **caps)
    poly = polytope_of_system(system)
    zero_rows = []
    for ridx, (_, rho) in enumerate(system.rows):
        imgs = set(rho)
        edge_img = (rho[0], rho[0]) if len(rho) == 1 else tuple(sorted(rho))
        if imgs & set(deleted_vertices) or edge_img in deleted_edges:
            zero_rows.append(ridx)
    face = []
    for i, m in enumerate(system.homs.maps):
        val = sum(poly.vertices[i][r] for r in zero_rows)
        in_h1 = all(x in kept for x in m) and all(
            ((m[u], m[u]) if u == v else tuple(sorted((m[u], m[v])))) in h1.edges
            for u, v in g.edges)
        if (val == 0) != in_h1:
            raise AssertionError("face functional disagrees with membership")
        if val == 0:
            face.append(i)
    return FaceCertificate(deleted_vertices, deleted_edges, tuple(zero_rows),
                           tuple(face), improper=not zero_rows)
