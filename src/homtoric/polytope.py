"""Lattice polytopes of graph homomorphisms.

The polytope of a system is the convex hull of its 0/1 columns.  Facet
enumeration works in exact integer arithmetic on affine-hull coordinates:
candidate hyperplanes are spanned by affinely independent vertex subsets,
kept when supporting, and deduplicated by primitive integer normal.  The
affine-hull coordinates and the rank of each incident set come from
``util.echelon``; the normals of a chunk of subsets come from one batched
fraction-free elimination in int64, exact because the vertices are 0/1
(every intermediate is below 2 d^(d-1) in dimension d <= 16).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .graph import Graph, spoon
from .homset import indep_encode
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

CHUNK = 2048         # vertex subsets per batch: a few MB of int64
VERTEX_CAP = 30      # most vertices that facets enumerates over
DIM_CAP = 8          # highest dimension; int64 stays exact up to 16, which clamps it


def _hyperplanes(points):
    """Primitive integer normals and offsets of the hyperplanes through
    each of s sets of d points of Z^d, an (s, d, d) array; the first
    nonzero entry of a normal is positive, and the normal is zero when the
    set is affinely dependent.

    One fraction-free elimination of [D^T | I] for every set at once, with
    ``util.echelon``'s pivot rule: row i holds coordinate i of every
    difference p - p_0, then e_i.  When the first d - 1 columns are all
    pivots, the last row vanishes on D^T and its identity part, the
    cofactor vector up to sign, is the normal.  Every intermediate is a
    product of two minors of [D^T | I], each at most (max |D| sqrt d)^(d-1)
    by Hadamard's inequality."""
    s, d, _ = points.shape
    base = points[:, 0]
    m = np.concatenate([(points[:, 1:] - base[:, None]).transpose(0, 2, 1),
                        np.broadcast_to(np.eye(d, dtype=np.int64), (s, d, d))], axis=2)
    sets = np.arange(s)
    prev = np.ones(s, dtype=np.int64)
    for c in range(d - 1):
        nonzero = m[:, c:, c] != 0
        found = nonzero.any(axis=1)
        m[~found] = 0                # dependent: every later row stays zero
        r = c + nonzero.argmax(axis=1)
        m[sets, c], m[sets, r] = m[sets, r], m[sets, c]
        p = np.where(found, m[:, c, c], 1)
        m[:, c + 1:] = ((m[:, c + 1:] * p[:, None, None] - m[:, c + 1:, c:c + 1] * m[:, None, c])
                        // prev[:, None, None])
        prev = p
    normal = m[:, d - 1, d - 1:]
    offset = (normal * base).sum(axis=1)
    g = np.maximum(np.gcd.reduce(normal, axis=1), 1)  # g divides the offset
    sign = np.where(normal[sets, (normal != 0).argmax(axis=1)] < 0, -1, 1)
    return normal // g[:, None] * sign[:, None], offset // g * sign


def facets(poly: LatticePolytope) -> FacetDescription:
    """Facet enumeration over spanning vertex subsets, ``CHUNK`` subsets a
    batch.  Vertices must be 0/1, so the differences lie in {-1, 0, 1}:
    each minor in ``_hyperplanes`` is at most dim^((dim-1)/2) and each
    intermediate below 2 dim^(dim-1) (4,194,304 at dim 8), exact in int64
    up to dimension 16, which caps ``DIM_CAP``."""
    nverts = poly.num_vertices
    if nverts == 0:
        return FacetDescription(-1, (), ())
    if nverts > VERTEX_CAP:
        raise PolytopeCapExceeded(f"{nverts} vertices above the cap {VERTEX_CAP}")
    if not {x for v in poly.vertices for x in v} <= {0, 1}:
        raise ValueError("facet enumeration needs 0/1 vertices")
    # the pivot coordinates of the vertex differences project the affine
    # hull injectively, so they serve as exact integer coordinates
    base = poly.vertices[0]
    pivots = echelon([[x - b for x, b in zip(v, base)] for v in poly.vertices[1:]])[0]
    dim = len(pivots)
    if dim > (dim_cap := min(DIM_CAP, 16)):
        raise PolytopeCapExceeded(f"dimension {dim} above the cap {dim_cap}")
    if dim == 0:
        return FacetDescription(0, pivots, ())
    coords = np.array(poly.vertices, dtype=np.int64)[:, list(pivots)]
    subsets = combinations(range(nverts), dim)
    planes = []
    while chunk := list(islice(subsets, CHUNK)):
        normal, offset = _hyperplanes(coords[np.array(chunk)])
        vals = normal @ coords.T
        below = (vals <= offset[:, None]).all(axis=1)
        keep = normal.any(axis=1) & (below | (vals >= offset[:, None]).all(axis=1))
        sign = np.where(below, 1, -1)[keep, None]
        planes.append(np.unique(np.column_stack([normal, offset])[keep] * sign, axis=0))
    found = []
    for *normal, offset in np.unique(np.concatenate(planes), axis=0).tolist():
        # a supporting plane is a facet when its incident set spans a
        # (dim-1)-flat
        incident = np.flatnonzero(coords @ normal == offset)
        pts = coords[incident]
        if len(echelon((pts[1:] - pts[0]).tolist())[0]) == dim - 1:
            found.append(Facet(tuple(normal), offset, tuple(incident.tolist())))
    return FacetDescription(dim, pivots, tuple(found))


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


def stable_set_iso(g: Graph) -> StableSetIso:
    """Projection of the homomorphism polytope for the spoon target onto
    one coordinate per vertex; an affine isomorphism onto the stable set
    polytope.  Needs a loop-free source where every vertex lies on an
    edge."""
    if not g.is_loopfree():
        raise ValueError("stable set polytope needs a loop-free graph")
    if not all(g.degree_on_edge(v) for v in range(g.n)):
        raise ValueError("isolated vertices have no incident coordinate; "
                         "take a direct product with a segment instead")
    system = build_system(g, spoon())
    sets = indep_encode(g, system.homs)[0]
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
    for col, s in zip(system.entries.tolist(), sets):
        colset = set(col)
        pt = tuple(1 if chosen[v] in colset else 0 for v in range(g.n))
        # consistency: each coordinate is independent of the chosen edge
        if pt != tuple(1 if v in s else 0 for v in range(g.n)):
            raise AssertionError("coordinate collapse disagrees across edges")
        points.append(pt)
    if len(set(points)) != len(points):
        raise AssertionError("stable-set projection is not injective")
    return StableSetIso(tuple(points), tuple(sets))


def stable_set_polytope(g: Graph) -> LatticePolytope:
    iso = stable_set_iso(g)
    rows = tuple(("vertex", (v,)) for v in range(g.n))
    return LatticePolytope(rows, iso.points, tuple(tuple(sorted(s)) for s in iso.sets))
