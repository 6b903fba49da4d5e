"""Posets, lower ideals, and the comparison between the distributive-lattice
quadratic relations and the top-graded independence ideal of the associated
bipartite graph.

For a poset P the graph B_P has a lower and an upper copy of every element
(element i becomes vertices 2i and 2i+1) with an edge between lower(p) and
upper(q) whenever p >= q.  Lower ideals of P biject onto the maximum
independent sets of B_P via L -> lower copies of L plus upper copies of the
complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product

from .graph import Graph
from .indep import IndepSystem, TopGraded, top_graded
from .toric import Binomial, OrientedBasis, verify_markov
from .util import content_lines


class PosetError(ValueError):
    pass


class Poset:
    """Elements 0..p-1 with a transitively closed order relation."""

    __slots__ = ("n", "leq")

    def __init__(self, n: int, covers=()):
        self.n = n
        leq = {(i, i) for i in range(n)}
        for a, b in covers:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise PosetError(f"bad cover relation {a} < {b}")
            leq.add((a, b))
        changed = True
        while changed:
            changed = False
            for a, b in list(leq):
                for c in range(n):
                    if (b, c) in leq and (a, c) not in leq:
                        leq.add((a, c))
                        changed = True
        for a, b in leq:
            if a != b and (b, a) in leq:
                raise PosetError(f"relation is not antisymmetric: {a} ~ {b}")
        self.leq = frozenset(leq)

    def le(self, a: int, b: int) -> bool:
        return (a, b) in self.leq

    def __eq__(self, other):
        return isinstance(other, Poset) and self.n == other.n and self.leq == other.leq

    def __hash__(self):
        return hash((self.n, self.leq))


def parse_poset_text(text: str) -> Poset:
    """Text format: ``p <count>`` then ``c <a> <b>`` cover lines (a < b)."""
    n = None
    covers = []
    for raw, line in content_lines(text):
        parts = line.split()
        if parts[0] == "p" and len(parts) == 2:
            n = int(parts[1])
        elif parts[0] == "c" and len(parts) == 3:
            covers.append((int(parts[1]), int(parts[2])))
        else:
            raise PosetError(f"bad poset line: {raw!r}")
    if n is None:
        raise PosetError("poset text missing 'p <count>' line")
    return Poset(n, covers)


def lower_ideals(poset: Poset, cap: int = 10**6):
    """All downward-closed subsets, sorted by (size, lex)."""
    if poset.n > 20:
        raise PosetError("poset too large for subset enumeration")
    out = []
    for mask in range(1 << poset.n):
        members = [i for i in range(poset.n) if mask >> i & 1]
        mset = set(members)
        if all(a in mset for b in members for a in range(poset.n) if poset.le(a, b)):
            out.append(frozenset(members))
            if len(out) > cap:
                raise PosetError("too many lower ideals")
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def lower(i: int) -> int:
    return 2 * i


def upper(i: int) -> int:
    return 2 * i + 1


def build_bp(poset: Poset) -> Graph:
    edges = [(lower(p), upper(q)) for (q, p) in poset.leq]  # p >= q
    return Graph(2 * poset.n, edges)


def xi(poset: Poset, ideal: frozenset) -> frozenset:
    return frozenset(lower(i) for i in ideal) | frozenset(
        upper(i) for i in range(poset.n) if i not in ideal)


@dataclass(frozen=True)
class XiBijection:
    ideals: tuple
    images: tuple       # xi(L) for each lower ideal, as frozensets of B_P vertices


def xi_bijection(poset: Poset) -> XiBijection:
    """The verified bijection between lower ideals and maximum independent
    sets of B_P."""
    bp = build_bp(poset)
    ideals = lower_ideals(poset)
    images = [xi(poset, L) for L in ideals]
    from .graph import independent_sets, is_independent
    maximum = {s for s in independent_sets(bp) if len(s) == poset.n}
    for L, img in zip(ideals, images):
        if not is_independent(bp, img):
            raise AssertionError(f"xi({sorted(L)}) is not independent")
        if len(img) != poset.n:
            raise AssertionError("xi image has the wrong cardinality")
    if set(images) != maximum or len(set(images)) != len(images):
        raise AssertionError("xi is not a bijection onto the maximum independent sets")
    return XiBijection(tuple(ideals), tuple(images))


@dataclass(frozen=True)
class HibiComparison:
    poset: Poset
    top: TopGraded
    hibi_basis: OrientedBasis       # images of the lattice relations under xi
    generators_match: bool          # set equality with the layered fiber basis
    mutual_generation: bool         # hibi images generate the whole top ideal
    memberships: bool


def hibi_vs_topgraded(poset: Poset, **caps) -> HibiComparison:
    """Map the relations r_L1 r_L2 - r_{L1|L2} r_{L1&L2} through xi into the
    top-graded independence ideal of B_P and certify they cut out the same
    ideal, checking that they connect every fiber up to degree 3."""
    bij = xi_bijection(poset)
    bp = build_bp(poset)
    isys = IndepSystem(bp, **caps)
    top = top_graded(isys, degree_cap=2, **caps)
    var_of = {s: i for i, s in enumerate(top.sets)}
    if set(var_of) != set(bij.images):
        raise AssertionError("top variables disagree with the xi images")
    elems = []
    for l1, l2 in combinations(bij.ideals, 2):
        u, m = l1 | l2, l1 & l2
        if {u, m} == {l1, l2}:
            continue
        plus = tuple(sorted((var_of[xi(poset, l1)], var_of[xi(poset, l2)])))
        minus = tuple(sorted((var_of[xi(poset, u)], var_of[xi(poset, m)])))
        elems.append(Binomial(plus, minus))
    hibi_basis = OrientedBasis.make(elems)
    memberships = all(top.subsystem.membership(b) for b in hibi_basis)
    match = ({b.unordered_key() for b in hibi_basis}
             == {b.unordered_key() for b in top.basis})
    mutual = memberships and verify_markov(top.subsystem, hibi_basis, 3)
    return HibiComparison(poset, top, hibi_basis, match, mutual, memberships)


# ---------------------------------------------------------------------------
# poset generation (used by the census-style suites)

def all_posets(n: int):
    """All posets on n labeled elements up to isomorphism, via strict-order
    enumeration with canonical-form deduplication."""
    pairs = list(combinations(range(n), 2))
    seen = set()
    out = []
    for assignment in product((0, 1, 2), repeat=len(pairs)):
        rel = set()
        ok = True
        for (a, b), state in zip(pairs, assignment):
            if state == 1:
                rel.add((a, b))
            elif state == 2:
                rel.add((b, a))
        # transitivity
        for (a, b) in rel:
            for c in range(n):
                if (b, c) in rel and (a, c) not in rel:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        canon = min(tuple(sorted((p[a], p[b]) for a, b in rel))
                    for p in permutations(range(n)))
        if canon in seen:
            continue
        seen.add(canon)
        out.append(Poset(n, rel))
    return out
