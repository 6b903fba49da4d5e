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
from itertools import combinations, permutations

import numpy as np

from .graph import Graph, spoon
from .homset import enumerate_homs, indep_encode
from .indep import IndepSystem, TopGraded, top_graded
from .toric import Binomial, OrientedBasis, verify_markov
from .util import ResourceCapExceeded, content_lines


class PosetError(ValueError):
    pass


class PosetTooLarge(ResourceCapExceeded):
    pass


IDEAL_CAP = 10**6    # most lower ideals that lower_ideals lists


class Poset:
    """Elements 0..p-1 with a transitively closed order relation."""

    __slots__ = ("n", "leq")

    def __init__(self, n: int, covers=()):
        self.n = n
        leq = np.eye(n, dtype=bool)
        for a, b in covers:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise PosetError(f"bad cover relation {a} < {b}")
            leq[a, b] = True
        for c in range(n):          # Warshall: close the relation through c
            leq |= leq[:, c, None] & leq[c]
        if len(bad := np.argwhere(leq & leq.T & ~np.eye(n, dtype=bool))):
            raise PosetError("relation is not antisymmetric: {} ~ {}".format(*bad[0].tolist()))
        self.leq = frozenset(map(tuple, np.argwhere(leq).tolist()))

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


def lower_ideals(poset: Poset):
    """All downward-closed subsets, sorted by (size, lex).

    A subset is a bitmask over the elements, and an ideal when it holds
    the down-set of each of its members (``mask & below[i] == below[i]``),
    tested ``BLOCK`` masks at a time.  The ideals are counted against
    ``IDEAL_CAP`` before any set is built."""
    n = poset.n
    if n > 20:
        raise PosetTooLarge("poset too large for subset enumeration")
    below = [sum(1 << a for a in range(n) if poset.le(a, i)) for i in range(n)]
    found, total = [], 0
    for start in range(0, 1 << n, BLOCK):
        masks = np.arange(start, min(start + BLOCK, 1 << n), dtype=np.int64)
        ideal = np.ones(len(masks), dtype=bool)
        for i, down in enumerate(below):
            ideal &= ((masks >> i & 1) == 0) | ((masks & down) == down)
        found.append(masks[ideal])
        total += len(found[-1])
        if total > IDEAL_CAP:
            raise PosetTooLarge("too many lower ideals")
    ideals = [frozenset(i for i in range(n) if m >> i & 1) for m in np.concatenate(found).tolist()]
    return sorted(ideals, key=lambda s: (len(s), sorted(s)))


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
    sets of B_P, read from Hom(B_P, spoon).  ``PosetTooLarge`` fires first,
    then the caps of ``enumerate_homs``: a 20-chain's B_P (2^40 > ``SEARCH_CAP``)
    raises ``HomTooLarge``."""
    ideals = lower_ideals(poset)
    bp = build_bp(poset)
    images = [xi(poset, L) for L in ideals]
    independent = set(indep_encode(bp, enumerate_homs(bp, spoon()))[0])
    maximum = {s for s in independent if len(s) == poset.n}
    for L, img in zip(ideals, images):
        if img not in independent:
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


def hibi_vs_topgraded(poset: Poset) -> HibiComparison:
    """Map the relations r_L1 r_L2 - r_{L1|L2} r_{L1&L2} through xi (one to one
    onto the maximum independent sets of B_P) into its top-graded independence
    ideal and certify they cut out the same ideal, connecting every fiber to degree 3."""
    ideals = lower_ideals(poset)
    images = [xi(poset, L) for L in ideals]
    top = top_graded(IndepSystem(build_bp(poset)), degree_cap=2)
    index = {s: i for i, s in enumerate(top.sets)}
    if set(index) != set(images) or len(set(images)) != len(images):
        raise AssertionError("top variables disagree with the xi images")
    var_of = {ideal: index[image] for ideal, image in zip(ideals, images)}
    elems = []
    for l1, l2 in combinations(ideals, 2):
        u, m = l1 | l2, l1 & l2
        if {u, m} == {l1, l2}:
            continue
        plus = tuple(sorted((var_of[l1], var_of[l2])))
        minus = tuple(sorted((var_of[u], var_of[m])))
        elems.append(Binomial(plus, minus))
    hibi_basis = OrientedBasis.make(elems)
    memberships = top.subsystem.first_non_member(hibi_basis) is None
    match = ({b.unordered_key() for b in hibi_basis}
             == {b.unordered_key() for b in top.basis})
    mutual = memberships and verify_markov(top.subsystem, hibi_basis, 3)
    return HibiComparison(poset, top, hibi_basis, match, mutual, memberships)


# ---------------------------------------------------------------------------
# poset generation (used by the census-style suites)

BLOCK = 1 << 16      # subset masks or order assignments per batch


def all_posets(n: int):
    """All posets on n labeled elements up to isomorphism.

    A strict order assigns none, a < b or b < a to each pair a < b; the
    assignments are walked in ``product((0, 1, 2), repeat=C(n, 2))`` order,
    ``BLOCK`` at a time, each encoded as a bitmask over the n(n - 1)
    ordered pairs (int32 up to n = 6).  The canonical form of a transitive
    mask is its least image under the relabelings, and each class is
    represented by its first occurrence in product order."""
    pairs = list(combinations(range(n), 2))
    bit = {p: i for i, p in enumerate(permutations(range(n), 2))}
    dtype = np.int32 if len(bit) < 32 else np.int64
    triples = [(1 << bit[a, b] | 1 << bit[b, c], 1 << bit[a, c])
               for a, b, c in permutations(range(n), 3)]
    total = 3 ** len(pairs)
    seen = set()
    out = []
    for start in range(0, total, BLOCK):
        idx = np.arange(start, min(start + BLOCK, total))
        masks = np.zeros(len(idx), dtype=dtype)
        for j, (a, b) in enumerate(pairs):
            digit = idx // 3 ** (len(pairs) - 1 - j) % 3
            masks |= (digit == 1).astype(dtype) << bit[a, b]
            masks |= (digit == 2).astype(dtype) << bit[b, a]
        transitive = np.ones(len(idx), dtype=bool)
        for need, implied in triples:
            transitive &= ((masks & need) != need) | ((masks & implied) != 0)
        masks = masks[transitive]
        canon = masks.copy()
        for perm in permutations(range(n)):
            moved = np.zeros_like(masks)
            for (a, b), i in bit.items():
                moved |= (masks >> i & 1) << bit[perm[a], perm[b]]
            np.minimum(canon, moved, out=canon)
        classes, first = np.unique(canon, return_index=True)
        for i, c in sorted(zip(first.tolist(), classes.tolist())):
            if c not in seen:
                seen.add(c)
                out.append(Poset(n, [p for p, b in bit.items() if masks[i] >> b & 1]))
    return out
