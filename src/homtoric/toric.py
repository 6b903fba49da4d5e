"""Toric machinery for ideals of graph homomorphisms.

The defining matrix A has one row per pair (edge of G, edge map into H)
and one 0/1 column per homomorphism G -> H; the entry is 1 exactly when
the homomorphism restricts to that edge map.  Binomials live in the
polynomial ring with one variable per homomorphism; a monomial is stored
as a sorted tuple of variable indices (repeats encode exponents).

A fiber is a set of monomials of one degree with the same image under A.
They are grouped by one key for every target: the rows of A that are
linearly independent modulo the all-ones row, chosen by exact integer
elimination of the rows that can be pivots.  Every other row of A is a
combination of those rows and the all-ones row, which is constant (the
degree) on a layer, so the key separates exactly the monomials that A
separates.

The key is never stored row by row.  At degree t every key entry of a
monomial lies in 0..t < 2**b, b = t.bit_length().  A sort word keeps its
low ``room`` bits for a row number, so row i of the key takes the bits
[room + b*j, room + b*(j+1)) of int64 word i // per, j = i % per and per
= (63 - room) // b rows to a word.  Each variable then has one packed
column per word, and the packed key of a monomial is the plain sum of the
packed columns of its factors: no row can carry into the next.

Every degree 0..cap is walked at once, as one padded layer of degree cap
over the variables and a pad variable z = n: z^(cap - t) m stands for
the degree-t monomial m.  z's packed column is zero but for one extra key
row that counts z, so a fiber holds one degree; z is in no gcd class and
settles no fiber.  The padded layer is walked in blocks.  Take one edge e
of G: the e-image of a monomial, the multiset of the edge maps its
factors give e, is read off e's rows of A, so it is constant on a fiber.
A bucket is the set of monomials of one e-image and one degree, the
product of the multisets of the right sizes over the variables of each
edge map and over z, a class of its own (the class layers, built once per
call).  The edge chosen is the one whose largest bucket at the cap is
smallest, and none, z included in the one class (one bucket), when the
top layer fits in one block or every edge has more buckets than pay: a
small system is one block.  A block is a run of whole buckets of at most
``BLOCK`` rows, or one larger bucket alone, so every fiber, every gcd
class and both ends of every move lie in one block, and the peak memory
follows the largest block; ``mono_cap`` caps every real layer up to the
cap, all counted before anything is built.  The rows of a block are in
lex order (re-sorted by lex rank when there are several classes), so the
smallest monomial of a fiber or a component is its first row, and every
list of monomials the engine returns is in lex order.  Fibers, and the
(fiber, variable) classes of the gcd rule, are runs of one ``np.sort`` of
``key << room | row`` words, least significant key word first.

Markov bases are built and verified by the gcd rule (Takemura-Aoki, Ann.
Inst. Stat. Math. 56, 2004; see also Diaconis-Sturmfels, Ann. Statist.
1998).  Once every fiber of degree < t is connected, two degree-t
monomials of one fiber that share a variable x are connected too: divide
both by x, join the quotients and multiply back.  A move of degree < t
always leaves a shared factor, so the components of a degree-t fiber are
the classes of "shares a variable", joined further only by moves of
degree exactly t.  So no degree waits for another: ``markov_basis`` is
exact because the components of a fiber depend only on its own gcd
classes; ``verify_markov`` decides the smallest degree with a split fiber
exactly, as every fiber below it is connected, so the walk order is free;
``verify_grobner`` is exact because a move stays inside a fiber and a
fiber holds one degree.

``markov_basis`` walks one bucket per symmetry orbit.  An automorphism s
of H sends each homomorphism m to s o m and each row (e, rho) of A to (e,
s rho), so A is equivariant: s permutes the variables, and with them the
fibers, the edge maps of e and so the buckets.  Only the lex-first bucket
of every orbit of Aut(H) is built; each split fiber found there is moved
to the other buckets of its orbit by the variable permutation, its rows
re-sorted, and the new fiber minimum joined to the new minimum of every
other component.  This is exact: the components of a degree-t fiber
depend only on the ideal that the generators of degree < t span, which
is the degree < t part of I_A, and I_A is Aut(H)-invariant; so s maps the
components of a fiber onto the components of its image, and the mapped
generators are the ones the bucket would give if walked.

``verify_markov`` walks one bucket per orbit too, when every s maps the
basis onto itself as a set of unordered binomials (Aoki-Takemura, J.
Symbolic Comput. 2008, on the invariance groups of Markov bases).
Then s maps each fiber onto a fiber, its gcd classes onto those of the
image and the degree-t moves of the basis inside it onto the moves inside
the image, so a split fiber in a bucket left out has a split image in the
walked bucket of its orbit.  Invariance is tested once per call on the
basis arrays: every s moves each side, which is re-sorted and ranked in
its layer; the sorted ranks must be the basis's own, and an element is
then one int64 word of its two sides' places among them, low first, so
the test is exact at any layer size; it stops at the first s whose sorted
words differ.  When it fails, every bucket is walked.  ``verify_grobner``
walks every bucket, ``iter_fibers`` every bucket of its degree.

All arithmetic is exact integer arithmetic.  numpy groups each block into
fibers, settles every fiber that its two ends show connected (see
``_split``), splits the rest at once, turns a basis into moves between
block rows and peels the sinks of directed fiber graphs; membership
compares the images of the two sides under A, packed the same way into
int64 words, for all the elements of one shape (side lengths) at once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import repeat
from math import comb
from typing import NamedTuple

import numpy as np

from .graph import Graph
from .homset import HomSet, HomTooLarge, enumerate_homs
from .util import ResourceCapExceeded, content_lines, echelon


DEFAULT_MONO_CAP = 10**7


# ---------------------------------------------------------------------------
# monomials and binomials

def strip_common(plus, minus):
    """Remove the gcd monomial from both sides."""
    cp, cm = Counter(plus), Counter(minus)
    common = cp & cm
    if not common:
        return tuple(plus), tuple(minus)
    p = tuple(sorted((cp - common).elements()))
    m = tuple(sorted((cm - common).elements()))
    return p, m


class Binomial(NamedTuple):
    """plus - minus with disjoint supports; plus is the declared leading
    side when the binomial sits in an oriented basis.  A tuple, so it
    equals and hashes as the plain tuple ``(plus, minus)``."""
    plus: tuple
    minus: tuple

    @staticmethod
    def make(plus, minus):
        p, m = strip_common(sorted(plus), sorted(minus))
        if not p and not m:
            return None
        return Binomial(p, m)

    @property
    def degree(self) -> int:
        return max(len(self.plus), len(self.minus))

    def is_squarefree(self) -> bool:
        return (len(set(self.plus)) == len(self.plus)
                and len(set(self.minus)) == len(self.minus))

    def unordered_key(self):
        return (self.plus, self.minus) if self.plus <= self.minus else (self.minus, self.plus)

    def flipped(self) -> "Binomial":
        return Binomial(self.minus, self.plus)


@dataclass(frozen=True)
class OrientedBasis:
    """A list of binomials, each oriented plus -> minus.  ``weights``, set
    by ``tfp.glue_grobner``, is an optional per-variable tuple-of-ints
    weight whose sums separate the two sides of every element.  ``shapes``
    maps each shape (side lengths), by first element, to its elements'
    positions and int rows ``plus | minus``: from ``from_rows``, else built
    on first use."""
    elements: tuple
    weights: tuple = None

    @staticmethod
    def make(binomials):
        elems = sorted(set(b for b in binomials if b is not None),
                       key=lambda b: (max(len(b.plus), len(b.minus)), b.plus, b.minus))
        return OrientedBasis(tuple(elems))

    @staticmethod
    def from_rows(rows):
        """The basis of the homogeneous binomials given as int arrays of rows
        ``plus | minus`` (sides sorted, any degrees), sorted and deduplicated
        as ``make`` does, each element built once."""
        by_degree, elements, shapes = {}, [], {}
        for r in filter(len, rows):
            by_degree.setdefault(r.shape[1] // 2, []).append(r)
        for d in sorted(by_degree):
            both = np.concatenate(by_degree[d])
            both = both[np.lexsort(both.T[::-1])]
            both = both[np.concatenate(([True], (both[1:] != both[:-1]).any(axis=1)))]
            shapes[d, d] = np.arange(len(elements), len(elements) + len(both)), both
            sides = zip(map(tuple, both[:, :d].tolist()), map(tuple, both[:, d:].tolist()))
            elements += map(tuple.__new__, repeat(Binomial), sides)    # no Python __new__
        basis = OrientedBasis(tuple(elements))
        basis.__dict__["shapes"] = shapes       # fills the cached_property (no __slots__)
        return basis

    @cached_property
    def shapes(self):
        where, elements = {}, self.elements
        for i, b in enumerate(elements):
            where.setdefault((len(b.plus), len(b.minus)), []).append(i)
        return {(p, q): (np.array(w), np.array([elements[i].plus + elements[i].minus for i in w],
                                               dtype=np.int64).reshape(len(w), p + q))
                for (p, q), w in where.items()}

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def degree(self) -> int:
        return max((b.degree for b in self.elements), default=0)

    def degrees(self):
        return sorted({b.degree for b in self.elements})

    def is_squarefree(self) -> bool:
        return all(b.is_squarefree() for b in self.elements)


# ---------------------------------------------------------------------------
# the system

class ToricSystem:
    """Edge-separator matrix of Hom(G, H) with exact column data.  ``rows``
    lists the rows (edge of G, edge map) edge by edge, the edges sorted and
    each edge's maps sorted, a loop's map as (w,); ``entries`` is the
    (variables x edges) int array of the row each map gives each edge,
    ascending along every row since the rows go edge by edge: the only
    store of A's columns."""

    __slots__ = ("g", "h", "homs", "rows", "entries", "_key", "_packed", "_packed_words")

    def __init__(self, g: Graph, h: Graph, homs: HomSet):
        pairs = sorted({(a, b) for a, b in h.edges} | {(b, a) for a, b in h.edges})
        loops = [(w,) for w in range(h.n) if h.has_loop(w)]
        # tables[0][a, b]: the place of edge map (a, b) among an edge's
        # maps; tables[1][w, w]: that of (w,) among a loop's
        tables = np.zeros((2, h.n, h.n), dtype=np.intp)
        for t, edge_maps in enumerate((pairs, loops)):
            for i, rho in enumerate(edge_maps):
                tables[t, rho[0], rho[-1]] = i
        rows, spec = [], []
        for u, v in sorted(g.edges):
            spec.append((u, v, u == v, len(rows)))
            rows += [((u, v), rho) for rho in (loops if u == v else pairs)]
        u, v, loop, first = np.array(spec, dtype=np.intp).reshape(len(spec), 4).T
        maps = np.array(homs.maps, dtype=np.intp).reshape(len(homs), g.n)
        self.g, self.h, self.homs = g, h, homs
        self.rows = tuple(rows)
        self.entries = tables[loop, maps[:, u], maps[:, v]] + first
        self._key = None
        self._packed = {}
        self._packed_words = {}

    # -- fiber key -------------------------------------------------------------

    @property
    def key_matrix(self):
        """Fiber-grouping key (int64, one column per variable), built on
        first use: the rows of A that are linearly independent modulo the
        all-ones row.  ``packed_columns`` packs it for the layer engine.

        Exact: every row of A is a combination of the key rows and the
        all-ones row, and the all-ones row gives every monomial of a layer
        the same value, its degree.  So two monomials of one degree have
        the same image under A exactly when they have the same image under
        the key."""
        if self._key is None:
            self._key = self._build_key()
        return self._key

    def _build_key(self):
        # M = [1; A].  The pivot columns of M^T are the rows of M that are
        # independent of the rows above them; the Gram matrix M M^T has the
        # same ones (x^T M M^T = 0 exactly when x^T M = 0) and is the
        # smaller matrix when M has fewer rows than columns.  A zero row, a
        # repeat of an earlier row and each edge's last used row (the
        # all-ones row minus the edge's other rows) lie in the span of the
        # rows above them, so they are left out and the pivots stay the same.
        m = np.ones((len(self.rows) + 1, len(self.homs)), dtype=np.int64)
        m[1:] = self.dense_matrix()
        f = m.astype(np.float64)        # exact: a Gram entry is at most the column count
        gram = (f @ f.T).astype(np.int64)
        norm = gram.diagonal()          # 0/1 rows are equal when their product is the larger norm
        first = (gram == np.maximum(norm, norm[:, None])).argmax(axis=1)
        first[self.entries.max(axis=0, initial=-1) + 1] = -1     # each edge's last used row
        keep = (first == np.arange(len(m))) & (norm > 0)
        m = m[keep]
        small = gram[keep][:, keep] if len(m) <= m.shape[1] else m.T
        rows = [p for p in echelon(small.tolist())[0] if p]
        return m[rows]

    def packed_columns(self, bits: int, room: int):
        """The key columns packed by ``_pack``, one row per variable and a
        last row for the pad variable z, whose column is zero but for one
        extra last key row that counts z; cached per (``bits``, ``room``),
        see the module docstring.  The low ``room`` bits hold a row number."""
        packed = self._packed.get((bits, room))
        if packed is None:
            key = self.key_matrix
            padded = np.zeros((key.shape[0] + 1, key.shape[1] + 1), dtype=np.int64)
            padded[:-1, :-1], padded[-1, -1] = key, 1
            packed = self._packed[bits, room] = _pack(padded, bits, room)
        return packed

    def dense_matrix(self):
        """A as an int64 array, one row per row of A, one column per
        variable j, with a 1 at the rows ``entries[j]``."""
        n = self.num_vars
        a = np.zeros((len(self.rows), n), dtype=np.int64)
        a[self.entries, np.arange(n)[:, None]] = 1
        return a

    # -- exact images ----------------------------------------------------------

    @property
    def num_vars(self):
        return len(self.homs)

    def membership(self, binomial: Binomial) -> bool:
        """True when both sides have the same image under A; IndexError
        for a variable out of range."""
        return self.first_non_member(OrientedBasis((binomial,))) is None

    def check_basis_members(self, basis: OrientedBasis):
        """Raise at the first element of ``basis`` that is not a member:
        IndexError for a variable out of range, else ValueError."""
        b = self.first_non_member(basis)
        if b is not None:
            raise ValueError(f"binomial {b.plus} - {b.minus} is not in the ideal")

    def first_non_member(self, basis: OrientedBasis):
        """The first element of ``basis`` whose sides have different images
        under A, or None; IndexError instead when that first failure has a
        variable out of range.  The elements of one shape (side lengths,
        ``basis.shapes``) are checked together, each side's image the sum
        of its factors' columns of A packed into int64 words as in
        ``packed_columns``, at the bits of the longer side's length (cached
        per bit count): an image entry of a side of degree d is at most d."""
        elements = basis.elements
        n, first = len(self.homs), len(elements)
        for (p, q), (where, sides) in basis.shapes.items():
            bad = ((sides < 0) | (sides >= n)).any(axis=1)
            if n:                       # else every factor is out of range
                bits = max(p, q, 1).bit_length()
                packed = self._packed_words.get(bits)
                if packed is None:
                    packed = self._packed_words[bits] = _pack(self.dense_matrix(), bits, 0)
                image = packed.take(sides, axis=0, mode="wrap")     # bad rows stay in range
                bad |= (image[:, :p].sum(axis=1) != image[:, p:].sum(axis=1)).any(axis=1)
            if bad.any():
                first = min(first, int(where[bad.argmax()]))
        if first == len(elements):
            return None
        b = elements[first]
        for v in b.plus + b.minus:
            if not 0 <= v < n:
                raise IndexError(f"variable {v} out of range")
        return b

    def restrict_columns(self, var_indices) -> "ToricSystem":
        """The system of the maps ``var_indices`` alone, renumbered 0..k-1,
        built as any system: a map's entries depend only on that map, so
        the rows are this system's and ``entries`` its slice.  The indices
        must be strictly increasing and in range, as HomSet sorts its maps."""
        idx = tuple(var_indices)
        if (any(a >= b for a, b in zip(idx, idx[1:]))
                or (idx and (idx[0] < 0 or idx[-1] >= self.num_vars))):
            raise ValueError("variable indices must be strictly increasing and in range")
        return ToricSystem(self.g, self.h, HomSet(self.h, [self.homs.maps[v] for v in idx]))


def _pack(matrix, bits: int, room: int):
    """The columns of ``matrix`` packed into int64 words, one row per
    column and stored word by word: matrix row i takes ``bits`` bits of
    word i // per from bit room + bits * (i % per) on, per = (63 - room) //
    bits."""
    per = (63 - room) // bits
    packed = np.zeros((-(-matrix.shape[0] // per), matrix.shape[1]), dtype=np.int64).T
    for w in range(packed.shape[1]):
        block = matrix[w * per:(w + 1) * per]
        shift = room + bits * np.arange(len(block), dtype=np.int64)
        packed[:, w] = (block << shift[:, None]).sum(axis=0)
    return packed


def build_system(g: Graph, h: Graph, **caps) -> ToricSystem:
    return ToricSystem(g, h, enumerate_homs(g, h, **caps))


# ---------------------------------------------------------------------------
# degree layers in blocks

BLOCK = 1 << 16     # rows of a block; a bucket larger than this is a block alone
AUT_HOM_CAP = 10**4     # maps H -> H searched for automorphisms; past it, the identity alone


def _ranges(starts, lengths):
    """The concatenation of arange(s, s + l) over the pairs of ``starts``
    and ``lengths``."""
    shift = (starts - (lengths.cumsum() - lengths)).repeat(lengths)
    return np.arange(len(shift), dtype=np.int64) + shift


def _columns(t: int, n: int):
    """An empty (n, t) int32 array of n monomials of degree t, stored
    factor position by factor position: each column is one contiguous
    array, which numpy gathers, compares and ranks far faster than rows."""
    return np.empty((t, n), dtype=np.int32).T


def _take(mono, rows):
    """``mono[rows]``, gathered and stored column by column."""
    out = _columns(mono.shape[1], len(rows))
    for q in range(mono.shape[1]):
        mono[:, q].take(rows, out=out[:, q])
    return out


def _sort_rows(mono):
    """Sort every row of a column-stored monomial array in place by
    odd-even transposition: t rounds of compare-exchanges between whole
    columns (a row-wise ``np.sort`` pays a call per row)."""
    t = mono.shape[1]
    for r in range(t):
        for q in range(r % 2, t - 1, 2):
            a, b = mono[:, q], mono[:, q + 1]
            low = np.minimum(a, b)
            np.maximum(a, b, out=b)
            a[...] = low


def _compositions(k: int, t: int):
    """Every way to write t as an ordered sum of k nonnegative counts, one
    row each (int16): the class counts of every multiset of t classes out
    of k, the multisets in lex order, built as sorted rows by the suffix
    step of the layers (each class in front of the rows that start at it
    or later), then counted."""
    if t == 0 or k == 1:
        return np.full((1, k), t, dtype=np.int16)
    words = np.arange(k, dtype=np.int64)[:, None]
    for c in range(2, t + 1):
        starts = words[:, 0].searchsorted(np.arange(k))
        lengths = len(words) - starts
        grown = np.empty((int(lengths.sum()), c), dtype=np.int64)
        grown[:, 0] = np.arange(k).repeat(lengths)
        grown[:, 1:] = words[_ranges(starts, lengths)]
        words = grown
    comps = np.zeros((len(words), k), dtype=np.int16)
    for j in range(t):
        comps[np.arange(len(words)), words[:, j]] += 1
    return comps


def _largest_bucket(class_sizes, t: int) -> int:
    """The most monomials in one bucket of degree t over classes of the
    given sizes: the largest product of C(n_i + c_i - 1, c_i) over the
    counts c_i summing to t, by dynamic programming over the classes."""
    best = [1] + [0] * t
    for n in class_sizes:
        ways = [comb(n + c - 1, c) for c in range(t + 1)]
        best = [max(best[s - c] * ways[c] for c in range(s + 1)) for s in range(t + 1)]
    return best[t]


def _bucket_classes(system, cap: int):
    """The class of every variable and, last, of z: the index of its edge
    map on the edge of G whose edge maps split the degree-``cap`` layer
    into the smallest largest bucket, and z a class of its own; or 0 for
    all, z included (one class), when the whole layer fits in a block or
    no edge splits it.  An edge whose bucket list (an int16 count per class
    and bucket) would take more bytes than the layer's int32 rows is passed
    over: its buckets hold too few monomials to pay."""
    n = system.num_vars
    classes = np.zeros(n + 1, dtype=np.intp)
    layer = comb(n + cap - 1, cap)
    if layer <= BLOCK or not system.g.edges:
        return classes
    rows = system.entries
    best, pick = layer, None
    for e in range(rows.shape[1]):
        sizes = np.bincount(rows[:, e])
        sizes = sizes[sizes > 0]
        if comb(cap + len(sizes) - 1, cap) * len(sizes) > 2 * cap * layer:
            continue
        largest = _largest_bucket(sizes.tolist(), cap)
        if largest < best:
            best, pick = largest, e
    if pick is not None:
        present = np.zeros(len(system.rows), dtype=np.intp)
        present[rows[:, pick]] = 1
        classes[:n] = (np.cumsum(present) - 1)[rows[:, pick]]
        classes[n] = classes[:n].max() + 1
    return classes


def _automorphisms(system):
    """The permutations m -> s o m of the variables (int32, one row each,
    the pad variable z = n last and fixed) for the automorphisms s of H
    that map the system's maps onto themselves, every one when the system
    holds all of Hom(G, H); the identity comes first.  An automorphism is
    a bijective map in Hom(H, H), searched up to ``AUT_HOM_CAP`` maps; past
    that, the identity alone is used."""
    h, n = system.h, system.num_vars
    maps = np.array(system.homs.maps, dtype=np.intp).reshape(n, system.g.n)
    try:
        group = [s for s in enumerate_homs(h, h, count_cap=AUT_HOM_CAP).maps
                 if len(set(s)) == h.n]
    except HomTooLarge:
        group = [tuple(range(h.n))]
    perms = []
    for s in group:
        image = np.array(s)[maps]
        order = np.lexsort(image.T[::-1])       # the maps are in lex order
        if np.array_equal(image[order], maps):
            perm = np.arange(n + 1, dtype=np.int32)
            perm[order] = np.arange(n)
            perms.append(perm)
    return np.array(perms)


@dataclass(frozen=True)
class _Block:
    """Whole buckets of the padded layer.  ``mono``: the monomials as
    sorted rows (stored column by column), in lex order; ``rank``: their
    lex ranks in the layer, or None when the block is the whole layer (a
    row is its rank); ``comps``: the class counts of the buckets;
    ``order``: the rows sorted by fiber, then row; ``counts``: the size of
    each fiber in that order; ``room``: the low bits of a sort word that
    hold a row; ``images``: (owner, perm), for every bucket of the layer
    left out of the walk, the layer index of the walked bucket of its
    orbit (sorted) and a variable permutation that maps that bucket onto
    it."""
    mono: np.ndarray
    rank: object
    comps: np.ndarray
    order: np.ndarray
    counts: np.ndarray
    room: int
    images: tuple


class _Layers:
    """The degree layers t = 0..cap of one system as one padded layer over
    the variables and z = n, walked as blocks of whole buckets (see the
    module docstring).  A layer of degree 2..cap with more than
    ``mono_cap`` monomials is refused before anything is built.  The class
    layers (every multiset of c variables of one class, in lex order, each
    variable in front of the rows of its class one degree down that start
    at it or later) are stacked: ``tables[c]`` holds class 0's, then
    class 1's, ..., from the rows ``offsets[c]``."""

    def __init__(self, system, cap: int, mono_cap: int):
        if cap < 1:
            raise ValueError("degree must be at least 1")
        for t in range(2, cap + 1):
            total = comb(system.num_vars + t - 1, t)
            if total > mono_cap:
                raise ResourceCapExceeded(
                    f"{total} monomials of degree {t} exceed the cap {mono_cap}")
        self.system, self.cap, self.classes = system, cap, _bucket_classes(system, cap)
        n = self.n = system.num_vars + 1       # the variables and z
        k = self.k = int(self.classes.max()) + 1
        sizes = np.bincount(self.classes, minlength=k)
        members = np.argsort(self.classes, kind="stable")
        self.interleaved = bool((members[1:] < members[:-1]).any())
        self.count = np.array([[comb(s + c - 1, c) for c in range(cap + 1)]
                               for s in sizes.tolist()], dtype=np.int64)
        self.offsets = np.zeros((cap + 1, k + 1), dtype=np.int64)     # [c, class]
        np.cumsum(self.count.T, axis=1, out=self.offsets[:, 1:])
        self.tables = [_columns(0, k), _columns(1, n)]
        self.tables[1][:, 0] = members
        cls = self.classes[members]
        for c in range(2, cap + 1):
            prev, off = self.tables[c - 1], self.offsets[c - 1]
            first = prev[:, 0] + (np.arange(k, dtype=np.int64) * n).repeat(self.count[:, c - 1])
            starts = first.searchsorted(cls * n + members)
            lengths = off[cls + 1] - starts
            table = _columns(c, int(lengths.sum()))
            table[:, 0] = members.repeat(lengths)
            src = _ranges(starts, lengths)
            for q in range(c - 1):
                prev[:, q].take(src, out=table[:, q + 1])
            self.tables.append(table)

    @cached_property
    def perms(self):
        """The variable permutations of Aut(H), identity first (see
        ``_automorphisms``), built when first needed."""
        return _automorphisms(self.system)

    def _rows(self, comps, t: int, mono):
        """Write the monomials of the buckets ``comps`` (class counts of
        degree t, a row each) into the first t columns of ``mono``, bucket
        after bucket, and return the order of the buckets.  A row is its
        class parts in class order, and a bucket the product of its class
        layers, the first part varying slowest.  Buckets of one shape (their
        parts of the same sizes at the same columns, read off the bit set
        of the parts' ends) are built together."""
        order = np.arange(len(comps))
        if self.k == 1:
            table = self.tables[t]
            for q in range(t):
                mono[:, q].reshape(len(comps), -1)[:] = table[:, q]
            return order
        if t == 0 or not len(comps):
            return order
        bucket, cls = np.nonzero(comps)             # the parts, in class order
        cnt = comps[bucket, cls].astype(np.int64)
        end = np.cumsum(cnt) - t * bucket           # end column of each part
        shape = np.zeros(len(comps), dtype=np.int64)
        np.add.at(shape, bucket, np.left_shift(1, end))
        first = np.searchsorted(bucket, order)      # the first part of each bucket
        groups = [np.flatnonzero(shape == s) for s in sorted(set(shape.tolist()))]
        lo = 0
        for group in groups:
            parts = first[group[0]] + np.arange(np.count_nonzero(comps[group[0]]))
            c, col = cnt[parts], end[parts] - cnt[parts]
            a = cls[first[group][:, None] + np.arange(len(parts))]
            n, off = self.count[a, c], self.offsets[c, a]
            own, index = np.arange(len(group)), []
            for p in range(len(parts)):
                width = n[own, p]
                index = [np.repeat(i, width) for i in index]
                index.append(_ranges(off[own, p], width))
                own = np.repeat(own, width)
            hi = lo + len(own)
            for p, i in enumerate(index):
                table = self.tables[c[p]]
                for q in range(c[p]):
                    np.take(table[:, q], i, out=mono[lo:hi, col[p] + q])
            lo = hi
        return np.concatenate(groups)

    def blocks(self, orbits: bool = False, top: bool = False):
        """Yield the padded layer as ``_Block``s of whole buckets, each at
        most ``BLOCK`` rows unless it is one bucket.  With ``orbits``, only
        the lex-first bucket of every orbit of Aut(H) is walked, under the
        ``room`` and block bound of the whole layer, and every block carries
        the ``images`` of the others.  With ``top`` (not with ``orbits``),
        only the buckets of degree cap, where z has a class of its own."""
        t, k = self.cap, self.k
        comps = _compositions(k, t)
        if top and k > 1:
            comps = comps[comps[:, -1] == 0]
        sizes = self.count[np.arange(k), comps].prod(axis=1)
        room = (max(min(int(sizes.sum()), BLOCK), int(sizes.max())) - 1).bit_length()
        packed = self.system.packed_columns(t.bit_length(), room)
        images = (np.zeros(0, dtype=np.int64), np.zeros((0, self.n), dtype=np.int32))
        if orbits and k > 1:
            keep, images = self._orbits(comps)
            comps, sizes = comps[keep], sizes[keep]
        ends = sizes.cumsum()
        a = 0
        while a < len(sizes):
            b = max(a + 1, int(ends.searchsorted((ends[a - 1] if a else 0) + BLOCK, side="right")))
            yield self._block(comps[a:b], sizes[a:b], packed, room, images)
            a = b

    def _orbits(self, comps):
        """(walked, images): the layer indices of the lex-first bucket of
        every orbit of Aut(H) on the buckets ``comps``, and the ``images``
        of ``_Block`` for every other bucket.  An automorphism permutes the
        edge maps of e, so the classes, and maps a bucket's multiset of
        classes to the multiset of their images."""
        perms, n_buckets, t = self.perms, len(comps), self.cap
        index = np.arange(n_buckets)
        shift = np.empty((len(perms), self.k), dtype=np.intp)   # class c -> shift[g, c]
        shift[:, self.classes] = self.classes[perms]
        words = np.repeat(np.tile(np.arange(self.k), n_buckets), comps.ravel()).reshape(-1, t)
        image = np.array([_rank(np.sort(c[words], axis=1), self.k) for c in shift])
        rep = image.min(axis=0)         # buckets are listed in lex order of their multisets
        others = np.flatnonzero(rep != index)
        others = others[np.argsort(rep[others], kind="stable")]
        sigma = (image[:, rep[others]] == others).argmax(axis=0)
        return np.flatnonzero(rep == index), (rep[others], perms[sigma])

    def mapped(self, block, rows, low, lead):
        """(lead, trail): the generators of the buckets that ``block.images``
        maps from the block's buckets, as monomial rows.  Each split fiber
        (``rows``, ``low`` and ``lead`` from ``_split``) is moved by the
        permutation of every image of its bucket and its rows re-sorted;
        the smallest mapped monomial of the fiber is joined to the smallest
        of every other mapped component."""
        owner, perms = block.images
        t = block.mono.shape[1]
        start = _run_starts(lead)
        fibers, width = start.nonzero()[0], _run_lengths(start)
        bucket = _rank(np.sort(self.classes[block.mono[lead[fibers]]], axis=1), self.k)
        lo = owner.searchsorted(bucket)
        many = owner.searchsorted(bucket, side="right") - lo
        fiber = np.repeat(np.arange(len(fibers)), many)     # per (fiber, image) pair
        perm = _ranges(lo, many)
        pos = _ranges(fibers[fiber], width[fiber])          # their positions, pair by pair
        pair = np.repeat(np.arange(len(fiber)), width[fiber])
        perm, src, comp = perm[pair], rows[pos], low[pos]
        mono = _columns(t, len(pos))
        for q in range(t):
            mono[:, q] = perms[perm, block.mono[:, q][src]]
        _sort_rows(mono)
        rank = _rank(mono, self.n)
        order = np.lexsort((rank, comp, pair))
        first = order[_run_starts(pair[order], comp[order])]    # smallest of each component
        first = first[np.lexsort((rank[first], pair[first]))]
        head = _run_starts(pair[first])                     # holds its fiber's smallest
        lead = first[head][np.cumsum(head) - 1]
        return mono[lead[~head]], mono[first[~head]]

    def _block(self, comps, sizes, packed, room, images):
        """The block of the buckets ``comps``: its rows in lex order, and
        its fibers."""
        if self.k == 1:                 # the whole layer, already in lex order
            mono, rank = self.tables[self.cap], None
        else:
            mono = _columns(self.cap, int(sizes.sum()))
            self._rows(comps, self.cap, mono)
            if self.interleaved:        # the class parts of a row are not in order
                _sort_rows(mono)
            rank = _rank(mono, self.n).astype(np.int64) << room
            rank |= np.arange(len(mono))
            rank.sort()
            mono = _take(mono, rank & ((1 << room) - 1))
            rank >>= room
        words = np.empty((packed.shape[1], len(mono)), dtype=np.int64).T
        for w in range(packed.shape[1]):
            packed[:, w].take(mono[:, 0], out=words[:, w])
            for q in range(1, self.cap):
                words[:, w] += packed[:, w][mono[:, q]]
        order, counts = _fibers(words, room)
        return _Block(mono, rank, comps, order, counts, room, images)

    def moves(self, block, sides):
        """The moves u*lead -> u*trail from the rows of ``block``, as a (k, 2)
        array of block rows: one for every element of degree d <= cap in
        ``sides`` (see ``_basis_sides``) and every padded monomial u of a
        bucket of degree cap - d that is a bucket of the block minus the
        classes of the lead.  Both ends of a move lie in one bucket."""
        t, out = self.cap, []
        for d, s in sides.items():
            if d > t:
                continue
            if self.k == 1:             # one bucket: every u of degree t - d
                elem = np.arange(len(s))
                comps = np.full((len(s), 1), t - d, dtype=np.int16)
            else:
                lead = self.classes[s[:, 0]]
                need = np.zeros((len(s), self.k), dtype=np.int16)
                np.add.at(need, (np.arange(len(s))[:, None], lead), 1)
                fits = np.ones((len(s), len(block.comps)), dtype=bool)
                for q in range(d):
                    fits &= (block.comps[:, lead[:, q]].T
                             >= need[np.arange(len(s)), lead[:, q]][:, None])
                elem, bucket = np.nonzero(fits)
                comps = block.comps[bucket] - need[elem]
            sizes = self.count[np.arange(self.k), comps].prod(axis=1)
            ends = []
            for side in (0, 1):
                mono = _columns(t, int(sizes.sum()))
                order = self._rows(comps, t - d, mono)
                for q in range(d):
                    mono[:, t - d + q] = s[elem[order], side, q].repeat(sizes[order])
                if d < t:
                    _sort_rows(mono)
                rank = _rank(mono, self.n)
                del mono
                ends.append(rank if block.rank is None else block.rank.searchsorted(rank))
            out.append(np.array(ends).T)
        return np.concatenate(out) if out else np.zeros((0, 2), dtype=np.int64)


def _fibers(words, room: int):
    """(order, counts): the rows sorted by packed key, then by row, and the
    size of every run of equal keys, a fiber.  Each key word has its low
    ``room`` bits free, so one ``np.sort`` of ``word | position`` sorts by
    the word and keeps the order so far among equal words: a multi-word
    key sorts least significant word first."""
    n, n_words = words.shape
    position = np.arange(n, dtype=np.int64)
    order = position
    for w in range(n_words - 1, -1, -1):
        word = words[:, w][order]
        word |= position
        word.sort()
        order = order[word & ((1 << room) - 1)]
    starts = (_run_starts(words[:, w][order]) for w in range(n_words))  # one word at a time
    return order, _run_lengths(reduce(np.logical_or, starts))


def _run_starts(*keys):
    """True where a run of equal values of the ``keys``, read together,
    begins."""
    start = np.zeros(len(keys[0]), dtype=bool)
    for key in keys:
        start[1:] |= key[1:] != key[:-1]
    start[:1] = True
    return start


def _run_lengths(start):
    """The length of every run of a sequence whose runs begin where
    ``start`` is True (it is at 0)."""
    begin = start.nonzero()[0]
    lengths = np.empty(len(begin), dtype=np.int64)
    np.subtract(begin[1:], begin[:-1], out=lengths[:-1])
    lengths[-1:] = len(start) - begin[-1:]
    return lengths


def _rank(mono, n_vars: int):
    """Row of each sorted monomial (a row of ``mono``) in the lex order of
    its layer; int32 when every row of the layer fits.  Reversing a
    monomial m and complementing its variables turns lex order into
    reversed colex order, so the lex rank of m is C(n_vars + t - 1, t) - 1
    minus the colex rank of x = n_vars - 1 - m reversed, the sum over i of
    C(x_i + i, i + 1)."""
    t = mono.shape[1]
    n_rows = comb(n_vars + t - 1, t)
    dtype = np.int32 if n_rows < 2**31 else np.int64
    table = np.empty((t, n_vars), dtype=dtype)
    table[0] = np.arange(n_vars)
    for i in range(1, t):
        np.cumsum(table[i - 1], out=table[i])      # C(x + i, i + 1), hockey stick
    rank = np.full(mono.shape[0], n_rows - 1, dtype=dtype)
    for i in range(t):
        rank -= table[i, n_vars - 1 - mono[:, t - 1 - i]]
    return rank


def iter_fibers(system, degree: int, *, min_size: int = 1,
                mono_cap: int = DEFAULT_MONO_CAP):
    """Yield (fiber number, [monomial, ...]) for every fiber of the given
    degree with at least ``min_size`` monomials, the monomials of a fiber
    in lex order.  Fibers are numbered in the order the blocks walk them;
    the padded fibers of lower degrees, whose rows end in z, are left out."""
    number, n = 0, system.num_vars
    for block in _Layers(system, degree, mono_cap).blocks(top=True):
        counts = block.counts
        keep = counts >= min_size
        keep[keep] = block.mono[block.order[(counts.cumsum() - counts)[keep]], -1] < n
        monos = list(map(tuple, _take(block.mono, block.order[keep.repeat(counts)]).tolist()))
        start = 0
        for f, c in zip((number + np.flatnonzero(keep)).tolist(), counts[keep].tolist()):
            yield f, monos[start:start + c]
            start += c
        number += len(counts)


def _split(block, n_vars: int, pairs=None):
    """Components of every fiber of two or more monomials of the block
    under "shares a variable" (the pad variable z = ``n_vars`` is shared
    by none), joined further by ``pairs``, an optional (k, 2) array of
    block rows whose two ends lie in one such fiber.

    Returns (rows, low, lead) for the split fibers, those of two or more
    components: the block rows of their monomials, fiber after fiber and
    each fiber in lex order, and for each the block row of the smallest
    monomial of its component and of its fiber.  A fiber in which every
    monomial shares a variable with its first, smallest monomial (its
    head) is connected: those, most fibers, are settled by t * t
    comparisons with the head's factor columns and dropped with their
    pairs.  The fibers left open are compared so with their last, largest
    monomial (their tail) and settled when every monomial shares a
    variable with the head or the tail and one with both: two stars joined
    by a bridge are connected, pairs or not.  Without a bridge a fiber may
    split, and stays open.  Within an open fiber a smaller position is a
    smaller monomial, so the smallest position of a component is its
    smallest monomial.  The (fiber, variable) classes of the factors are
    runs of one ``np.sort`` of ``class << room | position``, which fits:
    positions stay below 2**room and so do the fibers."""
    many = block.counts >= 2
    rows = block.order[many.repeat(block.counts)]
    counts = block.counts[many]
    t, room = block.mono.shape[1], block.room
    none = np.zeros(0, dtype=np.int64)
    if not len(rows):
        return none, none, none
    cols = [block.mono[:, q][rows] for q in range(t)]
    for tail in (False, True):          # the head, then the tail of every fiber left open
        heads = counts.cumsum() - counts
        end = heads + counts - 1 if tail else heads
        star = np.zeros(len(rows), dtype=bool)      # shares a variable with that end
        for col in cols:
            col = np.where(col[end] == n_vars, -1, col[end]).repeat(counts)
            for other in cols:
                star |= other == col
        if tail:                        # two stars joined by a bridge
            settled = (np.logical_and.reduceat(star | near, heads)
                       & np.logical_or.reduceat(star & near, heads))
        else:
            settled = np.logical_and.reduceat(star, heads)
        if settled.all():
            return none, none, none
        keep = (~settled).repeat(counts)
        rows, counts, near = rows[keep], counts[~settled], star[keep]
        cols = [col[keep] for col in cols]
    n = len(rows)
    ix = np.int32 if n < 2**31 else np.int64
    fiber = np.arange(len(counts), dtype=np.int64).repeat(counts)
    keys = np.empty((t, n), dtype=np.int64)
    real = np.empty((t, n), dtype=bool)
    base = fiber * (n_vars + 1)
    for q, col in enumerate(cols):
        np.not_equal(col, n_vars, out=real[q])
        np.add(col, base, out=keys[q])
    del base, cols
    keys <<= room
    keys |= np.arange(n, dtype=np.int64)
    keys = keys.ravel() if real.all() else keys[real]
    keys.sort()
    start = np.empty(len(keys), dtype=bool)
    start[0] = True
    step = keys[1:] ^ keys[:-1]         # reaches 2**room where the class changes
    np.greater_equal(step, 1 << room, out=start[1:])
    del step
    shared = ~start                     # a factor whose class has another factor
    shared[:-1] |= ~start[1:]
    owner = keys[shared]
    del keys
    owner &= (1 << room) - 1            # the position of the factor's monomial
    owner = owner.astype(ix)
    sizes = _run_lengths(start[shared])
    del start, shared
    if pairs is not None and len(pairs):
        where = np.full(len(block.mono), -1, dtype=ix)
        where[rows] = np.arange(n, dtype=ix)
        ends = where[pairs]
        ends = ends[ends[:, 0] >= 0]    # not in a settled fiber (both ends lie in one)
        owner = np.concatenate([owner, ends.ravel()])
        sizes = np.concatenate([sizes, np.full(len(ends), 2, dtype=np.int64)])
    label = _min_labels(np.arange(n, dtype=ix), owner, sizes)
    first = (counts.cumsum() - counts)[fiber]
    apart = label != first
    if not apart.any():
        return none, none, none
    split = np.zeros(len(counts), dtype=bool)
    split[fiber[apart]] = True
    keep = split[fiber]
    return rows[keep], rows[label[keep]], rows[first[keep]]


def _min_labels(label, owner, sizes):
    """Label every item with the smallest item of its component, where
    ``owner`` lists the members of consecutive groups of ``sizes`` and the
    members of a group are joined.  ``label`` starts as the identity.

    Min-label propagation: hook the label of every group member onto the
    group's smallest label, then jump pointers until every label is a root
    (its own label); stop once every group has a single label."""
    starts = np.concatenate(([0], np.cumsum(sizes[:-1]))).astype(np.intp)
    while len(owner):
        lab = label[owner]
        low = np.minimum.reduceat(lab, starts)
        if np.array_equal(low, np.maximum.reduceat(lab, starts)):
            break
        np.minimum.at(label, lab, np.repeat(low, sizes))
        del lab
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
    return label


# ---------------------------------------------------------------------------
# Markov bases

@dataclass(frozen=True)
class MarkovResult:
    basis: OrientedBasis
    cap: int
    additions_by_degree: dict = field(default_factory=dict)

    @property
    def width(self) -> int:
        return self.basis.degree

    @property
    def stable_at_cap(self) -> bool:
        """No new generators were needed in the last two layers.  Heuristic
        evidence of completeness; no terminating degree bound is certified."""
        return all(self.additions_by_degree.get(t, 0) == 0
                   for t in (self.cap - 1, self.cap))


def markov_basis(system, degree_cap: int, *,
                 mono_cap: int = DEFAULT_MONO_CAP) -> MarkovResult:
    """Layered fiber construction of a minimal-degree generating set.

    The components of a fiber of every degree 1..cap are the classes of
    "shares a variable" (see the module docstring), and the binomials
    joining its smallest monomial to the smallest monomial of every other
    class are the generators it needs.  Degree 1 turns duplicate columns
    into linear generators; they count towards degree 2 in
    ``additions_by_degree``.  Only one bucket per orbit of Aut(H) is
    walked; the generators of the others are mapped from it, and every
    one is counted.  The generators of each degree go to
    ``OrientedBasis.from_rows`` as rows ``plus | minus``, which sorts them
    as ``OrientedBasis.make`` does and deduplicates them.
    """
    if degree_cap < 2:
        raise ValueError("degree cap must be at least 2")
    layers, n, cap = _Layers(system, degree_cap, mono_cap), system.num_vars, degree_cap
    found = [np.zeros((0, 2 * cap), dtype=np.int32)]
    for block in layers.blocks(orbits=True):
        rows, low, lead = _split(block, n)
        if not len(rows):
            continue
        root = (low == rows) & (lead != rows)   # a component without the fiber's smallest
        found.append(np.concatenate((block.mono[lead[root]], block.mono[rows[root]]), axis=1))
        if len(block.images[0]):
            found.append(np.concatenate(layers.mapped(block, rows, low, lead), axis=1))
    both = np.concatenate(found)
    degree = (both[:, :cap] < n).sum(axis=1)        # each side is padded by z^(cap - degree)
    counts = np.bincount(np.maximum(degree, 2), minlength=cap + 1).tolist()
    basis = OrientedBasis.from_rows(both.reshape(-1, 2, cap)[degree == t, :, :t].reshape(-1, 2 * t)
                                    for t in np.flatnonzero(np.bincount(degree)).tolist())
    return MarkovResult(basis, cap, {t: counts[t] for t in range(2, cap + 1)})


def _basis_sides(system, basis: OrientedBasis):
    """Check the basis (members whose sides have one degree, else
    ValueError) and group the sides of its elements by degree: {d:
    (elements, 2, d) int32 array}, lead first, each sorted.  An element
    with lead == trail moves a monomial only to itself and is left out."""
    system.check_basis_members(basis)
    sides = {}
    for (d, q), (where, rows) in basis.shapes.items():     # in order of first element
        if d != q:
            b = basis.elements[where[0]]
            raise ValueError(f"binomial {b.plus} - {b.minus} is not homogeneous")
        s = rows.astype(np.int32)       # a copy: its sides are sorted in place
        _sort_rows(s.reshape(2 * len(rows), d))
        s = s.reshape(len(rows), 2, d)
        s = s[(s[:, 0] != s[:, 1]).any(axis=1)]
        if len(s):
            sides[d] = s
    return sides


def _invariant(sides, perms, n_vars: int) -> bool:
    """True when every variable permutation of ``perms`` (identity first)
    maps the elements of ``sides`` (see ``_basis_sides``), read as a
    multiset of unordered binomials, onto itself; stops at the first that
    does not.  Each side is moved, re-sorted and ranked in its layer, and
    the sorted ranks must be the basis's.  A side is then named by its
    place among the distinct ranks, so an element is one int64 word (its
    two places, low first) at any layer size, and the words are sorted."""
    for d, s in sides.items():
        words = None
        for perm in perms:
            moved = perm[s].reshape(-1, d)
            _sort_rows(moved)
            rank = _rank(moved, n_vars)
            order = rank.argsort()
            if words is None:
                ranks = rank[order]
                place = np.cumsum(_run_starts(ranks))
            elif not np.array_equal(rank[order], ranks):
                return False
            at = np.empty_like(place)
            at[order] = place
            lead, trail = at[0::2], at[1::2]
            word = np.minimum(lead, trail) * len(at) + np.maximum(lead, trail)
            word.sort()
            if words is None:
                words = word
            elif not np.array_equal(word, words):
                return False
    return True


def verify_markov(system, basis: OrientedBasis, degree_cap: int, *,
                  mono_cap: int = DEFAULT_MONO_CAP) -> bool:
    """True when every fiber of degree <= cap is connected under the moves.

    Every degree is walked at once and any split fiber returns False,
    which is exact (see the module docstring): in a degree-t fiber only
    the basis elements of degree exactly t, padded by z^(cap - t), can join
    two classes of monomials that share a variable.  When Aut(H) maps the
    basis onto itself, only one bucket per orbit is walked (see the module
    docstring); otherwise every bucket is.
    """
    if degree_cap < 1:                  # no layer checked: any basis would pass
        raise ValueError("degree cap must be at least 1")
    sides = _basis_sides(system, basis)
    layers, n = _Layers(system, degree_cap, mono_cap), system.num_vars
    orbits = layers.k > 1 and _invariant(sides, layers.perms, n)
    padded = [np.concatenate((s, np.full((len(s), 2, degree_cap - d), n, dtype=np.int32)), axis=2)
              for d, s in sides.items() if d <= degree_cap]
    top = {degree_cap: np.concatenate(padded)} if padded else {}
    for block in layers.blocks(orbits=orbits):
        if len(_split(block, n, layers.moves(block, top))[0]):
            return False
    return True


def verify_grobner(system, basis: OrientedBasis, degree_cap: int, *,
                   mono_cap: int = DEFAULT_MONO_CAP) -> bool:
    """Directed fiber-graph criterion (Sturmfels, Groebner Bases and Convex
    Polytopes, 1996): every fiber graph of degree 1..cap is acyclic with
    one sink, so every walk ends in that sink and the fiber is connected.
    Degree 1 matters when a source vertex on no edge gives equal columns.
    Each block of the padded layer is checked on its own: its moves are
    u*lead -> u*trail for every element of degree d and padded monomial u
    of degree cap - d, every degree t >= d at once (``_Layers.moves``);
    sinks are counted per fiber, then peeled round by round (Kahn's
    algorithm)."""
    if degree_cap < 1:                  # no layer checked: any basis would pass
        raise ValueError("degree cap must be at least 1")
    sides = _basis_sides(system, basis)
    layers = _Layers(system, degree_cap, mono_cap)
    for block in layers.blocks():
        src, dst = layers.moves(block, sides).T
        fid = np.empty(len(block.mono), dtype=np.int64)
        fid[block.order] = np.repeat(np.arange(len(block.counts)), block.counts)
        left = np.bincount(src, minlength=len(fid))     # moves out not yet peeled
        # an acyclic fiber has a sink, so one sink each means never two
        if np.bincount(fid[left == 0]).max(initial=0) > 1:
            return False
        while len(src):
            into = left[dst] == 0
            if not into.any():          # every row left has a move out: a cycle
                return False
            left -= np.bincount(src[into], minlength=len(left))
            src, dst = src[~into], dst[~into]
    return True


# ---------------------------------------------------------------------------
# basis file format

def format_monomial(mono, system=None, *, maps=False) -> str:
    if maps and system is not None:
        return "*".join("(" + ",".join(map(str, system.homs.maps[v])) + ")" for v in mono)
    return "*".join(str(v) for v in mono)


def format_binomial(b: Binomial, system=None, *, maps=False) -> str:
    return (f"{format_monomial(b.plus, system, maps=maps)} - "
            f"{format_monomial(b.minus, system, maps=maps)}")


def parse_monomial(text: str, system) -> tuple:
    out = []
    for token in text.strip().split("*"):
        token = token.strip()
        if not token:
            continue
        if token.startswith("("):
            m = tuple(int(x) for x in token.strip("()").split(","))
            if m not in system.homs.index:
                raise ValueError(f"{token} is not a homomorphism of the system")
            out.append(system.homs.index[m])
        else:
            v = int(token)
            if not (0 <= v < system.num_vars):
                raise ValueError(f"variable {v} out of range")
            out.append(v)
    return tuple(sorted(out))


def parse_basis_text(text: str, system) -> OrientedBasis:
    """One binomial per line, ``<lead> - <trail>``, factors '*'-joined as
    variable indices or parenthesized map literals."""
    elems = []
    for raw, line in content_lines(text):
        lead, sep, trail = line.partition(" - ")
        if not sep:
            raise ValueError(f"bad binomial line: {raw!r}")
        b = Binomial.make(parse_monomial(lead, system), parse_monomial(trail, system))
        if b is None:
            raise ValueError(f"zero binomial: {raw!r}")
        elems.append(b)
    return OrientedBasis.make(elems)
