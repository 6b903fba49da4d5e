"""Toric machinery for ideals of graph homomorphisms.

The defining matrix A has one row per pair (edge of G, edge map into H)
and one 0/1 column per homomorphism G -> H; the entry is 1 exactly when
the homomorphism restricts to that edge map.  Binomials live in the
polynomial ring with one variable per homomorphism; a monomial is stored
as a sorted tuple of variable indices (repeats encode exponents).

A fiber is a set of monomials of one degree with the same image under A.
They are grouped by one key for every target: the rows of A that are
linearly independent modulo the all-ones row, chosen by exact integer
elimination.  Every other row of A is a combination of those rows and
the all-ones row, which is constant (the degree) on a layer, so the key
separates exactly the monomials that A separates.

The key is never stored row by row.  At degree t every key entry of a
monomial lies in 0..t < 2**b, b = t.bit_length(), so row i of the key
takes the bits [b*j, b*(j+1)) of int64 word i // per, j = i % per and per
= 63 // b rows to a word.  Each variable then has one packed column per
word, and the packed key of a monomial is the plain sum of the packed
columns of its factors: no row can carry into the next.  A layer is its
monomials plus one to a few int64 words per monomial, and fibers are runs
of equal words.  The monomials of a layer are in lexicographic order, the
one order of the engine: a row number is a lex rank, and every list of
monomials the engine returns is in lex order without a sort.

Markov bases are built and verified one degree layer at a time, t = 1, 2,
..., by the gcd rule (Takemura-Aoki, Ann. Inst. Stat. Math. 56, 2004; see
also Diaconis-Sturmfels, Ann. Statist. 1998).  Once every fiber of degree
< t is connected, two degree-t monomials of one fiber that share a
variable x are connected too: divide both by x, join the quotients and
multiply back.  A move of degree < t always leaves a shared factor, so the
components of a degree-t fiber are the classes of "shares a variable",
joined further only by moves of degree exactly t.  numpy groups each
layer into fibers and computes those classes for all fibers at once.

All arithmetic is exact integer arithmetic.  numpy groups each layer into
fibers, splits them, turns a basis into moves between layer rows and peels
the sinks of directed fiber graphs; membership compares the images of
the two sides under A, packed the same way into Python integers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .graph import Graph
from .homset import HomSet, enumerate_homs
from .util import ResourceCapExceeded, content_lines, echelon


DEFAULT_MONO_CAP = 10**7


# ---------------------------------------------------------------------------
# monomials and binomials

def monomial(*variables) -> tuple:
    return tuple(sorted(variables))


def strip_common(plus, minus):
    """Remove the gcd monomial from both sides."""
    cp, cm = Counter(plus), Counter(minus)
    common = cp & cm
    if not common:
        return tuple(plus), tuple(minus)
    p = tuple(sorted((cp - common).elements()))
    m = tuple(sorted((cm - common).elements()))
    return p, m


@dataclass(frozen=True)
class Binomial:
    """plus - minus with disjoint supports; plus is the declared leading
    side when the binomial sits in an oriented basis."""
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

    def relabel(self, var_map) -> "Binomial":
        return Binomial(tuple(sorted(var_map[v] for v in self.plus)),
                        tuple(sorted(var_map[v] for v in self.minus)))


@dataclass(frozen=True)
class OrientedBasis:
    """A list of binomials, each oriented plus -> minus.  ``weights`` is an
    optional per-variable tuple-of-ints weight (compared lexicographically
    after summing over the factors of a monomial); when present it must
    strictly separate the two sides of every element."""
    elements: tuple
    weights: tuple = None

    @staticmethod
    def make(binomials, weights=None):
        elems = sorted(set(b for b in binomials if b is not None),
                       key=lambda b: (b.degree, b.plus, b.minus))
        return OrientedBasis(tuple(elems), weights)

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

    def monomial_weight(self, mono):
        if self.weights is None:
            raise ValueError("basis carries no weights")
        width = max((len(w) for w in self.weights), default=0)
        total = [0] * width
        for v in mono:
            w = self.weights[v]
            for i, x in enumerate(w):
                total[i] += x
        return tuple(total)


# ---------------------------------------------------------------------------
# the system

class ToricSystem:
    """Edge-separator matrix of Hom(G, H) with exact column data."""

    __slots__ = ("g", "h", "homs", "rows", "row_index", "cols", "_key", "_packed",
                 "_packed_a")

    def __init__(self, g: Graph, h: Graph, homs: HomSet):
        self.g = g
        self.h = h
        self.homs = homs
        rows = []
        for (u, v) in sorted(g.edges):
            if u == v:
                maps = [(w,) for w in range(h.n) if h.adjacent(w, w)]
            else:
                maps = sorted((a, b) for a in range(h.n) for b in range(h.n)
                              if h.adjacent(a, b))
            rows.extend(((u, v), rho) for rho in maps)
        self.rows = tuple(rows)
        self.row_index = {r: i for i, r in enumerate(rows)}
        cols = []
        for m in homs.maps:
            entries = []
            for (u, v) in sorted(g.edges):
                rho = (m[u],) if u == v else (m[u], m[v])
                entries.append(self.row_index[((u, v), rho)])
            cols.append(tuple(sorted(entries)))
        self.cols = tuple(cols)
        self._key = None
        self._packed = {}
        self._packed_a = {}

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
        # smaller matrix when M has fewer rows than columns.
        m = np.ones((len(self.rows) + 1, len(self.homs)), dtype=np.int64)
        m[1:] = self.dense_matrix()
        small = m @ m.T if m.shape[0] <= m.shape[1] else m.T
        rows = [p for p in echelon(small.tolist())[0] if p]
        return m[rows]

    def packed_columns(self, bits: int):
        """The columns of the key packed into int64 words, one row per
        variable, cached per ``bits``: key row i takes ``bits`` bits of word
        i // per, per = 63 // bits (see the module docstring for why sums
        of them stay exact)."""
        packed = self._packed.get(bits)
        if packed is None:
            key, per = self.key_matrix, 63 // bits
            packed = np.zeros((key.shape[1], -(-key.shape[0] // per)), dtype=np.int64)
            for w in range(packed.shape[1]):
                block = key[w * per:(w + 1) * per]
                shift = bits * np.arange(len(block), dtype=np.int64)
                packed[:, w] = (block << shift[:, None]).sum(axis=0)
            self._packed[bits] = packed
        return packed

    def dense_matrix(self):
        """A as an int64 array, one row per row of A, one column per
        variable.  The constructor gives every column exactly one row per
        edge of G, so the column entries form a (variables x edges) index
        array and one assignment fills A."""
        n = len(self.cols)
        entries = np.array(self.cols, dtype=np.intp).reshape(n, len(self.g.edges))
        a = np.zeros((len(self.rows), n), dtype=np.int64)
        a[entries, np.arange(n)[:, None]] = 1
        return a

    # -- exact images ----------------------------------------------------------

    @property
    def num_vars(self):
        return len(self.homs)

    def membership(self, binomial: Binomial) -> bool:
        """True when both sides have the same image under A.  The image
        entries of a side of degree d are at most d, so with row e of A at
        the bits [b*e, b*(e+1)) of one Python integer, b = d.bit_length(),
        the image of a side packs into the sum of the packed columns of its
        factors (as in the module docstring, in one unbounded word)."""
        plus, minus = binomial.plus, binomial.minus
        n = len(self.homs)
        for v in plus + minus:
            if not (0 <= v < n):
                raise IndexError(f"variable {v} out of range")
        bits = max(len(plus), len(minus), 1).bit_length()
        packed = self._packed_a.get(bits)
        if packed is None:
            packed = self._packed_a[bits] = [sum(1 << bits * e for e in col) for col in self.cols]
        return sum(packed[v] for v in plus) == sum(packed[v] for v in minus)

    def check_basis_members(self, basis: OrientedBasis):
        for b in basis:
            if not self.membership(b):
                raise ValueError(f"binomial {b.plus} - {b.minus} is not in the ideal")

    def restrict_columns(self, var_indices) -> "ToricSystem":
        """The system on the variables ``var_indices``, renumbered 0..k-1 in
        the given order.  The indices must be strictly increasing and in
        range: HomSet sorts its maps, so any other order would silently
        renumber the variables."""
        idx = tuple(var_indices)
        if any(a >= b for a, b in zip(idx, idx[1:])) or (idx and idx[0] < 0):
            raise ValueError("variable indices must be strictly increasing and nonnegative")
        maps = [self.homs.maps[v] for v in idx]
        return ToricSystem(self.g, self.h, HomSet(self.g, self.h, maps))


def build_system(g: Graph, h: Graph, **caps) -> ToricSystem:
    return ToricSystem(g, h, enumerate_homs(g, h, **caps))


# ---------------------------------------------------------------------------
# fiber enumeration

def _layer(system, degree: int, mono_cap: int):
    """(idx, fid): every degree-``degree`` monomial as a sorted row of
    variable indices, the rows in lexicographic order, and the fiber id of
    each row, fibers numbered in the order of their packed key (word 0
    first).

    Layer t puts each variable j in front of the rows of layer t - 1 that
    start at j or later, a suffix of that layer, and the packed key of a
    new row is the key of its suffix row plus the packed column of j (see
    ``ToricSystem.packed_columns``).  Fibers are refined one key word at a
    time: the ids so far times the row count n, plus the rank of the word,
    stay below n**2 and fit int64."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    packed = system.packed_columns(degree.bit_length())
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
    fid = next(ranks, np.zeros(n, dtype=np.intp))      # no key rows: one fiber
    for rank in ranks:
        fid *= n
        fid += rank
        fid = np.unique(fid, return_inverse=True)[1]
    return idx, fid


def _rank(mono, n_vars: int):
    """Row of each sorted monomial (a row of ``mono``) in the layer order of
    ``_layer``; int32 when every row of the layer fits.  Reversing a
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
    degree with at least ``min_size`` monomials, in the order of the fiber
    numbers of ``_layer`` (the order of the packed keys), the monomials of
    a fiber in lex order."""
    idx, fid = _layer(system, degree, mono_cap)
    counts = np.bincount(fid)
    rows = np.flatnonzero(counts[fid] >= min_size)
    rows = rows[np.argsort(fid[rows], kind="stable")]
    start = 0
    fibers = np.flatnonzero(counts >= min_size)
    for f, c in zip(fibers.tolist(), counts[fibers].tolist()):
        yield f, list(map(tuple, idx[rows[start:start + c]].tolist()))
        start += c


def _split_layer(system, degree: int, mono_cap: int, pairs=None):
    """Components of every fiber of two or more degree-``degree``
    monomials under "shares a variable", joined further by ``pairs``, an
    optional (k, 2) array of layer rows whose two ends lie in one such
    fiber.

    Returns (mono, root, lead): the monomials of those fibers as rows of
    ``mono`` in lex order, the positions in ``mono`` of the smallest
    monomial of every component, and for each root the position of the
    smallest monomial of its fiber."""
    idx, fid = _layer(system, degree, mono_cap)
    n_rows, t = idx.shape
    counts = np.bincount(fid)           # monomials per fiber
    n_fibers = len(counts)
    if n_fibers == n_rows:              # every fiber is a single monomial
        none = np.zeros(0, dtype=np.intp)
        return idx, none, none
    n_vars = system.num_vars
    ix = np.int32 if n_rows < 2**31 else np.int64
    rows = np.flatnonzero(counts[fid] >= 2)
    fib, mono = fid[rows].astype(ix), idx[rows]
    if pairs is not None:
        pairs = np.searchsorted(rows, pairs).astype(ix)
    del idx, fid, counts, rows
    n = len(mono)

    # groups: the (fiber, variable) of every factor of every monomial, then
    # each pair as a group of two
    kt = np.int32 if n_fibers * n_vars < 2**31 else np.int64
    keys = mono.astype(kt)
    keys += fib.astype(kt)[:, None] * n_vars
    keys = keys.ravel()
    sort = np.argsort(keys)
    keys = keys[sort]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    del keys
    sort //= t
    owner = sort.astype(ix)
    del sort
    sizes = np.diff(np.append(starts, len(owner))).astype(np.int32)
    shared = sizes >= 2                 # a group of one joins nothing
    owner = owner[np.repeat(shared, sizes)]
    sizes = sizes[shared]
    del shared, starts
    if pairs is not None:
        owner = np.concatenate([owner, pairs.ravel()])
        sizes = np.concatenate([sizes, np.full(len(pairs), 2, dtype=np.int32)])
    label = _min_labels(np.arange(n, dtype=ix), owner, sizes)
    del owner

    root = np.flatnonzero(label == np.arange(n, dtype=ix))
    first = np.full(n_fibers, n, dtype=np.intp)
    np.minimum.at(first, fib[root], root)
    return mono, root, first[fib[root]]


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

    For t = 1..cap, once every fiber of degree < t is connected, two
    degree-t monomials of one fiber that share a variable x are connected
    already (divide by x, join the quotients, multiply back), and a move of
    degree < t always leaves a shared factor.  So a fiber's components are
    the classes of "shares a variable", and the binomials joining its
    smallest monomial to the smallest monomial of every other class are
    the degree-t generators it needs.  Degree 1 turns duplicate columns
    into linear generators by the same rule; they count towards degree 2
    in ``additions_by_degree``.
    """
    if degree_cap < 2:
        raise ValueError("degree cap must be at least 2")
    additions = []
    counts = Counter()
    for t in range(1, degree_cap + 1):
        mono, root, lead = _split_layer(system, t, mono_cap)
        split = root != lead            # two components share no variable
        new = [Binomial(tuple(p), tuple(m))
               for p, m in zip(mono[lead[split]].tolist(), mono[root[split]].tolist())]
        additions.extend(new)
        counts[max(t, 2)] += len(new)
    additions_by_degree = {t: counts[t] for t in range(2, degree_cap + 1)}
    return MarkovResult(OrientedBasis.make(additions), degree_cap, additions_by_degree)


def markov_width(system, degree_cap: int, **kw) -> int:
    """Maximum degree in the minimal basis up to the cap; 0 for the trivial
    ideal.  A value equal to the cap may be a lower bound only."""
    return markov_basis(system, degree_cap, **kw).width


def _basis_sides(system, basis: OrientedBasis):
    """Check the basis (members whose sides have one degree, else
    ValueError) and group the sides of its elements by degree: {d:
    (elements, 2, d) int32 array}, lead first, each sorted.  An element
    with lead == trail moves a monomial only to itself and is left out."""
    system.check_basis_members(basis)
    groups = {}
    for b in basis:
        if len(b.plus) != len(b.minus):
            raise ValueError(f"binomial {b.plus} - {b.minus} is not homogeneous")
        if sorted(b.plus) != sorted(b.minus):
            groups.setdefault(len(b.plus), []).append(b.plus + b.minus)
    return {d: np.sort(np.array(g, dtype=np.int32).reshape(-1, 2, d), axis=2)
            for d, g in groups.items()}


def _layer_moves(sides, layers, t: int, n_vars: int):
    """The moves u*lead -> u*trail in layer t as a (k, 2) array of rows
    (lex ranks): one for every element of degree d in ``sides`` and every
    monomial u of ``layers[t - d]``, if given.  Each side is built in place
    as one int32 array, sorted and ranked."""
    out = []
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
                del mono
            out.append(np.stack(ends, axis=1))
    return np.concatenate(out) if out else np.zeros((0, 2), dtype=np.int64)


_UNIT = {0: np.zeros((1, 0), dtype=np.int32)}    # layer 0: the monomial 1


def verify_markov(system, basis: OrientedBasis, degree_cap: int, *,
                  mono_cap: int = DEFAULT_MONO_CAP) -> bool:
    """True when every fiber of degree <= cap is connected under the moves.

    Layers are checked for t = 1..cap and the first split fiber returns
    False, so at degree t every lower fiber is known to be connected.  Then
    monomials that share a variable are connected (see ``markov_basis``)
    and moves of degree < t stay inside those classes, so only the basis
    elements of degree exactly t can join two of them.
    """
    if degree_cap < 1:                  # no layer checked: any basis would pass
        raise ValueError("degree cap must be at least 1")
    sides = _basis_sides(system, basis)
    for t in range(1, degree_cap + 1):
        pairs = _layer_moves(sides, _UNIT, t, system.num_vars)
        _, root, lead = _split_layer(system, t, mono_cap, pairs)
        if (root != lead).any():
            return False
    return True


def verify_grobner(system, basis: OrientedBasis, degree_cap: int, *,
                   mono_cap: int = DEFAULT_MONO_CAP) -> bool:
    """Directed fiber-graph criterion (Sturmfels, Groebner Bases and Convex
    Polytopes, 1996): every fiber graph of degree 1..cap is acyclic with
    one sink, so every walk ends in that sink and the fiber is connected.
    Degree 1 matters when a source vertex on no edge gives equal columns.
    Each layer is checked whole: its moves are u*lead -> u*trail for every
    element of degree d <= t and monomial u of layer t - d; sinks are
    counted per fiber, then peeled round by round (Kahn's algorithm)."""
    if degree_cap < 1:                  # no layer checked: any basis would pass
        raise ValueError("degree cap must be at least 1")
    sides = _basis_sides(system, basis)
    layers = dict(_UNIT)
    for t in range(1, degree_cap + 1):
        layers[t], fid = _layer(system, t, mono_cap)
        src, dst = _layer_moves(sides, layers, t, system.num_vars).T
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
# basis restriction and witnesses

def restrict_basis(sys_big: ToricSystem, basis: OrientedBasis,
                   sys_small: ToricSystem) -> OrientedBasis:
    """Intersect a basis of I(G -> H2) with the subring of maps into
    H1 <= H2 (same vertex set); the result generates I(G -> H1)."""
    h1, h2 = sys_small.h, sys_big.h
    if h1.n != h2.n or not h1.edges <= h2.edges:
        raise ValueError("target of the small system must be a subgraph on the same vertices")
    if sys_small.g != sys_big.g:
        raise ValueError("both systems must share the source graph")
    var_map = {}
    for i, m in enumerate(sys_big.homs.maps):
        j = sys_small.homs.index.get(m)
        if j is not None:
            var_map[i] = j
    kept = []
    for b in basis:
        if all(v in var_map for v in b.plus + b.minus):
            kept.append(b.relabel(var_map))
    return OrientedBasis.make(kept)


@dataclass(frozen=True)
class NormalityWitness:
    normal: bool = False
    cohen_macaulay: bool = False
    koszul: bool = False

    def flags(self):
        out = []
        if self.normal:
            out.append("normal")
        if self.cohen_macaulay:
            out.append("cohen-macaulay")
        if self.koszul:
            out.append("koszul")
        return out


def normality_witness(basis: OrientedBasis, *, grobner_verified: bool) -> NormalityWitness:
    """Record the consequences of a verified square-free (and quadratic)
    Groebner basis.  Silent flags are not negatives."""
    if not grobner_verified:
        raise ValueError("witness requires a basis that passed the Groebner check")
    squarefree = basis.is_squarefree()
    quadratic = basis.degree <= 2
    return NormalityWitness(normal=squarefree,
                            cohen_macaulay=squarefree,
                            koszul=squarefree and quadratic)


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
        p, m = strip_common(parse_monomial(lead, system), parse_monomial(trail, system))
        if not p and not m:
            raise ValueError(f"zero binomial: {raw!r}")
        elems.append(Binomial(p, m))
    return OrientedBasis.make(elems)
