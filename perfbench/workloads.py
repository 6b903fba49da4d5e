"""The four benchmark workloads: seeded inputs, jobs and result checks.

A job's ``run`` is the timed call into homtoric.  Its ``check`` runs
untimed afterwards: it raises ``CheckFailed`` when an invariant does not
hold and otherwise returns ``(full, invariant)`` texts.  ``full`` is
compared (as a digest) against the references recorded for the default
seed; ``invariant`` does not depend on the seed and is compared on every
seed.  ``work`` is the job's count of degree-t monomials,
sum over its fiber walks of sum_{t=2..cap} C(n_vars + t - 1, t), computed
from public data.

Library calls go through module attributes (``toric.markov_basis``), so a
traced run sees them.
"""

from __future__ import annotations

import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb
from typing import Callable

import numpy as np

from homtoric import cli, graph, hibi, indep, polytope, tfp, toric

DEFAULT_SEED = 0
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


class CheckFailed(AssertionError):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Job:
    id: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    work: Callable[[object], int] = lambda outcome: 0
    counts: Callable[[object], dict] = lambda outcome: {}
    repeats: int = 1        # runs per pass, so a short job's median has samples


def layer_monomials(n_vars, cap):
    return sum(comb(n_vars + t - 1, t) for t in range(2, cap + 1))


def basis_text(basis):
    return "\n".join(f"{b.plus}-{b.minus}" for b in basis)


def require_members(system, basis, what):
    for b in basis:
        require(system.membership(b), f"{what}: {b.plus} - {b.minus} is not a member")


def relabel(g, rng):
    """An isomorphic copy of ``g`` under a random vertex permutation: the
    variable order and every output binomial change, the work does not."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graph.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


# ---------------------------------------------------------------------------
# markov-large

def _markov_job(job_id, g, h, cap, width, repeats=1):
    def run():
        system = toric.build_system(g, h)
        return system, toric.markov_basis(system, cap)

    def check(outcome):
        system, res = outcome
        require(res.width == width, f"{job_id}: width {res.width}, expected {width}")
        require_members(system, res.basis, job_id)
        invariant = f"width {res.width} additions {sorted(res.additions_by_degree.items())}"
        return f"{invariant}\n{basis_text(res.basis)}", invariant

    return Job(job_id, run, check,
               work=lambda outcome: layer_monomials(outcome[0].num_vars, cap),
               repeats=repeats)


def markov_large(seed):
    rng = random.Random(seed)
    return [
        _markov_job("path7-complete3-cap3", relabel(graph.path(7), rng),
                    graph.complete(3), 3, 2),
        _markov_job("cocycle8-spoon-cap5",
                    relabel(graph.complement(graph.cycle(8)), rng),
                    graph.spoon(), 5, 4, repeats=8),
    ]


# ---------------------------------------------------------------------------
# forest-verify

FOREST_SIZES = range(2, 7)
# trees on at most this many vertices take a few ms; they run several times
# per pass so that job_s.p50, which falls among them, rests on more samples
FOREST_SHORT_N = 4
FOREST_SHORT_REPEATS = 5
FOREST_TREES_PER_SIZE = 7
FOREST_SHAPE_SEED = 20240801


def _forest_job(job_id, tree, h):
    def run():
        res = tfp.forest_pipeline(tree, h)
        return res, toric.verify_markov(res.system, res.basis, 3)

    def check(outcome):
        res, ok = outcome
        require(ok, f"{job_id}: glued basis does not verify")
        require(res.basis.degree <= 2, f"{job_id}: basis degree {res.basis.degree}")
        require(res.basis.is_squarefree(), f"{job_id}: basis not square-free")
        require_members(res.system, res.basis, job_id)
        return f"{sorted(res.degrees_full)}\n{basis_text(res.basis)}", None

    return Job(job_id, run, check,
               work=lambda outcome: layer_monomials(outcome[0].system.num_vars, 3),
               repeats=FOREST_SHORT_REPEATS if tree.n <= FOREST_SHORT_N else 1)


def forest_verify(seed):
    """Random recursive trees, a fixed number per size, into each target.
    The tree shapes are fixed; the seed relabels them and orders the jobs,
    so the heavy tail (6-vertex trees into K3) is the same on every seed."""
    shapes = random.Random(FOREST_SHAPE_SEED)
    rng = random.Random(seed)
    targets = [("spoon", graph.spoon()), ("complete3", graph.complete(3)),
               ("path3", graph.path(3))]
    jobs = []
    for n in FOREST_SIZES:
        for i in range(FOREST_TREES_PER_SIZE):
            shape = graph.Graph(n, [(shapes.randrange(v), v) for v in range(1, n)])
            tree = relabel(shape, rng)
            for name, h in targets:
                jobs.append(_forest_job(f"tree{n}.{i}-{name}", tree, h))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# spoon-census

def _canonical_masks(n):
    """Canonical edge mask (minimum over vertex permutations) of every
    graph on n vertices, indexed by mask."""
    pairs = list(combinations(range(n), 2))
    pos = {p: i for i, p in enumerate(pairs)}
    masks = np.arange(1 << len(pairs), dtype=np.int64)
    canon = masks.copy()
    for perm in permutations(range(n)):
        moved = np.zeros_like(masks)
        for b, (u, v) in enumerate(pairs):
            moved |= ((masks >> b) & 1) << pos[tuple(sorted((perm[u], perm[v])))]
        np.minimum(canon, moved, out=canon)
    return pairs, canon


def _connected(n, edges):
    seen, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in seen:
                    seen.add(y)
                    stack.append(y)
    return len(seen) == n


def connected_graphs(max_n):
    """(name, graph) for every connected graph on 2..max_n vertices up to
    isomorphism; the name is the canonical edge mask."""
    out = []
    for n in range(2, max_n + 1):
        pairs, canon = _canonical_masks(n)
        for mask in map(int, np.unique(canon)):
            edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
            if _connected(n, edges):
                out.append((f"n{n}-m{mask}", graph.Graph(n, edges)))
    return out


def _census_job(job_id, g, is_cocycle6):
    def run():
        isys = indep.IndepSystem(g)
        res = toric.markov_basis(isys.system, 4)
        bip = graph.is_bipartite(g)
        if bip is not None:
            kind, basis = "bipartite", indep.bipartite_grobner(isys, bip)
        elif graph.is_almost_bipartite(g) is not None:
            kind, basis = "apex", indep.almost_bipartite_grobner(isys).basis
        else:
            kind, basis = "none", None
        verdict = None if basis is None else toric.verify_grobner(isys.system, basis, 4)
        return isys, res, kind, basis, verdict

    def check(outcome):
        isys, res, kind, basis, verdict = outcome
        require(res.width in (0, 2, 3), f"{job_id}: width {res.width}")
        require((res.width == 3) == is_cocycle6,
                f"{job_id}: width {res.width}; only the complement of C6 has width 3")
        if kind != "none":
            require(res.width <= 2, f"{job_id}: {kind} graph has width {res.width}")
            require(verdict is True, f"{job_id}: Groebner verdict {verdict}")
            require_members(isys.system, basis, job_id)
        require_members(isys.system, res.basis, job_id)
        text = (f"width {res.width}\n{basis_text(res.basis)}\n{kind} {verdict}\n"
                f"{basis_text(basis or ())}")
        return text, text

    def work(outcome):
        walks = 1 if outcome[3] is None else 2
        return walks * layer_monomials(outcome[0].num_vars, 4)

    return Job(job_id, run, check, work)


def _canonical_mask(g):
    pairs = list(combinations(range(g.n), 2))
    return min(sum(1 << pairs.index(tuple(sorted((p[u], p[v])))) for u, v in g.edges)
               for p in permutations(range(g.n)))


def spoon_census(seed):
    graphs = connected_graphs(6)
    require(len(graphs) == 142, f"census has {len(graphs)} graphs, expected 142")
    cocycle6 = f"n6-m{_canonical_mask(graph.complement(graph.cycle(6)))}"
    jobs = [_census_job(name, g, name == cocycle6) for name, g in graphs]
    random.Random(seed).shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# geometry-cli

# jobs under about a quarter second run this many times per pass
SHORT_REPEATS = 5


def cli_commands():
    """(argv, expected exit code, runs per pass).  The ``markov`` command
    measures the time until the monomial cap refuses the degree-3 layer."""
    return [
        (["reproduce", "--all"], 0, 1),
        (["polytope", "cycle:5", "spoon", "--facets"], 0, SHORT_REPEATS),
        (["--json", "polytope", "complement:cycle:6", "spoon", "--facets"], 0, SHORT_REPEATS),
        (["indep-grobner", "cycle:7"], 0, SHORT_REPEATS),
        (["hibi", os.path.join(DATA, "fence5.txt")], 0, SHORT_REPEATS),
        (["chromatic-cert", "octahedron", "--cap", "4"], 1, SHORT_REPEATS),
        (["markov", "cycle:6", "complete-looped:3", "--cap", "3"], 3, 1),
    ]


def _cli_job(argv, expected, work, repeats):
    job_id = "cli:" + " ".join(os.path.basename(a) for a in argv)

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(outcome):
        code, out, err = outcome
        require(code == expected, f"{job_id}: exit {code}, expected {expected}")
        text = f"exit {code}\n{out}\n-- stderr --\n{err}"
        return text, text

    return Job(job_id, run, check, work=lambda outcome: work,
               counts=lambda outcome: {"stdout_bytes": len(outcome[1].encode())},
               repeats=repeats)


def _stable_set_job():
    def run():
        return polytope.facets(polytope.stable_set_polytope(graph.cycle(6)))

    def check(desc):
        require(len(desc.facets) == 12,
                f"cycle:6 stable-set polytope has {len(desc.facets)} facets")
        text = "\n".join(f"{f.normal} {f.offset} {f.incident}" for f in desc.facets)
        return text, text

    return Job("stable-set-cycle6-facets", run, check)


def _poset_job(n, expected):
    def run():
        out = []
        for poset in hibi.all_posets(n):
            hibi.xi_bijection(poset)
            out.append(hibi.hibi_vs_topgraded(poset))
        return out

    def check(comparisons):
        require(len(comparisons) == expected,
                f"{len(comparisons)} posets on {n} elements, expected {expected}")
        lines = []
        for cmp in comparisons:
            require(cmp.memberships and cmp.mutual_generation,
                    f"poset {sorted(cmp.poset.leq)}: lattice relations do not generate")
            lines.append(f"{len(cmp.hibi_basis)} {len(cmp.top.basis)} {cmp.generators_match}")
        text = "\n".join(lines)
        return text, text

    return Job(f"posets{n}", run, check, repeats=1 if n == 5 else SHORT_REPEATS)


POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}


def geometry_cli(seed):
    # chromatic-cert walks every layer up to its cap over the 48 triangle
    # placements in the octahedron; the other jobs count no monomials
    placements = toric.build_system(graph.complete(3), graph.octahedron()).num_vars
    jobs = [_cli_job(argv, code,
                     layer_monomials(placements, 4) if argv[0] == "chromatic-cert" else 0,
                     repeats)
            for argv, code, repeats in cli_commands()]
    jobs.append(_stable_set_job())
    jobs.extend(_poset_job(n, c) for n, c in POSET_COUNTS.items())
    random.Random(seed).shuffle(jobs)
    return jobs


WORKLOADS = {
    "markov-large": markov_large,
    "forest-verify": forest_verify,
    "spoon-census": spoon_census,
    "geometry-cli": geometry_cli,
}
