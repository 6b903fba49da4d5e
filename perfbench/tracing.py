"""Span tracing of homtoric layers from outside the library.

Public functions are wrapped by rebinding their names in every loaded
``homtoric`` module that refers to them (and, for the two system classes,
by replacing ``__init__``), so library-internal calls are caught without
editing the library.  Spans stay in memory until the run ends.

A span's ``busy`` time is its duration; for a generator it is the sum of
the time spent inside each resume, so the time a consumer spends between
fibers is charged to the consumer.  Self time is ``busy`` minus the
``busy`` of the span's direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from math import comb
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "busy", "parent", "job", "counts",
                 "child_busy")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = start
        self.busy = 0.0
        self.parent = parent
        self.job = job
        self.counts = Counter()
        self.child_busy = 0.0

    @property
    def self_s(self):
        return self.busy - self.child_busy


class Tracer:
    """Records spans only while a job is open (``job`` is not None), so the
    benchmark's own result checks stay out of the trace."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.last_job = None
        self._restore = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, span):
        self.stack.append(span)
        return perf_counter()

    def _leave(self, span, t0):
        t1 = perf_counter()
        self.stack.pop()
        span.busy += t1 - t0
        span.end = t1
        if span.parent is not None:
            span.parent.child_busy += t1 - t0

    def _new(self, name):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, perf_counter(), parent, self.job)
        self.spans.append(span)
        return span

    def run_job(self, job_id, fn):
        """Run ``fn`` as the root span of one job, kept as ``last_job``."""
        self.job = job_id
        span = self.last_job = self._new("bench.job")
        t0 = self._enter(span)
        try:
            return fn()
        finally:
            self._leave(span, t0)
            self.job = None

    # -- wrappers ---------------------------------------------------------------

    def wrap(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            span = tracer._new(name)
            t0 = tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(span, t0)
            if count is not None:
                count(span.counts, args, kwargs, result)
            return result
        return traced

    def wrap_generator(self, name, fn, on_start=None, on_item=None):
        """Span over a generator that is busy only inside each resume.
        ``on_start`` runs once the first resume returned without raising;
        ``on_item`` runs on every yielded item."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.job is None:
                yield from fn(*args, **kwargs)
                return
            span = tracer._new(name)
            inner = fn(*args, **kwargs)
            started = False
            try:
                while True:
                    t0 = tracer._enter(span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        break
                    finally:
                        tracer._leave(span, t0)
                    if not started:
                        started = True
                        if on_start is not None:
                            on_start(span.counts, args, kwargs)
                    if on_item is not None:
                        on_item(span.counts, item)
                    yield item
                if not started and on_start is not None:
                    on_start(span.counts, args, kwargs)
            finally:
                inner.close()
        return traced

    # -- installation ------------------------------------------------------------

    def rebind(self, original, wrapper):
        """Point every loaded homtoric module name bound to ``original`` at
        ``wrapper``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "homtoric" or modname.startswith("homtoric.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def patch_init(self, cls, name, count=None):
        original = cls.__init__
        cls.__init__ = self.wrap(name, original, count)
        self._restore.append((cls, "__init__", original))

    def uninstall(self):
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    def dump(self, path):
        """One JSON object per span; ``job`` is ``<pass>:<job id>``."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "busy": s.busy,
                    "parent": None if s.parent is None else ids[id(s.parent)],
                    "job": s.job,
                    "counts": dict(s.counts)}) + "\n")


# ---------------------------------------------------------------------------
# the homtoric layers

def _monomial_layer(system, degree):
    return comb(system.num_vars + degree - 1, degree)


def _fibers_start(counts, args, kwargs):
    system = args[0] if args else kwargs["system"]
    degree = args[1] if len(args) > 1 else kwargs["degree"]
    mono = _monomial_layer(system, degree)
    counts["monomials"] += mono
    counts["image_bytes"] += mono * system.key_matrix.shape[0] * 2


def _fibers_item(counts, item):
    size = len(item[1])
    counts["fiber_monomials"] += size
    if size >= 2:
        counts["nontrivial"] += 1


def _count_homs(counts, args, kwargs, result):
    counts["homs"] += len(result)


def _count_system(counts, args, kwargs, result):
    system = args[0]
    counts["key_rows"] += system.key_matrix.shape[0]
    counts["vars"] += system.num_vars


def _count_generators(counts, args, kwargs, result):
    counts["generators"] += len(result.basis)


def _count_verdict(counts, args, kwargs, result):
    basis = args[1] if len(args) > 1 else kwargs["basis"]
    counts["basis_size"] += len(basis)
    counts["false_verdicts"] += 0 if result else 1


def _count_glue(counts, args, kwargs, result):
    counts["attempted"] += result.attempted
    counts["materialized"] += result.materialized


def _count_basis(counts, args, kwargs, result):
    basis = getattr(result, "basis", result)   # a TaggedBasis or the basis
    counts["elements"] += len(basis)


def _count_facets(counts, args, kwargs, result):
    poly = args[0] if args else kwargs["poly"]
    if result.dim > 0:
        counts["subsets"] += comb(poly.num_vertices, result.dim)
    counts["found"] += len(result.facets)


def install(tracer):
    """Wrap the public entry points of every homtoric layer.  Span names
    are ``<layer>``, ``<module>.<stage>`` or ``<module>.other``."""
    from homtoric import (cli, coloring, graph, hibi, homset, indep, polytope,
                          tfp, toric)

    def fn(module, name, span, count=None):
        original = getattr(module, name)
        tracer.rebind(original, tracer.wrap(span, original, count))

    for name, value in list(vars(graph).items()):
        if (inspect.isfunction(value) and value.__module__ == graph.__name__
                and not name.startswith("_")):
            fn(graph, name, "graph")
    fn(homset, "enumerate_homs", "homset.enumerate_homs", _count_homs)
    tracer.patch_init(toric.ToricSystem, "toric.system", _count_system)
    original = toric.iter_fibers
    tracer.rebind(original, tracer.wrap_generator(
        "toric.fibers", original, _fibers_start, _fibers_item))
    fn(toric, "markov_basis", "toric.markov_basis", _count_generators)
    fn(toric, "verify_markov", "toric.verify_markov", _count_verdict)
    fn(toric, "verify_grobner", "toric.verify_grobner", _count_verdict)
    fn(tfp, "glue_basis", "tfp.glue_basis", _count_glue)
    fn(tfp, "check_codim_zero", "tfp.check_codim_zero")
    for name in ("forest_pipeline", "outerplanar_pipeline", "glue_grobner"):
        fn(tfp, name, "tfp.pipeline")
    tracer.patch_init(indep.IndepSystem, "indep.system")
    fn(indep, "bipartite_grobner", "indep.basis", _count_basis)
    fn(indep, "almost_bipartite_grobner", "indep.basis", _count_basis)
    for name in ("top_graded", "complement_cycle_basis"):
        fn(indep, name, "indep.other")
    fn(polytope, "facets", "polytope.facets", _count_facets)
    for name in ("build_polytope", "polytope_of_system", "stable_set_polytope",
                 "simplicity"):
        fn(polytope, name, "polytope.other")
    fn(hibi, "hibi_vs_topgraded", "hibi.hibi_vs_topgraded")
    for name in ("all_posets", "xi_bijection"):
        fn(hibi, name, "hibi.other")
    fn(coloring, "find_low_degree_binomial", "coloring.find_low_degree_binomial")
    fn(coloring, "analyze_certificate", "coloring.analyze_certificate")
    fn(cli, "main", "cli.main")


# (metric name, unit, span name, field): field "self_s" and "calls" are
# span aggregates, anything else sums the named counter.
LAYER_METRICS = [
    ("graph.calls", "count", "graph", "calls"),
    ("graph.self_s", "s", "graph", "self_s"),
    ("homset.enumerate_homs.calls", "count", "homset.enumerate_homs", "calls"),
    ("homset.enumerate_homs.self_s", "s", "homset.enumerate_homs", "self_s"),
    ("homset.homs", "count", "homset.enumerate_homs", "homs"),
    ("toric.system.self_s", "s", "toric.system", "self_s"),
    ("toric.system.key_rows", "count", "toric.system", "key_rows"),
    ("toric.vars", "count", "toric.system", "vars"),
    ("toric.fibers.calls", "count", "toric.fibers", "calls"),
    ("toric.fibers.self_s", "s", "toric.fibers", "self_s"),
    ("toric.fibers.monomials", "count_computed", "toric.fibers", "monomials"),
    ("toric.fibers.nontrivial", "count", "toric.fibers", "nontrivial"),
    ("toric.fibers.image_bytes", "B_computed", "toric.fibers", "image_bytes"),
    ("toric.markov_basis.self_s", "s", "toric.markov_basis", "self_s"),
    ("toric.markov_basis.generators", "count", "toric.markov_basis", "generators"),
    ("toric.verify_markov.self_s", "s", "toric.verify_markov", "self_s"),
    ("toric.verify_markov.basis_size", "count", "toric.verify_markov", "basis_size"),
    ("toric.verify_grobner.self_s", "s", "toric.verify_grobner", "self_s"),
    ("tfp.glue_basis.calls", "count", "tfp.glue_basis", "calls"),
    ("tfp.glue_basis.self_s", "s", "tfp.glue_basis", "self_s"),
    ("tfp.check_codim_zero.self_s", "s", "tfp.check_codim_zero", "self_s"),
    ("tfp.pipeline.self_s", "s", "tfp.pipeline", "self_s"),
    ("tfp.lift.attempted", "count", "tfp.glue_basis", "attempted"),
    ("tfp.lift.materialized", "count", "tfp.glue_basis", "materialized"),
    ("indep.system.self_s", "s", "indep.system", "self_s"),
    ("indep.basis.self_s", "s", "indep.basis", "self_s"),
    ("indep.basis.elements", "count", "indep.basis", "elements"),
    ("indep.other.self_s", "s", "indep.other", "self_s"),
    ("polytope.facets.self_s", "s", "polytope.facets", "self_s"),
    ("polytope.facets.subsets", "count_computed", "polytope.facets", "subsets"),
    ("polytope.facets.found", "count", "polytope.facets", "found"),
    ("polytope.other.self_s", "s", "polytope.other", "self_s"),
    ("hibi.hibi_vs_topgraded.self_s", "s", "hibi.hibi_vs_topgraded", "self_s"),
    ("hibi.other.self_s", "s", "hibi.other", "self_s"),
    ("coloring.analyze_certificate.self_s", "s", "coloring.analyze_certificate", "self_s"),
    ("coloring.find_low_degree_binomial.self_s", "s",
     "coloring.find_low_degree_binomial", "self_s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
    ("cli.stdout_bytes", "B", "bench.job", "stdout_bytes"),
    ("bench.self_s", "s", "bench.job", "self_s"),
]


def layer_metrics(spans, passes):
    """Per-pass averages of every layer metric over the spans of
    ``passes`` complete passes."""
    totals = Counter()
    for s in spans:
        totals[(s.name, "calls")] += 1
        totals[(s.name, "self_s")] += s.self_s
        for key, value in s.counts.items():
            totals[(s.name, key)] += value
    out = {}
    for metric, unit, span, field in LAYER_METRICS:
        out[metric] = {"value": totals[(span, field)] / passes, "unit": unit}
    ratios = [
        ("toric.verify.false_verdicts", "count",
         totals[("toric.verify_markov", "false_verdicts")]
         + totals[("toric.verify_grobner", "false_verdicts")], None),
        ("toric.fibers.useful_ratio", "ratio",
         totals[("toric.fibers", "fiber_monomials")],
         totals[("toric.fibers", "monomials")]),
        ("tfp.lift.useful_ratio", "ratio",
         totals[("tfp.glue_basis", "materialized")],
         totals[("tfp.glue_basis", "attempted")]),
    ]
    for metric, unit, num, den in ratios:
        if den is None:
            value = num / passes
        else:
            value = num / den if den else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out
