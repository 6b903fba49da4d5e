"""The span tracer of perfbench wraps homtoric names from outside the
library; a renamed or reshaped entry point breaks it only when it runs.
This test runs it on two small jobs, reading perfbench without editing it."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import tracing  # noqa: E402

from homtoric import coloring, graph, toric  # noqa: E402


def test_tracer_hooks_record_the_engine_spans():
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        found = tracer.run_job("k4", lambda: coloring.find_low_degree_binomial(
            graph.complete(4), degree_cap=3))
        res = tracer.run_job("p4", lambda: toric.markov_basis(
            toric.build_system(graph.path(4), graph.path(3)), 3))
    finally:
        tracer.uninstall()
    assert found is not None and len(res.basis) == 2
    spans = {s.name: s for s in tracer.spans}
    for name in ("toric.fibers", "toric.system", "coloring.find_low_degree_binomial",
                 "toric.markov_basis"):
        assert name in spans, name
    assert spans["toric.fibers"].counts["monomials"] > 0
    assert spans["toric.system"].counts["key_rows"] > 0
    assert not hasattr(toric.markov_basis, "__wrapped__")     # uninstalled
