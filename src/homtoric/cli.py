"""Command-line entry point.

Exit codes: 0 success, 1 for negative mathematical results (failed
verification, no certificate), 2 for usage errors (including unreadable
input files), 3 when a resource cap is exceeded, 4 when an internal
invariant fails (a library ``AssertionError``).  Output is deterministic
for fixed inputs and configuration.  ``--threads`` is accepted and ignored,
because the toolkit is single-threaded; ``--seed`` is echoed in the JSON
output but reserved, because nothing is random.

``main`` builds the ``Report``, emits it once the command returns and maps
exceptions to exit codes; each ``cmd_*`` function only fills the report
and returns its exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import graph as graphs
from .graph import Graph, GraphError, load_graph, parse_labeled_graph_text
from .homset import enumerate_homs, indep_encode
from .indep import (IndepSystem, almost_bipartite_grobner, bipartite_grobner,
                    complement_cycle_basis)
from .polytope import build_polytope, facets, simplicity
from .tfp import GlueSpec, check_codim_zero, glue_basis, outerplanar_pipeline
from .toric import (DEFAULT_MONO_CAP, Binomial, OrientedBasis, build_system,
                    format_binomial, markov_basis, parse_basis_text, verify_grobner)
from .coloring import (analyze_certificate, find_low_degree_binomial,
                       format_certificate, is_k_colorable)
from .hibi import Poset, hibi_vs_topgraded, parse_poset_text
from .util import ResourceCapExceeded, content_lines

EXIT_OK, EXIT_NEGATIVE, EXIT_USAGE, EXIT_CAP, EXIT_INTERNAL = 0, 1, 2, 3, 4


class Report:
    """Accumulates deterministic text lines plus a JSON payload."""

    def __init__(self, command: str, args):
        self.command = command
        self.args = args
        self.lines = []
        self.payload = {}

    def say(self, line: str):
        self.lines.append(line)

    def emit(self):
        if self.args.json:
            # --threads is accepted and ignored (the toolkit is
            # single-threaded), so it is not echoed; --seed is echoed but
            # reserved, because nothing is random
            doc = {"schema": 1, "command": self.command,
                   "seed": self.args.seed, "result": self.payload}
            sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        else:
            sys.stdout.write("\n".join(self.lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_homs(args, rep) -> int:
    g, h = load_graph(args.G), load_graph(args.H)
    homs = enumerate_homs(g, h, count_cap=args.mono_cap)
    spoonish = h == graphs.spoon()
    sets = indep_encode(g, homs)[0] if spoonish else ()
    entries = []
    for i, m in enumerate(homs.maps):
        text = "(" + ",".join(map(str, m)) + ")"
        entry = {"map": list(m)}
        if spoonish:
            entry["independent_set"] = s = sorted(sets[i])
            text += "  {" + ",".join(map(str, s)) + "}"
        entries.append(entry)
        rep.say(text)
    rep.say(f"total {len(homs)}")
    rep.payload = {"count": len(homs), "homs": entries}
    return EXIT_OK


def cmd_markov(args, rep) -> int:
    g, h = load_graph(args.G), load_graph(args.H)
    system = build_system(g, h, count_cap=args.mono_cap)
    res = markov_basis(system, args.cap, mono_cap=args.mono_cap)
    basis = [format_binomial(b, system) for b in res.basis]
    rep.lines.extend(basis)
    status = "stable" if res.stable_at_cap else "up to cap"
    rep.say(f"width {res.width} ({status}, cap {res.cap})")
    rep.payload = {"basis": basis, "width": res.width,
                   "cap": res.cap, "stable_at_cap": res.stable_at_cap,
                   "additions_by_degree": {str(k): v for k, v in
                                           res.additions_by_degree.items()}}
    return EXIT_OK


def cmd_width(args, rep) -> int:
    g, h = load_graph(args.G), load_graph(args.H)
    system = build_system(g, h, count_cap=args.mono_cap)
    res = markov_basis(system, args.cap, mono_cap=args.mono_cap)
    rep.say(str(res.width))
    rep.payload = {"width": res.width, "cap": res.cap,
                   "stable_at_cap": res.stable_at_cap}
    return EXIT_OK


def cmd_verify_grobner(args, rep) -> int:
    g, h = load_graph(args.G), load_graph(args.H)
    system = build_system(g, h, count_cap=args.mono_cap)
    basis = parse_basis_text(Path(args.basis).read_text(), system)
    ok = verify_grobner(system, basis, args.cap, mono_cap=args.mono_cap)
    rep.say("grobner basis verified" if ok else "verification failed")
    rep.payload = {"verified": ok, "cap": args.cap, "elements": len(basis)}
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_indep_grobner(args, rep) -> int:
    g = load_graph(args.G)
    isys = IndepSystem(g, count_cap=args.mono_cap)
    bip = graphs.is_bipartite(g)
    if bip is not None:
        basis = bipartite_grobner(isys, bip)
        tags = {b: "uncovered" for b in basis}
        kind = "bipartite"
    else:
        tagged = almost_bipartite_grobner(isys)
        basis, tags = tagged.basis, tagged.tags
        kind = f"almost-bipartite (apex {tagged.labeling.apex})"
    rep.say(f"# {kind}")
    entries = []
    for b in basis:
        line = format_binomial(b, isys.system)
        rep.say(f"{line}  # {tags[b]}")
        entries.append({"binomial": line, "tag": tags[b]})
    rep.payload = {"kind": kind, "basis": entries}
    return EXIT_OK


def cmd_glue(args, rep) -> int:
    labels1, edges1 = parse_labeled_graph_text(Path(args.G1).read_text())
    labels2, edges2 = parse_labeled_graph_text(Path(args.G2).read_text())
    all_labels = sorted(set(labels1) | set(labels2))
    if all_labels != list(range(len(all_labels))):
        raise GraphError("glued labels must cover 0..n-1 without gaps")
    union = Graph(len(all_labels), edges1 + edges2)
    h = load_graph(args.H)
    spec = GlueSpec(union, labels1, labels2, h, count_cap=args.mono_cap)
    if not check_codim_zero(spec):
        rep.say("intersection configuration is not linearly independent; "
                "the lift construction does not apply")
        rep.payload = {"codim_zero": False, "shared": list(spec.shared)}
        return EXIT_NEGATIVE
    empty = OrientedBasis.make(())
    basis1 = parse_basis_text(Path(args.basis1).read_text(), spec.sys1) if args.basis1 else empty
    basis2 = parse_basis_text(Path(args.basis2).read_text(), spec.sys2) if args.basis2 else empty
    res = glue_basis(spec, basis1, basis2, lift_cap=args.lift_cap)
    basis = [format_binomial(b, spec.sys_union) for b in res.basis]
    rep.say(f"# intersection vertices {list(spec.shared)}")
    rep.lines.extend(basis)
    rep.say(f"degrees {list(res.degrees_full)}")
    rep.payload = {"shared": list(spec.shared), "basis": basis,
                   "degrees": list(res.degrees_full)}
    return EXIT_OK


def cmd_polytope(args, rep) -> int:
    g, h = load_graph(args.G), load_graph(args.H)
    poly = build_polytope(g, h, count_cap=args.mono_cap)
    rep.say(f"{poly.num_vertices} vertices in R^{poly.ambient_dim}")
    rep.payload = {"vertices": poly.num_vertices, "ambient_dim": poly.ambient_dim,
                   "maps": [list(m) for m in poly.labels]}
    if args.facets:
        desc = facets(poly)
        rep.say(f"dimension {desc.dim}, {len(desc.facets)} facets")
        fdata = []
        for f in desc.facets:
            rep.say(f"  normal {list(f.normal)} <= {f.offset} incident {list(f.incident)}")
            fdata.append({"normal": list(f.normal), "offset": f.offset,
                          "incident": list(f.incident)})
        srep = simplicity(poly, desc)
        rep.say(f"simple: {srep.simple}; incidence counts {sorted(set(srep.counts))}")
        rep.payload.update({"dim": desc.dim, "facets": fdata,
                            "simple": srep.simple, "counts": list(srep.counts)})
    return EXIT_OK


def cmd_hibi(args, rep) -> int:
    cmp = hibi_vs_topgraded(parse_poset_text(Path(args.poset).read_text()))
    rep.say(f"lattice relations: {len(cmp.hibi_basis)}")
    rep.say(f"top-graded basis: {len(cmp.top.basis)}")
    rep.say(f"generators match: {cmp.generators_match}")
    rep.say(f"mutual generation: {cmp.mutual_generation}")
    rep.payload = {"relations": len(cmp.hibi_basis), "top_basis": len(cmp.top.basis),
                   "generators_match": cmp.generators_match,
                   "mutual_generation": cmp.mutual_generation}
    return EXIT_OK if cmp.mutual_generation else EXIT_NEGATIVE


def cmd_chromatic_cert(args, rep) -> int:
    g = load_graph(args.G)
    relation = []
    for raw, line in content_lines(Path(args.relation).read_text() if args.relation else ""):
        try:
            u, v = map(int, line.split())
        except ValueError:
            u = v = -1
        if not (0 <= u < g.n and 0 <= v < g.n and u != v):
            raise ValueError(f"bad relation line: {raw!r}")
        relation.append((u, v))
    system, b = find_low_degree_binomial(g, degree_cap=args.cap,
                                         mono_cap=args.mono_cap)
    if b is None:
        rep.say(f"no disjoint-support binomial of degree <= {args.cap}")
        rep.payload = {"found": False, "cap": args.cap}
        return EXIT_NEGATIVE
    cert = analyze_certificate(g, system, b, relation)
    rep.say(format_certificate(cert))
    rep.payload = {
        "found": True,
        "degree": cert.degree,
        "binomial": format_binomial(b, system, maps=True),
        "verdict": cert.verdict,
        "table": [{"match": row.position + 1,
                   "identifications": [{"pair": list(p), "marker": mk}
                                       for p, mk in row.identifications]}
                  for row in cert.table]}
    return EXIT_OK if cert.verdict != "INCONCLUSIVE" else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# reproduction scenarios

def _scenario_p4p3(rep):
    system = build_system(graphs.path(4), graphs.path(3))
    res = markov_basis(system, 3)
    generators = [format_binomial(b, system, maps=True) for b in res.basis]
    rep.lines.extend(generators)
    rep.payload["generators"] = generators


def _scenario_prism_width(rep):
    isys, basis, cubic = complement_cycle_basis(3)
    res = markov_basis(isys.system, 4)
    rep.say(f"width {res.width}")
    rep.say(f"cubic present: {any(b.unordered_key() == cubic.unordered_key() for b in res.basis)}")
    rep.payload.update({"width": res.width, "basis_size": len(res.basis)})


def _scenario_c4_bipartite(rep):
    isys = IndepSystem(graphs.cycle(4))
    basis = bipartite_grobner(isys)
    for b in basis:
        rep.say(" * ".join(isys.set_name(v) for v in b.plus) + " - "
                + " * ".join(isys.set_name(v) for v in b.minus))
    ok = verify_grobner(isys.system, basis, 4)
    rep.say(f"grobner verified: {ok}")
    rep.payload.update({"size": len(basis), "verified": ok})


def _scenario_c5_almost_bipartite(rep):
    isys = IndepSystem(graphs.cycle(5))
    tagged = almost_bipartite_grobner(isys)
    for b in tagged.basis:
        rep.say(" * ".join(isys.set_name(v) for v in b.plus) + " - "
                + " * ".join(isys.set_name(v) for v in b.minus)
                + f"  # {tagged.tags[b]}")
    ok = verify_grobner(isys.system, tagged.basis, 4)
    rep.say(f"grobner verified: {ok}")
    rep.payload.update({"size": len(tagged.basis), "verified": ok})


def _scenario_c4_polytope(rep):
    poly = build_polytope(graphs.cycle(4), graphs.spoon())
    desc = facets(poly)
    srep = simplicity(poly, desc)
    rep.say(f"{poly.num_vertices} vertices, {len(desc.facets)} facets, "
            f"simple: {srep.simple}")
    empty = build_polytope(graphs.cycle(3), graphs.cycle(4))
    rep.say(f"triangle-into-square polytope vertices: {empty.num_vertices}")
    rep.payload.update({"vertices": poly.num_vertices, "facets": len(desc.facets),
                        "simple": srep.simple, "empty_check": empty.num_vertices})


def _scenario_k3k4_binomial(rep):
    # the search finds nothing up to degree 4 exactly when every fiber of
    # degree <= 4 is a single monomial (see find_low_degree_binomial)
    system, b = find_low_degree_binomial(graphs.complete(4), degree_cap=4)
    member = system.membership(_degree12_binomial(system))
    rep.say(f"degree-12 binomial member: {member}")
    rep.say(f"no relations up to degree 4: {b is None}")
    rep.payload.update({"member": member, "clean_to_4": b is None})


def _scenario_fan_k4(rep):
    system = build_system(graphs.complete(3), graphs.complete(4))
    base = OrientedBasis.make([_degree12_binomial(system)])
    fan = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)])
    res = outerplanar_pipeline(fan, graphs.complete(4), base_basis=base,
                               lift_cap=5000, allow_truncation=True)
    rep.say(f"degrees {list(res.degrees_full)} (truncated: {res.truncated})")
    rep.payload.update({"degrees": list(res.degrees_full), "truncated": res.truncated})


def _say_certificate(rep, g, plus, minus, relation=()):
    """The certificate of the binomial ``plus`` - ``minus`` of K3 into ``g``."""
    system = build_system(graphs.complete(3), g)
    cert = analyze_certificate(g, system, _paper_binomial(system, plus, minus), relation)
    rep.say(format_certificate(cert))
    rep.payload["verdict"] = cert.verdict


def _scenario_k5_coloring(rep):
    _say_certificate(rep, graphs.complete(5), "123 145 325 341 521 543", "125 143 321 345 523 541")


def _scenario_octahedron_coloring(rep):
    octa = graphs.octahedron()
    _say_certificate(rep, octa, "135 146 236 245", "136 145 235 246", [(0, 1), (2, 3), (4, 5)])
    rep.say(f"octahedron 4-colorable: {is_k_colorable(octa, 4)}")
    rep.payload["four_colorable"] = is_k_colorable(octa, 4)


def _scenario_hibi_small(rep):
    for name, poset in [("chain2", Poset(2, [(0, 1)])),
                        ("antichain2", Poset(2, [])),
                        ("vee", Poset(3, [(0, 1), (0, 2)]))]:
        cmp = hibi_vs_topgraded(poset)
        rep.say(f"{name}: relations {len(cmp.hibi_basis)}, match {cmp.generators_match}, "
                f"mutual {cmp.mutual_generation}")
        rep.payload[name] = {"match": cmp.generators_match,
                             "mutual": cmp.mutual_generation}


def _scenario_spoon_widths(rep):
    for n in (3, 4, 5):
        system = build_system(graphs.complete(n), graphs.spoon())
        res = markov_basis(system, 3)
        rep.say(f"complete:{n} -> spoon width {res.width}")
        rep.payload[f"K{n}"] = res.width


def _paper_binomial(system, plus, minus):
    """Binomial of the maps written as 1-based digit strings: "312" sends
    vertices 0, 1, 2 to 2, 0, 1."""
    def var(s):
        return system.homs.index[tuple(int(c) - 1 for c in s)]

    return Binomial.make([var(s) for s in plus.split()], [var(s) for s in minus.split()])


def _degree12_binomial(system):
    return _paper_binomial(system, "123 214 341 432 231 142 413 324 312 421 134 243",
                           "124 213 342 431 234 143 412 321 314 423 132 241")


SCENARIOS = {f.__name__[len("_scenario_"):].replace("_", "-"): f for f in (
    _scenario_p4p3, _scenario_prism_width, _scenario_c4_bipartite,
    _scenario_c5_almost_bipartite, _scenario_c4_polytope, _scenario_k3k4_binomial,
    _scenario_fan_k4, _scenario_k5_coloring, _scenario_octahedron_coloring,
    _scenario_hibi_small, _scenario_spoon_widths)}


def cmd_reproduce(args, rep) -> int:
    for name in sorted(SCENARIOS) if args.all else [args.name]:
        rep.say(f"== {name}")
        sub = Report(name, args)
        SCENARIOS[name](sub)
        rep.lines.extend(sub.lines)
        rep.payload[name] = sub.payload
    return EXIT_OK


# ---------------------------------------------------------------------------
# dispatch

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="homtoric",
                                  description="toric ideals of graph homomorphisms")
    top.add_argument("--json", action="store_true", help="JSON output")
    top.add_argument("--threads", type=int, default=1,
                     help="accepted and ignored; the toolkit is single-threaded")
    top.add_argument("--seed", type=int, default=0,
                     help="echoed in the JSON output; reserved, nothing is random")
    top.add_argument("--mono-cap", type=int, default=DEFAULT_MONO_CAP,
                     help="monomial enumeration cap")
    sub = top.add_subparsers(dest="command", required=True)

    def command(func, help, positionals="G H", cap=None, **flags):
        """The subcommand named after ``func``: its positionals (a trailing
        ``?`` makes one optional), a ``--flag`` with the ``add_argument``
        keywords of each of ``flags``, ``--cap`` when it has a default, and
        ``--mono-cap``, which leaves the top-level value when it is unset."""
        p = sub.add_parser(func.__name__[4:].replace("_", "-"), help=help)
        for name in positionals.split():
            p.add_argument(name.rstrip("?"), nargs="?" if name.endswith("?") else None)
        for dest, kw in flags.items():
            p.add_argument("--" + dest.replace("_", "-"), **kw)
        if cap:
            p.add_argument("--cap", type=int, default=cap)
        p.add_argument("--mono-cap", type=int, default=argparse.SUPPRESS,
                       help="monomial enumeration cap")
        p.set_defaults(func=func)

    switch = {"action": "store_true"}
    command(cmd_homs, "enumerate homomorphisms")
    command(cmd_markov, "minimal-degree generating set", cap=4)
    command(cmd_width, "Markov width up to a degree cap", cap=4)
    command(cmd_verify_grobner, "directed fiber-graph check", cap=4, basis={"required": True})
    command(cmd_indep_grobner, "independence-ideal basis", "G")
    command(cmd_glue, "codimension-zero gluing", "G1 G2 H", basis1={}, basis2={},
            lift_cap={"type": int, "default": 200_000})
    command(cmd_polytope, "homomorphism polytope", facets=switch)
    command(cmd_hibi, "lattice relations vs top-graded ideal", "poset")
    command(cmd_chromatic_cert, "coloring obstruction certificate", "G", cap=5, relation={})
    command(cmd_reproduce, "run named worked examples", "name?", all=switch)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "reproduce" and not args.all and not args.name:
        parser.error("reproduce needs a scenario name or --all")
    try:
        for flag in ("mono_cap", "lift_cap"):
            if getattr(args, flag, 1) < 1:
                raise ValueError(f"--{flag.replace('_', '-')} must be at least 1")
        if args.command == "reproduce" and not args.all and args.name not in SCENARIOS:
            print(f"unknown scenario {args.name!r}; known: {', '.join(sorted(SCENARIOS))}",
                  file=sys.stderr)
            return EXIT_USAGE
        rep = Report(args.command, args)
        code = args.func(args, rep)
        rep.emit()
        return code
    except (ValueError, OSError) as exc:        # GraphError and GlueError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceCapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
