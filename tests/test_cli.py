import argparse
import json
import os
import subprocess
import sys

import pytest

from homtoric import cli, graph, toric
from homtoric.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_width_prism(capsys):
    code, out = run(capsys, "width", "complement:cycle:6", "spoon", "--cap", "4")
    assert code == 0
    assert out.strip() == "3"


def test_homs_lists_independent_sets(capsys):
    code, out = run(capsys, "homs", "cycle:4", "spoon")
    assert code == 0
    assert "total 7" in out
    assert "{0,2}" in out


def test_markov_p4p3(capsys):
    code, out = run(capsys, "markov", "path:4", "path:3", "--cap", "3")
    assert code == 0
    assert "0*7 - 1*6" in out
    assert "2*5 - 3*4" in out
    assert "width 2" in out


def test_json_schema(capsys):
    code, out = run(capsys, "--json", "width", "complement:cycle:6", "spoon", "--cap", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["result"]["width"] == 3
    assert "seed" in doc


def test_verify_grobner_roundtrip(tmp_path, capsys):
    code, out = run(capsys, "indep-grobner", "cycle:4")
    assert code == 0
    basis_file = tmp_path / "basis.txt"
    lines = [line.split("#")[0].strip() for line in out.splitlines()
             if " - " in line]
    basis_file.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "verify-grobner", "cycle:4", "spoon",
                    "--basis", str(basis_file), "--cap", "4")
    assert code == 0
    assert "verified" in out
    # flipping every orientation fails and exits 1
    flipped = [" - ".join(reversed(line.split(" - "))) for line in lines]
    basis_file.write_text("\n".join(flipped) + "\n")
    code, out = run(capsys, "verify-grobner", "cycle:4", "spoon",
                    "--basis", str(basis_file), "--cap", "4")
    assert code == 1


def test_glue_cli(tmp_path, capsys):
    g1 = tmp_path / "g1.txt"
    g2 = tmp_path / "g2.txt"
    g1.write_text("v 0 1 2\ne 0 1\ne 0 2\ne 1 2\n")
    g2.write_text("v 1 2 3\ne 1 2\ne 1 3\ne 2 3\n")
    code, out = run(capsys, "glue", str(g1), str(g2), "spoon")
    assert code == 0
    assert "intersection vertices [1, 2]" in out
    assert "degrees [2]" in out


def test_polytope_cli(capsys):
    code, out = run(capsys, "polytope", "cycle:4", "spoon", "--facets")
    assert code == 0
    assert "7 vertices" in out
    assert "8 facets" in out
    assert "simple: False" in out


def test_hibi_cli(tmp_path, capsys):
    poset = tmp_path / "p.txt"
    poset.write_text("p 3\nc 0 1\nc 0 2\n")
    code, out = run(capsys, "hibi", str(poset))
    assert code == 0
    assert "generators match: True" in out


def test_chromatic_cert_cli(tmp_path, capsys):
    rel = tmp_path / "antipodal.txt"
    rel.write_text("0 1\n2 3\n4 5\n")
    code, out = run(capsys, "chromatic-cert", "octahedron", "--cap", "4",
                    "--relation", str(rel))
    assert code == 0
    assert "PROPERTY" in out


def test_chromatic_cert_bad_relation_lines(tmp_path, capsys):
    rel = tmp_path / "rel.txt"
    # octahedron has vertices 0..5: a pair must be two distinct ones
    for line in ("2 3 4", "0 x", "0 9", "-1 2", "3 3"):
        rel.write_text(f"0 1\n{line}\n")
        code = main(["chromatic-cert", "octahedron", "--relation", str(rel)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: bad relation line: {line!r}\n"


def test_chromatic_cert_triangle_free_exit_2(capsys):
    code = main(["chromatic-cert", "cycle:5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: no triangle placements in the graph; the ideal is empty\n"


def test_usage_errors(capsys):
    code, _ = run(capsys, "width", "cycle:notanumber", "spoon")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["reproduce"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_unreadable_files_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    for argv in (["hibi", missing],
                 ["verify-grobner", "cycle:4", "spoon", "--basis", missing]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_grobner_non_homogeneous_exit_2(tmp_path, capsys):
    # without edges every image is empty, so x0 - x1*x2 is in the ideal;
    # its sides differ in degree, which is a usage error, not a verdict
    basis_file = tmp_path / "basis.txt"
    basis_file.write_text("0 - 1*2\n")
    code = main(["verify-grobner", "edges:2:", "path:3", "--basis", str(basis_file),
                 "--cap", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: binomial (0,) - (1, 2) is not homogeneous\n"


def test_verify_grobner_cap_below_one_exit_2(tmp_path, capsys):
    # a cap below 1 checks no layer, so it must not report a verified basis
    basis_file = tmp_path / "empty.txt"
    basis_file.write_text("")
    for cap in ("0", "-2"):
        code = main(["verify-grobner", "cycle:4", "spoon", "--basis", str(basis_file),
                     "--cap", cap])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: degree cap must be at least 1\n"
    code = main(["verify-grobner", "cycle:4", "spoon", "--basis", str(basis_file),
                 "--cap", "1"])
    assert code == 0
    assert capsys.readouterr().out == "grobner basis verified\n"


def test_polytope_isolated_vertex_exit_2(capsys):
    code = main(["polytope", "edges:3:0-1", "complete:3", "--facets"])
    err = capsys.readouterr().err
    assert code == 2
    assert "vertex on no edge" in err


def test_glue_dependent_intersection_exit_1(tmp_path, capsys):
    # P3 glued to itself shares every vertex, whose configuration into the
    # spoon is not linearly independent
    path = tmp_path / "p3.txt"
    path.write_text("n 3\ne 0 1\ne 1 2\n")
    code = main(["glue", str(path), str(path), "spoon"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ("intersection configuration is not linearly independent; "
                            "the lift construction does not apply\n")
    assert captured.err == ""


def test_polytope_facets_dimension_cap_exit_3(capsys):
    code = main(["polytope", "complete:3", "complete:4", "--facets"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "resource cap: dimension 22 above the cap 8\n"


def test_homs_mono_cap_exit_3(capsys):
    code = main(["homs", "path:5", "complete:3", "--mono-cap", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "resource cap: more than 3 homomorphisms\n"


def test_resource_cap_exit(capsys):
    code, _ = run(capsys, "--mono-cap", "10", "width", "cycle:6", "spoon", "--cap", "4")
    assert code == 3


def test_mono_cap_after_the_subcommand(capsys):
    # the flag works in either position; given twice, the later one wins
    runs = []
    for argv in (["--mono-cap", "10", "width", "path:7", "complete:3", "--cap", "3"],
                 ["width", "path:7", "complete:3", "--cap", "3", "--mono-cap", "10"],
                 ["--mono-cap", "100000", "width", "path:7", "complete:3", "--cap", "3",
                  "--mono-cap", "10"]):
        code = main(argv)
        runs.append((code, capsys.readouterr()))
    assert {code for code, _ in runs} == {3}
    assert {(c.out, c.err) for _, c in runs} == {("", "resource cap: more than 10 homomorphisms\n")}


def test_mono_cap_fires_before_the_automorphisms(capsys, monkeypatch):
    # the degree-3 layer of C6 -> complete-looped:3 is refused before any
    # layer is walked, so before Aut(H) is searched
    def searched(system):
        raise AssertionError("automorphisms searched before the cap check")

    monkeypatch.setattr(toric, "_automorphisms", searched)
    code = main(["markov", "cycle:6", "complete-looped:3", "--cap", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("resource cap: 64836045 monomials of degree 3 exceed "
                            "the cap 10000000\n")


def test_asymmetric_target_with_buckets_matches_golden(capsys):
    # path:7 -> spoon at cap 4 is walked in buckets (k > 1) under the
    # trivial automorphism group of the spoon
    system = toric.build_system(graph.path(7), graph.spoon())
    assert toric._bucket_classes(system, 4).any() and len(toric._automorphisms(system)) == 1
    code, out = run(capsys, "markov", "path:7", "spoon", "--cap", "4")
    assert code == 0
    with open(os.path.join(GOLDEN, "markov_path7_spoon.txt"), newline="") as fh:
        assert out == fh.read()


def test_source_deeper_than_the_recursion_limit_is_searched(capsys):
    # a one-vertex target passes every |V(H)|^|V(G)| search cap, and the
    # search keeps its own stack, so 1100 source vertices are no refusal
    code, out = run(capsys, "homs", "empty:1100", "complete-looped:1")
    assert code == 0
    assert out.splitlines()[-1] == "total 1"
    code, _ = run(capsys, "markov", "path:1100", "complete-looped:1", "--cap", "2")
    assert code == 0


def test_poset_too_large_exit_3(tmp_path, capsys):
    poset = tmp_path / "antichain21.txt"
    poset.write_text("p 21\n")
    code = main(["hibi", str(poset)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "resource cap: poset too large for subset enumeration\n"


def test_internal_error_exit_4(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("fiber lost a monomial")

    monkeypatch.setattr(cli, "markov_basis", broken)
    code = main(["markov", "path:3", "path:2", "--cap", "2"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "internal error: fiber lost a monomial\n"


def test_chromatic_cert_cap_below_two_exit_2(capsys):
    # a cap of 1 searches no layer, so it must not report that nothing exists
    for cap in ("1", "0"):
        code = main(["chromatic-cert", "octahedron", "--cap", cap])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: degree cap must be at least 2\n"


def test_mono_cap_below_one_exit_2(capsys):
    for cap in ("0", "-1"):
        code = main(["--mono-cap", cap, "markov", "cycle:4", "spoon", "--cap", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --mono-cap must be at least 1\n"


def test_lift_cap_below_one_exit_2(tmp_path, capsys):
    g1, g2 = tmp_path / "g1.txt", tmp_path / "g2.txt"
    g1.write_text("v 0 1 2\ne 0 1\ne 0 2\ne 1 2\n")
    g2.write_text("v 1 2 3\ne 1 2\ne 1 3\ne 2 3\n")
    for cap in ("0", "-5"):
        code = main(["glue", str(g1), str(g2), "spoon", "--lift-cap", cap])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --lift-cap must be at least 1\n"


def test_reproduce_all(capsys):
    code, out = run(capsys, "reproduce", "--all")
    assert code == 0
    for name in ("p4p3", "prism-width", "c4-polytope", "k5-coloring",
                 "octahedron-coloring", "hibi-small", "fan-k4"):
        assert f"== {name}" in out
    assert "NOT_4_COLORABLE" in out


def test_unknown_scenario_exit_2(capsys):
    # the name is checked after the cap checks and before any report is
    # built, so nothing reaches stdout, in text or JSON
    unknown = ("unknown scenario 'nosuch'; known: c4-bipartite, c4-polytope, "
               "c5-almost-bipartite, fan-k4, hibi-small, k3k4-binomial, k5-coloring, "
               "octahedron-coloring, p4p3, prism-width, spoon-widths\n")
    for argv, err in ((["reproduce", "nosuch"], unknown),
                      (["--json", "reproduce", "nosuch"], unknown),
                      (["--mono-cap", "0", "reproduce", "nosuch"],
                       "error: --mono-cap must be at least 1\n")):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", err), argv


# Every action of the parser, as (option strings, dest, default, type,
# required, nargs, help), pinned so that how the subcommands are declared
# cannot change what they accept; the --help layout is not compared, as it
# follows COLUMNS and the Python version.
_HELP = (("-h", "--help"), "help", argparse.SUPPRESS, None, False, 0,
         "show this help message and exit")
_MONO_CAP = (("--mono-cap",), "mono_cap", argparse.SUPPRESS, int, False, None,
             "monomial enumeration cap")


def _positional(dest):
    return ((), dest, None, None, True, None, None)


def _flag(dest, default=None, type=None, required=False, nargs=None):
    return (("--" + dest.replace("_", "-"),), dest, default, type, required, nargs, None)


_G, _H = _positional("G"), _positional("H")
TOP_ACTIONS = [
    _HELP,
    (("--json",), "json", False, None, False, 0, "JSON output"),
    (("--threads",), "threads", 1, int, False, None,
     "accepted and ignored; the toolkit is single-threaded"),
    (("--seed",), "seed", 0, int, False, None,
     "echoed in the JSON output; reserved, nothing is random"),
    (("--mono-cap",), "mono_cap", 10_000_000, int, False, None, "monomial enumeration cap"),
    ((), "command", None, None, True, argparse.PARSER, None),
]
SUBCOMMANDS = {     # name: (help, func, actions)
    "homs": ("enumerate homomorphisms", cli.cmd_homs, [_HELP, _G, _H, _MONO_CAP]),
    "markov": ("minimal-degree generating set", cli.cmd_markov,
               [_HELP, _G, _H, _flag("cap", 4, int), _MONO_CAP]),
    "width": ("Markov width up to a degree cap", cli.cmd_width,
              [_HELP, _G, _H, _flag("cap", 4, int), _MONO_CAP]),
    "verify-grobner": ("directed fiber-graph check", cli.cmd_verify_grobner,
                       [_HELP, _G, _H, _flag("basis", required=True), _flag("cap", 4, int),
                        _MONO_CAP]),
    "indep-grobner": ("independence-ideal basis", cli.cmd_indep_grobner,
                      [_HELP, _G, _MONO_CAP]),
    "glue": ("codimension-zero gluing", cli.cmd_glue,
             [_HELP, _positional("G1"), _positional("G2"), _H, _flag("basis1"),
              _flag("basis2"), _flag("lift_cap", 200_000, int), _MONO_CAP]),
    "polytope": ("homomorphism polytope", cli.cmd_polytope,
                 [_HELP, _G, _H, _flag("facets", False, nargs=0), _MONO_CAP]),
    "hibi": ("lattice relations vs top-graded ideal", cli.cmd_hibi,
             [_HELP, _positional("poset"), _MONO_CAP]),
    "chromatic-cert": ("coloring obstruction certificate", cli.cmd_chromatic_cert,
                       [_HELP, _G, _flag("relation"), _flag("cap", 5, int), _MONO_CAP]),
    "reproduce": ("run named worked examples", cli.cmd_reproduce,
                  [_HELP, ((), "name", None, None, False, "?", None),
                   _flag("all", False, nargs=0), _MONO_CAP]),
}


def test_parser_declares_every_action():
    def actions(parser):
        return [(tuple(a.option_strings), a.dest, a.default, a.type, a.required,
                 a.nargs, a.help) for a in parser._actions]

    top = cli.build_parser()
    assert actions(top) == TOP_ACTIONS
    sub = top._actions[-1]
    assert list(sub.choices) == list(SUBCOMMANDS)
    assert [(a.dest, a.help) for a in sub._choices_actions] == [
        (name, help) for name, (help, _, _) in SUBCOMMANDS.items()]
    for name, parser in sub.choices.items():
        _, func, expected = SUBCOMMANDS[name]
        assert (parser.get_default("func"), actions(parser)) == (func, expected), name


def test_thread_count_does_not_change_output(capsys):
    outputs = []
    for threads in ("1", "4"):
        code, out = run(capsys, "--threads", threads, "reproduce", "p4p3")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_cli_import_leaves_scipy_out():
    # importing scipy.sparse alone costs more than the CLI's whole start-up
    import homtoric
    src = os.path.dirname(os.path.dirname(homtoric.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import homtoric.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def test_outputs_match_golden(capsys, monkeypatch):
    # default output stays byte-identical; regenerate a file only for a
    # deliberate, recorded output change.  Input files named by a case live
    # in the golden directory; a case with "stderr" pins that stream too.
    with open(os.path.join(GOLDEN, "cases.json")) as fh:
        cases = json.load(fh)
    monkeypatch.chdir(GOLDEN)
    for name, case in cases.items():
        code = main(list(case["argv"]))
        captured = capsys.readouterr()
        with open(name + ".txt", newline="") as fh:
            assert (code, captured.out) == (case["exit"], fh.read()), name
        if "stderr" in case:
            assert captured.err == case["stderr"], name
