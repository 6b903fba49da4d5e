import json
import os
import subprocess
import sys

import pytest

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


def test_polytope_isolated_vertex_exit_2(capsys):
    code = main(["polytope", "edges:3:0-1", "complete:3", "--facets"])
    err = capsys.readouterr().err
    assert code == 2
    assert "vertex on no edge" in err


def test_resource_cap_exit(capsys):
    code, _ = run(capsys, "--mono-cap", "10", "width", "cycle:6", "spoon", "--cap", "4")
    assert code == 3


def test_reproduce_all(capsys):
    code, out = run(capsys, "reproduce", "--all")
    assert code == 0
    for name in ("p4p3", "prism-width", "c4-polytope", "k5-coloring",
                 "octahedron-coloring", "hibi-small", "fan-k4"):
        assert f"== {name}" in out
    assert "NOT_4_COLORABLE" in out


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


def test_outputs_match_golden(capsys):
    # default output stays byte-identical; regenerate a file only for a
    # deliberate, recorded output change
    with open(os.path.join(GOLDEN, "cases.json")) as fh:
        cases = json.load(fh)
    for name, case in cases.items():
        code, out = run(capsys, *case["argv"])
        with open(os.path.join(GOLDEN, name + ".txt"), newline="") as fh:
            assert (code, out) == (case["exit"], fh.read()), name
