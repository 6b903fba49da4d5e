"""The package stays within the seed's line count."""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "homtoric"
BUDGET = 3417       # lines of src/homtoric/*.py at the seed, as ``wc -l`` counts them


def test_package_stays_within_the_line_budget():
    lines = sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))
    assert lines <= BUDGET, f"src/homtoric has {lines} lines, over the budget of {BUDGET}"
