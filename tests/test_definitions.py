"""Every top-level function, class and method of the package is used
somewhere in the sources, the benchmark, the tools or the acceptance
tests: a top-level definition by name, by attribute or as a string, a
method only by attribute or as a string, since a bare name or import of
the same spelling is some other binding (a local variable, a function of
another module).  The unit tests do not count, so a definition that only
they reach is flagged; a unit test that needs such code as an oracle keeps
it in ``tests/helpers.py``.  A definition that only refers to itself (a
recursive function, a class building itself) counts as unused."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "homtoric"
SEARCHED = ("src/**/*.py", "perfbench/**/*.py", "tools/**/*.py", "tests/test_acceptance.py")


def _references(tree):
    """(bare, text) for the names, attributes, imported names and string
    constants in ``tree``; ``bare`` is True for names and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield True, node.id
        elif isinstance(node, ast.Attribute):
            yield False, node.attr
        elif isinstance(node, ast.alias):
            yield True, node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield False, node.value


def _definitions(tree):
    """(definition, kinds of reference that count): top-level functions
    and classes, then the methods of each class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, (True, False)
        if isinstance(node, ast.ClassDef):
            yield from ((m, (False,)) for m in node.body if isinstance(m, ast.FunctionDef))


def unused_definitions():
    counts = Counter()
    for pattern in SEARCHED:
        for path in ROOT.glob(pattern):
            counts.update(_references(ast.parse(path.read_text())))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node, kinds in _definitions(ast.parse(path.read_text())):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = Counter(_references(node))
            if all(counts[bare, name] <= own[bare, name] for bare in kinds):
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_definition_is_used():
    assert unused_definitions() == []
