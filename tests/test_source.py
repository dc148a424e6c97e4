"""Rules on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "plmorse"


def test_package_has_no_assert_statements():
    """`python -O` strips assert statements, so every invariant the package
    checks must raise an error instead."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# Lines in src/plmorse/*.py (as `wc -l` counts them) when local homology
# came to be taken on each flat component's closed star.  The package aims
# to give the same answers from less code, so a change may lower this limit
# but not raise it.
MAX_SOURCE_LINES = 3159


def test_package_source_does_not_grow():
    lines = sum(path.read_text().count("\n") for path in SRC.glob("*.py"))
    assert lines <= MAX_SOURCE_LINES, f"{lines} lines in {SRC}, over {MAX_SOURCE_LINES}"
