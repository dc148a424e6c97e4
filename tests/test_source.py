"""Rules on the package source itself, and on what the benchmark uses of it."""

import ast
import importlib
import importlib.util
from fractions import Fraction
from functools import cached_property
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "plmorse"


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


def _unused_imports(path: Path) -> list[str]:
    """The names a module imports (``from __future__`` aside) that no name
    expression in it reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_package_imports_no_unused_name():
    """Every name a module imports is used in it, so a helper that moves or
    goes leaves no stale import behind."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    assert [entry for path in paths for entry in _unused_imports(path)] == []


def test_unused_import_check_finds_a_stale_import(tmp_path):
    module = tmp_path / "stale.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import gcd, lcm as least\n"
        "from .geometry import Polyhedron, Vec\n\n"
        "def f(v: Vec) -> int:\n"
        "    return least(len(v), os.sep)\n"
    )
    assert _unused_imports(module) == ["stale.py:3 gcd", "stale.py:4 Polyhedron"]


# Lines in src/plmorse/*.py (as `wc -l` counts them) when the face pass
# moved to integer 0-faces and the Fraction solves moved to the tests.  The
# package aims to give the same answers from less code, so a change may lower
# this limit but not raise it.
MAX_SOURCE_LINES = 3013


def test_package_source_does_not_grow():
    lines = sum(path.read_text().count("\n") for path in SRC.glob("*.py"))
    assert lines <= MAX_SOURCE_LINES, f"{lines} lines in {SRC}, over {MAX_SOURCE_LINES}"


def _benchmark_tracer():
    """perfbench/tracer.py, which imports only the standard library."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_spans_resolve():
    """Every function the benchmark's tracer wraps is still there, found the
    way ``Tracer.install`` finds it: a module attribute, or a method or
    cached property in its class's ``__dict__``."""
    import plmorse.cli  # noqa: F401  (install loads every module through it)

    spans = _benchmark_tracer().SPANS
    assert spans
    for mod_name, owner_name, attr, name in spans:
        mod = importlib.import_module(f"plmorse.{mod_name}")
        if owner_name is None:
            assert callable(getattr(mod, attr)), name
            continue
        member = getattr(mod, owner_name).__dict__[attr]
        func = member.func if isinstance(member, cached_property) else member
        assert callable(func), name


def test_benchmark_oracle_reference_runs():
    """The oracle workload's reference is ``betti(triangulate(model).complex)``
    on an exact sublevel or superlevel model."""
    from plmorse.compact import sublevel_model, superlevel_model
    from plmorse.complexes import build_complex
    from plmorse.homology import CellularComplex, betti, triangulate
    from plmorse.network import build_fan_network

    cx = build_complex(build_fan_network(1))
    for model in (sublevel_model(cx, Fraction(-2, 3)), superlevel_model(cx, Fraction(-2, 3))):
        assert betti(triangulate(model).complex) == CellularComplex(model).betti()
