"""Rules that every module of the library keeps."""
import ast
import importlib
import importlib.util
from pathlib import Path

import trajcore

SOURCE = Path(trajcore.__file__).resolve().parent


def test_library_has_no_bare_assert():
    # python -O strips assert statements, so a check that matters must raise
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_every_traced_function_exists():
    # the tracer replaces each (module, function) of TARGETS by name, so a moved one breaks it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{name}"
        for module, name, *_ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert tracer.TARGETS and missing == []
