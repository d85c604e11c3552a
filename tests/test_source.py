"""Rules that every module of the library keeps."""
import ast
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
