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


def _reads_kernel_entries(node) -> bool:
    """True iff an expression reads ``probs``, as kernel entries are read."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == "probs":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == "probs":
            return True
    return False


def test_kernel_entries_are_compared_with_zero_in_one_place():
    # the support is the entries > 0; TabularMDP._support keeps it, and every reader reads that
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            zero = any(isinstance(op, ast.Constant) and op.value == 0 for op in operands)
            if zero and any(_reads_kernel_entries(op) for op in operands):
                found.append(f"{path.name}:{node.lineno}")
    assert len(found) == 1 and found[0].startswith("mdp.py:"), found


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


def test_every_private_function_is_used_outside_its_own_def():
    # a mechanism taken out must not leave its helpers behind as dead code
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SOURCE.rglob("*.py"))]
    uses: dict[str, list[int]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append(id(node))
    unused = []
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_") and not node.name.startswith("__"):
                inside = set(map(id, ast.walk(node)))
                if all(use in inside for use in uses.get(node.name, [])):
                    unused.append(f"{node.name}:{node.lineno}")
    assert unused == []


def test_every_function_parameter_is_read():
    # a parameter that nothing reads is dead API; dunder methods and the cmd_* handlers
    # take the signatures that the descriptor protocol and the dispatcher fix
    unread = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            if (name.startswith("__") and name.endswith("__")) or name.startswith("cmd_"):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
            read = {sub.id for sub in ast.walk(node)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno}:{name}({arg.arg})"
                       for arg in params if arg is not None and arg.arg not in read]
    assert unread == []


def test_every_module_level_name_is_used_outside_its_own_definition():
    # a name that nothing reads, not even a test or a script, is dead code
    root = Path(__file__).resolve().parents[1]
    paths = [*SOURCE.rglob("*.py"), *(p for folder in ("tests", "scripts", "perfbench")
                                      for p in (root / folder).rglob("*.py"))]
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    uses: dict[str, list[int]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.asname or node.name.rpartition(".")[2]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value  # an __all__ entry, or a name looked up by string
            else:
                continue
            uses.setdefault(name, []).append(id(node))
    unused = []
    for path, tree in trees.items():
        if SOURCE not in path.parents:
            continue
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            else:
                continue
            inside = set(map(id, ast.walk(stmt)))
            unused += [
                f"{path.name}:{stmt.lineno}:{name}"
                for name in names
                if not name.startswith("__") and all(use in inside for use in uses.get(name, []))
            ]
    assert unused == []
