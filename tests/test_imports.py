"""Package layout: every sibling import sits at the top of its module."""

import ast
from pathlib import Path

import eslong


def sibling_module(node) -> bool:
    """Whether an import statement names a module of the eslong package."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "eslong"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "eslong" for alias in node.names)
    return False


def test_no_function_imports_a_sibling_module():
    """An import deferred into a function body hides a cycle between the
    package's modules. Deferred imports of other packages, such as
    scipy.special in tensor_ops, are allowed."""
    found = set()
    for path in sorted(Path(eslong.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(f"{path.name}:{node.lineno}" for node in ast.walk(function)
                             if sibling_module(node))
    assert not found, sorted(found)
