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


STRUCT_READS = {"unpack", "unpack_from", "iter_unpack"}


def struct_reads(tree) -> list[int]:
    """Lines that unpack bytes through the struct module: struct.unpack and
    its kin, those functions imported by name, or the same methods of a
    module-level struct.Struct."""
    structs, bare = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            structs |= {a.asname or a.name for a in node.names if a.name == "struct"}
        elif isinstance(node, ast.ImportFrom) and node.module == "struct":
            bare |= {a.asname or a.name for a in node.names if a.name in STRUCT_READS}
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and ast.unparse(node.value.func).split(".")[-1] == "Struct"):
            structs |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id in bare
        or isinstance(node.func, ast.Attribute) and node.func.attr in STRUCT_READS
        and isinstance(node.func.value, ast.Name) and node.func.value.id in structs))


def test_only_checkpoint_unpacks_bytes():
    """Every binary format reads through checkpoint.open_binary's reader, so
    its bounds, UTF-8, finite and trailing-byte checks are written once."""
    found = []
    for path in sorted(Path(eslong.__file__).parent.glob("*.py")):
        if path.name != "checkpoint.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found += [f"{path.name}:{line}" for line in struct_reads(tree)]
    assert not found, found


def test_the_guard_sees_each_way_to_unpack():
    source = """
import struct
import struct as s
from struct import Struct, unpack_from
HEADER = Struct("<I")
struct.unpack("<I", b)
s.iter_unpack("<I", b)
unpack_from("<I", b)
HEADER.unpack(b)
reader.unpack("<I")
"""
    assert struct_reads(ast.parse(source)) == [6, 7, 8, 9]
