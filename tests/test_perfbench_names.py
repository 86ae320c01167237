"""The names the benchmark under perfbench/ reaches into must keep resolving.

perfbench/tracing.py wraps eslong functions by module and name, and
perfbench/run.py calls score_op_count on a preset's attention spec; a rename
in eslong would otherwise break the benchmark without failing a test.
"""

import ast
import importlib
from pathlib import Path

from eslong.attention import score_op_count
from eslong.encoder import preset_config

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_targets():
    """The (module, function) keys of tracing.TARGETS, read from the source
    without importing it."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_traced_names_resolve_to_callables():
    targets = traced_targets()
    assert targets
    for module, name in targets:
        target = getattr(importlib.import_module(f"eslong.{module}"), name, None)
        assert callable(target), f"eslong.{module}.{name}"


def test_score_op_count_runs_on_t6_local_spec():
    spec = preset_config("T6", mode="local", window_k=128).attention
    n = 300
    band = sum(min(n - 1, i + 64) - max(0, i - 64) + 1 for i in range(n))
    assert score_op_count(n, spec) == band
