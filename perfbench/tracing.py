"""Spans around eslong's public functions, recorded from outside the program.

The modules import each other's functions by name (``pipeline`` calls
``forward`` through ``eslong.pipeline.forward``, ``encoder`` calls ``qmatmul``
through ``eslong.encoder.qmatmul``), so a wrapper on the defining module alone
would miss most calls. ``Tracer.install`` therefore replaces the function at
every module-level name in ``eslong.*`` that refers to it, and
``Tracer.uninstall`` puts the originals back.

A span is ``[name, start_ns, end_ns, parent index, failed, arg]``. Spans stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

import numpy as np


def _path_arg(args, kwargs):
    value = args[0] if args else None
    return value if isinstance(value, str) else None


def _token_count(args, kwargs):
    return len(args[1])


# (module, function) -> what the span records as ``arg``.
TARGETS = {
    ("cli", "main"): None,
    ("checkpoint", "read_checkpoint"): _path_arg,
    ("checkpoint", "write_checkpoint"): _path_arg,
    ("encoder", "forward"): _token_count,
    ("encoder", "mlm_logits"): None,
    ("quant", "qmatmul"): None,
    ("quant", "decode_dense"): None,
    ("tensor_ops", "gelu"): None,
    ("tensor_ops", "gelu_grad"): None,
    ("pipeline", "parse_fasta"): None,
    ("pipeline", "embed_protein"): None,
    ("pipeline", "write_store"): _path_arg,
    ("pipeline", "read_store"): None,
    ("training", "mask_batch"): None,
    ("training", "mlm_loss"): None,
    ("training", "adamw_step"): None,
    ("head", "train_head"): None,
    ("head", "bce_loss_and_grads"): None,
    ("head", "predict"): None,
    ("ontology", "load_ontology"): None,
    ("ontology", "close_truth"): None,
    ("ontology", "close_scores"): None,
    ("ontology", "load_annotations"): _path_arg,
    ("ontology", "save_annotations"): _path_arg,
    ("evaluation", "fmax"): None,
    ("evaluation", "stratified_eval"): None,
    ("manifest", "write_manifest"): None,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, arg_of):
        spans, stack = self.spans, self._stack
        returns_code = name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter_ns(), 0, stack[-1] if stack else -1, False,
                    arg_of(args, kwargs) if arg_of else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if returns_code and result != 0:
                span[4] = True
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("eslong.") and m]
        for (module, func), arg_of in TARGETS.items():
            original = getattr(sys.modules[f"eslong.{module}"], func)
            wrapper = self._wrap(f"{module}.{func}", original, arg_of)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def aggregate(spans) -> dict[str, dict]:
    """Per span name: outermost calls and their busy time, failures, self time.

    A call nested inside a call of the same name (``parse_fasta`` opening its
    path and calling itself on the handle) counts once. Self time is a span's
    duration minus its children's, summed over every span of the name, so the
    self times of all names add up to the root spans' duration exactly.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, start, end, parent, failed, arg) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "failed": 0,
                                        "durations_ns": [], "args": []})
        entry["self_ns"] += end - start - child_ns[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p >= 0:
            continue  # nested in a call of the same function
        entry["calls"] += 1
        entry["ns"] += end - start
        entry["failed"] += int(failed)
        entry["durations_ns"].append(end - start)
        if arg is not None:
            entry["args"].append(arg)
    return stats


def percentile_ms(durations_ns, q: float) -> float:
    return float(np.percentile(durations_ns, 100 * q)) / 1e6 if durations_ns else 0.0
