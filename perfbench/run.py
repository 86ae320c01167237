"""End-to-end benchmark of the eslong CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload embed_long --seed 1 --seconds 20 --trace 0

Phases, each outside the others' timing:

1. set-up, repeated ``SETUP_REPEATS`` times in fresh processes: make the
   inputs from the seed and build the model or stores (``setup_s`` is the
   median);
2. the measured phase in one more fresh process: closed-loop CLI commands
   for ``--seconds`` seconds (``worker.py``);
3. output checks, then metrics. With ``--trace 0`` the end-to-end metrics of
   ``BENCHMARK.json``; with ``--trace 1`` its per-layer metrics, from spans
   recorded around eslong's public functions.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Everything else about the run (environment,
input sizes, check details, spans) is kept under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import tracing
from workloads import WORKLOADS, Check

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # the whole run, so it ends within three minutes


class BenchError(Exception):
    pass


def child(args: list[str], deadline: float, log: str) -> float:
    """Run worker.py to completion; returns its wall time."""
    start = time.perf_counter()
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + " ".join(args[:1]))
    with open(log, "a", encoding="utf-8") as fh:
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args,
                                  stdout=fh, stderr=fh, timeout=remaining, check=False)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {args[0]} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}; see {log}")
    return time.perf_counter() - start


# ---------------------------------------------------------------- environment


def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getattr(handle, fn).restype = ctypes.c_int
                return int(getattr(handle, fn)())
    return None


def _git_commit():
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10, check=False, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------- metrics


def end_to_end(workload, measured: dict, setup_times: list[float], d: str) -> dict:
    plain = [it for it in measured["iterations"] if not it["traced"]]
    values = workload.summarize(plain, d)
    values["setup_s"] = statistics.median(setup_times)
    values["peak_rss_mb"] = measured["peak_rss_mb"]
    return values


def _file_sizes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _line_counts(paths) -> int:
    total = 0
    for p in paths:
        with open(p, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def visible_pairs(token_counts, workload) -> int:
    """Query-key pairs the attention rule allows, over every traced forward:
    score_op_count per slice length, times layers and heads."""
    if not token_counts or workload.attention is None:
        return 0
    from eslong.attention import score_op_count
    from eslong.encoder import preset_config

    mode, window_k = workload.attention
    cfg = preset_config(workload.preset, mode=mode, window_k=window_k)
    per_length = {n: score_op_count(n, cfg.attention) for n in set(token_counts)}
    return sum(per_length[n] for n in token_counts) * cfg.num_layers * cfg.num_heads


def per_layer(names, workload, measured: dict, spans, d: str) -> tuple[dict, dict]:
    """Per-layer metric values, plus the computed (not measured) counts."""
    stats = tracing.aggregate(spans)
    empty = {"calls": 0, "ns": 0, "self_ns": 0, "failed": 0, "durations_ns": [], "args": []}
    traced = [it for it in measured["iterations"] if it["traced"]]
    forward = stats.get("encoder.forward", empty)
    tokens = sum(forward["args"])
    pairs = visible_pairs(forward["args"], workload)
    n_fwd = len(forward["durations_ns"])
    tail_q = max(0.5, 1.0 - 10.0 / n_fwd) if n_fwd else 0.5
    untraced = {it["index"]: sum(c["seconds"] for c in it["commands"])
                for it in measured["iterations"] if not it["traced"]}
    overhead = [sum(c["seconds"] for c in it["commands"]) / untraced[it["index"]] - 1.0
                for it in traced]
    # The first pair also pays the process's warm-up; drop it when others exist.
    overhead = overhead[1:] or overhead
    work = workload.work(d)
    computed = {
        "attention.visible_pairs": pairs,
        "run.tokens": work["tokens"] * len(traced),
        "run.slices": work["slices"] * len(traced),
        "checkpoint.read_checkpoint.bytes": _file_sizes(
            stats.get("checkpoint.read_checkpoint", empty)["args"]),
        "pipeline.write_store.bytes": _file_sizes(
            stats.get("pipeline.write_store", empty)["args"]),
        "ontology.save_annotations.bytes": _file_sizes(
            stats.get("ontology.save_annotations", empty)["args"]),
        "ontology.load_annotations.lines": _line_counts(
            stats.get("ontology.load_annotations", empty)["args"]),
    }
    special = dict(computed)
    special.update({
        "encoder.forward.tokens": tokens,
        "encoder.forward.ms_p50": tracing.percentile_ms(forward["durations_ns"], 0.5),
        "encoder.forward.ms_tail": tracing.percentile_ms(forward["durations_ns"], tail_q),
        "encoder.forward.us_per_token": forward["ns"] / 1e3 / tokens if tokens else 0.0,
        "encoder.forward.ns_per_visible_pair": forward["ns"] / pairs if pairs else 0.0,
        "trace.overhead_frac": statistics.median(overhead),
        "trace.uncovered_s": stats.get("cli.main", empty)["self_ns"] / 1e9,
    })
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
            continue
        span_name, stat = name.rsplit(".", 1)
        entry = stats.get(span_name, empty)
        if stat == "s":
            values[name] = entry["ns"] / 1e9
        elif stat == "self_s":
            values[name] = entry["self_ns"] / 1e9
        elif stat in ("calls", "failed"):
            values[name] = entry[stat]
        else:
            raise BenchError(f"no rule computes per-layer metric {name}")
    details = {"computed": sorted(computed), "forward_tail_quantile": tail_q,
               "forward_calls": n_fwd, "traced_iterations": len(traced),
               "self_s_by_span": {k: v["self_ns"] / 1e9 for k, v in sorted(stats.items())}}
    return values, details


def check_trace_accounting(spans, check: Check) -> None:
    """Self times of every span add up to the root (cli.main) busy time."""
    stats = tracing.aggregate(spans)
    total_self = sum(v["self_ns"] for v in stats.values())
    root = stats.get("cli.main", {"ns": 0})["ns"]
    check("trace.self_times_sum_to_root", total_self == root and root > 0,
          f"sum of self {total_self} ns, cli.main {root} ns")


# ---------------------------------------------------------------- main


def run(args, bench: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(os.getcwd(), ".perfbench",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    work_dir = os.path.join(run_dir, "work")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(work_dir)
    log = os.path.join(run_dir, "worker.log")

    setup_times = [child(["setup", "--workload", args.workload, "--seed", str(args.seed),
                          "--dir", work_dir], deadline, log)
                   for _ in range(SETUP_REPEATS)]
    child(["measure", "--workload", args.workload, "--dir", work_dir,
           "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline, log)
    with open(os.path.join(work_dir, "measure.json"), encoding="utf-8") as fh:
        measured = json.load(fh)
    with open(os.path.join(work_dir, "info.json"), encoding="utf-8") as fh:
        info = json.load(fh)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    check = Check()
    commands = [c for it in measured["iterations"] for c in it["commands"]]
    for c in commands:
        crash = c["error"].strip().splitlines()[-1] if c["error"] else ""
        check(f"cli.exit_0.{c['role']}", c["exit"] == 0, f"exit {c['exit']} {crash}")
    workload.check(measured["iterations"], work_dir, check)

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(), "inputs": info,
              "commands": len(commands), "measured_s": measured["elapsed_s"],
              "work_per_iteration": workload.work(work_dir),
              "iterations": [{"index": it["index"], "traced": it["traced"],
                              "seconds": [[c["role"], c["seconds"]] for c in it["commands"]]}
                             for it in measured["iterations"]]}
    if args.trace:
        spans = tracing.load_spans(os.path.join(work_dir, "spans.jsonl"))
        check_trace_accounting(spans, check)
        names = [m["name"] for m in bench["per_layer"]]
        values, result["trace_details"] = per_layer(names, workload, measured, spans, work_dir)
        declared = bench["per_layer"]
        shutil.move(os.path.join(work_dir, "spans.jsonl"), os.path.join(run_dir, "spans.jsonl"))
    else:
        values = end_to_end(workload, measured, setup_times, work_dir)
        declared = bench["end_to_end"]
        result["setup_runs_s"] = setup_times
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in declared}
    result["checks"] = [{"name": n, "ok": ok, "detail": det} for n, ok, det in check.results]
    result["failed_frac"] = len(check.failed) / len(check.results)
    if not check.failed:  # keep the evidence of a failed run, else free the disk
        shutil.rmtree(work_dir)
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def print_summary(result: dict, workload) -> None:
    aliases = {"items_per_s": f"{workload.item}_per_s", "command_s": workload.command_alias}
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"commands={result['commands']} measured_s={result['measured_s']:.2f}")
    print("# environment " + json.dumps(result["environment"], sort_keys=True))
    print("# inputs " + json.dumps(result["inputs"], sort_keys=True))
    for name, m in result["metrics"].items():
        alias = f" ({aliases[name]})" if name in aliases else ""
        print(f"{name}{alias} = {m['value']:.6g} {m['unit']}")
    failed = [c for c in result["checks"] if not c["ok"]]
    print(f"failed_frac = {result['failed_frac']:.6g} "
          f"({len(failed)} failed / {len(result['checks'])} attempted)")
    for c in failed[:20]:
        print(f"# FAILED {c['name']}: {c['detail']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join("src", "eslong", "cli.py")):
        print("perfbench: run from the root of an eslong checkout (src/eslong is missing)",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    try:
        result = run(args, bench)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_summary(result, WORKLOADS[args.workload])
    checks = result["checks"]
    failed = sum(1 for c in checks if not c["ok"])
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
