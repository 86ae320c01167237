"""Child process of run.py, so that set-up and the measured phase each run in a
fresh interpreter and the measured phase's peak RSS excludes set-up.

    worker.py setup   --workload W --seed N --dir D
    worker.py measure --workload W --dir D --seconds S --trace 0|1

``setup`` writes the workload's inputs and ``D/info.json``. ``measure``
imports ``eslong.cli`` from ``./src`` and runs closed-loop iterations, each
command issued after the previous one returns, until S seconds have passed.
It writes the command timings to ``D/measure.json``. With ``--trace 1`` every
iteration runs twice, traced and untraced in alternating order, and the spans
of the traced runs go to ``D/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

from workloads import WORKLOADS


def _import_cli():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from eslong import cli

    return cli


def setup(workload, seed: int, d: str) -> None:
    _import_cli()
    info = workload.generate(seed, d)
    with open(os.path.join(d, "info.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh)


def run_iteration(cli, workload, index: int, d: str, traced: bool) -> dict:
    out = os.path.join(d, "out", f"it{index:03d}{'t' if traced else ''}")
    os.makedirs(out, exist_ok=True)
    commands = []
    for role, argv in workload.iteration(d, out):
        error = None
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception:  # a crash is a failed command, reported with its traceback
            code, error = None, traceback.format_exc()
        commands.append({"role": role, "argv": argv, "exit": code, "error": error,
                         "seconds": time.perf_counter() - start})
        # Each real CLI call starts a fresh process; drop this one's garbage
        # so the next command does not pay for it.
        gc.collect()
    return {"index": index, "out": out, "traced": traced, "commands": commands}


def measure(workload, d: str, seconds: float, trace: bool) -> None:
    cli = _import_cli()
    # Start the BLAS thread pool before timing: the first multi-threaded
    # product of a process otherwise adds most of a second to the first command.
    warm = np.ones((512, 512), dtype=np.float32)
    warm @ warm
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    iterations = []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        if tracer is None:
            iterations.append(run_iteration(cli, workload, index, d, traced=False))
        else:
            for traced in ((True, False) if index % 2 == 0 else (False, True)):
                if traced:
                    tracer.install()
                try:
                    iterations.append(run_iteration(cli, workload, index, d, traced))
                finally:
                    tracer.uninstall()
        index += 1
    elapsed = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(os.path.join(d, "spans.jsonl"))
    with open(os.path.join(d, "measure.json"), "w", encoding="utf-8") as fh:
        json.dump({"iterations": iterations, "elapsed_s": elapsed,
                   "peak_rss_mb": peak_kb / 1024.0}, fh)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("phase", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.phase == "setup":
        setup(workload, args.seed, args.dir)
    else:
        measure(workload, args.dir, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
