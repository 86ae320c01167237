"""Batch command-line surface: pretrain, extend, quantize, embed, train-head,
predict, and eval.

Exit codes: 0 success, 1 partial success (some records skipped, reported on
stderr), 2 invalid input or configuration, or a run that does not fit in
memory. main writes each command's manifest next to its output file. Set
ESLONG_LOG=DEBUG|INFO|WARNING for verbosity.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import logging
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from . import __version__
from .attention import GLOBAL, LOCAL
from .encoder import (
    _CONFIG_DIMS,
    DEFAULT_VOCAB,
    build_model,
    config_from_json,
    config_to_json,
    extend_context,
    load_model,
    lora_target_names,
    model_tag,
    preset_config,
    save_model,
)
from .errors import ConfigError, EslongError, json_fields, typed_config
from .evaluation import fmax, result_to_json, stratified_eval, write_curve_tsv, write_report
from .head import HeadConfig, load_head, predict, save_head, train_head
from .manifest import write_manifest
from .ontology import (
    close_scores,
    close_truth,
    load_annotations,
    load_ontology,
    save_annotations,
)
from .pipeline import embed_corpus, parse_fasta, read_store, segment, write_store, write_store_tsv
from .quant import QuantPolicy, quantize_model
from .training import TrainConfig, attach_lora, derive_seed, pretrain

log = logging.getLogger("eslong")


def _configure_logging() -> None:
    level = os.environ.get("ESLONG_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


# glibc's mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_heap() -> None:
    """Fix glibc's heap thresholds at the values its dynamic rule reaches
    once a 32 MB block is freed: blocks under 32 MB come from the heap, and up
    to 64 MB of freed memory at its top stays mapped. The dynamic rule
    follows the largest block freed so far, and a forward's bounded working
    set keeps that near 4 MB, so each layer's frees would hand back pages the
    next layer faults in again. Does nothing where mallopt is missing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except ValueError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _model_config_from_dict(data: dict):
    """The config file's model section: a preset name or explicit dimensions,
    plus optional max_positions, attention_mode and window_k."""
    model = json_fields(data.get("model", {}), "config 'model'", (),
                        ("preset", "attention_mode", "window_k") + _CONFIG_DIMS)
    fields = {key: model[key] for key in _CONFIG_DIMS if key in model}
    preset = model.get("preset")
    if preset is not None:
        extra = sorted(set(fields) - {"max_positions"})
        if extra:
            raise ConfigError(f"unexpected model config keys next to preset: {extra}")
        if not isinstance(preset, str):
            raise ConfigError(f"model preset must be a name, got {preset!r}")
        fields = {**config_to_json(preset_config(preset)), **fields}
    else:
        fields = {"max_positions": 1024, **fields, "vocab": list(DEFAULT_VOCAB.tokens)}
    fields["attention"] = {"mode": model.get("attention_mode", GLOBAL),
                           "window_k": model.get("window_k")}
    return config_from_json(fields)


def _train_config_from_dict(data: dict, seed_override: int | None) -> TrainConfig:
    train = typed_config(TrainConfig, data.get("train", {}), "train config")
    if seed_override is not None:
        train = dataclasses.replace(train, seed=seed_override)
    return train


class Outcome(NamedTuple):
    """What a command hands back to main: the output its manifest goes next
    to (None for no manifest), what the manifest records, and the exit code."""
    out: str | None
    config: dict
    inputs: dict
    seed: int | None = None
    extra: dict | None = None
    digests: dict | None = None
    code: int = 0


def cmd_pretrain(args) -> Outcome:
    config_data = _load_config_file(args.config)
    train_cfg = _train_config_from_dict(config_data, args.seed)
    records = parse_fasta(args.fasta)
    inputs = {"fasta": args.fasta, "config": args.config}
    if args.init_from:
        model = load_model(args.init_from)
        inputs["init_from"] = args.init_from
    else:
        model_cfg = _model_config_from_dict(config_data)
        model = build_model(model_cfg, derive_seed(train_cfg.seed, "init"))
    if args.quantize_base:
        if args.lora_rank is None:
            raise ConfigError("--quantize-base requires --lora-rank (the base is frozen)")
        model = quantize_model(model, QuantPolicy(block_size=args.block_size))
    if args.lora_rank is not None:
        targets = lora_target_names(model.config, families=tuple(args.lora_families.split(",")))
        model = attach_lora(model, targets, rank=args.lora_rank, alpha=args.lora_alpha,
                            seed=derive_seed(train_cfg.seed, "lora-init"))
    capacity = model.config.max_positions - 2
    corpus = [piece for rec in records for piece in segment(rec.sequence, capacity)]
    log.info("pretraining on %d segments from %d proteins", len(corpus), len(records))
    run_log = str(args.out) + ".runlog.jsonl"
    # Handed over through a list, so that only pretrain holds the untrained
    # weights and frees them after its first step.
    start = [model]
    del model
    trained, curve = pretrain(start.pop(), corpus, train_cfg, run_log=run_log)
    save_model(trained, args.out)
    return Outcome(args.out,
                   {"train": dataclasses.asdict(train_cfg),
                    "model": _serializable_model_config(trained)},
                   inputs, seed=train_cfg.seed, extra={"epochs": len(curve), "loss_curve": curve})


def _serializable_model_config(model) -> dict:
    cfg = config_to_json(model.config)
    cfg.pop("vocab", None)  # digest-relevant config only; vocab lives in the checkpoint
    return cfg


def cmd_extend(args) -> Outcome:
    model = load_model(getattr(args, "in"))
    extended = extend_context(model, args.capacity, strategy=args.strategy,
                              seed=derive_seed(args.seed, "extend-tail"))
    save_model(extended, args.out)
    return Outcome(args.out, {"capacity": args.capacity, "strategy": args.strategy},
                   {"checkpoint": getattr(args, "in")}, seed=args.seed)


def cmd_quantize(args) -> Outcome:
    model = load_model(getattr(args, "in"))
    quantized = quantize_model(model, QuantPolicy(block_size=args.block_size))
    save_model(quantized, args.out)
    return Outcome(args.out, {"block_size": args.block_size}, {"checkpoint": getattr(args, "in")})


def cmd_embed(args) -> Outcome:
    model = load_model(args.model)
    records = parse_fasta(args.fasta)
    limit = args.residue_limit
    if limit is None:
        limit = model.config.max_positions - 2
    attention = model.config.attention
    if args.pool == "cls" and attention.mode == LOCAL:
        reach = model.config.num_layers * attention.window_k // 2
        if reach < limit:
            log.warning("--pool cls on local attention: after %d layers at window %d, CLS "
                        "depends on at most the first %d residues of each slice of up to %d",
                        model.config.num_layers, attention.window_k, reach, limit)
    embeddings, failures = embed_corpus(model, records, limit, pool=args.pool)
    write_store(args.out, embeddings, embed_dim=model.config.embed_dim)
    if args.tsv:
        write_store_tsv(args.tsv, embeddings)
    for pid, msg in failures:
        print(f"skipped {pid}: {msg}", file=sys.stderr)
    if failures:
        print(f"embedded {len(embeddings)} records, skipped {len(failures)}", file=sys.stderr)
    return Outcome(
        args.out,
        {"residue_limit": limit, "pool": args.pool, "model_tag": model_tag(model)},
        {"model": args.model, "fasta": args.fasta},
        extra={
            "records": len(embeddings),
            "skipped": [pid for pid, _ in failures],
            "slice_counts": {rec.protein_id: rec.slice_count for rec in embeddings},
        },
        code=1 if failures else 0,
    )


def cmd_train_head(args) -> Outcome:
    train_records, train_dim = read_store(args.embeddings)
    val_records, val_dim = read_store(args.val_embeddings)
    if train_dim != val_dim:
        raise ConfigError(f"train dim {train_dim} != validation dim {val_dim}")
    truth = load_annotations(args.truth)
    inputs = {"embeddings": args.embeddings, "val_embeddings": args.val_embeddings,
              "truth": args.truth}
    if args.ontology:
        graph = load_ontology(args.ontology, args.namespace)
        truth = close_truth(truth, graph)
        inputs["ontology"] = args.ontology
    num_terms = len(truth.annotated_terms())
    cfg = HeadConfig(
        input_dim=train_dim,
        num_terms=num_terms,
        hidden_dim=args.hidden,
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch,
        seed=args.seed,
    )
    metrics_log = str(args.out) + ".metrics.jsonl"
    head, metrics = train_head(train_records, truth, cfg, val_records, metrics_log=metrics_log)
    save_head(head, args.out)
    best = max(metrics, key=lambda r: r["val_fmax"])
    return Outcome(args.out, dataclasses.asdict(cfg), inputs, seed=args.seed,
                   extra={"best_epoch": best["epoch"], "best_val_fmax": best["val_fmax"]})


def cmd_predict(args) -> Outcome:
    head = load_head(args.head)
    records, dim = read_store(args.embeddings)
    if dim != head.config.input_dim:
        raise ConfigError(f"store dim {dim} != head input dim {head.config.input_dim}")
    scores = predict(head, records)
    inputs = {"head": args.head, "embeddings": args.embeddings}
    if args.close_scores:
        if not args.ontology:
            raise ConfigError("--close-scores requires --ontology")
        graph = load_ontology(args.ontology, args.namespace)
        scores = close_scores(scores, graph)
        inputs["ontology"] = args.ontology
    save_annotations(args.out, scores)
    return Outcome(args.out, {"close_scores": bool(args.close_scores)}, inputs,
                   extra={"proteins": len(scores)})


def cmd_eval(args) -> Outcome:
    pred = load_annotations(args.pred)
    truth = load_annotations(args.truth)
    pred_table = pred.from_binary
    digests = {"pred": pred.tsv_sha256, "truth": truth.tsv_sha256}
    graph = load_ontology(args.ontology, args.namespace)
    truth = close_truth(truth, graph)
    if args.close_scores:
        pred = close_scores(pred, graph)
    exclude = set()
    if args.exclude_roots:
        # A CAFA benchmark holds only proteins with a non-root term (Jiang et
        # al., Genome Biology 2016); a prediction outside the truth stays an error.
        exclude = {graph.root}
        dropped = {p for p in truth.proteins if set(truth[p]) <= exclude}
        truth = truth.rows(p for p in truth.proteins if p not in dropped)
        pred = pred.rows(p for p in pred.proteins if p not in dropped)
    inputs = {"pred": args.pred, "truth": args.truth, "ontology": args.ontology}
    if args.min_length is not None:
        if not args.fasta:
            raise ConfigError("--min-length needs --fasta to supply protein lengths")
        lengths = {rec.id: len(rec.sequence) for rec in parse_fasta(args.fasta)}
        inputs["fasta"] = args.fasta
        result = stratified_eval(pred, truth, lengths, args.min_length,
                                 namespace=args.namespace, exclude_terms=exclude)
    else:
        result = fmax(pred, truth, namespace=args.namespace, exclude_terms=exclude)
    if args.out:
        write_report(args.out, result)
    else:
        json.dump(result_to_json(result), sys.stdout, indent=2, sort_keys=True)
        print()
    if args.curve_tsv:
        write_curve_tsv(args.curve_tsv, result)
    print(f"fmax={result.fmax:.4f} tau_star={result.tau_star} n={result.n}", file=sys.stderr)
    return Outcome(args.out,
                   {"namespace": args.namespace, "min_length": args.min_length,
                    "close_scores": bool(args.close_scores),
                    "exclude_roots": bool(args.exclude_roots)},
                   inputs, extra={"pred_table": pred_table}, digests=digests)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eslong", description=__doc__)
    parser.add_argument("--version", action="version", version=f"eslong {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="masked-LM pre-training on a FASTA corpus")
    p.add_argument("--config", required=True, help="JSON config with model/train sections")
    p.add_argument("--fasta", required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--seed", type=int, default=None, help="overrides train.seed")
    p.add_argument("--init-from", default=None, help="adapt an existing checkpoint")
    p.add_argument("--lora-rank", type=int, default=None)
    p.add_argument("--lora-alpha", type=float, default=16.0)
    p.add_argument("--lora-families", default="attention",
                   help="comma list of attention,ffn,head")
    p.add_argument("--quantize-base", action="store_true",
                   help="train adapters over an int4 base")
    p.add_argument("--block-size", type=int, default=64)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("extend", help="grow the position table of a checkpoint")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--capacity", type=int, required=True)
    p.add_argument("--strategy", choices=["copy", "random"], default="copy")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("quantize", help="convert projection weights to int4")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--block-size", type=int, default=64)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("embed", help="extract per-protein embeddings from FASTA")
    p.add_argument("--model", required=True)
    p.add_argument("--fasta", required=True)
    p.add_argument("--out", required=True, help="embedding store output path")
    p.add_argument("--residue-limit", type=int, default=None,
                   help="slice length; defaults to model capacity minus CLS/EOS")
    # Accepted for old command lines and ignored: records embed one at a time.
    p.add_argument("--workers", type=int, default=1, help=argparse.SUPPRESS)
    p.add_argument("--pool", choices=["mean", "cls"], default="mean")
    p.add_argument("--tsv", default=None, help="optional TSV export path")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("train-head", help="train the multi-label classifier head")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--val-embeddings", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True, help="head checkpoint output path")
    p.add_argument("--ontology", default=None, help="close the truth before training")
    p.add_argument("--namespace", default="BPO")
    p.add_argument("--hidden", type=int, default=512)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train_head)

    p = sub.add_parser("predict", help="score proteins with a trained head")
    p.add_argument("--head", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True, help="annotation TSV output path")
    p.add_argument("--ontology", default=None)
    p.add_argument("--namespace", default="BPO")
    p.add_argument("--close-scores", action="store_true")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="Fmax report for predictions against truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--ontology", required=True)
    p.add_argument("--namespace", default="BPO")
    p.add_argument("--fasta", default=None, help="protein lengths for --min-length")
    p.add_argument("--min-length", type=int, default=None)
    p.add_argument("--close-scores", action="store_true")
    p.add_argument("--exclude-roots", action="store_true")
    p.add_argument("--out", default=None, help="JSON report path (stdout if omitted)")
    p.add_argument("--curve-tsv", default=None)
    p.set_defaults(func=cmd_eval)
    return parser


# A path that names no file, a directory where a file is wanted or the other
# way round, or a file that may not be read or written: invalid input.
_PATH_ERRORS = (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError)


def main(argv=None) -> int:
    _keep_freed_heap()
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Every non-finite result ends in an EslongError check, so NumPy's
        # float warnings would only print ahead of the one error line.
        with np.errstate(all="ignore"):
            started = time.monotonic()
            ran = args.func(args)
            if ran.out is not None:
                wall_ms = int((time.monotonic() - started) * 1000)
                write_manifest(ran.out, args.command, ran.config, ran.inputs, ran.seed,
                               wall_ms, ran.extra, ran.digests)
            return ran.code
    except (EslongError, *_PATH_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # NumPy's message names the allocation; a bare one has none
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
