"""Batch command-line surface: pretrain, extend, quantize, embed, train-head,
predict, and eval.

Exit codes: 0 success, 1 partial success (some records skipped, reported on
stderr), 2 invalid input or configuration. Every command writes a manifest
next to its primary output. Set ESLONG_LOG=DEBUG|INFO|WARNING for verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time

import numpy as np

from . import __version__
from .attention import GLOBAL, LOCAL
from .encoder import (
    DEFAULT_VOCAB,
    build_model,
    config_from_json,
    config_to_json,
    extend_context,
    json_fields,
    load_model,
    model_tag,
    preset_config,
    save_model,
)
from .errors import ConfigError, EslongError
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
from .training import TrainConfig, attach_lora, derive_seed, lora_target_names, pretrain

log = logging.getLogger("eslong")


def _configure_logging() -> None:
    level = os.environ.get("ESLONG_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


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


_MODEL_DIMS = ("num_layers", "num_heads", "embed_dim", "ffn_dim", "max_positions")


def _model_config_from_dict(data: dict):
    """The config file's model section: a preset name or explicit dimensions,
    plus optional max_positions, attention_mode and window_k."""
    model = json_fields(data.get("model", {}), "config 'model'", (),
                        ("preset", "attention_mode", "window_k") + _MODEL_DIMS)
    fields = {key: model[key] for key in _MODEL_DIMS if key in model}
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
    mode = model.get("attention_mode", GLOBAL)
    window_k = model.get("window_k") if mode == LOCAL else None
    fields["attention"] = {"mode": mode, "window_k": window_k}
    return config_from_json(fields)


def _train_config_from_dict(data: dict, seed_override: int | None) -> TrainConfig:
    types = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    train = dict(json_fields(data.get("train", {}), "config 'train'", (), tuple(types)))
    for key, value in train.items():
        kind = int if types[key] == "int" else (int, float)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"train config {key!r} must be {types[key]}, got {value!r}")
    if seed_override is not None:
        train["seed"] = seed_override
    return TrainConfig(**train)


def cmd_pretrain(args) -> int:
    started = time.monotonic()
    config_data = _load_config_file(args.config)
    train_cfg = _train_config_from_dict(config_data, args.seed)
    records = parse_fasta(args.fasta)
    if args.init_from:
        model = load_model(args.init_from)
    else:
        model_cfg = _model_config_from_dict(config_data)
        model = build_model(model_cfg, derive_seed(train_cfg.seed, "init"))
    if args.quantize_base:
        if not args.lora_rank:
            raise ConfigError("--quantize-base requires --lora-rank (the base is frozen)")
        model = quantize_model(model, QuantPolicy(block_size=args.block_size))
    if args.lora_rank:
        targets = lora_target_names(model.config, families=tuple(args.lora_families.split(",")))
        model = attach_lora(model, targets, rank=args.lora_rank, alpha=args.lora_alpha,
                            seed=derive_seed(train_cfg.seed, "lora-init"))
    capacity = model.config.max_positions - 2
    corpus = [piece for rec in records for piece in segment(rec.sequence, capacity)]
    log.info("pretraining on %d segments from %d proteins", len(corpus), len(records))
    run_log = str(args.out) + ".runlog.jsonl"
    trained, curve = pretrain(model, corpus, train_cfg, run_log=run_log)
    save_model(trained, args.out)
    write_manifest(
        args.out,
        command="pretrain",
        config={"train": dataclasses.asdict(train_cfg), "model": _serializable_model_config(trained)},
        inputs={"fasta": args.fasta, "config": args.config},
        seed=train_cfg.seed,
        wall_ms=int((time.monotonic() - started) * 1000),
        extra={"epochs": len(curve), "loss_curve": curve},
    )
    return 0


def _serializable_model_config(model) -> dict:
    cfg = config_to_json(model.config)
    cfg.pop("vocab", None)  # digest-relevant config only; vocab lives in the checkpoint
    return cfg


def cmd_extend(args) -> int:
    started = time.monotonic()
    model = load_model(getattr(args, "in"))
    extended = extend_context(model, args.capacity, strategy=args.strategy,
                              seed=derive_seed(args.seed, "extend-tail"))
    save_model(extended, args.out)
    write_manifest(
        args.out,
        command="extend",
        config={"capacity": args.capacity, "strategy": args.strategy},
        inputs={"checkpoint": getattr(args, "in")},
        seed=args.seed,
        wall_ms=int((time.monotonic() - started) * 1000),
    )
    return 0


def cmd_quantize(args) -> int:
    started = time.monotonic()
    model = load_model(getattr(args, "in"))
    quantized = quantize_model(model, QuantPolicy(block_size=args.block_size))
    save_model(quantized, args.out)
    write_manifest(
        args.out,
        command="quantize",
        config={"block_size": args.block_size},
        inputs={"checkpoint": getattr(args, "in")},
        seed=None,
        wall_ms=int((time.monotonic() - started) * 1000),
    )
    return 0


def cmd_embed(args) -> int:
    started = time.monotonic()
    model = load_model(args.model)
    records = parse_fasta(args.fasta)
    limit = args.residue_limit
    if limit is None:
        limit = model.config.max_positions - 2
    embeddings, failures = embed_corpus(model, records, limit, pool=args.pool)
    write_store(args.out, embeddings, embed_dim=model.config.embed_dim)
    if args.tsv:
        write_store_tsv(args.tsv, embeddings)
    write_manifest(
        args.out,
        command="embed",
        config={"residue_limit": limit, "pool": args.pool, "model_tag": model_tag(model)},
        inputs={"model": args.model, "fasta": args.fasta},
        seed=None,
        wall_ms=int((time.monotonic() - started) * 1000),
        extra={
            "records": len(embeddings),
            "skipped": [pid for pid, _ in failures],
            "slice_counts": {rec.protein_id: rec.slice_count for rec in embeddings},
        },
    )
    if failures:
        for pid, msg in failures:
            print(f"skipped {pid}: {msg}", file=sys.stderr)
        print(f"embedded {len(embeddings)} records, skipped {len(failures)}", file=sys.stderr)
        return 1
    return 0


def cmd_train_head(args) -> int:
    started = time.monotonic()
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
    num_terms = len({t for terms in truth.values() for t in terms})
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
    write_manifest(
        args.out,
        command="train-head",
        config=dataclasses.asdict(cfg),
        inputs=inputs,
        seed=args.seed,
        wall_ms=int((time.monotonic() - started) * 1000),
        extra={"best_epoch": best["epoch"], "best_val_fmax": best["val_fmax"]},
    )
    return 0


def cmd_predict(args) -> int:
    started = time.monotonic()
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
    write_manifest(
        args.out,
        command="predict",
        config={"close_scores": bool(args.close_scores)},
        inputs=inputs,
        seed=None,
        wall_ms=int((time.monotonic() - started) * 1000),
        extra={"proteins": len(scores)},
    )
    return 0


def cmd_eval(args) -> int:
    started = time.monotonic()
    pred = load_annotations(args.pred)
    truth = load_annotations(args.truth)
    graph = load_ontology(args.ontology, args.namespace)
    truth = close_truth(truth, graph)
    if args.close_scores:
        pred = close_scores(pred, graph)
    exclude = {graph.root} if args.exclude_roots else set()
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
        if args.curve_tsv:
            write_curve_tsv(args.curve_tsv, result)
        write_manifest(
            args.out,
            command="eval",
            config={"namespace": args.namespace, "min_length": args.min_length,
                    "close_scores": bool(args.close_scores),
                    "exclude_roots": bool(args.exclude_roots)},
            inputs=inputs,
            seed=None,
            wall_ms=int((time.monotonic() - started) * 1000),
        )
    else:
        json.dump(result_to_json(result), sys.stdout, indent=2, sort_keys=True)
        print()
    print(f"fmax={result.fmax:.4f} tau_star={result.tau_star} n={result.n}", file=sys.stderr)
    return 0


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


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Every non-finite result ends in an EslongError check, so NumPy's
        # float warnings would only print ahead of the one error line.
        with np.errstate(all="ignore"):
            return args.func(args)
    except EslongError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
