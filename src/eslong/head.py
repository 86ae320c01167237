"""Multi-label classifier over protein embeddings.

A fixed one-hidden-layer network (affine -> GELU -> affine -> sigmoid) trained
with per-term binary cross-entropy computed in logit space, which stays stable
when num_terms x batch would underflow a naive sigmoid+log. The epoch whose
validation Fmax is highest is the one returned.

Truth comes in, and predictions go out, as `ontology.Annotations` tables:
`predict` fills one [records, terms] row per record, every term present.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .checkpoint import read_checkpoint, write_checkpoint
from .encoder import array_entry, finite_number, json_fields, positive_int, reject_unused
from .errors import ConfigError, DataError, InputError
from .evaluation import fmax
from .ontology import Annotations, as_annotations
from .tensor_ops import gelu, gelu_grad
from .training import TrainConfig, adamw_step, derive_seed, init_adam_state


@dataclass(frozen=True)
class HeadConfig:
    input_dim: int
    num_terms: int
    hidden_dim: int = 512
    learning_rate: float = 1e-3
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0
    weight_decay: float = 0.0

    def __post_init__(self):
        if min(self.input_dim, self.num_terms, self.hidden_dim) < 1:
            raise ConfigError("head dimensions must be positive")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if finite_number(self.learning_rate, "learning_rate") <= 0:
            raise ConfigError("learning_rate must be positive")
        if finite_number(self.weight_decay, "weight_decay") < 0:
            raise ConfigError("weight_decay must not be negative")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


@dataclass
class ClassifierHead:
    config: HeadConfig
    term_list: tuple[str, ...]
    params: dict[str, np.ndarray]  # W1 [in, hidden], b1, W2 [hidden, terms], b2
    # Input standardization fitted on the training store. Encoder embeddings
    # carry a large class-independent offset (mean-pooled layer-norm outputs),
    # so the raw coordinates barely vary; standardizing folds into the first
    # affine layer and leaves the affine-GELU-affine-sigmoid shape intact.
    feat_center: np.ndarray | None = None
    feat_scale: np.ndarray | None = None

    def standardize(self, x: np.ndarray) -> np.ndarray:
        if self.feat_center is None:
            return x
        return (x - self.feat_center) / self.feat_scale


def fit_standardizer(head: ClassifierHead, x: np.ndarray) -> None:
    center = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale < 1e-8] = 1.0
    head.feat_center = center.astype(np.float32)
    head.feat_scale = scale.astype(np.float32)


def init_head(cfg: HeadConfig, term_list, seed: int | None = None) -> ClassifierHead:
    term_list = tuple(term_list)
    if len(term_list) != cfg.num_terms:
        raise ConfigError(f"term list has {len(term_list)} terms, config says {cfg.num_terms}")
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    params = {
        "W1": rng.normal(0.0, 0.02, size=(cfg.input_dim, cfg.hidden_dim)).astype(np.float32),
        "b1": np.zeros(cfg.hidden_dim, dtype=np.float32),
        "W2": rng.normal(0.0, 0.02, size=(cfg.hidden_dim, cfg.num_terms)).astype(np.float32),
        "b2": np.zeros(cfg.num_terms, dtype=np.float32),
    }
    return ClassifierHead(config=cfg, term_list=term_list, params=params)


def head_logits(params: dict[str, np.ndarray], x: np.ndarray, want_cache: bool = False):
    z1 = x @ params["W1"] + params["b1"]
    h, cdf = gelu(z1, return_cdf=True)
    z2 = h @ params["W2"] + params["b2"]
    if want_cache:
        return z2, (z1, h, cdf)
    return z2


def bce_loss_and_grads(params, x, y):
    """Mean logit-space binary cross-entropy over batch x terms, with gradients.

    e = exp(-|z|) is the one exp the loss max(z, 0) - z y + log1p(e) and the
    sigmoid where(z >= 0, 1, e) / (1 + e) take. The [batch, terms] work runs
    in place in the logits and three buffers, with the float ops of those
    expressions and of d_z = (sigmoid(z) - y) / count in the same order, so
    the bits are those of whole-array expressions. params, x and y share one
    dtype.
    """
    z2, (z1, h, cdf) = head_logits(params, x, want_cache=True)
    count = z2.size
    e = np.abs(z2)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d_z2 = np.where(z2 >= 0, 1, e)
    buf = np.add(e, 1)
    d_z2 /= buf
    d_z2 -= y
    d_z2 /= count
    # The loss last: nothing reads z2 after it, so z2 takes its terms.
    np.multiply(z2, y, out=buf)
    np.maximum(z2, 0.0, out=z2)
    z2 -= buf
    z2 += np.log1p(e, out=e)
    loss = float(z2.sum() / count)
    grads = {
        "W2": h.T @ d_z2,
        "b2": d_z2.sum(axis=0),
    }
    d_z1 = d_z2 @ params["W2"].T
    d_z1 *= gelu_grad(z1, cdf)
    grads["W1"] = x.T @ d_z1
    grads["b1"] = d_z1.sum(axis=0)
    return loss, grads


def _sigmoid(z, e=None):
    """1 / (1 + exp(-z)) where z >= 0 and exp(z) / (1 + exp(z)) elsewhere, so no
    exp overflows; e, when given, is exp(-|z|), the one exp both forms take."""
    if e is None:
        e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1, e) / (1 + e)


def _check_annotated(embeddings, truth: Annotations) -> None:
    for rec in embeddings:
        if rec.protein_id not in truth:
            raise DataError(f"embedding {rec.protein_id!r} has no ground-truth annotation")


def _matrices(embeddings, truth: Annotations, term_list, input_dim):
    x = np.zeros((len(embeddings), input_dim), dtype=np.float32)
    for i, rec in enumerate(embeddings):
        if rec.vector.shape != (input_dim,):
            raise DataError(
                f"embedding {rec.protein_id!r} has dim {rec.vector.shape}, expected {input_dim}"
            )
        x[i] = rec.vector
    _check_annotated(embeddings, truth)
    rows = [truth.protein_index[rec.protein_id] for rec in embeddings]
    cols = [truth.term_index[t] for t in term_list]
    y = (truth.scores[np.ix_(rows, cols)] > 0).astype(np.float32)
    return x, y


def train_head(train_embeddings, truth, cfg: HeadConfig, val_embeddings, metrics_log=None):
    """Train on the training store, score validation Fmax each epoch, and keep
    the best-epoch weights. Returns (head, per-epoch metrics list).

    truth is a table or a dict (see `ontology.as_annotations`); the head
    predicts every term it annotates, and a term counts as a positive label
    where its score is above 0. Every training and validation record needs a
    row in truth."""
    truth = as_annotations(truth)
    term_list = truth.annotated_terms()
    if len(term_list) != cfg.num_terms:
        raise ConfigError(
            f"truth has {len(term_list)} distinct terms but config expects {cfg.num_terms}"
        )
    head = init_head(cfg, term_list)
    x_train, y_train = _matrices(train_embeddings, truth, term_list, cfg.input_dim)
    fit_standardizer(head, x_train)
    x_train = head.standardize(x_train)
    _check_annotated(val_embeddings, truth)
    val_truth = truth.rows(rec.protein_id for rec in val_embeddings)
    opt_cfg = TrainConfig(
        epochs=cfg.epochs,
        learning_rate=cfg.learning_rate,
        weight_decay=cfg.weight_decay,
        mask_fraction=0.0,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
    )
    state = init_adam_state(head.params)
    shuffle_rng = np.random.default_rng(derive_seed(cfg.seed, "head-shuffle"))
    best = {"fmax": -1.0, "epoch": 0, "params": None}
    metrics = []
    log_fh = open(metrics_log, "w", encoding="utf-8") if metrics_log else None
    try:
        for epoch in range(1, cfg.epochs + 1):
            started = time.monotonic()
            order = shuffle_rng.permutation(len(x_train))
            losses = []
            for lo in range(0, len(order), cfg.batch_size):
                idx = order[lo: lo + cfg.batch_size]
                loss, grads = bce_loss_and_grads(head.params, x_train[idx], y_train[idx])
                head.params, state = adamw_step(head.params, grads, state, opt_cfg)
                losses.append(loss)
            val_pred = predict(head, val_embeddings)
            val_result = fmax(val_pred, val_truth)
            record = {
                "epoch": epoch,
                "train_loss": float(np.mean(losses)) if losses else 0.0,
                "val_fmax": val_result.fmax,
                "wall_ms": int((time.monotonic() - started) * 1000),
            }
            metrics.append(record)
            if log_fh:
                log_fh.write(json.dumps(record) + "\n")
            if val_result.fmax > best["fmax"]:
                # adamw_step never writes an array it returned: no copy needed.
                best = {"fmax": val_result.fmax, "epoch": epoch, "params": head.params}
    finally:
        if log_fh:
            log_fh.close()
    if best["params"] is not None:
        head.params = best["params"]
    return head, metrics


def predict(head: ClassifierHead, embeddings) -> Annotations:
    """Sigmoid scores of every head term for each record. All records run in
    one stacked [records, 1, d] pass, whose matmuls take each record as its
    own product, so a record's scores do not depend on the others. A record
    whose logits overflow to NaN is an InputError, never a NaN score."""
    embeddings = list(embeddings)
    x = np.empty((len(embeddings), 1, head.config.input_dim), dtype=np.float32)
    for i, rec in enumerate(embeddings):
        if rec.vector.shape != (head.config.input_dim,):
            raise DataError(
                f"embedding {rec.protein_id!r} has dim {rec.vector.shape}, "
                f"expected {head.config.input_dim}"
            )
        x[i, 0] = rec.vector
    z = head_logits(head.params, head.standardize(x))[:, 0]
    scores = _sigmoid(z.astype(np.float64))
    bad = np.isnan(scores).any(axis=1)
    if bad.any():
        rec = embeddings[int(bad.argmax())]
        raise InputError(f"embedding {rec.protein_id!r} overflows the head to NaN scores")
    return Annotations(tuple(rec.protein_id for rec in embeddings), head.term_list, scores)


def save_head(head: ClassifierHead, path) -> None:
    config = {
        "head": {
            "input_dim": head.config.input_dim,
            "num_terms": head.config.num_terms,
            "hidden_dim": head.config.hidden_dim,
            "learning_rate": head.config.learning_rate,
            "epochs": head.config.epochs,
            "batch_size": head.config.batch_size,
            "seed": head.config.seed,
            "weight_decay": head.config.weight_decay,
        },
        "term_list": list(head.term_list),
    }
    tensors = dict(head.params)
    if head.feat_center is not None:
        tensors["feat_center"] = head.feat_center
        tensors["feat_scale"] = head.feat_scale
    write_checkpoint(path, tensors, config)


_HEAD_INTS = ("input_dim", "num_terms", "hidden_dim", "epochs", "batch_size")
_HEAD_NUMBERS = ("learning_rate", "weight_decay")


def load_head(path) -> ClassifierHead:
    """The head save_head wrote, with every field and tensor checked against
    the config: a missing, unknown, unused, ill-typed or wrong-shaped entry is
    a ConfigError or FormatError."""
    tensors, config = read_checkpoint(path)
    config = json_fields(config, "head checkpoint config", ("head", "term_list"))
    fields = json_fields(config["head"], "head config", _HEAD_INTS + _HEAD_NUMBERS + ("seed",))
    values = {key: positive_int(fields[key], f"head config {key!r}") for key in _HEAD_INTS}
    values.update({key: finite_number(fields[key], f"head config {key!r}")
                   for key in _HEAD_NUMBERS})
    seed = fields["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"head config 'seed' must be an integer, got {seed!r}")
    cfg = HeadConfig(**values, seed=seed)
    terms = config["term_list"]
    if (not isinstance(terms, list) or not all(isinstance(t, str) for t in terms)
            or len(set(terms)) != len(terms) or len(terms) != cfg.num_terms):
        raise ConfigError(f"head term_list must hold {cfg.num_terms} distinct strings")
    shapes = {"W1": (cfg.input_dim, cfg.hidden_dim), "b1": (cfg.hidden_dim,),
              "W2": (cfg.hidden_dim, cfg.num_terms), "b2": (cfg.num_terms,)}
    params = {name: array_entry(tensors, name, shape) for name, shape in shapes.items()}
    center = scale = None
    if "feat_center" in tensors or "feat_scale" in tensors:
        center = array_entry(tensors, "feat_center", (cfg.input_dim,))
        scale = array_entry(tensors, "feat_scale", (cfg.input_dim,))
    reject_unused(tensors, [*shapes, "feat_center", "feat_scale"])
    return ClassifierHead(config=cfg, term_list=tuple(terms), params=params,
                          feat_center=center, feat_scale=scale)
