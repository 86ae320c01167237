"""Multi-label classifier over protein embeddings.

A fixed one-hidden-layer network (affine -> GELU -> affine -> sigmoid) trained
with per-term binary cross-entropy computed in logit space, which stays stable
when num_terms x batch would underflow a naive sigmoid+log. The epoch whose
validation Fmax is highest is the one returned.

Truth comes in, and predictions go out, as `ontology.Annotations` tables:
`predict` fills one [records, terms] row per record, every term present.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from .checkpoint import array_entry, read_checkpoint, reject_unused, write_checkpoint
from .errors import ConfigError, DataError, InputError, json_fields, typed_config
from .evaluation import fmax
from .ontology import Annotations, as_annotations
from .parallel import cut, layer_pool
from .tensor_ops import gelu, gelu_grad
from .training import TrainConfig, check_loop, train_epochs


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
    # AdamW's other settings: fixed, so neither fields nor saved.
    beta1: ClassVar[float] = TrainConfig.beta1
    beta2: ClassVar[float] = TrainConfig.beta2
    eps: ClassVar[float] = TrainConfig.eps

    def __post_init__(self):
        if min(self.input_dim, self.num_terms, self.hidden_dim) < 1:
            raise ConfigError("head dimensions must be positive")
        check_loop(self)
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


def _stack(embeddings, dim: int) -> np.ndarray:
    """The [records, dim] float32 rows of embeddings, each checked for its dim."""
    x = np.empty((len(embeddings), dim), dtype=np.float32)
    for i, rec in enumerate(embeddings):
        if rec.vector.shape != (dim,):
            raise DataError(
                f"embedding {rec.protein_id!r} has dim {rec.vector.shape}, expected {dim}"
            )
        x[i] = rec.vector
    return x


def _matrices(embeddings, truth: Annotations, term_list, input_dim):
    x = _stack(embeddings, input_dim)
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
    row in truth.

    Each AdamW step updates the live parameters in place (see train_epochs),
    so an epoch whose validation Fmax is the best so far is kept as a copy;
    the returned head owns that copy. Every product runs on one OpenBLAS
    thread, set by parallel.layer_pool, so the weights' bits do not depend on
    the BLAS thread count."""
    truth = as_annotations(truth)
    term_list = truth.annotated_terms()
    if len(term_list) != cfg.num_terms:
        raise ConfigError(
            f"truth has {len(term_list)} distinct terms but config expects {cfg.num_terms}"
        )
    if not train_embeddings:
        raise DataError("the training store holds no records")
    if not val_embeddings:
        raise DataError("the validation store holds no records")
    layer_pool()  # sets OpenBLAS to one thread before the first product
    head = init_head(cfg, term_list)
    x_train, y_train = _matrices(train_embeddings, truth, term_list, cfg.input_dim)
    fit_standardizer(head, x_train)
    x_train = head.standardize(x_train)
    _check_annotated(val_embeddings, truth)
    val_truth = truth.rows(rec.protein_id for rec in val_embeddings)
    losses = []
    best = {"fmax": -1.0, "params": None}

    def batch_grads(params, indices):
        head.params = params  # so the head holds no earlier set during the step
        loss, grads = bce_loss_and_grads(params, x_train[indices], y_train[indices])
        losses.append(loss)
        return grads

    def end_epoch(params):
        head.params = params
        val_fmax = fmax(predict(head, val_embeddings), val_truth).fmax
        train_loss = float(np.mean(losses))
        losses.clear()
        if val_fmax > best["fmax"]:
            best.update(fmax=val_fmax, params={k: v.copy() for k, v in params.items()})
        return {"train_loss": train_loss, "val_fmax": val_fmax}

    _, metrics = train_epochs(head.params, len(x_train), cfg, "head-shuffle", batch_grads,
                              end_epoch, metrics_log)
    if best["params"] is not None:
        head.params = best["params"]
    return head, metrics


# Records per part of predict. Each pool thread keeps the peak of its own
# heap, so a part's [rows, terms] float64 temporaries are kept small: about
# 2 MB at 1,620 terms, where parts of 150 records raised the peak RSS by 9 MB.
_PREDICT_ROWS = 32


def predict(head: ClassifierHead, embeddings) -> Annotations:
    """Sigmoid scores of every head term for each record. The records are cut
    into parts of at most _PREDICT_ROWS, run on parallel.layer_pool with
    OpenBLAS at one thread, and each part runs as one stacked
    [records, 1, d] pass, whose matmuls take each record as its own product.
    So a record's scores depend neither on the other records nor on the
    worker or BLAS thread count. A record whose logits overflow to NaN is an
    InputError, never a NaN score."""
    embeddings = list(embeddings)
    n, dim = len(embeddings), head.config.input_dim
    x = _stack(embeddings, dim).reshape(n, 1, dim)
    scores = np.empty((n, head.config.num_terms))

    def score(rows):
        z = head_logits(head.params, head.standardize(x[rows]))[:, 0]
        scores[rows] = _sigmoid(z.astype(np.float64))

    layer_pool().run(score, cut(n, max(1, -(-n // _PREDICT_ROWS))))
    bad = np.isnan(scores).any(axis=1)
    if bad.any():
        rec = embeddings[int(bad.argmax())]
        raise InputError(f"embedding {rec.protein_id!r} overflows the head to NaN scores")
    return Annotations(tuple(rec.protein_id for rec in embeddings), head.term_list, scores)


def save_head(head: ClassifierHead, path) -> None:
    config = {"head": asdict(head.config), "term_list": list(head.term_list)}
    tensors = dict(head.params)
    if head.feat_center is not None:
        tensors["feat_center"] = head.feat_center
        tensors["feat_scale"] = head.feat_scale
    write_checkpoint(path, tensors, config)


def load_head(path) -> ClassifierHead:
    """The head save_head wrote, with every field and tensor checked against
    the config: a missing, unknown, unused, ill-typed or wrong-shaped entry is
    a ConfigError or FormatError."""
    tensors, config = read_checkpoint(path)
    config = json_fields(config, "head checkpoint config", ("head", "term_list"))
    cfg = typed_config(HeadConfig, config["head"], "head config", complete=True)
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
