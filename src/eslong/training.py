"""Masked-LM pre-training with AdamW and optional LoRA adapters.

The backward pass is hand-derived (no autodiff), which is what makes the
finite-difference gradient suite in the tests meaningful; each layer's part
is encoder.layer_backward, the one reader of the layer cache. The sequences
of a batch run on parallel.layer_pool, which leaves OpenBLAS at one thread,
and each adds to a gradient only after every earlier sequence has, so
gradients, losses and checkpoints have a serial loop's bits for any number
of workers or BLAS threads.
All randomness derives from one seed through named sub-streams.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

# LoraAdapter and lora_target_names live in encoder and are exported from here too.
from .encoder import (
    DEFAULT_VOCAB,
    EncoderModel,
    LoraAdapter,
    _dense_weight,
    forward,
    layer_backward,
    lora_target_names,
    mlm_logits,
    param_names,
    tokenize,
)
from .errors import ConfigError, ContractError, finite_number
from .parallel import layer_pool
from .quant import QUANTIZABLE_FAMILIES, QuantizedTensor, param_family
from .tensor_ops import layer_norm_grad


def derive_seed(seed: int, stream: str) -> int:
    """Stable 63-bit sub-seed for a named random stream."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def check_loop(cfg) -> None:
    """The range checks of what train_epochs and adamw_step read from cfg."""
    if cfg.epochs < 1:
        raise ConfigError("epochs must be >= 1")
    if cfg.batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    if finite_number(cfg.learning_rate, "learning_rate") <= 0:
        raise ConfigError("learning_rate must be positive")
    for name in ("beta1", "beta2"):
        if not 0.0 <= finite_number(getattr(cfg, name), name) < 1.0:
            raise ConfigError(f"{name} must lie in [0, 1)")
    if finite_number(cfg.eps, "eps") <= 0:
        raise ConfigError("eps must be positive")
    if finite_number(cfg.weight_decay, "weight_decay") < 0:
        raise ConfigError("weight_decay must not be negative")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    learning_rate: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    mask_fraction: float = 0.15
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        check_loop(self)
        if not 0.0 <= finite_number(self.mask_fraction, "mask_fraction") < 1.0:
            raise ConfigError("mask_fraction must lie in [0, 1)")


def mask_batch(batch, cfg: TrainConfig, rng, vocab=DEFAULT_VOCAB):
    """BERT-style corruption of residue positions (never CLS/EOS/PAD).

    Each residue is selected with probability mask_fraction; of the selected,
    80% become MASK, 10% a random canonical residue, 10% stay unchanged. The
    original ids of selected positions are returned as labels. Sequences with
    no residues are passed through with an empty label list.
    """
    if not batch:
        raise ContractError("batch must be nonempty")
    masked_batch = []
    labels = []
    for tokens in batch:
        toks = list(tokens)
        seq_labels: list[tuple[int, int]] = []
        residue_positions = [i for i, t in enumerate(toks) if vocab.is_residue(t)]
        if residue_positions and cfg.mask_fraction > 0:
            m = len(residue_positions)
            selected = rng.random(m) < cfg.mask_fraction
            actions = rng.random(m)
            randoms = rng.integers(0, len(vocab.canonical_ids), size=m)
            for j, pos in enumerate(residue_positions):
                if not selected[j]:
                    continue
                seq_labels.append((pos, toks[pos]))
                if actions[j] < 0.8:
                    toks[pos] = vocab.mask_id
                elif actions[j] < 0.9:
                    toks[pos] = vocab.canonical_ids[randoms[j]]
        masked_batch.append(toks)
        labels.append(seq_labels)
    return masked_batch, labels


def trainable_keys(model: EncoderModel) -> list[str]:
    """Adapter tensors when adapters are attached (base frozen), otherwise every
    dense base weight; quantized tensors are never trainable."""
    if model.adapters:
        keys = []
        for target in sorted(model.adapters):
            keys += [f"adapters.{target}.A", f"adapters.{target}.B"]
        return keys
    return [
        name
        for name in param_names(model.config)
        if not isinstance(model.params[name], QuantizedTensor)
    ]


def get_trainable(model: EncoderModel) -> dict[str, np.ndarray]:
    out = {}
    for key in trainable_keys(model):
        if key.startswith("adapters."):
            target = key[len("adapters."):-2]
            out[key] = getattr(model.adapters[target], key[-1])
        else:
            out[key] = model.params[key]
    return out


def with_trainable(model: EncoderModel, values: dict[str, np.ndarray]) -> EncoderModel:
    """A new model whose trainable tensors are values (keyed as get_trainable
    keys them); every other tensor is shared with model, never copied."""
    if model.adapters:
        adapters = {target: replace(ad, A=values[f"adapters.{target}.A"],
                                    B=values[f"adapters.{target}.B"])
                    for target, ad in model.adapters.items()}
        return replace(model, adapters=adapters)
    return replace(model, params={**model.params, **values})


class _Abandoned(Exception):
    """An earlier sequence of the batch raised, so this one cannot add its
    gradients in turn; mlm_loss re-raises the earlier error."""


class _Backprop:
    """Accumulates gradients for one model across the sequences of a batch.

    The sequences, numbered in input order, may run on different threads.
    Sequence s adds to a gradient only after sequence s - 1 has, so every sum
    has the bits of a serial loop. Each sequence adds to each gradient once.
    The sums go into grads, keyed as get_trainable keys the model's tensors,
    or into a zeroed set made here when grads is None.
    """

    def __init__(self, model: EncoderModel, grads=None):
        self.model = model
        self.base_trainable = not model.adapters
        if grads is None:
            grads = {k: np.zeros_like(v) for k, v in get_trainable(model).items()}
        elif sorted(grads) != sorted(trainable_keys(model)):
            raise ContractError("grads must hold one array per trainable tensor")
        self.grads = grads
        # The pool the forward uses; the backward runs its parts on it too.
        self.pool = layer_pool()
        self._dense = {}
        self._dense_lock = threading.Lock()
        self._added = dict.fromkeys(self.grads, 0)  # sequences that have added, per key
        self._turns = threading.Condition()
        self._failed = math.inf  # the first sequence that raised

    def dense(self, name: str) -> np.ndarray:
        # Under the lock, every thread waits for one decode or adapter fold.
        with self._dense_lock:
            if name not in self._dense:
                self._dense[name] = _dense_weight(self.model, name, self.model.dtype)
            return self._dense[name]

    @contextmanager
    def _turn(self, key: str, seq: int):
        """grads[key], once every sequence before seq has added to it."""
        with self._turns:
            while self._added[key] < seq:
                if self._failed < seq:
                    raise _Abandoned
                self._turns.wait()
        yield self.grads[key]
        with self._turns:
            self._added[key] = seq + 1
            self._turns.notify_all()

    def abandon(self, seq: int) -> None:
        """Sequence seq raised: the later ones stop waiting for their turns."""
        with self._turns:
            self._failed = min(self._failed, seq)
            self._turns.notify_all()

    def _acc(self, seq: int, key: str, value: np.ndarray) -> None:
        if key in self.grads:
            with self._turn(key, seq) as grad:
                grad += value

    def proj_backward(self, seq: int, name: str, x_in: np.ndarray,
                      d_out: np.ndarray) -> np.ndarray:
        """Backward of out = x_in @ W_eff with W_eff = W + (alpha/r) A^T B^T.

        d_out @ W_eff^T, with dense(name) the W_eff the forward used, and,
        when W or its adapter trains, x_in^T @ d_out run as two parts on the
        pool, each product whole on one thread."""
        adapter = self.model.adapters.get(name)
        products = [None, None]

        def product(i):
            products[i] = d_out @ self.dense(name).T if i == 0 else x_in.T @ d_out

        self.pool.run(product, [0, 1] if adapter is not None or name in self.grads else [0])
        d_x, g = products
        if name in self.grads:
            self._acc(seq, name, g)
        if adapter is not None:
            s = adapter.alpha / adapter.rank
            self._acc(seq, f"adapters.{name}.A", s * (g @ adapter.B).T)
            self._acc(seq, f"adapters.{name}.B", s * (g.T @ adapter.A.T))
        return d_x

    def sequence_backward(self, cache: dict, d_logits: np.ndarray, seq: int) -> None:
        """Adds sequence seq's gradients, one encoder.layer_backward per layer,
        which releases each layer's cache once its gradients are taken. The
        hidden states and the final layer norm's cache are released once that
        norm's gradient is taken, before the layers'."""
        model = self.model
        proj, acc = partial(self.proj_backward, seq), partial(self._acc, seq)
        d_hidden = proj("mlm_head", cache.pop("hidden"), d_logits)
        d_x, d_gf, d_bf = layer_norm_grad(d_hidden, cache.pop("lnf"),
                                          model.params["final_ln.gain"])
        del d_hidden
        acc("final_ln.gain", d_gf)
        acc("final_ln.bias", d_bf)
        for i in reversed(range(model.config.num_layers)):
            d_x = layer_backward(model, i, cache["layers"].pop(), d_x, proj, acc, self.pool)
        if self.base_trainable:
            tok = cache["tok"]
            with self._turn("token_embedding", seq) as grad:
                np.add.at(grad, tok, d_x)
            with self._turn("position_embedding", seq) as grad:
                grad[: tok.size] += d_x


def mlm_loss(model: EncoderModel, masked_batch, labels, grads=None):
    """Mean cross-entropy over all labeled positions, plus gradients for every
    trainable tensor (summed over the batch in input order).

    The gradients are added into grads, one array per get_trainable key,
    which are returned; without grads they go into a zeroed set made here.

    The labeled sequences are the parts of one layer_pool().run, taken in
    input order, with OpenBLAS at one thread: each thread runs a sequence's
    forward, loss and backward. Up to `workers` sequence caches are alive at
    once. If a sequence raises, the later ones stop at their next turn and
    the first error, in input order, is raised.
    """
    total_labels = sum(len(seq_labels) for seq_labels in labels)
    if total_labels == 0:
        raise ContractError("mlm_loss needs at least one labeled position")
    bp = _Backprop(model) if grads is None else _Backprop(model, grads)
    labeled = [(tokens, seq_labels) for tokens, seq_labels in zip(masked_batch, labels)
               if seq_labels]
    losses = [0.0] * len(labeled)

    def run_sequence(seq: int) -> None:
        tokens, seq_labels = labeled[seq]
        try:
            hidden, cache = forward(model, tokens, want_cache=True)
            logits = mlm_logits(model, hidden)
            del hidden  # the cache's reference goes in sequence_backward
            positions = np.array([p for p, _ in seq_labels], dtype=np.int64)
            targets = np.array([t for _, t in seq_labels], dtype=np.int64)
            z = logits[positions]
            zmax = z.max(axis=1, keepdims=True)
            lse = zmax + np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
            losses[seq] = float((lse[:, 0] - z[np.arange(len(targets)), targets]).sum())
            d_lab = np.exp(z - lse)
            d_lab[np.arange(len(targets)), targets] -= 1.0
            d_lab /= total_labels
            d_logits = np.zeros_like(logits)
            d_logits[positions] = d_lab
            bp.sequence_backward(cache, d_logits, seq)
        except BaseException:
            bp.abandon(seq)
            raise

    layer_pool().run(run_sequence, range(len(labeled)))
    loss_sum = 0.0
    for loss in losses:  # in input order, as a serial loop adds them
        loss_sum += loss
    return loss_sum / total_labels, bp.grads


def init_adam_state(params: dict[str, np.ndarray]) -> dict:
    """Zero moments, C-ordered so adamw_step can update them in place, and an
    empty set of parameter buffers, which the first step fills."""
    return {
        "t": 0,
        "m": {k: np.zeros(v.shape, v.dtype) for k, v in params.items()},
        "v": {k: np.zeros(v.shape, v.dtype) for k, v in params.items()},
        "params": {},
    }


# Elements per pass: 32K float32 (128 KB) keeps each operand of a pass in L2.
_ADAM_CHUNK = 1 << 15


def adamw_step(params, grads, state, cfg):
    """Decoupled-decay Adam update with bias correction; returns (new params, state).

    cfg is a TrainConfig or a HeadConfig: the step reads learning_rate,
    beta1, beta2, eps and weight_decay.

    The moments in state (from init_adam_state) are updated in place, and
    state itself is returned. The new parameters go into buffers that state
    owns, state["params"], made at the first step; the dict returned is that
    one. grads is only read, and so is params unless it is that dict: the
    first step reads the caller's parameters and never writes them, and a
    step given the arrays the last step returned updates them in place. So
    an array this function returned is rewritten by the next step, and a
    caller that keeps one across steps copies it. Each tensor runs one pass
    over chunks of _ADAM_CHUNK elements, with the float ops of
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    p' = p (1 - lr wd) - lr (m / bc1) / (sqrt(v / bc2) + eps) in that order,
    so the bits are those of the same expressions on whole tensors, in place
    or not.
    """
    t = state["t"] + 1
    lr = cfg.learning_rate
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    decay = 1.0 - lr * cfg.weight_decay
    size = min(_ADAM_CHUNK, max((p.size for p in params.values()), default=0))
    buffers = {}  # two chunk buffers per dtype
    new_params = state["params"]
    for key, p in params.items():
        m, v = state["m"][key], state["v"][key]
        if key not in new_params:
            new_params[key] = np.empty(p.shape, p.dtype)
        out = new_params[key]
        if p.dtype not in buffers:
            buffers[p.dtype] = (np.empty(size, p.dtype), np.empty(size, p.dtype))
        a_buf, b_buf = buffers[p.dtype]
        flat = (p.reshape(-1), grads[key].reshape(-1), m.reshape(-1), v.reshape(-1),
                out.reshape(-1))
        for lo in range(0, p.size, _ADAM_CHUNK):
            pc, gc, mc, vc, oc = (f[lo: lo + _ADAM_CHUNK] for f in flat)
            a, b = a_buf[: pc.size], b_buf[: pc.size]
            mc *= b1
            mc += np.multiply(gc, 1.0 - b1, out=a)
            np.multiply(gc, gc, out=a)
            a *= 1.0 - b2
            vc *= b2
            vc += a
            np.divide(vc, bc2, out=a)
            np.sqrt(a, out=a)
            a += cfg.eps
            np.divide(mc, bc1, out=b)
            b /= a
            b *= lr
            np.multiply(pc, decay, out=oc)
            oc -= b
    state["t"] = t
    return new_params, state


def train_epochs(params, count: int, cfg, stream: str, batch_grads, end_epoch, log_path):
    """The AdamW epoch loop both trainers share; returns (final params, records).

    Each epoch shuffles range(count) with the cfg.seed sub-stream named stream
    and walks it in batches of cfg.batch_size. batch_grads(params, indices)
    returns the batch's gradients, or None to skip the batch; it may return
    the same arrays each time, since each step has read them before the next
    batch runs. After each epoch, end_epoch(params) gives that epoch's record
    fields. The record is {"epoch", *fields, "wall_ms"}, and the optional
    log_path receives one JSON line per record.

    Ownership: the given params are only read, at the first step, and this
    loop keeps no reference to them after it; if the caller holds none
    either, they are freed then. From the first step on, params are the
    buffers of the Adam state, updated in place by each step, so a caller
    that keeps one epoch's params past the next step copies them.
    """
    state = init_adam_state(params)
    shuffle_rng = np.random.default_rng(derive_seed(cfg.seed, stream))
    records = []
    with open(log_path, "w", encoding="utf-8") if log_path else nullcontext() as log_fh:
        for epoch in range(1, cfg.epochs + 1):
            started = time.monotonic()
            order = shuffle_rng.permutation(count)
            for lo in range(0, count, cfg.batch_size):
                grads = batch_grads(params, order[lo: lo + cfg.batch_size])
                if grads is None:
                    continue
                params, state = adamw_step(params, grads, state, cfg)
                # The next batch runs without this reference.
                del grads
            record = {"epoch": epoch, **end_epoch(params),
                      "wall_ms": int((time.monotonic() - started) * 1000)}
            records.append(record)
            if log_fh:
                log_fh.write(json.dumps(record) + "\n")
    return params, records


def pretrain(model: EncoderModel, corpus, cfg: TrainConfig, run_log=None):
    """Run the masked-LM loop over a pre-segmented corpus.

    Returns (trained model, per-epoch mean losses). Sequences must already fit
    the model capacity: tokenize raises LengthError before any step. When
    adapters are attached only they are updated, and the trained model shares
    the frozen base with model. The optional run_log path receives one JSON
    record per epoch.

    Ownership: model is never written to. Its trainable tensors are read by
    the first step and not held after it, so a caller that drops its own
    reference frees them then. From the second step on, the weight-sized
    sets alive are the parameters, which each step updates in place, the two
    Adam moments and one gradient set, which is zeroed before each batch.
    """
    if not corpus:
        raise ContractError("training corpus is empty")
    if cfg.mask_fraction == 0:
        raise ConfigError("pre-training requires a positive mask_fraction")
    tokenized = [tokenize(seq, model.config) for seq in corpus]
    mask_rng = np.random.default_rng(derive_seed(cfg.seed, "masking"))
    totals = [0.0, 0]  # the epoch's label-weighted loss and label count
    # The one list that holds the untrained tensors hands them to train_epochs.
    start = [get_trainable(model)]
    grads = {k: np.zeros_like(v) for k, v in start[0].items()}
    shell = with_trainable(model, dict.fromkeys(grads))  # the rest of model
    del model

    def batch_grads(params, indices):
        batch = [tokenized[i] for i in indices]
        masked, labels = mask_batch(batch, cfg, mask_rng, shell.config.vocab)
        n_labels = sum(len(seq_labels) for seq_labels in labels)
        if n_labels == 0:
            return None
        for grad in grads.values():
            grad.fill(0)
        loss, _ = mlm_loss(with_trainable(shell, params), masked, labels, grads)
        totals[0] += loss * n_labels
        totals[1] += n_labels
        return grads

    def end_epoch(params):
        mean_loss = totals[0] / max(totals[1], 1)
        totals[:] = [0.0, 0]
        return {"mean_loss": mean_loss}

    params, records = train_epochs(start.pop(), len(tokenized), cfg, "shuffle",
                                   batch_grads, end_epoch, run_log)
    return with_trainable(shell, params), [record["mean_loss"] for record in records]


def attach_lora(model: EncoderModel, targets, rank: int, alpha: float, seed: int = 0) -> EncoderModel:
    """Add zero-initialized low-rank adapters and freeze the base weights."""
    if rank < 1:
        raise ConfigError("adapter rank must be >= 1")
    finite_number(alpha, "adapter alpha")
    adapters = dict(model.adapters)
    for target in targets:
        if target not in model.params:
            raise ConfigError(f"unknown adapter target {target!r}")
        if param_family(target) not in QUANTIZABLE_FAMILIES:
            raise ConfigError(f"target {target!r} is not a projection weight")
        w = model.params[target]
        in_dim, out_dim = w.dims if isinstance(w, QuantizedTensor) else w.shape
        rng = np.random.default_rng(derive_seed(seed, f"lora:{target}"))
        adapters[target] = LoraAdapter(
            target=target,
            rank=rank,
            alpha=alpha,
            A=rng.normal(0.0, 0.02, size=(rank, in_dim)).astype(np.float32),
            B=np.zeros((out_dim, rank), dtype=np.float32),
        )
    return replace(model, adapters=adapters)


def merge_lora(model: EncoderModel) -> EncoderModel:
    """Fold adapters into their base weights, as forward folds them, and drop
    them.

    An all-zero B leaves the stored weight object untouched, so merging an
    untrained adapter returns bit-identical tensors.
    """
    params = dict(model.params)
    for target in model.adapters:
        w = params[target]
        if isinstance(w, QuantizedTensor):
            raise ConfigError("cannot merge adapters into a quantized base weight")
        params[target] = _dense_weight(model, target, w.dtype)
    return EncoderModel(config=model.config, params=params, adapters={})
