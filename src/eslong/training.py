"""Masked-LM pre-training with AdamW and optional LoRA adapters.

The backward pass is hand-derived for the fixed encoder architecture (no
autodiff), which is what makes the finite-difference gradient suite in the
tests meaningful. Training is single-threaded and deterministic: batches
accumulate gradients sequence by sequence in a fixed left-to-right order, and
all randomness derives from one seed through named sub-streams.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace

import numpy as np

from .attention import attend_backward
from .encoder import (
    DEFAULT_VOCAB,
    EncoderModel,
    _dense_weight,
    _merge_heads,
    _split_heads,
    finite_number,
    forward,
    mlm_logits,
    param_names,
    tokenize,
)
from .errors import ConfigError, ContractError, LengthError
from .quant import QUANTIZABLE_FAMILIES, QuantizedTensor, param_family
from .tensor_ops import gelu_grad


def derive_seed(seed: int, stream: str) -> int:
    """Stable 63-bit sub-seed for a named random stream."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass
class LoraAdapter:
    """Low-rank pair added to a frozen weight W: effective delta = (alpha/rank) B A.

    A has shape [rank, in_dim], B has shape [out_dim, rank]; B starts at zero so
    a freshly attached adapter changes nothing.
    """

    target: str
    rank: int
    alpha: float
    A: np.ndarray
    B: np.ndarray

    def astype(self, dtype) -> "LoraAdapter":
        return LoraAdapter(self.target, self.rank, self.alpha,
                           self.A.astype(dtype), self.B.astype(dtype))


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
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0.0 <= finite_number(self.mask_fraction, "mask_fraction") < 1.0:
            raise ConfigError("mask_fraction must lie in [0, 1)")
        if finite_number(self.learning_rate, "learning_rate") <= 0:
            raise ConfigError("learning_rate must be positive")
        for name in ("beta1", "beta2"):
            if not 0.0 <= finite_number(getattr(self, name), name) < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1)")
        if finite_number(self.eps, "eps") <= 0:
            raise ConfigError("eps must be positive")
        if finite_number(self.weight_decay, "weight_decay") < 0:
            raise ConfigError("weight_decay must not be negative")


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


def _ln_backward(d_y, cache, gain):
    xhat, inv_std = cache
    d_gain = (d_y * xhat).sum(axis=0)
    d_bias = d_y.sum(axis=0)
    d_xhat = d_y * gain
    m1 = d_xhat.mean(axis=-1, keepdims=True)
    m2 = (d_xhat * xhat).mean(axis=-1, keepdims=True)
    d_x = inv_std * (d_xhat - m1 - xhat * m2)
    return d_x, d_gain, d_bias


class _Backprop:
    """Accumulates gradients for one model across the sequences of a batch."""

    def __init__(self, model: EncoderModel):
        self.model = model
        self.base_trainable = not model.adapters
        self.grads = {k: np.zeros_like(v) for k, v in get_trainable(model).items()}
        self._dense = {}

    def dense(self, name: str) -> np.ndarray:
        if name not in self._dense:
            self._dense[name] = _dense_weight(self.model, name, self.model.dtype)
        return self._dense[name]

    def _acc(self, key: str, value: np.ndarray) -> None:
        if key in self.grads:
            self.grads[key] += value

    def proj_backward(self, name: str, x_in: np.ndarray, d_out: np.ndarray) -> np.ndarray:
        """Backward of out = x_in @ W_eff with W_eff = W + (alpha/r) A^T B^T."""
        adapter = self.model.adapters.get(name)
        if self.base_trainable:
            self._acc(name, x_in.T @ d_out)
        d_x = d_out @ self.dense(name).T
        if adapter is not None:
            s = adapter.alpha / adapter.rank
            g_eff = x_in.T @ d_out
            self._acc(f"adapters.{name}.A", s * (g_eff @ adapter.B).T)
            self._acc(f"adapters.{name}.B", s * (g_eff.T @ adapter.A.T))
            d_x = d_x + s * ((d_out @ adapter.B) @ adapter.A)
        return d_x

    def sequence_backward(self, cache: dict, d_logits: np.ndarray) -> None:
        model = self.model
        cfg = model.config
        P = model.params
        d_hidden = self.proj_backward("mlm_head", cache["hidden"], d_logits)
        d_x, d_gf, d_bf = _ln_backward(d_hidden, cache["lnf"], P["final_ln.gain"])
        self._acc("final_ln.gain", d_gf)
        self._acc("final_ln.bias", d_bf)
        for i in reversed(range(cfg.num_layers)):
            p = f"layers.{i}"
            lc = cache["layers"][i]
            # feed-forward half: x = x_mid + ffn_out(gelu(ffn_in(LN2(x_mid))))
            d_act = self.proj_backward(f"{p}.ffn_out", lc["act"], d_x)
            d_u = d_act * gelu_grad(lc["u"], lc["cdf"])
            d_h2 = self.proj_backward(f"{p}.ffn_in", lc["h2"], d_u)
            d_mid_ln, d_g2, d_b2 = _ln_backward(d_h2, lc["ln2"], P[f"{p}.ffn_ln.gain"])
            self._acc(f"{p}.ffn_ln.gain", d_g2)
            self._acc(f"{p}.ffn_ln.bias", d_b2)
            d_x_mid = d_x + d_mid_ln
            # attention half: x_mid = x_in + o_proj(heads(LN1(x_in)))
            d_ctx = self.proj_backward(f"{p}.o_proj", _merge_heads(lc["stats"].ctx), d_x_mid)
            d_qh, d_kh, d_vh = attend_backward(_split_heads(d_ctx, cfg.num_heads), lc["qh"],
                                               lc["kh"], lc["vh"], lc["stats"], cfg.attention)
            d_h1 = self.proj_backward(f"{p}.q_proj", lc["h1"], _merge_heads(d_qh))
            d_h1 += self.proj_backward(f"{p}.k_proj", lc["h1"], _merge_heads(d_kh))
            d_h1 += self.proj_backward(f"{p}.v_proj", lc["h1"], _merge_heads(d_vh))
            d_in_ln, d_g1, d_b1 = _ln_backward(d_h1, lc["ln1"], P[f"{p}.attn_ln.gain"])
            self._acc(f"{p}.attn_ln.gain", d_g1)
            self._acc(f"{p}.attn_ln.bias", d_b1)
            d_x = d_x_mid + d_in_ln
        if self.base_trainable:
            tok = cache["tok"]
            np.add.at(self.grads["token_embedding"], tok, d_x)
            self.grads["position_embedding"][: tok.size] += d_x


def mlm_loss(model: EncoderModel, masked_batch, labels):
    """Mean cross-entropy over all labeled positions, plus gradients for every
    trainable tensor (summed over the batch in input order)."""
    total_labels = sum(len(seq_labels) for seq_labels in labels)
    if total_labels == 0:
        raise ContractError("mlm_loss needs at least one labeled position")
    bp = _Backprop(model)
    loss_sum = 0.0
    for tokens, seq_labels in zip(masked_batch, labels):
        if not seq_labels:
            continue
        hidden, cache = forward(model, tokens, want_cache=True)
        logits = mlm_logits(model, hidden)
        positions = np.array([p for p, _ in seq_labels], dtype=np.int64)
        targets = np.array([t for _, t in seq_labels], dtype=np.int64)
        z = logits[positions]
        zmax = z.max(axis=1, keepdims=True)
        lse = zmax + np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
        loss_sum += float((lse[:, 0] - z[np.arange(len(targets)), targets]).sum())
        d_lab = np.exp(z - lse)
        d_lab[np.arange(len(targets)), targets] -= 1.0
        d_lab /= total_labels
        d_logits = np.zeros_like(logits)
        d_logits[positions] = d_lab
        bp.sequence_backward(cache, d_logits)
    return loss_sum / total_labels, bp.grads


def init_adam_state(params: dict[str, np.ndarray]) -> dict:
    """Zero moments, C-ordered so adamw_step can update them in place."""
    return {
        "t": 0,
        "m": {k: np.zeros(v.shape, v.dtype) for k, v in params.items()},
        "v": {k: np.zeros(v.shape, v.dtype) for k, v in params.items()},
    }


# Elements per pass: 32K float32 (128 KB) keeps each operand of a pass in L2.
_ADAM_CHUNK = 1 << 15


def adamw_step(params, grads, state, cfg: TrainConfig):
    """Decoupled-decay Adam update with bias correction; returns (new params, state).

    The moments in state (from init_adam_state) are updated in place, and
    state itself is returned. params and grads are only read, so an array
    this function returned is never written afterwards. Each tensor runs one
    pass over chunks of _ADAM_CHUNK elements, with the float ops of
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    p' = p (1 - lr wd) - lr (m / bc1) / (sqrt(v / bc2) + eps) in that order,
    so the bits are those of the same expressions on whole tensors. The new
    parameter array is the one allocation per tensor.
    """
    t = state["t"] + 1
    lr = cfg.learning_rate
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    decay = 1.0 - lr * cfg.weight_decay
    size = min(_ADAM_CHUNK, max((p.size for p in params.values()), default=0))
    buffers = {}  # two chunk buffers per dtype
    new_params = {}
    for key, p in params.items():
        m, v = state["m"][key], state["v"][key]
        out = np.empty(p.shape, p.dtype)
        new_params[key] = out
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


def pretrain(model: EncoderModel, corpus, cfg: TrainConfig, run_log=None):
    """Run the masked-LM loop over a pre-segmented corpus.

    Returns (trained model, per-epoch mean losses). Sequences must already fit
    the model capacity; when adapters are attached only they are updated, and
    the trained model shares the frozen base with model. Every step builds a
    new model, so model itself is never written to. The optional run_log path
    receives one JSON record per epoch.
    """
    if not corpus:
        raise ContractError("training corpus is empty")
    if cfg.mask_fraction == 0:
        raise ConfigError("pre-training requires a positive mask_fraction")
    capacity = model.config.max_positions - 2
    for seq in corpus:
        if len(seq) > capacity:
            raise LengthError(
                f"corpus sequence of {len(seq)} residues exceeds capacity {capacity}; "
                "segment the corpus first"
            )
    tokenized = [tokenize(seq, model.config) for seq in corpus]
    trained = model
    state = init_adam_state(get_trainable(trained))
    mask_rng = np.random.default_rng(derive_seed(cfg.seed, "masking"))
    shuffle_rng = np.random.default_rng(derive_seed(cfg.seed, "shuffle"))
    curve: list[float] = []
    log_fh = open(run_log, "w", encoding="utf-8") if run_log else None
    try:
        for epoch in range(1, cfg.epochs + 1):
            started = time.monotonic()
            order = shuffle_rng.permutation(len(tokenized))
            loss_weighted = 0.0
            label_count = 0
            for lo in range(0, len(order), cfg.batch_size):
                batch = [tokenized[i] for i in order[lo: lo + cfg.batch_size]]
                masked, labels = mask_batch(batch, cfg, mask_rng, model.config.vocab)
                n_labels = sum(len(seq_labels) for seq_labels in labels)
                if n_labels == 0:
                    continue
                loss, grads = mlm_loss(trained, masked, labels)
                new_params, state = adamw_step(get_trainable(trained), grads, state, cfg)
                trained = with_trainable(trained, new_params)
                # The next step's forward and backward run without these.
                del grads, new_params
                loss_weighted += loss * n_labels
                label_count += n_labels
            mean_loss = loss_weighted / max(label_count, 1)
            curve.append(mean_loss)
            if log_fh:
                record = {
                    "epoch": epoch,
                    "mean_loss": mean_loss,
                    "wall_ms": int((time.monotonic() - started) * 1000),
                }
                log_fh.write(json.dumps(record) + "\n")
    finally:
        if log_fh:
            log_fh.close()
    return trained, curve


def lora_target_names(config, families=("attention",)) -> list[str]:
    """The projection weights of the given matmul families, in parameter order."""
    for family in families:
        if family not in QUANTIZABLE_FAMILIES:
            raise ConfigError(f"unknown adapter family {family!r}")
    return [n for n in param_names(config) if param_family(n) in families]


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
    """Fold adapters into their base weights and drop them.

    An all-zero B leaves the stored weight object untouched, so merging an
    untrained adapter returns bit-identical tensors.
    """
    params = dict(model.params)
    for target, ad in model.adapters.items():
        w = params[target]
        if isinstance(w, QuantizedTensor):
            raise ConfigError("cannot merge adapters into a quantized base weight")
        if np.any(ad.B):
            delta = (ad.alpha / ad.rank) * (ad.A.T @ ad.B.T)
            params[target] = (w + delta).astype(w.dtype)
    return EncoderModel(config=model.config, params=params, adapters={})
