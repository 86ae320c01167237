"""Transformer encoder over amino-acid tokens with pluggable attention mode.

Pre-LN blocks, learned absolute position table, bias-free linear projections,
and a final layer norm applied before both the MLM head and embedding
extraction. The position table is a materialized per-position matrix so its
row count (the context capacity) can be extended by cyclic copying. A
layer's one home is _layer_forward and layer_backward, the only code that
knows the layer cache's format; each runs attention's heads, and a long
input's rows, on parallel.layer_pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .attention import (
    GLOBAL,
    LOCAL,
    AttentionSpec,
    Operands,
    attend_prepared,
    attend_prepared_backward,
)
from .checkpoint import array_entry, read_checkpoint, reject_unused, write_checkpoint
from .errors import (
    ConfigError,
    ContractError,
    FormatError,
    InputError,
    LengthError,
    finite_number,
    json_fields,
    positive_int,
)
from .parallel import cut, layer_pool
from .quant import QUANTIZABLE_FAMILIES, QuantizedTensor, decode_dense, param_family
from .tensor_ops import gelu, gelu_grad, layer_norm, layer_norm_grad, layer_norm_output

CANONICAL_RESIDUES = "ACDEFGHIKLMNPQRSTVWY"
EXTRA_RESIDUES = "XBZUO"  # X catches anything unknown; B/Z/U/O keep their own tokens

CLS_TOKEN = "<cls>"
PAD_TOKEN = "<pad>"
EOS_TOKEN = "<eos>"
MASK_TOKEN = "<mask>"

INIT_STD = 0.02


class TokenVocab:
    """Dense, stable token-id table: specials first, then residues."""

    def __init__(self, tokens: tuple[str, ...]):
        self.tokens = tuple(tokens)
        self._ids = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self._ids) != len(self.tokens):
            raise ConfigError("vocabulary contains duplicate tokens")
        for needed in (CLS_TOKEN, PAD_TOKEN, EOS_TOKEN, MASK_TOKEN, "X", *CANONICAL_RESIDUES):
            if needed not in self._ids:
                raise ConfigError(f"vocabulary is missing {needed}")
        self.cls_id = self._ids[CLS_TOKEN]
        self.pad_id = self._ids[PAD_TOKEN]
        self.eos_id = self._ids[EOS_TOKEN]
        self.mask_id = self._ids[MASK_TOKEN]
        self.unknown_id = self._ids["X"]
        self.canonical_ids = tuple(self._ids[ch] for ch in CANONICAL_RESIDUES)

    @classmethod
    def default(cls) -> "TokenVocab":
        specials = (CLS_TOKEN, PAD_TOKEN, EOS_TOKEN, MASK_TOKEN)
        return cls(specials + tuple(CANONICAL_RESIDUES) + tuple(EXTRA_RESIDUES))

    @property
    def size(self) -> int:
        return len(self.tokens)

    def residue_id(self, ch: str) -> int:
        return self._ids.get(ch, self.unknown_id)

    def is_residue(self, token_id: int) -> bool:
        return len(self.tokens[token_id]) == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, TokenVocab) and self.tokens == other.tokens

    def __hash__(self) -> int:
        return hash(self.tokens)


DEFAULT_VOCAB = TokenVocab.default()

# layers / heads / embedding dimension for each size tier.
PRESET_SHAPES = {
    "T6": (6, 20, 320),
    "T12": (12, 20, 480),
    "T30": (30, 20, 640),
    "T33": (33, 20, 1280),
    "T36": (36, 40, 2560),
    "T48": (48, 40, 5120),
    "toy": (2, 4, 32),
}


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int
    num_heads: int
    embed_dim: int
    max_positions: int
    ffn_dim: int
    attention: AttentionSpec
    vocab: TokenVocab = field(default_factory=TokenVocab.default)

    def __post_init__(self):
        if min(self.num_layers, self.num_heads, self.embed_dim, self.ffn_dim) < 1:
            raise ConfigError("model dimensions must be positive")
        if self.max_positions < 3:
            raise ConfigError("max_positions must hold at least CLS + one residue + EOS")
        if self.embed_dim % self.num_heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.attention.num_heads != self.num_heads:
            raise ConfigError("attention spec head count disagrees with model")
        if self.attention.head_dim * self.attention.num_heads != self.embed_dim:
            raise ConfigError("attention head_dim * num_heads must equal embed_dim")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads


def preset_config(
    name: str,
    mode: str = GLOBAL,
    window_k: int | None = None,
    max_positions: int | None = None,
) -> ModelConfig:
    """Build the named size preset; 'toy' is the 2-layer test workhorse."""
    if name not in PRESET_SHAPES:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESET_SHAPES)}")
    layers, heads, dim = PRESET_SHAPES[name]
    if max_positions is None:
        max_positions = 64 if name == "toy" else 1024
    spec = AttentionSpec(
        mode=mode,
        num_heads=heads,
        head_dim=dim // heads,
        window_k=window_k if mode == LOCAL else None,
    )
    return ModelConfig(
        num_layers=layers,
        num_heads=heads,
        embed_dim=dim,
        max_positions=max_positions,
        ffn_dim=4 * dim,
        attention=spec,
    )


def param_names(config: ModelConfig) -> list[str]:
    """Canonical parameter order, shared by init, checkpoints, and optimizers."""
    names = ["token_embedding", "position_embedding"]
    for i in range(config.num_layers):
        p = f"layers.{i}"
        names += [
            f"{p}.attn_ln.gain",
            f"{p}.attn_ln.bias",
            f"{p}.q_proj",
            f"{p}.k_proj",
            f"{p}.v_proj",
            f"{p}.o_proj",
            f"{p}.ffn_ln.gain",
            f"{p}.ffn_ln.bias",
            f"{p}.ffn_in",
            f"{p}.ffn_out",
        ]
    names += ["final_ln.gain", "final_ln.bias", "mlm_head"]
    return names


def param_shape(name: str, config: ModelConfig) -> tuple[int, ...]:
    d = config.embed_dim
    if name == "token_embedding":
        return (config.vocab.size, d)
    if name == "position_embedding":
        return (config.max_positions, d)
    if name == "mlm_head":
        return (d, config.vocab.size)
    if name.endswith((".gain", ".bias")):
        return (d,)
    if name.endswith((".q_proj", ".k_proj", ".v_proj", ".o_proj")):
        return (d, d)
    if name.endswith(".ffn_in"):
        return (d, config.ffn_dim)
    if name.endswith(".ffn_out"):
        return (config.ffn_dim, d)
    raise ConfigError(f"unknown parameter name {name!r}")


def lora_target_names(config: ModelConfig, families=("attention",)) -> list[str]:
    """The projection weights of the given matmul families, in parameter order."""
    for family in families:
        if family not in QUANTIZABLE_FAMILIES:
            raise ConfigError(f"unknown adapter family {family!r}")
    return [n for n in param_names(config) if param_family(n) in families]


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
class EncoderModel:
    """Immutable weight set; forward is a pure function of (model, tokens)."""

    config: ModelConfig
    params: dict[str, Any]          # name -> ndarray or QuantizedTensor
    adapters: dict[str, LoraAdapter] = field(default_factory=dict)

    @property
    def dtype(self):
        for v in self.params.values():
            if isinstance(v, np.ndarray):
                return v.dtype
        return np.float32

    def is_quantized(self) -> bool:
        return any(isinstance(v, QuantizedTensor) for v in self.params.values())


def build_model(config: ModelConfig, seed: int) -> EncoderModel:
    """Initialize weights from a seeded normal(0, 0.02).

    Layer-norm affine pairs start at the identity (gain 1, bias 0); the normal
    init applies to embeddings, projections, and the MLM head.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, Any] = {}
    for name in param_names(config):
        shape = param_shape(name, config)
        if name.endswith(".gain"):
            params[name] = np.ones(shape, dtype=np.float32)
        elif name.endswith(".bias"):
            params[name] = np.zeros(shape, dtype=np.float32)
        else:
            params[name] = rng.normal(0.0, INIT_STD, size=shape).astype(np.float32)
    return EncoderModel(config=config, params=params)


def tokenize(seq: str, config: ModelConfig) -> list[int]:
    """CLS + residue ids + EOS; unknown characters map to the X token."""
    vocab = config.vocab
    if len(seq) > config.max_positions - 2:
        raise LengthError(
            f"sequence of {len(seq)} residues exceeds capacity "
            f"{config.max_positions - 2}; segment it first"
        )
    ids = [vocab.cls_id]
    ids.extend(vocab.residue_id(ch) for ch in seq)
    ids.append(vocab.eos_id)
    return ids


def _dense_weight(model: EncoderModel, name: str, dtype) -> np.ndarray:
    """The weight `name` as one dense array: an int4 weight decoded to dtype,
    as qmatmul decodes it for activations of that dtype, plus a trained LoRA
    adapter's delta (alpha / rank) A^T B^T at the weight's dtype, the fold
    training.merge_lora makes too. An adapter whose B is all zero is skipped,
    and a dense weight then comes back as the same object."""
    w = model.params[name]
    if isinstance(w, QuantizedTensor):
        w = decode_dense(w).astype(dtype, copy=False)
    adapter = model.adapters.get(name)
    if adapter is not None and np.any(adapter.B):
        w = (w + (adapter.alpha / adapter.rank) * (adapter.A.T @ adapter.B.T)).astype(w.dtype)
    return w


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    n, d = x.shape
    return x.reshape(n, num_heads, d // num_heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    nh, n, dh = x.shape
    return x.transpose(1, 0, 2).reshape(n, nh * dh)


# Row parts of phases A and C start at multiples of _ROW_ALIGN rows and hold
# at least _ROW_ALIGN: OpenBLAS then gives each row of a part's product the
# bits of the whole product's row, which an unaligned or 1-2 row part does not.
# That holds for products at least _MIN_SPLIT_WIDTH columns wide; narrower
# ones round some rows differently when they are split, so a model narrower
# than that keeps its rows whole. A part also holds at least _MIN_PART_ROWS: a
# product's cost does not fall with its rows until packing the weight no
# longer dominates it, and two halves of a 130-row product took as long as
# the whole.
_ROW_ALIGN = 16
_MIN_SPLIT_WIDTH = 32
_MIN_PART_ROWS = 128
# Phases A and C run a part in blocks of at most _BLOCK_ROWS rows, cut at
# multiples of _ROW_ALIGN, so an uncached forward needs [block, d] layer-norm
# and V scratch and [block, ffn_dim] FFN scratch per part, not [n, d] and
# [n, ffn_dim] arrays. The blocks depend on n alone.
_BLOCK_ROWS = 256


def _row_blocks(r: slice) -> list[slice]:
    """A part's rows cut into near-equal blocks of at most _BLOCK_ROWS.
    With at most _BLOCK_ROWS - _ROW_ALIGN rows per block before rounding, the
    rounding of the inner bounds keeps every block within _BLOCK_ROWS."""
    rows = r.stop - r.start
    blocks = -(-rows // (_BLOCK_ROWS - _ROW_ALIGN))
    return [slice(r.start + b.start, r.start + b.stop) for b in cut(rows, blocks, _ROW_ALIGN)]


def _layer_forward(model: EncoderModel, i: int, x, pad, pool, row_parts, want_cache: bool):
    """Layer i of forward on the residual stream x, in place; returns the
    layer's cache, or None without want_cache.

    Phase A runs, block by block of _row_blocks, layer norm 1 and the Q/K/V
    projections, which write straight into the layouts attention reads (an
    attention.Operands): Q scaled by 1 / sqrt(head_dim), K at rows
    lead : lead + n of the zero-padded key axis, V on that axis beside each
    head's column of ones. B runs attend_prepared on them over the heads,
    and C the rows of the output projection and residual and then, block by
    block, layer norm 2, the FFN with GELU and residual. Parts write disjoint
    slices of arrays allocated here; what no cache keeps is scratch of one
    block. Each weight is made dense once per phase: int4 decoded and a
    trained LoRA adapter folded in. An uncached T6 local forward at 2,048
    tokens peaks in B, holding the residual stream, Q, K, V and ctx once
    each: about 15 MB traced, with one worker or two.

    The cache's format is private to this module. It holds what
    layer_backward cannot rebuild bit for bit: both layer norms' xhat and
    inv_std, the Operands under qh, kh and vh, attention's context and
    softmax statistics, and the FFN's input u and Phi(u), about
    6 * embed_dim + 2 * ffn_dim floats per token (K and V a little more on
    local mode's padded key axis). The layer norms' and GELU's outputs are
    rebuilt, not kept.
    """
    cfg, P, p = model.config, model.params, f"layers.{i}"
    (n, d), f, dtype = x.shape, cfg.ffn_dim, x.dtype

    def new(cols):
        return np.empty((n, cols), dtype)

    def kept(ln, rows):
        # layer_norm's out: its output to fresh scratch of these rows, xhat
        # and inv_std into ln's rows when the cache keeps them.
        return None if ln is None else (None, ln[0][rows], ln[1][rows])

    ln1 = ln2 = u = cdf = cache = None
    if want_cache:
        ln1, ln2, u, cdf = (new(d), new(1)), (new(d), new(1)), new(f), new(f)
    ops = Operands.allocate(n, cfg.attention, dtype)
    w = [_dense_weight(model, f"{p}.{name}", dtype) for name in ("q_proj", "k_proj", "v_proj")]

    def phase_a(r):
        for b in _row_blocks(r):
            h1, _ = layer_norm(x[b], P[f"{p}.attn_ln.gain"], P[f"{p}.attn_ln.bias"],
                               out=kept(ln1, b))
            ops.project(cfg.attention, b, h1, *w)

    pool.run(phase_a, row_parts)
    del w
    ctx_h, stats = attend_prepared(ops, pad, cfg.attention, pool=pool)
    if want_cache:
        cache = dict(ln1=ln1, qh=ops.q, kh=ops.k, vh=ops.v, stats=stats, ln2=ln2, u=u, cdf=cdf)
    # Freed before phase C when nothing keeps them; the rest goes on return,
    # before the next layer's attention sets the peak memory.
    del ops, stats, ln1
    w = {name: _dense_weight(model, f"{p}.{name}", dtype)
         for name in ("o_proj", "ffn_in", "ffn_out")}

    def phase_c(r):
        x[r] += _merge_heads(ctx_h[:, r]) @ w["o_proj"]
        for b in _row_blocks(r):
            h2, _ = layer_norm(x[b], P[f"{p}.ffn_ln.gain"], P[f"{p}.ffn_ln.bias"],
                               out=kept(ln2, b))
            u_b = np.matmul(h2, w["ffn_in"], out=None if u is None else u[b])
            x[b] += gelu(u_b, cdf_out=None if cdf is None else cdf[b]) @ w["ffn_out"]

    pool.run(phase_c, row_parts)
    return cache


def layer_backward(model: EncoderModel, i: int, cache: dict, d_x, proj, acc, pool):
    """d_x, the gradient of layer i's output, taken back to its input through
    the cache _layer_forward kept, which is released as it is read.
    proj(name, x_in, d_out) takes the gradients of out = x_in @ W and returns
    d_out @ W^T; acc(key, value) adds a layer norm's gain or bias gradient.
    GELU's and the layer norms' outputs are rebuilt with the forward's float
    ops, bit for bit, just before their one use.
    """
    cfg, P, p = model.config, model.params, f"layers.{i}"
    # feed-forward half: x = x_mid + ffn_out(gelu(ffn_in(LN2(x_mid))))
    u, cdf = cache.pop("u"), cache.pop("cdf")
    d_act = proj(f"{p}.ffn_out", cdf * u, d_x)
    d_u = gelu_grad(u, cdf)
    del u, cdf
    d_u *= d_act
    del d_act
    h2 = layer_norm_output(cache["ln2"], P[f"{p}.ffn_ln.gain"], P[f"{p}.ffn_ln.bias"])
    d_h2 = proj(f"{p}.ffn_in", h2, d_u)
    del h2, d_u
    d_mid_ln, d_g2, d_b2 = layer_norm_grad(d_h2, cache["ln2"], P[f"{p}.ffn_ln.gain"])
    acc(f"{p}.ffn_ln.gain", d_g2)
    acc(f"{p}.ffn_ln.bias", d_b2)
    d_x_mid = d_x + d_mid_ln
    # attention half: x_mid = x_in + o_proj(heads(LN1(x_in)))
    d_ctx = proj(f"{p}.o_proj", _merge_heads(cache["stats"].ctx), d_x_mid)
    ops = Operands(cache["qh"], cache["kh"], cache["vh"])
    d_qh, d_kh, d_vh = attend_prepared_backward(_split_heads(d_ctx, cfg.num_heads), ops,
                                                cache["stats"], cfg.attention, pool)
    h1 = layer_norm_output(cache["ln1"], P[f"{p}.attn_ln.gain"], P[f"{p}.attn_ln.bias"])
    d_h1 = proj(f"{p}.q_proj", h1, _merge_heads(d_qh))
    d_h1 += proj(f"{p}.k_proj", h1, _merge_heads(d_kh))
    d_h1 += proj(f"{p}.v_proj", h1, _merge_heads(d_vh))
    del h1
    d_in_ln, d_g1, d_b1 = layer_norm_grad(d_h1, cache["ln1"], P[f"{p}.attn_ln.gain"])
    acc(f"{p}.attn_ln.gain", d_g1)
    acc(f"{p}.attn_ln.bias", d_b1)
    return d_x_mid + d_in_ln


def forward(model: EncoderModel, token_ids, want_cache: bool = False):
    """Last-layer hidden states after the final layer norm, one row per token.

    Each layer is one _layer_forward, its phases on parallel.layer_pool, which
    leaves OpenBLAS at one thread; a model at least _MIN_SPLIT_WIDTH wide
    splits its rows from 2 * _MIN_PART_ROWS tokens on. Each part computes its
    rows' or heads' bits of the whole layer, so no output depends on the
    worker or BLAS thread count.
    want_cache=True also returns the tokens, the final layer norm's cache, the
    hidden states and each layer's cache, which layer_backward reads.
    """
    cfg = model.config
    vocab = cfg.vocab
    tok = np.asarray(token_ids, dtype=np.int64)
    if tok.ndim != 1 or tok.size == 0:
        raise InputError("token input must be a nonempty 1-d id list")
    if tok.size > cfg.max_positions:
        raise LengthError(f"{tok.size} tokens exceed capacity {cfg.max_positions}")
    if (tok < 0).any() or (tok >= vocab.size).any():
        raise InputError("token id out of vocabulary")
    n = tok.size
    pad = tok == vocab.pad_id
    P = model.params
    pool = layer_pool()
    x = P["token_embedding"][tok] + P["position_embedding"][:n]
    row_parts = (pool.split(n, _ROW_ALIGN, _MIN_PART_ROWS)
                 if min(cfg.embed_dim, cfg.ffn_dim) >= _MIN_SPLIT_WIDTH else [slice(0, n)])
    layer_caches = [_layer_forward(model, i, x, pad, pool, row_parts, want_cache)
                    for i in range(cfg.num_layers)]
    hidden, lnf_cache = layer_norm(x, P["final_ln.gain"], P["final_ln.bias"])
    if not want_cache:
        return hidden
    return hidden, dict(tok=tok, lnf=lnf_cache, hidden=hidden, layers=layer_caches)


def mlm_logits(model: EncoderModel, hidden: np.ndarray) -> np.ndarray:
    return hidden @ _dense_weight(model, "mlm_head", hidden.dtype)


def extend_context(
    model: EncoderModel, new_capacity: int, strategy: str = "copy", seed: int = 0
) -> EncoderModel:
    """Grow the position table to new_capacity rows.

    strategy="copy" repeats the existing table cyclically (row p takes old row
    p mod old_capacity), preserving the prefix bit-exactly; strategy="random"
    draws fresh rows from the init distribution. All other weights, and the
    attention spec, are untouched.
    """
    old = model.config.max_positions
    if new_capacity <= old:
        raise ContractError(f"new capacity {new_capacity} must exceed current {old}")
    table = model.params["position_embedding"]
    if strategy == "copy":
        tail = table[np.arange(old, new_capacity) % old]
    elif strategy == "random":
        rng = np.random.default_rng(seed)
        tail = rng.normal(0.0, INIT_STD, size=(new_capacity - old, table.shape[1])).astype(
            table.dtype
        )
    else:
        raise ConfigError(f"unknown extension strategy {strategy!r}")
    new_table = np.concatenate([table, tail], axis=0)
    new_config = replace(model.config, max_positions=new_capacity)
    new_params = dict(model.params)
    new_params["position_embedding"] = new_table
    return EncoderModel(config=new_config, params=new_params, adapters=dict(model.adapters))


def with_attention(model: EncoderModel, mode: str, window_k: int | None = None) -> EncoderModel:
    """Same weights under a different attention mode (weights are mode-agnostic)."""
    spec = AttentionSpec(
        mode=mode,
        num_heads=model.config.num_heads,
        head_dim=model.config.head_dim,
        window_k=window_k if mode == LOCAL else None,
    )
    return replace(model, config=replace(model.config, attention=spec))


def model_astype(model: EncoderModel, dtype) -> EncoderModel:
    """Cast all dense weights (and adapters) to dtype; quantized tensors are kept."""
    params = {
        k: (v if isinstance(v, QuantizedTensor) else v.astype(dtype))
        for k, v in model.params.items()
    }
    adapters = {k: ad.astype(dtype) for k, ad in model.adapters.items()}
    return EncoderModel(config=model.config, params=params, adapters=adapters)


def config_to_json(config: ModelConfig) -> dict:
    return {
        "num_layers": config.num_layers,
        "num_heads": config.num_heads,
        "embed_dim": config.embed_dim,
        "max_positions": config.max_positions,
        "ffn_dim": config.ffn_dim,
        "attention": {
            "mode": config.attention.mode,
            "window_k": config.attention.window_k,
        },
        "vocab": list(config.vocab.tokens),
    }


_CONFIG_DIMS = ("num_layers", "num_heads", "embed_dim", "max_positions", "ffn_dim")


def config_from_json(data) -> ModelConfig:
    """The one parser of a model config, in the JSON form config_to_json writes.

    Checkpoints and the CLI's model section both come through here; a missing,
    unknown or ill-typed key is a ConfigError.
    """
    fields = json_fields(data, "model config", _CONFIG_DIMS + ("attention", "vocab"))
    dims = {key: positive_int(fields[key], f"model config {key!r}") for key in _CONFIG_DIMS}
    attention = json_fields(fields["attention"], "model config 'attention'", ("mode",),
                            ("window_k",))
    window_k = attention.get("window_k")
    if window_k is not None:
        window_k = positive_int(window_k, "model config 'window_k'")
    vocab = fields["vocab"]
    if not isinstance(vocab, list) or not all(isinstance(tok, str) for tok in vocab):
        raise ConfigError("model config 'vocab' must be a list of strings")
    spec = AttentionSpec(
        mode=attention["mode"],
        num_heads=dims["num_heads"],
        head_dim=dims["embed_dim"] // dims["num_heads"],
        window_k=window_k,
    )
    return ModelConfig(**dims, attention=spec, vocab=TokenVocab(tuple(vocab)))


def model_tag(model: EncoderModel) -> str:
    cfg = model.config
    mode = cfg.attention.mode
    if mode == LOCAL:
        mode = f"local{cfg.attention.window_k}"
    tag = f"L{cfg.num_layers}-H{cfg.num_heads}-d{cfg.embed_dim}-p{cfg.max_positions}-{mode}"
    if model.is_quantized():
        tag += "-int4"
    return tag


def save_model(model: EncoderModel, path) -> None:
    """Serialize config, weights, and any LoRA adapters into one container."""
    config = {"model": config_to_json(model.config)}
    tensors: dict[str, Any] = dict(model.params)
    if model.adapters:
        lora_meta = {}
        for name in sorted(model.adapters):
            ad = model.adapters[name]
            tensors[f"adapters.{name}.A"] = ad.A
            tensors[f"adapters.{name}.B"] = ad.B
            lora_meta[name] = {"rank": ad.rank, "alpha": ad.alpha}
        config["lora"] = lora_meta
    write_checkpoint(path, tensors, config)


def _load_adapter(target: str, meta, tensors: dict, config: ModelConfig):
    """The LoraAdapter a checkpoint's 'lora' entry describes, checked against
    the model: A must be [rank, in] and B [out, rank] for the target weight."""
    if target not in lora_target_names(config, QUANTIZABLE_FAMILIES):
        raise ConfigError(f"LoRA target {target!r} is not a projection weight of this model")
    meta = json_fields(meta, f"LoRA entry {target!r}", ("rank", "alpha"))
    rank = positive_int(meta["rank"], f"LoRA {target!r} rank")
    alpha = finite_number(meta["alpha"], f"LoRA {target!r} alpha")
    in_dim, out_dim = param_shape(target, config)
    return LoraAdapter(target=target, rank=rank, alpha=alpha,
                       A=array_entry(tensors, f"adapters.{target}.A", (rank, in_dim)),
                       B=array_entry(tensors, f"adapters.{target}.B", (out_dim, rank)))


def load_model(path) -> EncoderModel:
    tensors, config = read_checkpoint(path)
    config = json_fields(config, "checkpoint config", ("model",), ("lora",))
    model_config = config_from_json(config["model"])
    params = {}
    for name in param_names(model_config):
        if name not in tensors:
            raise ConfigError(f"checkpoint is missing tensor {name!r}")
        tensor = tensors[name]
        shape = (tensor.dims if isinstance(tensor, QuantizedTensor)
                 else getattr(tensor, "shape", None))
        expected = param_shape(name, model_config)
        if shape != expected:
            raise FormatError(f"checkpoint tensor {name!r} has shape {shape}, expected {expected}")
        params[name] = tensor
    lora = config.get("lora", {})
    if not isinstance(lora, dict):
        raise ConfigError("checkpoint config 'lora' must be a JSON object")
    adapters = {target: _load_adapter(target, meta, tensors, model_config)
                for target, meta in lora.items()}
    reject_unused(tensors, [*params, *(f"adapters.{t}.{m}" for t in adapters for m in "AB")])
    return EncoderModel(config=model_config, params=params, adapters=adapters)
