"""Transformer encoder over amino-acid tokens with pluggable attention mode.

Pre-LN blocks, learned absolute position table, bias-free linear projections,
and a final layer norm applied before both the MLM head and embedding
extraction. The position table is a materialized per-position matrix so its
row count (the context capacity) can be extended by cyclic copying. Every
layer runs attention.attend, one loop over query blocks in both modes. A
forward without a cache runs each layer's heads, and a long input's rows,
on parallel.layer_pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .attention import GLOBAL, LOCAL, AttentionSpec, attend
from .checkpoint import read_checkpoint, write_checkpoint
from .errors import ConfigError, ContractError, FormatError, InputError, LengthError
from .parallel import INLINE, layer_pool
from .quant import QUANTIZABLE_FAMILIES, QuantizedTensor, decode_dense, qmatmul
from .tensor_ops import gelu, layer_norm

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
        self.residue_ids = tuple(
            i for i, tok in enumerate(self.tokens) if len(tok) == 1
        )
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


@dataclass(frozen=True)
class EncoderModel:
    """Immutable weight set; forward is a pure function of (model, tokens)."""

    config: ModelConfig
    params: dict[str, Any]          # name -> ndarray or QuantizedTensor
    adapters: dict[str, Any] = field(default_factory=dict)  # name -> LoraAdapter

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


def detokenize(token_ids, vocab: TokenVocab = DEFAULT_VOCAB) -> str:
    """Residue string for a token-id list; structural tokens are dropped."""
    return "".join(vocab.tokens[i] for i in token_ids if len(vocab.tokens[i]) == 1)


def _project(model: EncoderModel, name: str, x: np.ndarray, weight=None, out=None):
    """x @ W for the weight `name`, plus its LoRA delta when the adapter's B is
    nonzero. weight, when given, is W as a dense array (forward decodes int4
    weights once per phase), and out receives the product."""
    w = model.params[name] if weight is None else weight
    if isinstance(w, QuantizedTensor):
        out = qmatmul(x, w)
    else:
        out = np.matmul(x, w, out=out)
    adapter = model.adapters.get(name)
    if adapter is not None and np.any(adapter.B):
        out += (adapter.alpha / adapter.rank) * ((x @ adapter.A.T) @ adapter.B.T)
    return out


def _dense_weight(model: EncoderModel, name: str, dtype) -> np.ndarray:
    """model.params[name] as a dense array; an int4 weight is decoded to
    dtype, as qmatmul decodes it for activations of that dtype."""
    w = model.params[name]
    if isinstance(w, QuantizedTensor):
        return decode_dense(w).astype(dtype, copy=False)
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
# ones, such as a LoRA adapter's rank-r product, round some rows differently
# when they are split. A part also holds at least _MIN_PART_ROWS: a
# product's cost does not fall with its rows until packing the weight no
# longer dominates it, and two halves of a 130-row product took as long as
# the whole.
_ROW_ALIGN = 16
_MIN_SPLIT_WIDTH = 32
_MIN_PART_ROWS = 128


def _uses_pool(model: EncoderModel, want_cache: bool) -> bool:
    """Whether forward runs on the layer pool: only when every product of a
    part is at least _MIN_SPLIT_WIDTH wide, and not for training's cached
    forward. Its serial backward pass runs on OpenBLAS's own threads, which
    spin for a while after each product, and pool threads beside them ran a
    training step slower than serial code did."""
    cfg = model.config
    return (not want_cache and min(cfg.embed_dim, cfg.ffn_dim) >= _MIN_SPLIT_WIDTH
            and not any(np.any(adapter.B) for adapter in model.adapters.values()))


def forward(model: EncoderModel, token_ids, want_cache: bool = False):
    """Last-layer hidden states after the final layer norm, one row per token.

    Each layer runs as three phases, each cut into parts that write disjoint
    slices of arrays allocated here: A, the rows of layer norm 1 and the
    Q/K/V projections; B, attend over the heads; C, the rows of the output
    projection, residual, layer norm 2, FFN with GELU, and residual. When
    _uses_pool, the phases run on parallel.layer_pool with OpenBLAS held at
    one thread, and the rows split from 2 * _MIN_PART_ROWS tokens on;
    otherwise they run inline, with OpenBLAS's own threads. Every part
    computes what the whole layer would for its rows or heads, bit for bit,
    so the output does not depend on the number of workers. int4 weights are
    decoded once per phase, here.

    With want_cache=True also returns the intermediate activations the
    training module needs for its hand-derived backward pass: O(n * d) per
    layer in both attention modes, since attention keeps only its context and
    per-row softmax statistics, and GELU its CDF.
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
    # Off the pool every phase runs inline, on OpenBLAS's own threads. The
    # choice does not depend on the number of workers, and neither do the bits.
    pool = layer_pool() if _uses_pool(model, want_cache) else INLINE
    row_parts = pool.split(n, _ROW_ALIGN, _MIN_PART_ROWS)
    x = P["token_embedding"][tok] + P["position_embedding"][:n]
    d, f, dtype = cfg.embed_dim, cfg.ffn_dim, x.dtype

    def new(cols):
        return np.empty((n, cols), dtype)

    layer_caches = []
    with pool.one_blas_thread():
        for i in range(cfg.num_layers):
            p = f"layers.{i}"
            x_in = x
            h1, ln1, q, k, v = new(d), (new(d), new(1)), new(d), new(d), new(d)
            w = {name: _dense_weight(model, f"{p}.{name}", dtype)
                 for name in ("q_proj", "k_proj", "v_proj")}

            def phase_a(r):
                layer_norm(x_in[r], P[f"{p}.attn_ln.gain"], P[f"{p}.attn_ln.bias"],
                           out=(h1[r], ln1[0][r], ln1[1][r]))
                for name, out in zip(w, (q, k, v)):
                    _project(model, f"{p}.{name}", h1[r], w[name], out[r])

            pool.run(phase_a, row_parts)
            qh, kh, vh = (_split_heads(t, cfg.num_heads) for t in (q, k, v))
            ctx_h, stats = attend(qh, kh, vh, pad, cfg.attention, pool=pool)
            if want_cache:
                x_mid, x, cdf = new(d), new(d), new(f)
            else:
                # Nothing keeps them: the residuals go into x, Phi is not kept.
                del h1, ln1, q, k, v, qh, kh, vh
                x_mid, cdf = x, None
            h2, ln2, u, act = new(d), (new(d), new(1)), new(f), new(f)
            # Scratch: the merged heads, and a projection before its residual.
            merged, proj = new(d), new(d)
            w = {name: _dense_weight(model, f"{p}.{name}", dtype)
                 for name in ("o_proj", "ffn_in", "ffn_out")}

            def phase_c(r):
                rows = r.stop - r.start
                merged[r].reshape(rows, cfg.num_heads, -1)[...] = ctx_h[:, r].transpose(1, 0, 2)
                _project(model, f"{p}.o_proj", merged[r], w["o_proj"], proj[r])
                np.add(x_in[r], proj[r], out=x_mid[r])
                layer_norm(x_mid[r], P[f"{p}.ffn_ln.gain"], P[f"{p}.ffn_ln.bias"],
                           out=(h2[r], ln2[0][r], ln2[1][r]))
                _project(model, f"{p}.ffn_in", h2[r], w["ffn_in"], u[r])
                gelu(u[r], out=act[r], cdf_out=None if cdf is None else cdf[r])
                _project(model, f"{p}.ffn_out", act[r], w["ffn_out"], proj[r])
                np.add(x_mid[r], proj[r], out=x[r])

            pool.run(phase_c, row_parts)
            if want_cache:
                layer_caches.append(
                    dict(x_in=x_in, h1=h1, ln1=ln1, qh=qh, kh=kh, vh=vh,
                         stats=stats, x_mid=x_mid, h2=h2, ln2=ln2,
                         u=u, act=act, cdf=cdf)
                )
            # Freed now, they are not held through the next layer's
            # attention, which sets the peak memory.
            del ctx_h, stats, x_mid, h2, ln2, u, act, cdf, merged, proj, w
    hidden, lnf_cache = layer_norm(x, P["final_ln.gain"], P["final_ln.bias"])
    if not want_cache:
        return hidden
    cache = dict(tok=tok, pad=pad, x_final=x, lnf=lnf_cache, hidden=hidden,
                 layers=layer_caches)
    return hidden, cache


def mlm_logits(model: EncoderModel, hidden: np.ndarray) -> np.ndarray:
    return _project(model, "mlm_head", hidden)


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


def json_fields(data, what: str, required: tuple, optional: tuple = ()) -> dict:
    """data, once it is known to be a JSON object holding every required key and
    nothing beyond the required and optional ones; otherwise a ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(data).__name__}")
    missing = set(required) - set(data)
    if missing:
        raise ConfigError(f"{what} is missing keys: {sorted(missing)}")
    unknown = set(data) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{what} has unknown keys: {sorted(unknown)}")
    return data


def positive_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{what} must be a positive integer, got {value!r}")
    return value


def finite_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return value


def array_entry(tensors: dict, name: str, shape: tuple) -> np.ndarray:
    """tensors[name], once it is known to be an array of the given shape."""
    if name not in tensors:
        raise ConfigError(f"checkpoint is missing tensor {name!r}")
    found = getattr(tensors[name], "shape", None)
    if not isinstance(tensors[name], np.ndarray) or found != shape:
        raise FormatError(f"checkpoint tensor {name!r} has shape {found}, expected {shape}")
    return tensors[name]


def reject_unused(tensors: dict, used) -> None:
    """A FormatError naming every checkpoint entry outside used, so a file that
    holds more than its reader consumes is never taken for a smaller model."""
    unused = sorted(set(tensors) - set(used))
    if unused:
        raise FormatError(f"checkpoint has entries its reader does not use: {unused}")


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
    from .training import LoraAdapter, lora_target_names  # deferred: training imports encoder

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
