"""int4 block quantization of weight tensors and the matching compute path.

Codec: linear symmetric absmax. Each block of `block_size` consecutive values
(flat row-major order) stores one float32 scale = absmax / 7 and signed codes
clamp(round(w / scale), -7, 7); rounding is half-away-from-zero so ties are
deterministic. Code -8 is representable but never emitted. An all-zero block
stores scale 0 with all-zero codes. Codes pack two per byte, low nibble first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, FormatError, InputError, ShapeError

DEFAULT_BLOCK_SIZE = 64

# Families whose tensors sit on a matmul path and may be loaded as int4.
QUANTIZABLE_FAMILIES = frozenset({"attention", "ffn", "head"})


@dataclass(frozen=True)
class QuantizedTensor:
    """int4 block-quantized tensor: packed signed nibbles plus per-block scales."""

    dims: tuple[int, ...]
    block_size: int
    packed: np.ndarray  # uint8, ceil(numel / 2) bytes
    scales: np.ndarray  # float32, one per block

    @property
    def numel(self) -> int:
        return int(np.prod(self.dims)) if self.dims else 1

    @property
    def num_blocks(self) -> int:
        return (self.numel + self.block_size - 1) // self.block_size

    def __post_init__(self):
        if self.block_size < 1:
            raise ConfigError("block_size must be >= 1")
        if len(self.scales) != self.num_blocks:
            raise FormatError(
                f"expected {self.num_blocks} scales for {self.numel} values, got {len(self.scales)}"
            )
        if len(self.packed) != (self.numel + 1) // 2:
            raise FormatError("packed payload length does not match dims")


@dataclass(frozen=True)
class QuantPolicy:
    """Which weight families quantize_model converts to int4."""

    families: frozenset = QUANTIZABLE_FAMILIES - {"head"}
    block_size: int = DEFAULT_BLOCK_SIZE

    def __post_init__(self):
        object.__setattr__(self, "families", frozenset(self.families))
        if self.block_size < 1:
            raise ConfigError("block_size must be >= 1")


def pack_codes(codes: np.ndarray) -> np.ndarray:
    """Pack int8 codes in [-8, 7] two per byte: low nibble = even index."""
    codes = np.asarray(codes, dtype=np.int8)
    if codes.size % 2 == 1:
        codes = np.concatenate([codes, np.zeros(1, dtype=np.int8)])
    nibbles = (codes.astype(np.int16) & 0xF).astype(np.uint8)
    return (nibbles[0::2] | (nibbles[1::2] << 4)).astype(np.uint8)


def unpack_codes(packed: np.ndarray, numel: int) -> np.ndarray:
    """Inverse of pack_codes; two's-complement nibbles decode into [-8, 7]."""
    packed = np.asarray(packed, dtype=np.uint8)
    lo = (packed & 0x0F).astype(np.int16)
    hi = ((packed >> 4) & 0x0F).astype(np.int16)
    nibbles = np.empty(packed.size * 2, dtype=np.int16)
    nibbles[0::2] = lo
    nibbles[1::2] = hi
    if numel > nibbles.size:
        raise FormatError("packed payload too short for requested element count")
    codes = np.where(nibbles >= 8, nibbles - 16, nibbles)
    return codes[:numel].astype(np.int8)


def quantize_int4(w: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE) -> QuantizedTensor:
    """Quantize a real tensor to int4 blocks (see module docstring for the codec)."""
    if block_size < 1:
        raise ConfigError("block_size must be >= 1")
    w = np.asarray(w, dtype=np.float32)
    if not np.isfinite(w).all():
        raise InputError("cannot quantize non-finite weights")
    flat = w.reshape(-1)
    numel = flat.size
    nblocks = (numel + block_size - 1) // block_size
    padded = np.zeros(nblocks * block_size, dtype=np.float64)
    padded[:numel] = flat.astype(np.float64)
    blocks = padded.reshape(nblocks, block_size)
    absmax = np.abs(blocks).max(axis=1)
    scales = (absmax / 7.0).astype(np.float32)
    # Divide by the *stored* float32 scale so codes are exact for the payload
    # that readers will see; half-away-from-zero keeps ties deterministic.
    denom = np.where(scales > 0, scales.astype(np.float64), 1.0)
    ratio = blocks / denom[:, None]
    codes = np.sign(ratio) * np.floor(np.abs(ratio) + 0.5)
    codes = np.clip(codes, -7, 7)
    codes[scales == 0] = 0.0
    codes_flat = codes.reshape(-1)[:numel].astype(np.int8)
    return QuantizedTensor(
        dims=tuple(int(d) for d in w.shape),
        block_size=block_size,
        packed=pack_codes(codes_flat),
        scales=scales,
    )


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Reference decoder: value = code * scale, block by block, dims restored."""
    codes = unpack_codes(q.packed, q.numel)
    if codes.size != q.numel:
        raise FormatError("corrupt packed payload")
    out = np.empty(q.numel, dtype=np.float32)
    bs = q.block_size
    for b in range(q.num_blocks):
        lo = b * bs
        hi = min(lo + bs, q.numel)
        out[lo:hi] = codes[lo:hi].astype(np.float32) * q.scales[b]
    return out.reshape(q.dims)


def decode_dense(q: QuantizedTensor) -> np.ndarray:
    """Vectorized on-the-fly decode used inside qmatmul, bit-identical to the
    loop-by-block reference in `dequantize`, which tests compose as an oracle.

    Byte passes over the payload viewed as int8: arithmetic shifts sign-extend,
    so (b << 4) >> 4 is the low nibble's code and b >> 4 the high one's. The
    codes land in the even and odd slots of an output allocated before them,
    which the full blocks then multiply in place by their scales as one
    [blocks, block_size] product, and a partial last block by its own scale.
    """
    numel, bs = q.numel, q.block_size
    out = np.empty(numel, dtype=np.float32)
    b = np.asarray(q.packed, dtype=np.uint8).view(np.int8)
    lo = np.left_shift(b, 4)
    lo >>= 4
    out[0::2] = lo
    out[1::2] = (b >> 4)[: numel // 2]
    full = numel // bs
    head = full * bs
    blocks = out[:head].reshape(full, bs)
    blocks *= q.scales[:full, None]
    out[head:] *= q.scales[full:]
    return out.reshape(q.dims)


def qmatmul(a: np.ndarray, qw: QuantizedTensor) -> np.ndarray:
    """Multiply real activations by an int4 weight, decoding blocks on the fly."""
    a = np.asarray(a)
    if len(qw.dims) != 2:
        raise ShapeError(f"qmatmul needs a rank-2 quantized weight, got dims {qw.dims}")
    if a.ndim != 2 or a.shape[1] != qw.dims[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {qw.dims}")
    return a @ decode_dense(qw).astype(a.dtype, copy=False)


def param_family(name: str) -> str:
    """Map a parameter name to its accounting family."""
    if name in ("token_embedding", "position_embedding"):
        return "embeddings"
    if name.endswith((".attn_ln.gain", ".attn_ln.bias", ".ffn_ln.gain", ".ffn_ln.bias")):
        return "layer_norm"
    if name.startswith("final_ln."):
        return "layer_norm"
    if name.endswith((".q_proj", ".k_proj", ".v_proj", ".o_proj")):
        return "attention"
    if name.endswith((".ffn_in", ".ffn_out")):
        return "ffn"
    if name == "mlm_head":
        return "head"
    raise ConfigError(f"unknown parameter name {name!r}")


def real32_payload_bytes(numel: int) -> int:
    return 4 * numel


def int4_payload_bytes(numel: int, block_size: int) -> int:
    nblocks = (numel + block_size - 1) // block_size
    return 4 + 4 + 4 * nblocks + (numel + 1) // 2


def quantize_model(model, policy: QuantPolicy | None = None):
    """Return a copy of the model whose selected weight families are int4.

    Only matmul-path families (attention / ffn / head) may quantize; embeddings
    and layer norms always stay real32. Already-quantized tensors are kept
    verbatim, which makes repeated quantization byte-stable.
    """
    policy = policy or QuantPolicy()
    bad = policy.families - QUANTIZABLE_FAMILIES
    if bad:
        raise ConfigError(f"families not quantizable at runtime: {sorted(bad)}")
    new_params = {}
    for name, w in model.params.items():
        if isinstance(w, QuantizedTensor):
            new_params[name] = w
        elif param_family(name) in policy.families:
            new_params[name] = quantize_int4(w, policy.block_size)
        else:
            new_params[name] = w
    return replace(model, params=new_params)


def memory_footprint(model) -> dict[str, int]:
    """Checkpoint payload bytes per tensor family for an in-memory model.

    Counts tensor payloads only (names and shape headers excluded), so the
    numbers are directly comparable across real32 and int4 variants.
    """
    totals: dict[str, int] = {}
    for name, w in model.params.items():
        fam = param_family(name)
        if isinstance(w, QuantizedTensor):
            nbytes = int4_payload_bytes(w.numel, w.block_size)
        else:
            nbytes = real32_payload_bytes(int(np.prod(w.shape)))
        totals[fam] = totals.get(fam, 0) + nbytes
    totals["total"] = sum(totals.values())
    return totals
