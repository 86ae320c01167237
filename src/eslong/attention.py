"""Scaled dot-product attention: attend, the one kernel forward runs, and its backward.

Local mode computes the [heads, n, window_k + 1] probability band on tiles, in
forward and backward: each block of _BLOCK query rows takes one matmul against
the _BLOCK + window_k keys its rows can see, and the band is read off the
tile's diagonals, so no n x n matrix is built and the cost is O(n * window_k).
An OpCounter threaded through attend receives the number of in-band query-key
pairs, which is how the linear-versus-quadratic cost claims are checked; the
tiles also compute up to (_BLOCK + window_k) / (window_k + 1) times as many
products, which are discarded.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import ConfigError, ContractError, ShapeError
from .tensor_ops import softmax_rows

GLOBAL = "global"
LOCAL = "local"


@dataclass(frozen=True)
class AttentionSpec:
    """Attention flavor of a model.

    mode is "global" (every token sees every token) or "local" (token i sees
    token j only when |i - j| <= window_k / 2). window_k is the total window
    span and must be even; it is present exactly when mode is local.
    """

    mode: str
    num_heads: int
    head_dim: int
    window_k: int | None = None

    def __post_init__(self):
        if self.mode not in (GLOBAL, LOCAL):
            raise ConfigError(f"unknown attention mode {self.mode!r}")
        if self.num_heads < 1 or self.head_dim < 1:
            raise ConfigError("num_heads and head_dim must be positive")
        if self.mode == LOCAL:
            if self.window_k is None or self.window_k < 2 or self.window_k % 2 != 0:
                raise ConfigError("local attention requires an even window_k >= 2")
        elif self.window_k is not None:
            raise ConfigError("window_k is only meaningful for local attention")


class OpCounter:
    """Thread-safe accumulator for query-key score evaluations.

    Kernels add the number of pairs they actually computed; concurrent workers
    may share one counter because accumulation happens under a lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0

    def add(self, n: int) -> None:
        with self._lock:
            self._count += int(n)

    @property
    def count(self) -> int:
        return self._count


def _check_qkv(q, k, v, pad_mask):
    q = np.asarray(q)
    k = np.asarray(k)
    v = np.asarray(v)
    if q.ndim != 2 or q.shape != k.shape or q.shape != v.shape:
        raise ShapeError(f"q/k/v must share one [n, d] shape, got {q.shape}, {k.shape}, {v.shape}")
    pad = np.asarray(pad_mask, dtype=bool)
    if pad.shape != (q.shape[0],):
        raise ShapeError(f"pad_mask length {pad.shape} does not match n={q.shape[0]}")
    if pad.all():
        raise ContractError("every position is padded; attention needs at least one unmasked token")
    return q, k, v, pad


_BLOCK = 64   # query rows per tile
_CHUNK = 4    # tiles per batched matmul; bounds the transient score tiles


def _band(tile, width: int):
    """View of tile [..., rows, span] whose [..., i, c] is tile[..., i, i + c]."""
    *lead, rows, _ = tile.shape
    *lead_strides, row_stride, col_stride = tile.strides
    return as_strided(tile, (*lead, rows, width),
                      (*lead_strides, row_stride + col_stride, col_stride))


def _row_blocks(x, start: int, blocks: int):
    """Rows start : start + blocks * _BLOCK of x [heads, n, m] as [heads, blocks,
    _BLOCK, m], zero-filled past row n."""
    heads, _, m = x.shape
    rows = x[:, start:start + blocks * _BLOCK]
    short = blocks * _BLOCK - rows.shape[1]
    if short:
        rows = np.concatenate([rows, np.zeros((heads, short, m), dtype=x.dtype)], axis=1)
    return rows.reshape(heads, blocks, _BLOCK, m)


def _key_windows(x, w: int, blocks: int):
    """Read-only [heads, blocks, m, _BLOCK + 2w] windows over x [heads, n, m].

    x is zero-padded on the key axis to w + blocks * _BLOCK + w rows, and
    window b spans padded rows b * _BLOCK : b * _BLOCK + _BLOCK + 2w, the keys
    that query block b can see, transposed for the scores matmul.
    """
    heads, n, m = x.shape
    padded = np.zeros((heads, blocks * _BLOCK + 2 * w, m), dtype=x.dtype)
    padded[:, w:w + n] = x
    return sliding_window_view(padded, _BLOCK + 2 * w, axis=1)[:, ::_BLOCK]


def _band_pairs(n: int, w: int) -> int:
    """Query-key pairs with |i - j| <= w inside a length-n sequence."""
    m = min(w, n - 1)
    return n + 2 * m * n - m * (m + 1)


def attend(qh, kh, vh, pad, spec: AttentionSpec, counter: OpCounter | None = None):
    """Multi-head attention under spec's visibility rule; returns (ctx, probs).

    qh/kh/vh are [heads, n, head_dim]; pad marks keys no query may see, and a
    query with no visible key gets zeros. probs, kept for attend_backward, is
    [heads, n, n] in global mode and in local mode the band [heads, n,
    window_k + 1] whose column c holds key i + c - window_k / 2.

    Local mode computes the band on tiles: each block of _BLOCK query rows
    takes one matmul against the _BLOCK + window_k keys it can see, and the
    band is read off the tile's diagonals; keys outside the sequence count as
    padded. counter receives the number of in-band query-key pairs, summed
    over heads. The tiles also evaluate up to (_BLOCK + window_k) /
    (window_k + 1) times as many products, which are discarded.
    """
    heads, n, head_dim = qh.shape
    scale = 1.0 / math.sqrt(head_dim)
    if spec.mode == GLOBAL:
        scores = qh @ kh.transpose(0, 2, 1)
        scores *= scale
        if counter is not None:
            counter.add(heads * n * n)
        if pad.any():
            scores[:, :, pad] = -np.inf
        probs = softmax_rows(scores)
        return probs @ vh, probs
    w, width = spec.window_k // 2, spec.window_k + 1
    blocks = -(-n // _BLOCK)
    k_windows = _key_windows(kh, w, blocks)
    v_windows = _key_windows(vh, w, blocks)
    hidden = np.ones(blocks * _BLOCK + 2 * w, dtype=bool)
    hidden[w:w + n] = pad
    hidden = sliding_window_view(hidden, width).reshape(blocks, _BLOCK, width)
    if counter is not None:
        counter.add(heads * _band_pairs(n, w))
    probs = np.empty((heads, n, width), dtype=qh.dtype)
    ctx = np.empty_like(vh)
    for b0 in range(0, blocks, _CHUNK):
        b1 = min(blocks, b0 + _CHUNK)
        r0, r1 = b0 * _BLOCK, min(n, b1 * _BLOCK)
        tile = _row_blocks(qh, r0, b1 - b0) @ k_windows[:, b0:b1]
        band = _band(tile, width) * scale
        np.copyto(band, -np.inf, where=hidden[b0:b1])
        band = softmax_rows(band)
        probs[:, r0:r1] = band.reshape(heads, -1, width)[:, :r1 - r0]
        tile[...] = 0.0
        _band(tile, width)[...] = band
        out = tile @ v_windows[:, b0:b1].swapaxes(-1, -2)
        ctx[:, r0:r1] = out.reshape(heads, -1, head_dim)[:, :r1 - r0]
    return ctx, probs


def attend_backward(d_ctx, qh, kh, vh, probs, spec: AttentionSpec):
    """Gradients (d_qh, d_kh, d_vh) of attend's ctx, given d_ctx and attend's probs.

    Local mode runs on attend's tiles: per block, d_probs is the band of
    d_ctx @ V_windowᵀ, d_q is tile(d_scores) @ K_window, and d_k, d_v are
    tileᵀ @ {q, d_ctx} overlap-added into the padded key axis.

    The scale is a Python float, as in attend, so the gradients keep the
    inputs' dtype (a NumPy float64 scalar would promote float32 to float64).
    """
    scale = 1.0 / math.sqrt(qh.shape[-1])
    if spec.mode == GLOBAL:
        d_probs = d_ctx @ vh.transpose(0, 2, 1)
        d_vh = probs.transpose(0, 2, 1) @ d_ctx
        d_scores = probs * (d_probs - (d_probs * probs).sum(axis=-1, keepdims=True))
        d_qh = (d_scores @ kh) * scale
        d_kh = (d_scores.transpose(0, 2, 1) @ qh) * scale
        return d_qh, d_kh, d_vh
    heads, n, head_dim = qh.shape
    w, width, span = spec.window_k // 2, spec.window_k + 1, _BLOCK + spec.window_k
    blocks = -(-n // _BLOCK)
    k_windows = _key_windows(kh, w, blocks)
    v_windows = _key_windows(vh, w, blocks)
    d_qh = np.empty_like(qh)
    d_kp = np.zeros((heads, blocks * _BLOCK + 2 * w, head_dim), dtype=kh.dtype)
    d_vp = np.zeros((heads, blocks * _BLOCK + 2 * w, head_dim), dtype=vh.dtype)
    for b0 in range(0, blocks, _CHUNK):
        b1 = min(blocks, b0 + _CHUNK)
        r0, r1 = b0 * _BLOCK, min(n, b1 * _BLOCK)
        q_rows = _row_blocks(qh, r0, b1 - b0)
        d_rows = _row_blocks(d_ctx, r0, b1 - b0)
        p_band = _row_blocks(probs, r0, b1 - b0)
        tile = d_rows @ v_windows[:, b0:b1]
        d_probs = _band(tile, width)
        d_scores = p_band * (d_probs - (d_probs * p_band).sum(axis=-1, keepdims=True)) * scale
        tile[...] = 0.0
        _band(tile, width)[...] = d_scores
        d_q = tile @ k_windows[:, b0:b1].swapaxes(-1, -2)
        d_qh[:, r0:r1] = d_q.reshape(heads, -1, head_dim)[:, :r1 - r0]
        d_k = tile.swapaxes(-1, -2) @ q_rows
        _band(tile, width)[...] = p_band
        d_v = tile.swapaxes(-1, -2) @ d_rows
        for j in range(b1 - b0):
            keys = slice((b0 + j) * _BLOCK, (b0 + j) * _BLOCK + span)
            d_kp[:, keys] += d_k[:, j]
            d_vp[:, keys] += d_v[:, j]
    return d_qh, d_kp[:, w:w + n], d_vp[:, w:w + n]


def _single_head(q, k, v, pad, spec, counter):
    ctx, _ = attend(q[None], k[None], v[None], pad, spec, counter)
    out = ctx[0]
    out[pad] = 0.0
    return out


def global_attention(q, k, v, pad_mask, counter: OpCounter | None = None) -> np.ndarray:
    """Full attention: out[i] = sum_j softmax_j(q_i . k_j / sqrt(d)) v_j over unmasked j.

    Padded positions neither contribute as keys nor produce output (their rows
    are zeroed). Evaluates all n^2 score pairs.
    """
    q, k, v, pad = _check_qkv(q, k, v, pad_mask)
    return _single_head(q, k, v, pad, AttentionSpec(GLOBAL, 1, q.shape[1]), counter)


def local_attention(q, k, v, pad_mask, window_k: int, counter: OpCounter | None = None) -> np.ndarray:
    """Windowed attention: position i attends to j with |i - j| <= window_k / 2.

    The counter receives exactly sum_i |visible(i)| pairs (windows clip at the
    sequence edges; no wraparound).
    Every window holds its own query, so an unpadded query always sees a key.
    """
    if window_k < 2 or window_k % 2 != 0:
        raise ContractError("window_k must be an even integer >= 2")
    q, k, v, pad = _check_qkv(q, k, v, pad_mask)
    return _single_head(q, k, v, pad, AttentionSpec(LOCAL, 1, q.shape[1], window_k), counter)


def score_op_count(n: int, spec: AttentionSpec) -> int:
    """Run attend on a length-n input and report the instrumented number of
    query-key pairs per head (n^2 for global, the clipped band size for
    local)."""
    if n < 1:
        raise ContractError("sequence length must be >= 1")
    x = np.zeros((1, n, spec.head_dim), dtype=np.float32)
    counter = OpCounter()
    attend(x, x, x, np.zeros(n, dtype=bool), spec, counter=counter)
    return counter.count
