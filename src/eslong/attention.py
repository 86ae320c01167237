"""Scaled dot-product attention: attend, the one kernel forward runs, and its backward.

Local mode walks the window_k + 1 diagonals of the score matrix, in forward
and backward, so only query-key pairs inside the visibility band are ever
evaluated; threading an OpCounter through attend reports the exact number of
evaluated pairs, which is how the linear-versus-quadratic cost claims are checked.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

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


def _diagonals(n: int, window_k: int):
    """(band column, key offset, lo, hi) for each in-range diagonal of the band:
    query rows lo:hi see key rows lo + offset:hi + offset."""
    w = window_k // 2
    for col, off in enumerate(range(-w, w + 1)):
        lo, hi = max(0, -off), min(n, n - off)
        if lo < hi:
            yield col, off, lo, hi


def attend(qh, kh, vh, pad, spec: AttentionSpec, counter: OpCounter | None = None):
    """Multi-head attention under spec's visibility rule; returns (ctx, probs).

    qh/kh/vh are [heads, n, head_dim]; pad marks keys no query may see, and a
    query with no visible key gets zeros. probs, kept for attend_backward, is
    [heads, n, n] in global mode and in local mode the band [heads, n,
    window_k + 1] whose column c holds key i + c - window_k / 2. counter
    receives the number of scores evaluated, summed over heads.
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
    diagonals = list(_diagonals(n, spec.window_k))
    band = np.full((heads, n, spec.window_k + 1), -np.inf, dtype=qh.dtype)
    for col, off, lo, hi in diagonals:
        prod = np.einsum("hnd,hnd->hn", qh[:, lo:hi], kh[:, lo + off:hi + off]) * scale
        band[:, lo:hi, col] = np.where(pad[lo + off:hi + off], -np.inf, prod)
    if counter is not None:
        counter.add(heads * sum(hi - lo for _, _, lo, hi in diagonals))
    probs = softmax_rows(band)
    ctx = np.zeros_like(vh)
    for col, off, lo, hi in diagonals:
        ctx[:, lo:hi] += probs[:, lo:hi, col, None] * vh[:, lo + off:hi + off]
    return ctx, probs


def attend_backward(d_ctx, qh, kh, vh, probs, spec: AttentionSpec):
    """Gradients (d_qh, d_kh, d_vh) of attend's ctx, given d_ctx and attend's probs.

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
    diagonals = list(_diagonals(qh.shape[1], spec.window_k))
    d_probs, d_vh = np.zeros_like(probs), np.zeros_like(vh)
    for col, off, lo, hi in diagonals:
        d_probs[:, lo:hi, col] = np.einsum("hnd,hnd->hn", d_ctx[:, lo:hi],
                                           vh[:, lo + off:hi + off])
        d_vh[:, lo + off:hi + off] += probs[:, lo:hi, col, None] * d_ctx[:, lo:hi]
    d_scores = probs * (d_probs - (d_probs * probs).sum(axis=-1, keepdims=True)) * scale
    d_qh, d_kh = np.zeros_like(qh), np.zeros_like(kh)
    for col, off, lo, hi in diagonals:
        d_qh[:, lo:hi] += d_scores[:, lo:hi, col, None] * kh[:, lo + off:hi + off]
        d_kh[:, lo + off:hi + off] += d_scores[:, lo:hi, col, None] * qh[:, lo:hi]
    return d_qh, d_kh, d_vh


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

    Scores are computed diagonal-by-diagonal, so exactly sum_i |visible(i)|
    pairs are evaluated (windows clip at the sequence edges; no wraparound).
    Every window holds its own query, so an unpadded query always sees a key.
    """
    if window_k < 2 or window_k % 2 != 0:
        raise ContractError("window_k must be an even integer >= 2")
    q, k, v, pad = _check_qkv(q, k, v, pad_mask)
    return _single_head(q, k, v, pad, AttentionSpec(LOCAL, 1, q.shape[1], window_k), counter)


def score_op_count(n: int, spec: AttentionSpec) -> int:
    """Run attend on a length-n input and report the instrumented number of
    query-key evaluations per head (n^2 for global, the clipped band size for
    local)."""
    if n < 1:
        raise ContractError("sequence length must be >= 1")
    x = np.zeros((1, n, spec.head_dim), dtype=np.float32)
    counter = OpCounter()
    attend(x, x, x, np.zeros(n, dtype=bool), spec, counter=counter)
    return counter.count
