"""Scaled dot-product attention: attend, the one kernel forward runs, and its backward.

Both modes run one loop over query blocks. Each block takes one matmul against
the keys it can see: in local mode its own rows plus window_k / 2 keys on each
side, in global mode all n keys, so local cost is O(n * window_k). The loop
follows FlashAttention-2: q is scaled once, a tile is exponentiated but never
normalized (the context rows are divided instead), and no tile outlives its
block. The shift subtracted before exp only keeps exp in range, so a head
whose scores in a block a Cauchy-Schwarz bound, |q . k| <= |q| * max |k|,
proves small takes no shift there; every other head subtracts its exact row
max. Every step is taken per head, so attend may split the heads over a
LayerPool's threads and compute the same bits. attend keeps each row's
shift and sum and ctx; attend_backward rebuilds every tile from them and
takes the softmax gradient's row term as rowsum(d_ctx * ctx). A global
attend at n keys holds one block's [heads, 256, n] tile, not heads * n^2
floats. An OpCounter threaded through attend receives the number of visible
query-key pairs, which is how the linear-versus-quadratic cost claims are
checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .parallel import INLINE, LayerPool
from .tensor_ops import row_shift, shifted_exp, softmax_rows

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
    """Accumulator for query-key score evaluations.

    Kernels add the number of pairs they actually computed. It takes no lock,
    so a counter must not be shared across threads.
    """

    def __init__(self) -> None:
        self._count = 0

    def add(self, n: int) -> None:
        self._count += int(n)

    @property
    def count(self) -> int:
        return self._count


def _check_qkv(q, k, v, pad_mask):
    q, k, v = (np.asarray(x) for x in (q, k, v))
    if q.ndim != 2 or q.shape != k.shape or q.shape != v.shape:
        raise ShapeError(f"q/k/v must share one [n, d] shape, got {q.shape}, {k.shape}, {v.shape}")
    pad = np.asarray(pad_mask, dtype=bool)
    if pad.shape != (q.shape[0],):
        raise ShapeError(f"pad_mask length {pad.shape} does not match n={q.shape[0]}")
    if pad.all():
        raise ContractError("every position is padded; attention needs at least one unmasked token")
    return q, k, v, pad


_LOCAL_ROWS = 32     # most query rows per block in local mode
_GLOBAL_ROWS = 256   # most query rows per block in global mode
# A block whose scaled scores are bounded by T in magnitude is exponentiated
# without a shift. Each term then lies in [e^-T, e^T], about [3e-4, 3e3] for
# T = 8: the row's largest term stays a normal float32, far from underflow,
# and ctx_sum grows at most e^T-fold over a shifted block's n * max |v|, far
# from overflow.
_NO_SHIFT_BOUND = 8.0


class _Geometry(NamedTuple):
    """How attend cuts a length-n input into query blocks and key windows.

    Block b holds query rows b * rows : (b + 1) * rows (the last may be
    shorter) and sees rows b * step : b * step + keys of a zero-padded key
    axis, length rows long, that holds K/V from row lead on. Query i sees
    key j when |i - j| <= w. Which of a block's window keys lie beyond w of
    its t-th row is the same in every block: local windows move with their
    rows (step == rows), and a global w = n - 1 hides no key.
    """

    rows: int
    keys: int
    step: int
    lead: int
    w: int
    length: int


def _geometry(n: int, spec: AttentionSpec) -> _Geometry:
    """Local blocks see their rows plus w keys on each side, one block apart;
    global blocks all see the n keys. Rows are cut into near-equal blocks."""
    max_rows = _LOCAL_ROWS if spec.mode == LOCAL else _GLOBAL_ROWS
    blocks = -(-n // max_rows)
    rows = -(-n // blocks)
    if spec.mode == LOCAL:
        w = min(spec.window_k // 2, n - 1)
        return _Geometry(rows, rows + 2 * w, rows, w, w, blocks * rows + 2 * w)
    return _Geometry(rows, n, 0, 0, n - 1, n)


def _pad_buffer(x, g: _Geometry, ones: bool = False):
    """Zeros [heads, g.length, m] for x [heads, n, m] padded, with one more
    column when ones is set; x itself when padding adds nothing."""
    heads, n, m = x.shape
    if g.length == n and not ones:
        return x
    return np.zeros((heads, g.length, m + ones), dtype=x.dtype)


def _pad_into(out, x, g: _Geometry, heads: slice) -> None:
    """x's heads at rows g.lead : g.lead + n of out (a _pad_buffer of x), and
    ones in the extra last column when out has one."""
    if out is x:
        return
    n, m = x.shape[1:]
    out[heads, g.lead:g.lead + n, :m] = x[heads]
    if out.shape[2] > m:
        out[heads, :, m] = 1.0


def _band_pairs(n: int, w: int) -> int:
    """Query-key pairs with |i - j| <= w < n inside a length-n sequence."""
    return n + 2 * w * n - w * (w + 1)


class SoftmaxStats(NamedTuple):
    """What attend keeps for attend_backward: each row's shift (0 where the
    norm bound proved the head's block small, else the row's max) and sum of
    exponentials ([heads, n]), the pad mask and attend's ctx."""

    row_max: np.ndarray
    row_sum: np.ndarray
    pad: np.ndarray
    ctx: np.ndarray


class _Tiles:
    """The query blocks of _geometry over one input, the scaled queries and
    padded keys load fills in, head by head, and `buffers` tile buffers (0
    holds the scores), made by allocate and reused by every block. attend and
    attend_backward both build tiles here, so they compute the same bits."""

    def __init__(self, qh, kh, pad, spec: AttentionSpec, buffers: int):
        heads, n, head_dim = qh.shape
        g = _geometry(n, spec)
        self.g, self.n = g, n
        # q is scaled once, on [heads, n, head_dim], not every tile; load
        # fills qs and kp.
        self.scale = 1.0 / math.sqrt(head_dim)
        self.qh, self.kh = qh, kh
        self.qs, self.kp = np.empty(qh.shape, qh.dtype), _pad_buffer(kh, g)
        # Global mode without pad hides no key, so it builds no mask.
        self.hides = g.length != n or g.w != n - 1 or bool(pad.any())
        self.hidden_keys = np.pad(pad, (g.lead, g.length - g.lead - n), constant_values=True)
        # The band part of the mask is the same in every block (see _Geometry),
        # so it is built once, on block 0, and a shorter last block takes a prefix.
        i, j = np.arange(g.rows)[:, None], np.arange(g.keys) - g.lead
        self.band = (j < i - g.w) | (j > i + g.w)
        self.buffers = buffers
        self.work = None

    def load(self, heads: slice) -> None:
        """The heads' scaled queries into qs and padded keys into kp."""
        np.multiply(self.qh[heads], self.scale, out=self.qs[heads])
        _pad_into(self.kp, self.kh, self.g, heads)

    def allocate(self) -> None:
        """One allocation for all tile buffers, made after every [heads, n, *]
        array: freed above what outlives the call, it is the one block malloc
        keeps for the next call, not a hole that raises peak RSS."""
        heads, g = self.qs.shape[0], self.g
        self.work = np.empty((self.buffers, heads * g.rows * g.keys), self.qs.dtype)

    def tile(self, buffer: int, rows: slice, heads: slice):
        """The heads' share of buffer `buffer` as a [heads, len(rows), keys]
        array. It is a prefix of that share, so a shorter last block is
        contiguous too and runs the same kernels, which keeps the recomputed
        tiles bit-identical; the heads of concurrent parts share no memory."""
        g, size = self.g, rows.stop - rows.start
        lo = heads.start * g.rows * g.keys
        count = (heads.stop - heads.start) * size * g.keys
        return self.work[buffer, lo:lo + count].reshape(-1, size, g.keys)

    def blocks(self):
        """(query rows, padded key window) slices of each block, in order."""
        g = self.g
        for b, r0 in enumerate(range(0, self.n, g.rows)):
            yield slice(r0, min(self.n, r0 + g.rows)), slice(b * g.step, b * g.step + g.keys)

    def masked_scores(self, rows, keys, heads: slice):
        """The heads' scaled scores of the block in their score buffer, with
        keys hidden from a query (outside the sequence, padded, or beyond w)
        at -inf."""
        scores = np.matmul(self.qs[heads, rows], self.kp[heads, keys].swapaxes(-1, -2),
                           out=self.tile(0, rows, heads))
        if self.hides:
            hidden, edge = self.band[:rows.stop - rows.start], self.hidden_keys[keys]
            if edge.any():
                hidden = hidden | edge
            np.copyto(scores, -np.inf, where=hidden)
        return scores


def attend(qh, kh, vh, pad, spec: AttentionSpec, counter: OpCounter | None = None,
           pool: LayerPool = INLINE):
    """Multi-head attention under spec's visibility rule; returns (ctx, stats).

    qh/kh/vh are [heads, n, head_dim]; pad marks keys no query may see, and a
    query with no visible key gets zeros. Per block: scaled q @ K_windowᵀ,
    hidden keys (outside the sequence, padded, or beyond w) at -inf when any
    can be, shifted_exp in place, then one matmul with V_window and a column
    of ones for the unnormalized context and the row sums; the context rows,
    not the tile, are divided by those sums. The shift is the one used: 0 for
    a head whose |scaled q_i| * max_j |k_j| is at most _NO_SHIFT_BOUND in
    every row of the block, which skips the row max and the subtraction, and
    each row's max elsewhere. stats, a SoftmaxStats, keeps the shift, row
    sum and ctx, from which attend_backward rebuilds each tile.

    pool runs the block loop with the heads split into its parts, inline by
    default. Every step above is taken per head, so the bits do not depend
    on how the heads are grouped.

    counter receives the number of visible query-key pairs, summed over heads
    (n^2 per head in global mode); local tiles also evaluate up to
    (rows + window_k) / (window_k + 1) times as many products, discarded.
    """
    heads, n, head_dim = qh.shape
    # Outputs, V, then tiles: other allocation orders raised embed's peak RSS by up to 15 MB.
    ctx_sum, row_max = np.empty((heads, n, head_dim + 1), vh.dtype), np.empty((heads, n), qh.dtype)
    vp = _pad_buffer(vh, _geometry(n, spec), ones=True)
    tiles = _Tiles(qh, kh, pad, spec, buffers=1)
    if counter is not None:
        counter.add(heads * _band_pairs(n, tiles.g.w))
    tiles.allocate()

    def run_heads(h: slice):
        tiles.load(h)
        _pad_into(vp, vh, tiles.g, h)
        # Cauchy-Schwarz bounds every score of row i in head h by bound[h, i].
        k_max = np.sqrt(np.einsum("hnd,hnd->hn", kh[h], kh[h]).max(axis=-1, keepdims=True))
        bound = np.sqrt(np.einsum("hnd,hnd->hn", tiles.qs[h], tiles.qs[h])) * k_max
        for rows, keys in tiles.blocks():
            scores = tiles.masked_scores(rows, keys, h)
            small = bound[:, rows].max(axis=-1) <= _NO_SHIFT_BOUND
            if small.all():
                shift = 0.0
            else:
                shift = row_shift(scores)
                shift[small] = 0.0
            shifted_exp(scores, out=scores, row_max=shift)
            row_max[h, rows, None] = shift
            np.matmul(scores, vp[h, keys], out=ctx_sum[h, rows])
        total = ctx_sum[h, :, head_dim:]
        total[total == 0] = 1.0
        ctx_sum[h, :, :head_dim] /= total

    pool.run(run_heads, pool.split(heads))
    ctx = ctx_sum[..., :head_dim]
    return ctx, SoftmaxStats(row_max, ctx_sum[..., head_dim], pad, ctx)


def attend_backward(d_ctx, qh, kh, vh, stats: SoftmaxStats, spec: AttentionSpec):
    """Gradients (d_qh, d_kh, d_vh) of attend's ctx, given d_ctx and attend's stats.

    The same loop over attend's blocks. Each tile is recomputed: the masked
    scores go through softmax_rows with attend's shift and row sum, which
    subtracts nothing in a block whose shift is all zero, as attend did, so
    the tile matches attend's bit for bit. Then
    d_probs = d_ctx @ V_windowᵀ becomes d_scores = tile * (d_probs - D) in
    place, with D = rowsum(d_ctx * ctx) taken once on [heads, n, head_dim];
    d_q = d_scores @ K_window, and d_k, d_v are tileᵀ @ {scaled q, d_ctx}
    overlap-added into the padded key axis. Two tile buffers serve all blocks.

    The scale is a Python float, as in attend, so the gradients keep the
    inputs' dtype (a NumPy float64 scalar would promote float32 to float64).
    """
    tiles = _Tiles(qh, kh, stats.pad, spec, buffers=2)
    every_head = slice(0, qh.shape[0])
    tiles.load(every_head)
    g, n, qs, kp, vp = tiles.g, tiles.n, tiles.qs, tiles.kp, _pad_buffer(vh, tiles.g)
    _pad_into(vp, vh, g, every_head)
    d_rows = (d_ctx * stats.ctx).sum(axis=-1, keepdims=True)
    d_qh, d_kp, d_vp = np.empty_like(qh), np.zeros_like(kp), np.zeros_like(vp)
    tiles.allocate()
    for rows, keys in tiles.blocks():
        scores = tiles.masked_scores(rows, keys, every_head)
        tile = softmax_rows(scores, out=scores,
                            stats=(stats.row_max[:, rows, None], stats.row_sum[:, rows, None]))
        d_vp[:, keys] += tile.swapaxes(-1, -2) @ d_ctx[:, rows]
        d_scores = np.matmul(d_ctx[:, rows], vp[:, keys].swapaxes(-1, -2),
                             out=tiles.tile(1, rows, every_head))
        d_scores -= d_rows[:, rows]
        d_scores *= tile
        d_qh[:, rows] = (d_scores @ kp[:, keys]) * tiles.scale
        d_kp[:, keys] += d_scores.swapaxes(-1, -2) @ qs[:, rows]
    return d_qh, d_kp[:, g.lead:g.lead + n], d_vp[:, g.lead:g.lead + n]


def _single_head(q, k, v, pad, spec, counter):
    out = attend(q[None], k[None], v[None], pad, spec, counter)[0][0]
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
