"""Scaled dot-product attention: attend, the one kernel forward runs, and its backward.

Both modes run one loop over query blocks. Each block takes one matmul against
the keys it can see: in local mode its own rows plus window_k / 2 keys on each
side, in global mode all n keys. So local cost is O(n * window_k), and scores
are built one block at a time in a buffer that every block reuses. No
probability tile outlives its block: attend keeps each row's softmax max and
sum ([heads, n] each), and attend_backward recomputes every tile from q, k and
those statistics, as FlashAttention does. A global attend at n keys therefore
holds one block's [heads, 256, n] tile, not heads * n^2 floats. An OpCounter
threaded through attend receives the number of visible query-key pairs, which
is how the linear-versus-quadratic cost claims are checked; the local tiles
also compute up to (rows + window_k) / (window_k + 1) times as many products,
which are discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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


_LOCAL_ROWS = 32     # most query rows per block in local mode
_GLOBAL_ROWS = 256   # most query rows per block in global mode


class _Geometry(NamedTuple):
    """How attend cuts a length-n input into query blocks and key windows.

    Block b holds query rows b * rows : (b + 1) * rows (the last may be
    shorter) and sees rows b * step : b * step + keys of a zero-padded key
    axis, length rows long, that holds K/V from row lead on. Query i sees
    key j when |i - j| <= w.
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


def _padded(x, g: _Geometry):
    """x [heads, n, m] at rows g.lead : g.lead + n of zeros [heads, g.length, m];
    x itself when that adds no rows."""
    heads, n, m = x.shape
    if g.length == n:
        return x
    out = np.zeros((heads, g.length, m), dtype=x.dtype)
    out[:, g.lead:g.lead + n] = x
    return out


def _band_pairs(n: int, w: int) -> int:
    """Query-key pairs with |i - j| <= w < n inside a length-n sequence."""
    return n + 2 * w * n - w * (w + 1)


class SoftmaxStats(NamedTuple):
    """What attend keeps for attend_backward: each row's max and sum of
    exponentials ([heads, n], from softmax_rows) and the pad mask."""

    row_max: np.ndarray
    row_sum: np.ndarray
    pad: np.ndarray


class _Tiles:
    """The query blocks of _geometry over one input, with the keys each block
    sees and `buffers` tile buffers that every block reuses; buffer 0 holds
    the scores. attend and attend_backward both build their tiles here, so
    they mask the same keys and compute the same bits."""

    def __init__(self, qh, kh, vh, pad, spec: AttentionSpec, buffers: int):
        heads, n, head_dim = qh.shape
        g = _geometry(n, spec)
        self.g, self.n, self.qh = g, n, qh
        self.scale = 1.0 / math.sqrt(head_dim)
        self.kp, self.vp = _padded(kh, g), _padded(vh, g)
        self.hidden_keys = np.ones(g.length, dtype=bool)
        self.hidden_keys[g.lead:g.lead + n] = pad
        self.query_at, self.key_at = np.arange(n), np.arange(g.length) - g.lead
        # One allocation for all buffers. malloc keeps one freed block for
        # the next call; several, freed together, would leave a heap top it
        # returns to the OS, to be faulted in again on every call.
        self.work = np.empty((buffers, qh.shape[0] * g.rows * g.keys), dtype=qh.dtype)

    def tile(self, buffer: int, rows: slice):
        """Buffer `buffer` as a [heads, len(rows), keys] array. It is a prefix of
        the buffer, so a shorter last block is contiguous too and runs the same
        kernels, which keeps the recomputed tiles bit-identical."""
        heads, size = self.qh.shape[0], rows.stop - rows.start
        return self.work[buffer, :heads * size * self.g.keys].reshape(heads, size, self.g.keys)

    def __iter__(self):
        """(query rows, padded key window) slices of each block, in order."""
        g = self.g
        for b, r0 in enumerate(range(0, self.n, g.rows)):
            yield slice(r0, min(self.n, r0 + g.rows)), slice(b * g.step, b * g.step + g.keys)

    def masked_scores(self, rows, keys):
        """The block's scaled scores in the score buffer, with keys hidden
        from a query (outside the sequence, padded, or beyond w) at -inf."""
        scores = np.matmul(self.qh[:, rows], self.kp[:, keys].swapaxes(-1, -2),
                           out=self.tile(0, rows))
        scores *= self.scale
        i, j = self.query_at[rows, None], self.key_at[keys]
        hidden = self.hidden_keys[keys] | (j < i - self.g.w) | (j > i + self.g.w)
        if hidden.any():
            np.copyto(scores, -np.inf, where=hidden)
        return scores


def attend(qh, kh, vh, pad, spec: AttentionSpec, counter: OpCounter | None = None):
    """Multi-head attention under spec's visibility rule; returns (ctx, stats).

    qh/kh/vh are [heads, n, head_dim]; pad marks keys no query may see, and a
    query with no visible key gets zeros. One loop walks the query blocks of
    _geometry: each block's scores are one matmul against its key window into
    a buffer reused by every block, hidden keys (outside the sequence, padded,
    or beyond w) are set to -inf, softmax_rows turns the tile into
    probabilities in place, and ctx is the tile @ V_window. No tile outlives
    its block: stats, a SoftmaxStats, keeps only the row max and row sum that
    softmax_rows used, from which attend_backward rebuilds each tile.

    counter receives the number of visible query-key pairs, summed over heads
    (n^2 per head in global mode). In local mode the tiles also evaluate up to
    (rows + window_k) / (window_k + 1) times as many products, which are
    discarded.
    """
    heads, n, _ = qh.shape
    tiles = _Tiles(qh, kh, vh, pad, spec, buffers=1)
    if counter is not None:
        counter.add(heads * _band_pairs(n, tiles.g.w))
    ctx = np.empty_like(vh)
    row_max = np.empty((heads, n), dtype=qh.dtype)
    row_sum = np.empty((heads, n), dtype=qh.dtype)
    for rows, keys in tiles:
        scores = tiles.masked_scores(rows, keys)
        tile, (m, total) = softmax_rows(scores, out=scores, return_stats=True)
        row_max[:, rows], row_sum[:, rows] = m[..., 0], total[..., 0]
        np.matmul(tile, tiles.vp[:, keys], out=ctx[:, rows])
    return ctx, SoftmaxStats(row_max, row_sum, pad)


def attend_backward(d_ctx, qh, kh, vh, stats: SoftmaxStats, spec: AttentionSpec):
    """Gradients (d_qh, d_kh, d_vh) of attend's ctx, given d_ctx and attend's stats.

    The same loop over attend's blocks. Each tile is recomputed, not read
    back: the block's masked scores go through softmax_rows with attend's row
    max and row sum, which repeats attend's probabilities bit for bit. Then
    d_probs = d_ctx @ V_windowᵀ becomes d_scores in place, d_q = d_scores @
    K_window, and d_k, d_v are tileᵀ @ {q, d_ctx} overlap-added into the
    padded key axis. Three tile buffers are reused by every block.

    The scale is a Python float, as in attend, so the gradients keep the
    inputs' dtype (a NumPy float64 scalar would promote float32 to float64).
    """
    n = qh.shape[1]
    tiles = _Tiles(qh, kh, vh, stats.pad, spec, buffers=3)
    g, kp, vp, scale = tiles.g, tiles.kp, tiles.vp, tiles.scale
    d_qh = np.empty_like(qh)
    d_kp, d_vp = np.zeros_like(kp), np.zeros_like(vp)
    for rows, keys in tiles:
        scores = tiles.masked_scores(rows, keys)
        tile = softmax_rows(scores, out=scores,
                            stats=(stats.row_max[:, rows, None], stats.row_sum[:, rows, None]))
        d_vp[:, keys] += tile.swapaxes(-1, -2) @ d_ctx[:, rows]
        d_scores = np.matmul(d_ctx[:, rows], vp[:, keys].swapaxes(-1, -2),
                             out=tiles.tile(1, rows))
        d_scores -= np.multiply(d_scores, tile, out=tiles.tile(2, rows)).sum(
            axis=-1, keepdims=True)
        d_scores *= tile
        d_qh[:, rows] = (d_scores @ kp[:, keys]) * scale
        d_kp[:, keys] += (d_scores.swapaxes(-1, -2) @ qh[:, rows]) * scale
    return d_qh, d_kp[:, g.lead:g.lead + n], d_vp[:, g.lead:g.lead + n]


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
