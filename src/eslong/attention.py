"""Scaled dot-product attention: attend, the one kernel forward runs, and its backward.

Both modes run one loop over query blocks. Each block takes one matmul against
the keys it can see: in local mode its own rows plus window_k / 2 keys on each
side, in global mode all n keys, so local cost is O(n * window_k). The loop
follows FlashAttention-2: it reads Q, K and V where they are and allocates
only its outputs and its tile buffers, a tile is exponentiated but never
normalized (the context rows are divided instead), and no tile outlives its
block. The operands are an Operands: Q already scaled by 1 / sqrt(head_dim),
K on the zero-padded key axis the blocks' windows index, and V on that axis
with a column of ones per head. The encoder's phase A writes them so with its
projections; attend and attend_backward take plain operands and copy them in
first. The shift subtracted before exp only keeps exp in range, so a head
whose scores in a block a Cauchy-Schwarz bound, |q . k| <= |q| * max |k|,
proves small takes no shift there; every other head subtracts its exact row
max. Every step is taken per head, so attend computes the same bits however
its heads are split over a LayerPool's threads or grouped within a part.
attend keeps each row's shift and sum and ctx; attend_backward rebuilds
every tile from them and takes the softmax gradient's row term as
rowsum(d_ctx * ctx). A part holds one tile buffer, for a group of heads
whose [heads, rows, keys] tile fits _TILE_BUDGET floats, not heads * n^2
floats. score_op_count reads the number of visible query-key pairs off the
same geometry that cuts attend's blocks, which is how the
linear-versus-quadratic cost claims are checked.
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
# Most elements of one tile buffer of a part (4 MB of float32): a part walks
# its heads in groups whose tile fits, or one by one when a head's does not.
# All 20 heads of a T6 global block at n = 1,022 would take 21 MB, and up to
# `workers` forwards run at once.
_TILE_BUDGET = 1 << 20


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


class Operands(NamedTuple):
    """Q, K and V in the layouts attend's blocks read, each a per-head view
    [heads, rows, cols] of one [rows, heads * cols] buffer:

    q  [heads, n, head_dim]: the queries times 1 / sqrt(head_dim);
    k  [heads, length, head_dim]: the keys at rows lead : lead + n of
       _geometry's key axis, zeros elsewhere;
    v  [heads, length, head_dim + 1]: the values on that axis, each head's
       head_dim columns followed by a column of ones, so that one product
       per block gives the unnormalized context and its row sums.

    allocate makes the buffers and project writes rows of them, as the
    encoder's projections do; prepare copies plain operands in.
    """

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray

    @classmethod
    def allocate(cls, n: int, spec: AttentionSpec, dtype) -> "Operands":
        g, heads, m = _geometry(n, spec), spec.num_heads, spec.head_dim
        v = np.zeros((g.length, heads, m + 1), dtype)
        v[..., m] = 1.0
        return cls(np.empty((n, heads, m), dtype).transpose(1, 0, 2),
                   np.zeros((g.length, heads, m), dtype).transpose(1, 0, 2),
                   v.transpose(1, 0, 2))

    @classmethod
    def prepare(cls, qh, kh, vh, spec: AttentionSpec) -> "Operands":
        """Plain [heads, n, head_dim] operands copied into allocate's layouts."""
        n, m = qh.shape[1:]
        lead = _geometry(n, spec).lead
        ops = cls.allocate(n, spec, np.result_type(qh, kh, vh))
        np.multiply(qh, 1.0 / math.sqrt(m), out=ops.q)
        ops.k[:, lead:lead + n] = kh
        ops.v[:, lead:lead + n, :m] = vh
        return ops

    def project(self, spec: AttentionSpec, rows: slice, h, w_q, w_k, w_v) -> None:
        """Rows `rows` of the input's Q, K and V as h @ w, h being those rows
        of the layer-norm output. q is scaled after its product, as a
        separate multiply, and k is written in place. v's rows come through
        a [rows, d] product copied in beside the ones: with OpenBLAS 0.3.31,
        a product through a w_v widened with zero columns rounded some rows
        differently (every row count at d = 32, under 16 rows at d = 320).
        Parts write disjoint rows."""
        heads, m = spec.num_heads, spec.head_dim
        lead = _geometry(self.q.shape[1], spec).lead
        keys = slice(lead + rows.start, lead + rows.stop)
        q = _buffer(self.q)[rows]
        np.matmul(h, w_q, out=q)
        np.multiply(q, 1.0 / math.sqrt(m), out=q)
        np.matmul(h, w_k, out=_buffer(self.k)[keys])
        self.v[:, keys, :m] = (h @ w_v).reshape(-1, heads, m).transpose(1, 0, 2)


def _buffer(x):
    """The [rows, heads * cols] buffer under one of allocate's views, as a
    view: the buffer is C-contiguous, so the reshape copies nothing."""
    return x.transpose(1, 0, 2).reshape(x.shape[1], -1)


class _Tiles:
    """The query blocks of _geometry over one input's Operands, and the
    groups of heads a part walks. allocate makes a part's `buffers` tile
    buffers (0 holds the scores), which every block of its groups reuses.
    attend_prepared and attend_prepared_backward both build tiles here, so
    they compute the same bits."""

    def __init__(self, ops: Operands, pad, spec: AttentionSpec, buffers: int):
        n, head_dim = ops.q.shape[1:]
        g = _geometry(n, spec)
        self.g, self.n, self.ops = g, n, ops
        self.scale = 1.0 / math.sqrt(head_dim)
        # Global mode without pad hides no key, so it builds no mask.
        self.hides = g.length != n or g.w != n - 1 or bool(pad.any())
        self.hidden_keys = np.pad(pad, (g.lead, g.length - g.lead - n), constant_values=True)
        # The band part of the mask is the same in every block (see _Geometry),
        # so it is built once, on block 0, and a shorter last block takes a prefix.
        i, j = np.arange(g.rows)[:, None], np.arange(g.keys) - g.lead
        self.band = (j < i - g.w) | (j > i + g.w)
        self.buffers = buffers
        self.group = max(1, _TILE_BUDGET // (g.rows * g.keys))

    def groups(self, heads: slice) -> list[slice]:
        """A part's heads cut into groups of at most self.group, in order."""
        return [slice(lo, min(heads.stop, lo + self.group))
                for lo in range(heads.start, heads.stop, self.group)]

    def allocate(self, heads: slice) -> np.ndarray:
        """The part's tile buffers, one allocation: `buffers` rows, each
        the size of its largest group's tile."""
        g = self.g
        group = min(self.group, heads.stop - heads.start)
        return np.empty((self.buffers, group * g.rows * g.keys), self.ops.q.dtype)

    def tile(self, work, buffer: int, rows: slice, heads: slice):
        """Buffer `buffer` of a part's work as the heads' [heads, len(rows),
        keys] tile. It is a prefix of the buffer, so a shorter last block is
        contiguous too and runs the same kernels, which keeps the recomputed
        tiles bit-identical."""
        g, size = self.g, rows.stop - rows.start
        count = (heads.stop - heads.start) * size * g.keys
        return work[buffer, :count].reshape(-1, size, g.keys)

    def blocks(self):
        """(query rows, key window) slices of each block, in order."""
        g = self.g
        for b, r0 in enumerate(range(0, self.n, g.rows)):
            yield slice(r0, min(self.n, r0 + g.rows)), slice(b * g.step, b * g.step + g.keys)

    def masked_scores(self, work, rows, keys, heads: slice):
        """The heads' scaled scores of the block in buffer 0 of work, with
        keys hidden from a query (outside the sequence, padded, or beyond w)
        at -inf."""
        scores = np.matmul(self.ops.q[heads, rows], self.ops.k[heads, keys].swapaxes(-1, -2),
                           out=self.tile(work, 0, rows, heads))
        if self.hides:
            hidden, edge = self.band[:rows.stop - rows.start], self.hidden_keys[keys]
            if edge.any():
                hidden = hidden | edge
            np.copyto(scores, -np.inf, where=hidden)
        return scores


def attend(qh, kh, vh, pad, spec: AttentionSpec):
    """Multi-head attention under spec's visibility rule; returns (ctx, stats).

    qh/kh/vh are plain [heads, n, head_dim] operands; pad marks keys no
    query may see, and a query with no visible key gets zeros. They are
    copied into Operands.prepare's layouts for attend_prepared, the kernel,
    run inline. The encoder skips that copy: its phase A writes the scaled
    Q, the padded K and V with its ones columns straight into an
    Operands.allocate, and attend_prepared allocates only ctx with its row
    sums, the shifts and the tile buffers. One uncached T6 local forward at 2,048 tokens then holds,
    besides the residual stream, one of each: Q (2.6 MB), K and V on the
    2,176-row key axis (2.8 and 3.0 MB) and ctx with its row sums (2.8 MB).
    """
    return attend_prepared(Operands.prepare(qh, kh, vh, spec), pad, spec)


def attend_prepared(ops: Operands, pad, spec: AttentionSpec, pool: LayerPool = INLINE):
    """attend on Operands, read where they are; allocates only ctx, the
    statistics and each part's tile buffer.

    Per block: scaled q @ K_windowᵀ, hidden keys (outside the sequence,
    padded, or beyond w) at -inf when any can be, shifted_exp in place, then
    one matmul with V_window and its column of ones for the unnormalized
    context and the row sums; the context rows, not the tile, are divided by
    those sums. The shift is the one used: 0 for a head whose
    |scaled q_i| * max_j |k_j| is at most _NO_SHIFT_BOUND in every row of
    the block, which skips the row max and the subtraction, and each row's
    max elsewhere. stats, a SoftmaxStats, keeps the shift, row sum and ctx,
    from which attend_backward rebuilds each tile.

    pool runs the block loop with the heads split into its parts, inline by
    default, and each part runs it over its groups of heads in turn. Every
    step above is taken per head, so the bits do not depend on how the heads
    are split or grouped. Local tiles evaluate up to
    (rows + window_k) / (window_k + 1) times as many products as the
    score_op_count visible pairs per head, and discard the rest.
    """
    heads, n, head_dim = ops.q.shape
    ctx_sum = np.empty((heads, n, head_dim + 1), ops.v.dtype)
    row_max = np.empty((heads, n), ops.q.dtype)
    tiles = _Tiles(ops, pad, spec, buffers=1)
    lead = tiles.g.lead

    def run_heads(part: slice):
        work = tiles.allocate(part)
        for h in tiles.groups(part):
            # Cauchy-Schwarz bounds every score of row i in head h by bound[h, i].
            kh = ops.k[h, lead:lead + n]
            k_max = np.sqrt(np.einsum("hnd,hnd->hn", kh, kh).max(axis=-1, keepdims=True))
            bound = np.sqrt(np.einsum("hnd,hnd->hn", ops.q[h], ops.q[h])) * k_max
            for rows, keys in tiles.blocks():
                scores = tiles.masked_scores(work, rows, keys, h)
                small = bound[:, rows].max(axis=-1) <= _NO_SHIFT_BOUND
                if small.all():
                    shift = 0.0
                else:
                    shift = row_shift(scores)
                    shift[small] = 0.0
                shifted_exp(scores, out=scores, row_max=shift)
                row_max[h, rows, None] = shift
                np.matmul(scores, ops.v[h, keys], out=ctx_sum[h, rows])
            total = ctx_sum[h, :, head_dim:]
            total[total == 0] = 1.0
            ctx_sum[h, :, :head_dim] /= total

    pool.run(run_heads, pool.split(heads))
    ctx = ctx_sum[..., :head_dim]
    return ctx, SoftmaxStats(row_max, ctx_sum[..., head_dim], pad, ctx)


def attend_backward(d_ctx, qh, kh, vh, stats: SoftmaxStats, spec: AttentionSpec):
    """Gradients (d_qh, d_kh, d_vh) of attend's ctx with respect to its
    plain operands, given d_ctx and attend's stats: qh/kh/vh are copied into
    Operands.prepare's layouts for attend_prepared_backward, the kernel, run
    inline. The encoder's layer_backward skips that copy: it hands the
    kernel the Operands its forward wrote and the training cache kept, and
    the kernel allocates only the gradients and its tile buffers."""
    return attend_prepared_backward(d_ctx, Operands.prepare(qh, kh, vh, spec), stats, spec)


def attend_prepared_backward(d_ctx, ops: Operands, stats: SoftmaxStats, spec: AttentionSpec,
                             pool: LayerPool = INLINE):
    """attend_backward on the Operands attend_prepared read, read where they
    are; allocates only the gradients and each part's two tile buffers.

    The same loop over attend's blocks. Each tile is recomputed: the masked
    scores go through softmax_rows with attend's shift and row sum, which
    subtracts nothing in a block whose shift is all zero, as attend did, so
    the tile matches attend's bit for bit. Then
    d_probs = d_ctx @ V_windowᵀ becomes d_scores = tile * (d_probs - D) in
    place, with D = rowsum(d_ctx * ctx) taken once per head on [n, head_dim];
    d_q = d_scores @ K_window, and d_k, d_v are tileᵀ @ {scaled q, d_ctx}
    overlap-added into the padded key axis. pool runs the block loop with
    the heads split into its parts and each part's heads in groups, as
    attend does; every step is taken per head, so the bits do not depend on
    how the heads are split or grouped. The gradients are those of the
    plain operands: d_q carries the scale, d_k and d_v only the key rows.

    The scale is a Python float, as in attend, so the gradients keep the
    inputs' dtype (a NumPy float64 scalar would promote float32 to float64).
    """
    tiles = _Tiles(ops, stats.pad, spec, buffers=2)
    g, n = tiles.g, tiles.n
    heads, _, head_dim = ops.q.shape
    d_qh = np.empty((heads, n, head_dim), ops.q.dtype)
    d_kp, d_vp = (np.zeros((heads, g.length, head_dim), x.dtype) for x in (ops.k, ops.v))

    def run_heads(part: slice):
        work = tiles.allocate(part)
        for h in tiles.groups(part):
            d_rows = (d_ctx[h] * stats.ctx[h]).sum(axis=-1, keepdims=True)
            for rows, keys in tiles.blocks():
                scores = tiles.masked_scores(work, rows, keys, h)
                tile = softmax_rows(scores, out=scores, stats=(stats.row_max[h, rows, None],
                                                               stats.row_sum[h, rows, None]))
                d_vp[h, keys] += tile.swapaxes(-1, -2) @ d_ctx[h, rows]
                d_scores = np.matmul(d_ctx[h, rows], ops.v[h, keys, :head_dim].swapaxes(-1, -2),
                                     out=tiles.tile(work, 1, rows, h))
                d_scores -= d_rows[:, rows]
                d_scores *= tile
                d_qh[h, rows] = (d_scores @ ops.k[h, keys]) * tiles.scale
                d_kp[h, keys] += d_scores.swapaxes(-1, -2) @ ops.q[h, rows]

    pool.run(run_heads, pool.split(heads))
    return d_qh, d_kp[:, g.lead:g.lead + n], d_vp[:, g.lead:g.lead + n]


def _single_head(q, k, v, pad, spec):
    out = attend(q[None], k[None], v[None], pad, spec)[0][0]
    out[pad] = 0.0
    return out


def global_attention(q, k, v, pad_mask) -> np.ndarray:
    """Full attention: out[i] = sum_j softmax_j(q_i . k_j / sqrt(d)) v_j over unmasked j.

    Padded positions neither contribute as keys nor produce output (their rows
    are zeroed). Evaluates all n^2 score pairs.
    """
    q, k, v, pad = _check_qkv(q, k, v, pad_mask)
    return _single_head(q, k, v, pad, AttentionSpec(GLOBAL, 1, q.shape[1]))


def local_attention(q, k, v, pad_mask, window_k: int) -> np.ndarray:
    """Windowed attention: position i attends to j with |i - j| <= window_k / 2.

    Windows clip at the sequence edges, with no wraparound. Every window
    holds its own query, so an unpadded query always sees a key.
    """
    if window_k < 2 or window_k % 2 != 0:
        raise ContractError("window_k must be an even integer >= 2")
    q, k, v, pad = _check_qkv(q, k, v, pad_mask)
    return _single_head(q, k, v, pad, AttentionSpec(LOCAL, 1, q.shape[1], window_k))


def score_op_count(n: int, spec: AttentionSpec) -> int:
    """Visible query-key pairs per head of attend on a length-n input: n^2
    for global, the band clipped at the sequence edges for local. attend's
    blocks are cut by the same _geometry, whose w is the visibility radius."""
    if n < 1:
        raise ContractError("sequence length must be >= 1")
    return _band_pairs(n, _geometry(n, spec).w)
