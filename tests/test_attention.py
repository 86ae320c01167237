"""Attention kernels: global/local equivalence, locality, and cost counting."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eslong.attention import (
    AttentionSpec,
    GLOBAL,
    LOCAL,
    OpCounter,
    attend,
    attend_backward,
    global_attention,
    local_attention,
    score_op_count,
)
from eslong.encoder import build_model, forward, preset_config, tokenize
from eslong.errors import ConfigError, ContractError
from eslong.tensor_ops import softmax_rows
from gradcheck import finite_difference, relative_error
from test_gradients import TOL


def doubleloop_attention(q, k, v, pad, visible=None):
    """O(n^2) oracle with explicit loops and float64 accumulation."""
    n, d = q.shape
    out = np.zeros((n, d), dtype=np.float64)
    for i in range(n):
        if pad[i]:
            continue
        scores = []
        idx = []
        for j in range(n):
            if pad[j]:
                continue
            if visible is not None and not visible[i][j]:
                continue
            scores.append(float(np.dot(q[i].astype(np.float64), k[j].astype(np.float64))) / math.sqrt(d))
            idx.append(j)
        scores = np.array(scores)
        w = np.exp(scores - scores.max())
        w /= w.sum()
        for weight, j in zip(w, idx):
            out[i] += weight * v[j].astype(np.float64)
    return out


def visibility_mask(n: int, pad_mask, mode: str, window_k: int | None = None) -> np.ndarray:
    """Boolean [n, n] matrix, True where query i may attend key j.

    This is the dense-mask formulation of the visibility rule the kernels
    apply; tests compare the kernels against oracles restricted by it.
    """
    pad = np.asarray(pad_mask, dtype=bool)
    vis = np.broadcast_to(~pad[None, :], (n, n)).copy()
    if mode == LOCAL:
        if window_k is None:
            raise ConfigError("local visibility needs window_k")
        w = window_k // 2
        idx = np.arange(n)
        vis &= np.abs(idx[:, None] - idx[None, :]) <= w
    elif mode != GLOBAL:
        raise ConfigError(f"unknown attention mode {mode!r}")
    return vis


def _diagonals(n: int, window_k: int):
    """(band column, key offset, lo, hi) for each in-range diagonal of the band:
    query rows lo:hi see key rows lo + offset:hi + offset."""
    w = window_k // 2
    for col, off in enumerate(range(-w, w + 1)):
        lo, hi = max(0, -off), min(n, n - off)
        if lo < hi:
            yield col, off, lo, hi


def diagonal_attend(qh, kh, vh, pad, spec: AttentionSpec, counter: OpCounter | None = None):
    """Local-mode attend as a walk over the window_k + 1 diagonals of the band.

    The reference the tiled kernel is checked against: same (ctx, probs)
    layout, and counter receives the in-range band size, summed over heads.
    """
    heads, n, head_dim = qh.shape
    scale = 1.0 / math.sqrt(head_dim)
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


def diagonal_attend_backward(d_ctx, qh, kh, vh, probs, spec: AttentionSpec):
    """Local-mode attend_backward as a walk over the same diagonals."""
    scale = 1.0 / math.sqrt(qh.shape[-1])
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


def rand_qkv(rng, n, d):
    return tuple(rng.normal(size=(n, d)).astype(np.float32) for _ in range(3))


class TestAttentionSpec:
    def test_local_needs_even_window(self):
        with pytest.raises(ConfigError):
            AttentionSpec("local", 2, 4, window_k=3)
        with pytest.raises(ConfigError):
            AttentionSpec("local", 2, 4, window_k=None)

    def test_global_rejects_window(self):
        with pytest.raises(ConfigError):
            AttentionSpec("global", 2, 4, window_k=8)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            AttentionSpec("banded", 2, 4)


class TestGlobalAttention:
    def test_single_position_returns_v(self):
        rng = np.random.default_rng(0)
        q, k, v = rand_qkv(rng, 1, 4)
        np.testing.assert_allclose(global_attention(q, k, v, [False]), v, atol=1e-7)

    def test_identical_queries_identical_rows(self):
        rng = np.random.default_rng(1)
        _, k, v = rand_qkv(rng, 5, 4)
        q = np.tile(rng.normal(size=(1, 4)).astype(np.float32), (5, 1))
        out = global_attention(q, k, v, [False] * 5)
        for row in out[1:]:
            np.testing.assert_allclose(row, out[0], atol=1e-7)

    def test_matches_doubleloop_oracle(self):
        rng = np.random.default_rng(2)
        q, k, v = rand_qkv(rng, 6, 4)
        pad = [False, False, True, False, False, False]
        out = global_attention(q, k, v, pad)
        oracle = doubleloop_attention(q, k, v, pad)
        np.testing.assert_allclose(out, oracle, atol=1e-6)
        np.testing.assert_array_equal(out[2], 0.0)

    def test_all_masked_is_contract_error(self):
        rng = np.random.default_rng(3)
        q, k, v = rand_qkv(rng, 3, 4)
        with pytest.raises(ContractError):
            global_attention(q, k, v, [True, True, True])


class TestLocalAttention:
    def test_covering_window_equals_global(self):
        rng = np.random.default_rng(4)
        q, k, v = rand_qkv(rng, 12, 8)
        pad = [False] * 12
        full = global_attention(q, k, v, pad)
        local = local_attention(q, k, v, pad, window_k=2 * (12 - 1))
        np.testing.assert_allclose(local, full, atol=1e-6)

    def test_constant_v_passthrough(self):
        rng = np.random.default_rng(5)
        q, k, _ = rand_qkv(rng, 7, 4)
        v = np.tile(np.array([[1.0, -2.0, 0.5, 3.0]], dtype=np.float32), (7, 1))
        out = local_attention(q, k, v, [False] * 7, window_k=2)
        for row in out:
            np.testing.assert_allclose(row, v[0], atol=1e-6)

    def test_matches_band_masked_global_oracle(self):
        rng = np.random.default_rng(6)
        n, d, window_k = 10, 4, 4
        q, k, v = rand_qkv(rng, n, d)
        pad = [False] * n
        visible = visibility_mask(n, pad, "local", window_k)
        out = local_attention(q, k, v, pad, window_k)
        oracle = doubleloop_attention(q, k, v, pad, visible=visible)
        np.testing.assert_allclose(out, oracle, atol=1e-6)

    def test_all_masked_input_is_contract_error(self):
        rng = np.random.default_rng(7)
        q, k, v = rand_qkv(rng, 4, 4)
        with pytest.raises(ContractError):
            local_attention(q, k, v, [True] * 4, window_k=2)

    def test_isolated_unpadded_query_still_sees_itself(self):
        # Windows include the query position, so an unpadded query surrounded
        # by pads degenerates to self-attention rather than an empty window.
        rng = np.random.default_rng(7)
        q, k, v = rand_qkv(rng, 5, 4)
        pad = [True, True, False, True, True]
        out = local_attention(q, k, v, pad, window_k=2)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[2], v[2], atol=1e-7)
        np.testing.assert_array_equal(out[0], 0.0)

    def test_bad_window_rejected(self):
        rng = np.random.default_rng(7)
        q, k, v = rand_qkv(rng, 4, 4)
        for bad in (0, 1, 3):
            with pytest.raises(ContractError):
                local_attention(q, k, v, [False] * 4, window_k=bad)

    def test_locality_exact_zero(self):
        rng = np.random.default_rng(8)
        n, d, window_k = 12, 4, 4
        q, k, v = rand_qkv(rng, n, d)
        pad = [False] * n
        base = local_attention(q, k, v, pad, window_k)
        v2 = v.copy()
        v2[9] += 10.0
        moved = local_attention(q, k, v2, pad, window_k)
        w = window_k // 2
        for i in range(n):
            if abs(i - 9) <= w:
                continue
            np.testing.assert_array_equal(moved[i], base[i])

    def test_convex_hull_1d(self):
        rng = np.random.default_rng(9)
        n = 9
        q, k, v = rand_qkv(rng, n, 1)
        pad = [False] * n
        for window_k in (2, 4, 2 * (n - 1)):
            out = local_attention(q, k, v, pad, window_k)
            w = window_k // 2
            for i in range(n):
                lo, hi = max(0, i - w), min(n, i + w + 1)
                assert v[lo:hi].min() - 1e-6 <= out[i, 0] <= v[lo:hi].max() + 1e-6

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(1, 64), st.integers(0, 2**32 - 1))
    def test_equivalence_property(self, n, seed):
        rng = np.random.default_rng(seed)
        q, k, v = rand_qkv(rng, n, 4)
        pad = [False] * n
        window_k = max(2, 2 * (n - 1))
        np.testing.assert_allclose(
            local_attention(q, k, v, pad, window_k),
            global_attention(q, k, v, pad),
            atol=1e-6,
        )


class TestAttend:
    @pytest.mark.parametrize("heads", [2, 3, 4])
    @pytest.mark.parametrize("window_k", [2, 4, 8])
    def test_local_band_matches_oracle_per_head(self, heads, window_k):
        rng = np.random.default_rng(10 + heads * window_k)
        n, d = 13, 4
        qh, kh, vh = (rng.normal(size=(heads, n, d)).astype(np.float32) for _ in range(3))
        pad = np.array([False] * 10 + [True] * 3)
        ctx, _ = attend(qh, kh, vh, pad, AttentionSpec("local", heads, d, window_k))
        visible = visibility_mask(n, pad, "local", window_k)
        for h in range(heads):
            oracle = doubleloop_attention(qh[h], kh[h], vh[h], pad, visible=visible)
            np.testing.assert_allclose(ctx[h][~pad], oracle[~pad], atol=1e-6)

    @pytest.mark.parametrize("mode,window_k", [("global", None), ("local", 4)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_keeps_input_dtype(self, mode, window_k, dtype):
        rng = np.random.default_rng(11)
        spec = AttentionSpec(mode, 2, 4, window_k)
        qh, kh, vh, d_ctx = (rng.normal(size=(2, 9, 4)).astype(dtype) for _ in range(4))
        pad = np.array([False] * 7 + [True] * 2)
        _, stats = attend(qh, kh, vh, pad, spec)
        for grad in attend_backward(d_ctx, qh, kh, vh, stats, spec):
            assert grad.dtype == dtype

    # Every key padded in global mode; in local mode keys 8-14 padded, so
    # queries 10-12 see only padded keys in their window of radius 2.
    @pytest.mark.parametrize("mode,window_k,padded", [
        ("global", None, slice(None)),
        ("local", 4, slice(8, 15)),
    ], ids=["global-all-padded", "local-padded-window"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_query_with_no_visible_key_gets_zeros(self, mode, window_k, padded, dtype):
        rng = np.random.default_rng(17)
        n, spec = 20, AttentionSpec(mode, 2, 4, window_k)
        qh, kh, vh, d_ctx = (rng.normal(size=(2, n, 4)).astype(dtype) for _ in range(4))
        pad = np.zeros(n, dtype=bool)
        pad[padded] = True
        seen = visibility_mask(n, pad, mode, window_k).sum(axis=1)
        blind = seen == 0
        assert blind.any()
        ctx, stats = attend(qh, kh, vh, pad, spec)
        d_q, d_k, d_v = attend_backward(d_ctx, qh, kh, vh, stats, spec)
        assert (ctx[:, blind] == 0).all() and (d_q[:, blind] == 0).all()
        # A query that sees one key has a constant softmax, so d_q = 0 there.
        assert (ctx[:, ~blind] != 0).all() and (d_q[:, seen > 1] != 0).all()
        assert (d_k[:, pad] == 0).all() and (d_v[:, pad] == 0).all()

    @pytest.mark.parametrize("n", [5, 300])
    def test_unpadded_global_matches_masked_band(self, n):
        # Global mode without pad builds no mask; a covering local window
        # hides the keys outside the sequence, so it runs the masked path.
        rng = np.random.default_rng(18)
        qh, kh, vh, d_ctx = (rng.normal(size=(2, n, 4)) for _ in range(4))
        pad = np.zeros(n, dtype=bool)
        results = []
        for spec in (AttentionSpec("global", 2, 4), AttentionSpec("local", 2, 4, 2 * n)):
            ctx, stats = attend(qh, kh, vh, pad, spec)
            results.append((ctx,) + attend_backward(d_ctx, qh, kh, vh, stats, spec))
        for name, a, b in zip(("ctx", "d_q", "d_k", "d_v"), *results):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12, err_msg=name)
        oracle = doubleloop_attention(qh[0], kh[0], vh[0], pad)
        np.testing.assert_allclose(results[0][0][0], oracle, rtol=1e-12, atol=1e-12)


def interior_and_trailing_pads(n):
    """A pad in the middle and a trailing run of n // 4 pads (none below n = 3)."""
    pad = np.zeros(n, dtype=bool)
    if n >= 3:
        pad[n // 2] = True
        pad[n - max(1, n // 4):] = True
    return pad


class TestTiledBand:
    """The tiled kernel against the diagonal walk: local mode at each window,
    global mode as the band of a window that covers the sequence."""

    @staticmethod
    def assert_matches_walk(spec, walk_spec, n, dtype):
        rng = np.random.default_rng(n + (spec.window_k or 0))
        qh, kh, vh, d_ctx = (rng.normal(size=(2, n, 4)).astype(dtype) for _ in range(4))
        pad = interior_and_trailing_pads(n)
        tol = 64 * np.finfo(dtype).eps
        counted, expected = OpCounter(), OpCounter()
        ctx, stats = attend(qh, kh, vh, pad, spec, counted)
        ref_ctx, ref_probs = diagonal_attend(qh, kh, vh, pad, walk_spec, expected)
        assert counted.count == expected.count
        got = (ctx,) + attend_backward(d_ctx, qh, kh, vh, stats, spec)
        ref = (ref_ctx,) + diagonal_attend_backward(d_ctx, qh, kh, vh, ref_probs, walk_spec)
        for name, a, b in zip(("ctx", "d_q", "d_k", "d_v"), got, ref):
            assert a.dtype == dtype, name
            assert a.shape == b.shape, name
            np.testing.assert_allclose(a, b, rtol=tol, atol=tol, err_msg=name)
        return counted.count

    # n = 1, 63, 64, 65, 197, 2048: single rows, both sides of block
    # boundaries, a ragged last block and the long model's length.
    @pytest.mark.parametrize("n,window_k", [
        (n, window_k)
        for n in (1, 63, 64, 65, 197, 2048)
        for window_k in (2, 4, 128, 2 * (n + 4))
        if window_k != 2 * (n + 4) or n < 2048
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_diagonal_walk(self, n, window_k, dtype):
        spec = AttentionSpec("local", 2, 4, window_k)
        self.assert_matches_walk(spec, spec, n, dtype)

    # n = 31, 32, 33, 257 and 300 straddle the local and global block sizes.
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 257, 300])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_global_is_covering_band(self, n, dtype):
        count = self.assert_matches_walk(AttentionSpec("global", 2, 4),
                                         AttentionSpec("local", 2, 4, 2 * n), n, dtype)
        assert count == 2 * n * n

    def test_gradients_across_tile_boundaries(self):
        # n = 131 spans several query blocks, so the overlap-add of d_k and
        # d_v between neighbouring tiles is exercised.
        rng = np.random.default_rng(12)
        n, spec = 131, AttentionSpec("local", 2, 3, 8)
        qh, kh, vh = (rng.normal(size=(2, n, 3)) for _ in range(3))
        weights = rng.normal(size=(2, n, 3))
        pad = interior_and_trailing_pads(n)

        def loss():
            return float((attend(qh, kh, vh, pad, spec)[0] * weights).sum())

        _, stats = attend(qh, kh, vh, pad, spec)
        grads = attend_backward(weights, qh, kh, vh, stats, spec)
        for name, arr, grad in zip(("q", "k", "v"), (qh, kh, vh), grads):
            rel = relative_error(grad, finite_difference(loss, arr))
            assert rel <= TOL, f"d_{name}: {rel}"

    def test_transient_memory_bounded_by_band(self):
        # T6 shapes at the long model's length: the score tiles attend keeps
        # are a little wider than the band, and its transients stay small.
        heads, n, head_dim, window_k = 20, 2048, 16, 128
        rng = np.random.default_rng(13)
        qh, kh, vh = (rng.normal(size=(heads, n, head_dim)).astype(np.float32)
                      for _ in range(3))
        spec = AttentionSpec("local", heads, head_dim, window_k)
        band_bytes = heads * n * (window_k + 1) * 4
        peak = traced_peak(attend, qh, kh, vh, np.zeros(n, dtype=bool), spec)
        assert peak <= 2.5 * band_bytes, peak / band_bytes

    def test_global_memory_bounded_by_scores(self):
        # The same shapes in global mode: attend never holds a [heads, n, n]
        # score matrix, in one piece or as kept tiles, nor a second copy.
        heads, n, head_dim = 20, 2048, 16
        rng = np.random.default_rng(14)
        qh, kh, vh = (rng.normal(size=(heads, n, head_dim)).astype(np.float32)
                      for _ in range(3))
        spec = AttentionSpec("global", heads, head_dim)
        score_bytes = heads * n * n * 4
        peak = traced_peak(attend, qh, kh, vh, np.zeros(n, dtype=bool), spec)
        assert peak <= 1.25 * score_bytes, peak / score_bytes


class TestRecompute:
    """attend keeps per-row softmax statistics, not probability tiles, and
    attend_backward rebuilds each tile from them."""

    @staticmethod
    def t6_global(n=2048):
        heads, head_dim = 20, 16
        rng = np.random.default_rng(15)
        qh, kh, vh, d_ctx = (rng.normal(size=(heads, n, head_dim)).astype(np.float32)
                             for _ in range(4))
        return qh, kh, vh, d_ctx, np.zeros(n, dtype=bool), AttentionSpec("global", heads, head_dim)

    def test_global_attend_peak_is_one_block(self):
        # One [20, 256, 2048] float32 score buffer is 42 MB; keeping every
        # block's tile would take 335 MB.
        qh, kh, vh, _, pad, spec = self.t6_global()
        peak = traced_peak(attend, qh, kh, vh, pad, spec)
        assert peak < 100e6, peak / 1e6

    def test_global_backward_peak_is_three_blocks(self):
        # The rebuilt tile, d_probs and their product: three 42 MB buffers.
        qh, kh, vh, d_ctx, pad, spec = self.t6_global()
        _, stats = attend(qh, kh, vh, pad, spec)
        peak = traced_peak(attend_backward, d_ctx, qh, kh, vh, stats, spec)
        assert peak < 150e6, peak / 1e6

    def test_global_backward_peak_is_two_blocks(self):
        # The rebuilt tile and d_probs, which becomes d_scores in place: two
        # 42 MB buffers, since D = rowsum(d_ctx * ctx) needs no third.
        qh, kh, vh, d_ctx, pad, spec = self.t6_global()
        _, stats = attend(qh, kh, vh, pad, spec)
        peak = traced_peak(attend_backward, d_ctx, qh, kh, vh, stats, spec)
        assert peak < 110e6, peak / 1e6

    def test_stats_are_per_row(self):
        qh, kh, vh, _, pad, spec = self.t6_global(n=300)
        _, stats = attend(qh, kh, vh, pad, spec)
        assert stats.row_max.shape == stats.row_sum.shape == (20, 300)
        assert stats.pad is pad

    @pytest.mark.parametrize("mode,window_k", [("global", None), ("local", 604)])
    def test_forward_cache_holds_no_score_matrix(self, mode, window_k):
        # 300 tokens, and a local window that covers them all, so that a kept
        # probability tile or band would reach n^2 floats per head.
        n = 300
        config = preset_config("toy", mode=mode, window_k=window_k, max_positions=n)
        model = build_model(config, seed=3)
        residues = "".join(np.random.default_rng(16).choice(list("ACDEFGHIKLMNPQRSTVWY"), n - 2))
        _, cache = forward(model, tokenize(residues, config), want_cache=True)
        bound = config.num_heads * n * n
        for i, layer in enumerate(cache["layers"]):
            for key, value in layer.items():
                size = sum(a.size for a in arrays_in(value))
                assert size < bound, (i, key, size / bound)


class TestNoShift:
    """A block whose rows all have |scaled q_i| * max_j |k_j| <= _NO_SHIFT_BOUND
    exponentiates its scores unshifted and keeps a shift of 0; every other
    block subtracts each row's max, as the kernel did before the bound."""

    @staticmethod
    def inputs(n, dtype, scale, seed=20):
        """Normal q/k/v/d_ctx of 2 heads of width 4, q and k times scale. At
        scale 0.25 every bound is below 1; at scale 4 above 8 in every row."""
        rng = np.random.default_rng(seed)
        qh, kh, vh, d_ctx = (rng.normal(size=(2, n, 4)).astype(dtype) for _ in range(4))
        return qh * dtype(scale), kh * dtype(scale), vh, d_ctx

    @staticmethod
    def walk_spec(spec, n):
        return spec if spec.mode == LOCAL else AttentionSpec(LOCAL, 2, 4, 2 * n)

    @classmethod
    def assert_matches_oracles(cls, qh, kh, vh, d_ctx, pad, spec):
        """ctx against the float64 double loop, and ctx and the gradients
        against the diagonal walk, within tolerances of the dtype. Returns stats."""
        n, dtype = qh.shape[1], qh.dtype
        walk = cls.walk_spec(spec, n)
        ctx, stats = attend(qh, kh, vh, pad, spec)
        got = (ctx,) + attend_backward(d_ctx, qh, kh, vh, stats, spec)
        ref_ctx, ref_probs = diagonal_attend(qh, kh, vh, pad, walk)
        ref = (ref_ctx,) + diagonal_attend_backward(d_ctx, qh, kh, vh, ref_probs, walk)
        # Scores of size s carry a rounding of about s * eps, which exp turns
        # into a relative error of the same size in the probabilities.
        scores = np.abs(np.einsum("hid,hjd->hij", qh, kh, dtype=np.float64)).max() / 2
        tol = 64 * np.finfo(dtype).eps * max(1.0, scores)
        for name, a, b in zip(("ctx", "d_q", "d_k", "d_v"), got, ref):
            assert a.dtype == dtype, name
            np.testing.assert_allclose(a, b, rtol=tol, atol=tol * max(1.0, np.abs(b).max()),
                                       err_msg=name)
        visible = visibility_mask(n, pad, spec.mode, walk.window_k)
        for h in range(qh.shape[0]):
            oracle = doubleloop_attention(qh[h], kh[h], vh[h], pad, visible=visible)
            np.testing.assert_allclose(ctx[h][~pad], oracle[~pad], rtol=tol, atol=tol)
        return stats

    @pytest.mark.parametrize("scale", [0.25, 4.0], ids=["bounded", "exact"])
    @pytest.mark.parametrize("mode,window_k", [("global", None), ("local", 16)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padded", [False, True], ids=["no-pad", "pad"])
    def test_both_paths_match_oracles(self, scale, mode, window_k, dtype, padded):
        # n = 100: one global block, four local blocks of 25 rows.
        n, spec = 100, AttentionSpec(mode, 2, 4, window_k)
        qh, kh, vh, d_ctx = self.inputs(n, dtype, scale)
        pad = interior_and_trailing_pads(n) if padded else np.zeros(n, dtype=bool)
        stats = self.assert_matches_oracles(qh, kh, vh, d_ctx, pad, spec)
        sees_a_key = visibility_mask(n, pad, mode, window_k).any(axis=1)
        if scale < 1:
            assert (stats.row_max == 0).all()
        else:
            assert (stats.row_max[:, sees_a_key] != 0).all()

    @pytest.mark.parametrize("mode,window_k,n,block", [
        ("global", None, 300, slice(150, 300)),   # two blocks of 150 rows
        ("local", 16, 100, slice(25, 50)),        # four blocks of 25 rows
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_call_mixes_both_paths(self, mode, window_k, n, block, dtype):
        # Large-norm query rows in one block only: that block subtracts its
        # exact row max, and every other block keeps a shift of exactly 0.
        spec = AttentionSpec(mode, 2, 4, window_k)
        qh, kh, vh, d_ctx = self.inputs(n, dtype, 0.5)
        qh[:, block] *= 40
        pad = interior_and_trailing_pads(n)
        stats = self.assert_matches_oracles(qh, kh, vh, d_ctx, pad, spec)
        rest = np.ones(n, dtype=bool)
        rest[block] = False
        assert (stats.row_max[:, rest] == 0).all()
        visible = visibility_mask(n, pad, mode, window_k)
        scores = np.where(visible, np.einsum("hid,hjd->hij", qh, kh, dtype=np.float64) / 2, -np.inf)
        np.testing.assert_allclose(stats.row_max[:, block], scores[:, block].max(axis=-1),
                                   rtol=1e-5)

    @pytest.mark.parametrize("mode,window_k", [("global", None), ("local", 16)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_heads_of_one_block_decide_apart(self, mode, window_k, dtype):
        # Head 1's queries are large in every row, head 0's small: in each
        # block head 0 keeps a shift of 0 and head 1 its exact row max.
        n, spec = 100, AttentionSpec(mode, 2, 4, window_k)
        qh, kh, vh, d_ctx = self.inputs(n, dtype, 0.5)
        qh[1] *= 40
        pad = interior_and_trailing_pads(n)
        stats = self.assert_matches_oracles(qh, kh, vh, d_ctx, pad, spec)
        assert (stats.row_max[0] == 0).all()
        visible = visibility_mask(n, pad, mode, window_k)
        scores = np.where(visible, np.einsum("id,jd->ij", qh[1], kh[1], dtype=np.float64) / 2,
                          -np.inf)
        sees_a_key = visible.any(axis=1)
        np.testing.assert_allclose(stats.row_max[1, sees_a_key],
                                   scores[sees_a_key].max(axis=-1), rtol=1e-5)

    # sha256 (first 16 hex digits) of ctx, d_q, d_k and d_v from the kernel as
    # it was before the norm bound, for the inputs of this test, on x86-64 with
    # numpy 2.4 and OpenBLAS 0.3.31; another BLAS build may round differently.
    RECORDED = {
        ("global", "float32", False): "77e919f90d049884",
        ("global", "float32", True): "48f9dc66d42f340d",
        ("global", "float64", False): "df4268f78b83ddf9",
        ("global", "float64", True): "f74752327b5748cc",
        ("local", "float32", False): "b2e91ed0193260c9",
        ("local", "float32", True): "43c3ce2260b2c806",
        ("local", "float64", False): "7d360bfad0e64969",
        ("local", "float64", True): "634f6c62372f2651",
    }

    @pytest.mark.parametrize("mode,window_k,n", [("global", None, 300), ("local", 16, 100)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padded", [False, True], ids=["no-pad", "pad"])
    def test_exact_path_keeps_recorded_bits(self, mode, window_k, n, dtype, padded):
        spec = AttentionSpec(mode, 2, 4, window_k)
        qh, kh, vh, d_ctx = self.inputs(n, dtype, 4.0)
        pad = interior_and_trailing_pads(n) if padded else np.zeros(n, dtype=bool)
        ctx, stats = attend(qh, kh, vh, pad, spec)
        grads = attend_backward(d_ctx, qh, kh, vh, stats, spec)
        assert (stats.row_max[:, visibility_mask(n, pad, mode, window_k).any(axis=1)] != 0).all()
        digest = hashlib.sha256(b"".join(a.tobytes() for a in (ctx,) + grads)).hexdigest()
        assert digest[:16] == self.RECORDED[mode, np.dtype(dtype).name, padded]

    @pytest.mark.parametrize("mode,window_k", [("global", None), ("local", 16)])
    def test_large_scores_stay_finite(self, mode, window_k):
        # Scores up to about 80 in float32, where e^80 alone is 5.5e34: the
        # exact path shifts them, so nothing overflows and nothing warns.
        n, spec = 100, AttentionSpec(mode, 2, 4, window_k)
        qh, kh, vh, d_ctx = self.inputs(n, np.float32, 1.0)
        scores = np.abs(np.einsum("hid,hjd->hij", qh, kh, dtype=np.float64)).max() / 2
        factor = np.float32(math.sqrt(80 / scores))
        qh, kh = qh * factor, kh * factor
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ctx, stats = attend(qh, kh, vh, np.zeros(n, dtype=bool), spec)
            grads = attend_backward(d_ctx, qh, kh, vh, stats, spec)
        assert (stats.row_max != 0).all() and np.abs(stats.row_max).max() > 70
        for a in (ctx,) + grads:
            assert np.isfinite(a).all()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 300), window_k=st.sampled_from([None, 2, 8, 64]),
           q_exp=st.floats(-3, 2), k_exp=st.floats(-3, 2),
           pad_frac=st.sampled_from([0.0, 0.1, 0.5]), seed=st.integers(0, 2**32 - 1))
    def test_property_against_oracles(self, n, window_k, q_exp, k_exp, pad_frac, seed):
        # q and k scale factors from 1e-3 to 1e2 put blocks on both sides of
        # the bound; n crosses the 32-row local and 256-row global blocks.
        rng = np.random.default_rng(seed)
        qh, kh, vh, d_ctx = (rng.normal(size=(2, n, 4)) for _ in range(4))
        qh, kh = qh * 10.0 ** q_exp, kh * 10.0 ** k_exp
        pad = rng.random(n) < pad_frac
        spec = AttentionSpec(LOCAL if window_k else GLOBAL, 2, 4, window_k)
        self.assert_matches_oracles(qh, kh, vh, d_ctx, pad, spec)


def traced_peak(fn, *args) -> int:
    """Peak bytes tracemalloc sees while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def arrays_in(value):
    """The arrays in value, looking inside tuples and lists."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from arrays_in(item)


class TestScoreOpCount:
    def test_global_is_n_squared(self):
        spec = AttentionSpec("global", 1, 4)
        assert score_op_count(100, spec) == 10_000

    def test_local_boundary_enumeration(self):
        # independent oracle: enumerate each query's clipped window
        def enumerate_count(n, window_k):
            w = window_k // 2
            return sum(min(n - 1, i + w) - max(0, i - w) + 1 for i in range(n))

        spec = AttentionSpec("local", 1, 4, window_k=8)
        assert enumerate_count(100, 8) == 880
        assert score_op_count(100, spec) == 880
        for n in (1, 2, 5, 17, 33):
            assert score_op_count(n, spec) == enumerate_count(n, 8)

    def test_halving_at_long_context(self):
        local = score_op_count(2048, AttentionSpec("local", 1, 4, window_k=1024))
        global_ = score_op_count(2048, AttentionSpec("global", 1, 4))
        assert local / global_ < 0.5

    def test_linear_in_n(self):
        spec = AttentionSpec("local", 1, 4, window_k=32)
        ns = [64, 128, 256, 512]
        counts = [score_op_count(n, spec) for n in ns]
        slope = (counts[1] - counts[0]) // (ns[1] - ns[0])
        intercept = counts[0] - slope * ns[0]
        for n, c in zip(ns, counts):
            assert c == slope * n + intercept
