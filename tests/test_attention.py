"""Attention kernels: global/local equivalence, locality, and cost counting."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eslong.attention import (
    _BLOCK,
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
        ctx, probs = attend(qh, kh, vh, pad, AttentionSpec("local", heads, d, window_k))
        assert probs.shape == (heads, n, window_k + 1)
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
        _, probs = attend(qh, kh, vh, pad, spec)
        for grad in attend_backward(d_ctx, qh, kh, vh, probs, spec):
            assert grad.dtype == dtype


def interior_and_trailing_pads(n):
    """A pad in the middle and a trailing run of n // 4 pads (none below n = 3)."""
    pad = np.zeros(n, dtype=bool)
    if n >= 3:
        pad[n // 2] = True
        pad[n - max(1, n // 4):] = True
    return pad


class TestTiledBand:
    """The tiled local kernel against the diagonal walk it replaced."""

    @pytest.mark.parametrize("n,window_k", [
        (n, window_k)
        for n in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5, 2048)
        for window_k in (2, 4, 128, 2 * (n + 4))
        if window_k != 2 * (n + 4) or n < 2048
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_diagonal_walk(self, n, window_k, dtype):
        rng = np.random.default_rng(n + window_k)
        spec = AttentionSpec("local", 2, 4, window_k)
        qh, kh, vh, d_ctx = (rng.normal(size=(2, n, 4)).astype(dtype) for _ in range(4))
        pad = interior_and_trailing_pads(n)
        tol = 64 * np.finfo(dtype).eps
        counted, expected = OpCounter(), OpCounter()
        ctx, probs = attend(qh, kh, vh, pad, spec, counted)
        ref_ctx, ref_probs = diagonal_attend(qh, kh, vh, pad, spec, expected)
        assert counted.count == expected.count
        got = (ctx, probs) + attend_backward(d_ctx, qh, kh, vh, probs, spec)
        ref = (ref_ctx, ref_probs) + diagonal_attend_backward(d_ctx, qh, kh, vh, ref_probs, spec)
        for name, a, b in zip(("ctx", "probs", "d_q", "d_k", "d_v"), got, ref):
            assert a.dtype == dtype, name
            assert a.shape == b.shape, name
            np.testing.assert_allclose(a, b, rtol=tol, atol=tol, err_msg=name)

    def test_gradients_across_tile_boundaries(self):
        # n = 2 * _BLOCK + 3 spans three query tiles, so the overlap-add of
        # d_k and d_v between neighbouring tiles is exercised.
        rng = np.random.default_rng(12)
        n, spec = 2 * _BLOCK + 3, AttentionSpec("local", 2, 3, 8)
        qh, kh, vh = (rng.normal(size=(2, n, 3)) for _ in range(3))
        weights = rng.normal(size=(2, n, 3))
        pad = interior_and_trailing_pads(n)

        def loss():
            return float((attend(qh, kh, vh, pad, spec)[0] * weights).sum())

        _, probs = attend(qh, kh, vh, pad, spec)
        grads = attend_backward(weights, qh, kh, vh, probs, spec)
        for name, arr, grad in zip(("q", "k", "v"), (qh, kh, vh), grads):
            rel = relative_error(grad, finite_difference(loss, arr))
            assert rel <= TOL, f"d_{name}: {rel}"

    def test_transient_memory_bounded_by_band(self):
        # T6 shapes at the long model's length: the tiles must stay transient,
        # so the traced peak stays near the probs band attend returns.
        heads, n, head_dim, window_k = 20, 2048, 16, 128
        rng = np.random.default_rng(13)
        qh, kh, vh = (rng.normal(size=(heads, n, head_dim)).astype(np.float32)
                      for _ in range(3))
        spec = AttentionSpec("local", heads, head_dim, window_k)
        band_bytes = heads * n * (window_k + 1) * 4
        tracemalloc.start()
        try:
            attend(qh, kh, vh, np.zeros(n, dtype=bool), spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * band_bytes, peak / band_bytes


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

    def test_counter_thread_safety(self):
        import threading

        counter = OpCounter()

        def bump():
            for _ in range(1000):
                counter.add(1)

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.count == 8000
