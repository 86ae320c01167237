"""Kernel-level tests: matmul, softmax, layer norm, gelu."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

from eslong.errors import ShapeError
from eslong.tensor_ops import (
    _CDF_CHUNK, gelu, gelu_grad, layer_norm, matmul, shifted_exp, softmax_rows,
)


def naive_matmul(a, b):
    """Triple-loop oracle."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += float(a[i, t]) * float(b[t, j])
    return out


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3)).astype(np.float32)
        np.testing.assert_array_equal(matmul(np.eye(3, dtype=np.float32), a), a)

    def test_hand_case(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        b = np.array([[1.0], [1.0]], dtype=np.float32)
        np.testing.assert_array_equal(matmul(a, b), [[3.0], [7.0]])

    def test_against_naive_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 7)).astype(np.float32)
        b = rng.normal(size=(7, 3)).astype(np.float32)
        np.testing.assert_allclose(matmul(a, b), naive_matmul(a, b), atol=1e-6)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            matmul(np.ones((2, 3)), np.ones((4, 2)))
        with pytest.raises(ShapeError):
            matmul(np.ones(3), np.ones((3, 2)))

    def test_associativity(self):
        rng = np.random.default_rng(2)
        a, b, c = (rng.normal(size=(6, 6)).astype(np.float32) for _ in range(3))
        np.testing.assert_allclose(matmul(matmul(a, b), c), matmul(a, matmul(b, c)), atol=1e-4)


class TestSoftmaxRows:
    def test_equal_values_uniform(self):
        out = softmax_rows(np.full((2, 5), 3.0, dtype=np.float32))
        np.testing.assert_allclose(out, 0.2, atol=1e-7)

    def test_closed_form(self):
        out = softmax_rows(np.array([[0.0, math.log(3.0)]], dtype=np.float32))
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-6)

    def test_large_spike_no_overflow(self):
        row = np.array([[0.0, 1000.0, 1.0]], dtype=np.float32)
        out = softmax_rows(row)
        assert np.isfinite(out).all()
        assert out[0, 1] > 0.999
        # high-precision oracle in float64
        oracle = np.exp(row.astype(np.float64) - 1000.0)
        oracle /= oracle.sum()
        np.testing.assert_allclose(out, oracle, atol=1e-6)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_rows_are_probability_vectors(self, m, n, seed):
        a = np.random.default_rng(seed).normal(scale=5.0, size=(m, n)).astype(np.float32)
        out = softmax_rows(a)
        assert (out >= 0).all()
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_stats_replay_is_bit_identical(self):
        a = np.random.default_rng(3).normal(scale=10.0, size=(3, 5, 7)).astype(np.float32)
        a[0, 1, 2:] = -np.inf
        a[1, 2, :] = -np.inf  # nothing visible: zeros, replayed as zeros
        exps, row_max = shifted_exp(a)
        row_sum = exps.sum(axis=-1, keepdims=True)
        row_sum[row_sum == 0] = 1.0
        probs = exps / row_sum
        np.testing.assert_array_equal(softmax_rows(a), probs)
        scores = a.copy()
        assert softmax_rows(scores, out=scores, stats=(row_max, row_sum)) is scores
        np.testing.assert_array_equal(scores, probs)
        np.testing.assert_array_equal(probs[1, 2], 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_shift_is_plain_exp(self, dtype):
        # row_max=0.0, or a row_max of zeros, subtracts nothing: x - 0 == x.
        a = np.random.default_rng(5).normal(scale=3.0, size=(2, 4, 9)).astype(dtype)
        a[0, 1, 3:] = -np.inf
        out, m = shifted_exp(a, row_max=0.0)
        assert m == 0.0 and out.dtype == dtype
        np.testing.assert_array_equal(out, np.exp(a))
        zeros = np.zeros((2, 4, 1), dtype=dtype)
        scores = a.copy()
        assert shifted_exp(scores, out=scores, row_max=zeros)[0] is scores
        np.testing.assert_array_equal(scores, np.exp(a))
        np.testing.assert_array_equal(shifted_exp(a, row_max=zeros)[0], np.exp(a - zeros))


class TestLayerNorm:
    def test_constant_row_zeroed(self):
        gain = np.ones(4, dtype=np.float32)
        bias = np.zeros(4, dtype=np.float32)
        out, _ = layer_norm(np.full((2, 4), 5.0, dtype=np.float32), gain, bias)
        np.testing.assert_allclose(out, 0.0, atol=1e-3)

    def test_closed_form(self):
        out, _ = layer_norm(
            np.array([1.0, 2.0, 3.0], dtype=np.float32),
            np.ones(3, dtype=np.float32),
            np.zeros(3, dtype=np.float32),
            eps=1e-12,
        )
        np.testing.assert_allclose(out, [-1.2247, 0.0, 1.2247], atol=1e-3)

    def test_statistics(self):
        rng = np.random.default_rng(3)
        a = rng.normal(loc=2.0, scale=3.0, size=(4, 64)).astype(np.float32)
        out, _ = layer_norm(a, np.ones(64, dtype=np.float32), np.zeros(64, dtype=np.float32))
        assert np.abs(out.mean(axis=-1)).max() <= 1e-6
        var = out.var(axis=-1)
        assert ((var >= 1 - 1e-3) & (var <= 1 + 1e-3)).all()

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 16)).astype(np.float32)
        gain = np.ones(16, dtype=np.float32)
        bias = np.zeros(16, dtype=np.float32)
        np.testing.assert_allclose(
            layer_norm(a, gain, bias)[0], layer_norm(a + 7.5, gain, bias)[0], atol=1e-5
        )

    @pytest.mark.parametrize("n", [1, 7, 350, 2048])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bits_as_mean_and_var(self, n, dtype):
        # The centred copy gives the same sums and divisions as a.var.
        rng = np.random.default_rng(n)
        a = rng.normal(loc=3.0, scale=2.0, size=(n, 320)).astype(dtype)
        gain, bias = (rng.normal(size=320).astype(dtype) for _ in range(2))
        mean, var = a.mean(axis=-1, keepdims=True), a.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + 1e-5)
        xhat = (a - mean) * inv_std
        y, (got_xhat, got_inv_std) = layer_norm(a, gain, bias)
        for got, want in ((y, xhat * gain + bias), (got_xhat, xhat), (got_inv_std, inv_std)):
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)

    def test_bad_eps(self):
        with pytest.raises(ShapeError):
            layer_norm(np.ones(3), np.ones(3), np.zeros(3), eps=0.0)


class TestGelu:
    def test_zero(self):
        assert gelu(np.float32(0.0)) == 0.0

    def test_positive_asymptote(self):
        assert abs(float(gelu(np.float32(10.0))) - 10.0) <= 1e-4

    def test_matches_erf_oracle(self):
        # 0.5 * x * (1 + erf(x / sqrt(2))) evaluated at x = -1 in high precision
        assert abs(float(gelu(np.float64(-1.0))) - (-0.15865525393145707)) <= 1e-9

    def test_grad_matches_finite_difference(self):
        x = np.linspace(-4, 4, 101)
        h = 1e-6
        numeric = (gelu(x + h) - gelu(x - h)) / (2 * h)
        np.testing.assert_allclose(gelu_grad(x), numeric, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_returned_cdf_gives_the_same_bits(self, dtype):
        x = np.linspace(-6, 6, 101).astype(dtype)
        act, cdf = gelu(x, return_cdf=True)
        np.testing.assert_array_equal(act, gelu(x))
        np.testing.assert_array_equal(gelu_grad(x, cdf), gelu_grad(x))
        assert cdf.dtype == dtype


class TestGeluFloat32:
    """float32 Phi comes from a rational erf evaluated in chunked passes."""

    def test_within_bound_of_float64_erf(self):
        x = np.linspace(-10, 10, 400_001).astype(np.float32)
        x64 = x.astype(np.float64)
        exact_cdf = 0.5 * (1.0 + erf(x64 / math.sqrt(2.0)))
        act, cdf = gelu(x, return_cdf=True)
        assert act.dtype == np.float32 and cdf.dtype == np.float32
        assert np.abs(cdf - exact_cdf).max() <= 5e-7
        assert np.abs(act - x64 * exact_cdf).max() <= 2e-6

    def test_large_negative_inputs_give_zero(self):
        x = np.array([-6.0, -50.0, -1e6], dtype=np.float32)
        act, cdf = gelu(x, return_cdf=True)
        np.testing.assert_array_equal(cdf, 0.0)
        np.testing.assert_array_equal(act, 0.0)

    def test_rows_across_a_chunk_boundary_match_alone(self):
        width = 1280
        rows = _CDF_CHUNK // width + 2
        x = np.random.default_rng(0).normal(0, 3, size=(rows, width)).astype(np.float32)
        lo = _CDF_CHUNK // width - 1  # rows lo .. lo + 2 hold element _CDF_CHUNK
        whole = gelu(x)
        np.testing.assert_array_equal(whole[lo: lo + 3], gelu(x[lo: lo + 3]))
        np.testing.assert_array_equal(whole[lo + 1], gelu(x[lo + 1]))

    def test_zero_d_and_transposed_inputs(self):
        x = np.random.default_rng(1).normal(0, 2, size=(37, 300)).astype(np.float32)
        for view in (x.T, x[:, ::3]):
            act, cdf = gelu(view, return_cdf=True)
            want_act, want_cdf = gelu(np.ascontiguousarray(view), return_cdf=True)
            np.testing.assert_array_equal(act, want_act)
            np.testing.assert_array_equal(cdf, want_cdf)
        assert gelu(np.float32(-1.25)) == gelu(np.array([-1.25], dtype=np.float32))[0]
        assert gelu(np.array(0.75, dtype=np.float32)) == gelu(np.full(3, 0.75, np.float32))[1]

    def test_nan_in_nan_out_without_warning(self):
        x = np.array([np.nan, -1.0, np.nan, 2.0], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            act, cdf = gelu(x, return_cdf=True)
            grad = gelu_grad(x, cdf)
        assert np.isnan(act[[0, 2]]).all() and np.isnan(cdf[[0, 2]]).all()
        assert np.isnan(grad[[0, 2]]).all()
        assert np.isfinite(act[[1, 3]]).all()

    def test_grad_from_cached_cdf_near_float64(self):
        x = np.linspace(-8, 8, 20_001).astype(np.float32)
        _, cdf = gelu(x, return_cdf=True)
        np.testing.assert_allclose(gelu_grad(x, cdf), gelu_grad(x.astype(np.float64)), rtol=0, atol=1e-5)
