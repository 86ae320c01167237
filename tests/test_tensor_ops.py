"""Kernel-level tests: matmul, softmax, layer norm, gelu."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eslong.errors import ShapeError
from eslong.tensor_ops import gelu, gelu_grad, layer_norm, matmul, softmax_rows


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
