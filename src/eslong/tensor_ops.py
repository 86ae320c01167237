"""Dense numeric kernels shared by the encoder, attention, and classifier code.

softmax_rows is the one softmax: attention.attend runs it in every forward pass.

All kernels follow the dtype of their inputs; the production path runs in
float32, while oracle/test code may pass float64 arrays through unchanged.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from .errors import ShapeError

DEFAULT_LN_EPS = 1e-5

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-major matrix product of two rank-2 arrays."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects rank-2 operands, got ranks {a.ndim} and {b.ndim}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    return a @ b


def softmax_rows(a: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, with max-subtraction so large scores cannot overflow.

    A -inf entry is invisible, and a row with nothing visible comes out all
    zeros. All work happens in one output buffer of a's shape.
    """
    a = np.asarray(a)
    m = a.max(axis=-1, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    out = np.subtract(a, m)
    np.exp(out, out=out)
    total = out.sum(axis=-1, keepdims=True)
    total[total == 0] = 1.0
    out /= total
    return out


def layer_norm(
    a: np.ndarray,
    gain: np.ndarray,
    bias: np.ndarray,
    eps: float = DEFAULT_LN_EPS,
) -> np.ndarray:
    """Normalize the last axis to zero mean / unit variance, then apply the affine pair."""
    if eps <= 0:
        raise ShapeError("layer_norm eps must be positive")
    a = np.asarray(a)
    mean = a.mean(axis=-1, keepdims=True)
    var = a.var(axis=-1, keepdims=True)
    normed = (a - mean) / np.sqrt(var + eps)
    return normed * gain + bias


def gelu(a: np.ndarray) -> np.ndarray:
    """Gaussian-error linear unit x * Phi(x), computed with the exact erf form
    (not the tanh fit), so values match a high-precision oracle directly."""
    a = np.asarray(a)
    return a * 0.5 * (1.0 + erf(a * _INV_SQRT2))


def gelu_grad(a: np.ndarray) -> np.ndarray:
    """Elementwise derivative of gelu: Phi(x) + x * phi(x)."""
    a = np.asarray(a)
    cdf = 0.5 * (1.0 + erf(a * _INV_SQRT2))
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * a * a)
    return cdf + a * pdf
