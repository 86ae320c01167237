"""Dense numeric kernels shared by the encoder, attention, and classifier code.

softmax_rows is the one softmax. attention.attend runs only its first step,
shifted_exp, and divides the context rows instead of the probabilities;
attention.attend_backward replays the whole softmax from the row max and row
sum attend kept.
layer_norm is the one layer norm, and it returns the cache the backward pass reads.

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


def shifted_exp(a: np.ndarray, out=None, row_max=None):
    """exp(a - row_max) over the last axis, the first step of softmax_rows.

    row_max defaults to each row's max, taken as 0 where a row has nothing
    finite, so a -inf entry comes out 0 and large scores cannot overflow. All
    work happens in one buffer of a's shape: out when given, which may be a
    itself, else a new array. Returns (exp, row_max), row_max with the last
    axis kept at length 1.
    """
    a = np.asarray(a)
    if row_max is None:
        row_max = a.max(axis=-1, keepdims=True)
        row_max[~np.isfinite(row_max)] = 0.0
    out = np.subtract(a, row_max, out=out)
    np.exp(out, out=out)
    return out, row_max


def softmax_rows(a: np.ndarray, out=None, stats=None, return_stats: bool = False):
    """Softmax over the last axis: shifted_exp, then division by the row sum.

    A -inf entry is invisible, and a row with nothing visible comes out all
    zeros. All work happens in one output buffer of a's shape: out when given,
    which may be a itself, else a new array.

    return_stats=True returns (probabilities, (row_max, row_sum)): the max
    subtracted from each row and the sum of exponentials it was divided by,
    with the last axis kept at length 1. Passing that pair back as stats skips
    the reductions and runs the same exp(a - row_max) / row_sum, so the same a
    gives bit-identical probabilities.
    """
    if stats is None:
        out, m = shifted_exp(a, out)
        total = out.sum(axis=-1, keepdims=True)
        total[total == 0] = 1.0
    else:
        m, total = stats
        out, _ = shifted_exp(a, out, m)
    out /= total
    return (out, (m, total)) if return_stats else out


def layer_norm(
    a: np.ndarray,
    gain: np.ndarray,
    bias: np.ndarray,
    eps: float = DEFAULT_LN_EPS,
):
    """Normalize the last axis to zero mean / unit variance, then apply the affine pair.

    Returns (y, (xhat, inv_std)): the normalized input and the reciprocal
    standard deviation are what the backward pass needs.
    """
    if eps <= 0:
        raise ShapeError("layer_norm eps must be positive")
    a = np.asarray(a)
    mean = a.mean(axis=-1, keepdims=True)
    var = a.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (a - mean) * inv_std
    return xhat * gain + bias, (xhat, inv_std)


def _normal_cdf(a: np.ndarray) -> np.ndarray:
    """Phi(x), the standard normal CDF, from the exact erf."""
    return 0.5 * (1.0 + erf(np.asarray(a) * _INV_SQRT2))


def gelu(a: np.ndarray, return_cdf: bool = False):
    """Gaussian-error linear unit x * Phi(x), computed with the exact erf form
    (not the tanh fit), so values match a high-precision oracle directly.

    return_cdf=True returns (gelu(a), Phi(a)), so a backward pass can hand
    Phi to gelu_grad instead of evaluating erf again.
    """
    a = np.asarray(a)
    cdf = _normal_cdf(a)
    out = a * cdf
    return (out, cdf) if return_cdf else out


def gelu_grad(a: np.ndarray, cdf=None) -> np.ndarray:
    """Elementwise derivative of gelu: Phi(x) + x * phi(x). cdf, when given,
    is Phi(a) as gelu(a, return_cdf=True) returned it."""
    a = np.asarray(a)
    if cdf is None:
        cdf = _normal_cdf(a)
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * a * a)
    return cdf + a * pdf
