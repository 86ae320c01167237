"""Dense numeric kernels shared by the encoder, attention, and classifier code.

softmax_rows is the one softmax. attention.attend runs only its first step,
shifted_exp, with no shift where a norm bound proves the scores small, and
divides the context rows instead of the probabilities;
attention.attend_backward replays the whole softmax from the shift and row
sum attend kept.
layer_norm is the one layer norm, and it returns the cache the backward pass reads.

All kernels follow the dtype of their inputs; the production path runs in
float32, while oracle/test code may pass float64 arrays through unchanged.
GELU's normal CDF is the one split by dtype: float32 runs a rational erf in
numpy passes (max abs error about 2.5e-7 on Phi), every other dtype scipy's
exact erf.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError

DEFAULT_LN_EPS = 1e-5

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Float32 Phi(x) = 0.5 + x * P(x^2) / Q(x^2), from the odd/even rational erf(t)
# = t * A(t^2) / B(t^2) that Eigen and XLA use for float32, clipped to |t| <= 4.
# With t = x / sqrt2, the coefficient of (t^2)^k is divided by 2^k, and the
# numerator also takes the 0.5 / sqrt2 of Phi. Highest power first.
_ERF_ALPHA = (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02,
)
_ERF_BETA = (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02,
)
_CDF_P = tuple(
    np.float32(c * 0.5 * _INV_SQRT2 / 2.0 ** (len(_ERF_ALPHA) - 1 - i))
    for i, c in enumerate(_ERF_ALPHA)
)
_CDF_Q = tuple(
    np.float32(c / 2.0 ** (len(_ERF_BETA) - 1 - i)) for i, c in enumerate(_ERF_BETA)
)
_CDF_CLIP = np.float32(4.0 * math.sqrt(2.0))
# Elements per pass: 64K float32 (256 KB) keeps each buffer of a pass in L2.
_CDF_CHUNK = 1 << 16


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-major matrix product of two rank-2 arrays."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects rank-2 operands, got ranks {a.ndim} and {b.ndim}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    return a @ b


def row_shift(a: np.ndarray) -> np.ndarray:
    """Each row's max over the last axis, kept at length 1, or 0 where a row
    has nothing finite: the shift shifted_exp takes by default."""
    row_max = a.max(axis=-1, keepdims=True)
    row_max[~np.isfinite(row_max)] = 0.0
    return row_max


def shifted_exp(a: np.ndarray, out=None, row_max=None):
    """exp(a - row_max) over the last axis, the first step of softmax_rows.

    row_max is the shift: any value that keeps exp in range gives the same
    softmax. It defaults to row_shift(a), each row's max, taken as 0 where a
    row has nothing finite, so a -inf entry comes out 0 and large scores
    cannot overflow. A caller that knows its scores are small passes
    row_max=0.0, the no-shift form. A shift that is zero in every row is not subtracted, which changes
    no bit, since x - 0 == x for every float. All work happens in one buffer
    of a's shape: out when given, which may be a itself, else a new array.
    Returns (exp, row_max), row_max as given or, when computed, with the last
    axis kept at length 1.
    """
    a = np.asarray(a)
    if row_max is None:
        row_max = row_shift(a)
    if np.any(row_max):
        a = out = np.subtract(a, row_max, out=out)
    out = np.exp(a, out=out)
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
    out=None,
):
    """Normalize the last axis to zero mean / unit variance, then apply the affine pair.

    Returns (y, (xhat, inv_std)): the normalized input and the reciprocal
    standard deviation are what the backward pass needs. out, when given, is
    a (y, xhat, inv_std) triple of arrays the results are written to.
    """
    if eps <= 0:
        raise ShapeError("layer_norm eps must be positive")
    a = np.asarray(a)
    y, xhat, inv_std = (None, None, None) if out is None else out
    # One mean and one centred copy, squared for the variance and then scaled
    # in place: the same sums and divisions as a.var, so the same bits.
    xhat = np.subtract(a, a.mean(axis=-1, keepdims=True), out=xhat)
    var = np.square(xhat).mean(axis=-1, keepdims=True)
    inv_std = np.divide(1.0, np.sqrt(var + eps), out=inv_std)
    xhat *= inv_std
    y = np.multiply(xhat, gain, out=y)
    y += bias
    return y, (xhat, inv_std)


def _passes(size: int, buffers: int):
    """(chunk slice, scratch buffers cut to its length) for each pass over
    size elements, with `buffers` float32 scratch buffers of one pass."""
    scratch = [np.empty(min(_CDF_CHUNK, size), dtype=np.float32) for _ in range(buffers)]
    for lo in range(0, size, _CDF_CHUNK):
        hi = min(size, lo + _CDF_CHUNK)
        yield slice(lo, hi), [buf[: hi - lo] for buf in scratch]


def _cdf_pass(src, p, x, x2) -> None:
    """Phi of the float32 chunk src into p, Horner in place: x (later Q) and
    x^2 are scratch of p's length."""
    np.clip(src, -_CDF_CLIP, _CDF_CLIP, out=x)
    np.multiply(x, x, out=x2)
    np.multiply(x2, _CDF_P[0], out=p)
    p += _CDF_P[1]
    for c in _CDF_P[2:]:
        p *= x2
        p += c
    p *= x
    q = np.multiply(x2, _CDF_Q[0], out=x)
    q += _CDF_Q[1]
    for c in _CDF_Q[2:]:
        q *= x2
        q += c
    p /= q
    p += 0.5
    # The fit dips to -1.8e-7 for x < -5.1; the floor keeps gelu of a
    # large negative input at -0, as the exact erf gives, not -6e-8 * x.
    np.maximum(p, 0.0, out=p)


def _normal_cdf(a: np.ndarray, out=None) -> np.ndarray:
    """Phi(x), the standard normal CDF: the rational erf on float32, the exact
    erf on every other dtype. out, when given, is a C-contiguous array of a's
    shape and dtype that receives it."""
    a = np.asarray(a)
    if a.dtype != np.float32:
        from scipy.special import erf  # deferred: scipy is most of a CLI start's import time

        cdf = 0.5 * (1.0 + erf(a * _INV_SQRT2))
        if out is None:
            return cdf
        np.copyto(out, cdf)
        return out
    src = np.ascontiguousarray(a).reshape(-1)
    if out is None:
        out = np.empty(a.shape, dtype=np.float32)
    dst = out.reshape(-1)  # a view: out is C-contiguous
    for chunk, (x, x2) in _passes(src.size, 2):
        _cdf_pass(src[chunk], dst[chunk], x, x2)
    return out


def gelu(a: np.ndarray, return_cdf: bool = False, out=None, cdf_out=None):
    """Gaussian-error linear unit x * Phi(x), computed with the erf form (not
    the tanh fit): exact erf off float32, so float64 values match a
    high-precision oracle directly; float32 Phi is within 5e-7 of it.

    return_cdf=True returns (gelu(a), Phi(a)), so a backward pass can hand
    Phi to gelu_grad instead of evaluating erf again. out, when given, is a
    C-contiguous array of a's shape and dtype, other than a, that receives
    gelu(a); cdf_out likewise receives Phi(a). When Phi is neither returned
    nor kept, float32 GELU multiplies each pass's Phi by x where it lies.
    """
    a = np.asarray(a)
    if return_cdf or cdf_out is not None or a.dtype != np.float32:
        cdf = _normal_cdf(a, out=cdf_out)
        y = np.multiply(a, cdf, out=out)
        return (y, cdf) if return_cdf else y
    src = np.ascontiguousarray(a).reshape(-1)
    if out is None:
        out = np.empty(a.shape, dtype=np.float32)
    dst = out.reshape(-1)
    for chunk, (x, x2) in _passes(src.size, 2):
        _cdf_pass(src[chunk], dst[chunk], x, x2)
        dst[chunk] *= src[chunk]
    return out


def gelu_grad(a: np.ndarray, cdf=None) -> np.ndarray:
    """Elementwise derivative of gelu: Phi(x) + x * phi(x). cdf, when given,
    is Phi(a) as gelu(a, return_cdf=True) returned it."""
    a = np.asarray(a)
    if cdf is None:
        cdf = _normal_cdf(a)
    # cdf + a * (c * exp(-0.5 * a * a)) in one buffer: each product and sum
    # has its operands swapped at most, which changes no bit.
    out = np.multiply(a, -0.5)
    out *= a
    np.exp(out, out=out)
    out *= _INV_SQRT_2PI
    out *= a
    out += cdf
    return out
