"""Pure-NumPy operator kernels shared by the backend executors.

Every kernel takes and returns plain ``ndarray``s — no autograd.  The knobs
that differ between vendor implementations are explicit parameters:

* ``dtype`` — the compute/storage precision (float64 reference, float32 or
  float16 deployment);
* ``accum_chunk`` — matmul accumulation granularity.  Reference backends
  accumulate a dot product in one fused reduction; tiled deployment kernels
  accumulate partial sums in ``accum_chunk``-sized slabs, which changes the
  floating-point rounding order and therefore the low bits of every conv and
  linear output;
* ``fast`` variants of gelu/sigmoid/softmax — polynomial / piecewise
  approximations of transcendental functions, as shipped in DSP and NPU
  operator libraries.

These are the mechanisms behind the paper's "black-box vendor operator"
observation (§3.3): same weights, same math on paper, different bits.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import (im2col, max_pool2d_array, pad2d_const,
                                 pool_output_size)

__all__ = [
    "matmul_accum", "conv2d", "linear", "batchnorm", "layernorm", "relu",
    "gelu", "gelu_tanh", "sigmoid", "hard_sigmoid",
    "softmax", "softmax_fast", "max_pool2d", "avg_pool2d",
    "global_avg_pool2d", "upsample2d", "exp_poly",
]


# ---------------------------------------------------------------------------
# Matmul with controllable accumulation order
# ---------------------------------------------------------------------------

def matmul_accum(a: np.ndarray, b: np.ndarray, dtype=np.float64,
                 accum_chunk: int | None = None) -> np.ndarray:
    """``a @ b`` in ``dtype`` with optional tiled accumulation.

    ``accum_chunk=None`` is the fused reference reduction.  With a chunk
    size, partial products over the contraction axis are summed slab by slab
    in ``dtype`` — the rounding order a tiled GEMM (or a systolic accelerator
    with a small accumulator) produces.
    """
    a = a.astype(dtype, copy=False)
    b = b.astype(dtype, copy=False)
    k = a.shape[-1]
    if accum_chunk is None or accum_chunk >= k:
        return (a @ b).astype(dtype, copy=False)
    out = None
    for start in range(0, k, accum_chunk):
        sl = slice(start, start + accum_chunk)
        part = (a[..., sl] @ b[..., sl, :]).astype(dtype, copy=False)
        out = part if out is None else (out + part).astype(dtype, copy=False)
    return out


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

def conv2d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None, *,
           stride: int = 1, padding: int = 0, dilation: int = 1,
           groups: int = 1, dtype=np.float64,
           accum_chunk: int | None = None) -> np.ndarray:
    """Grouped 2-D convolution via im2col + (tiled) GEMM."""
    n, cin, _, _ = x.shape
    cout, cin_g, kh, kw = weight.shape
    cols, meta = im2col(x.astype(dtype, copy=False),
                        kh, kw, stride, padding, dilation)
    oh, ow = meta[6], meta[7]
    # cols: (N, C*kh*kw, OH*OW); channels are contiguous, so a group reshape
    # slices the column matrix without copying.
    cols = cols.reshape(n, groups, cin_g * kh * kw, oh * ow)
    w = weight.astype(dtype, copy=False).reshape(groups, cout // groups, -1)
    outs = [matmul_accum(w[g], cols[:, g], dtype=dtype, accum_chunk=accum_chunk)
            for g in range(groups)]
    out = np.concatenate(outs, axis=-2) if groups > 1 else outs[0]
    out = out.reshape(n, cout, oh, ow)
    if bias is not None:
        out = (out + bias.astype(dtype, copy=False).reshape(1, -1, 1, 1))
    return out.astype(dtype, copy=False)


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None, *,
           dtype=np.float64, accum_chunk: int | None = None) -> np.ndarray:
    out = matmul_accum(x, weight.T, dtype=dtype, accum_chunk=accum_chunk)
    if bias is not None:
        out = (out + bias.astype(dtype, copy=False)).astype(dtype, copy=False)
    return out


def batchnorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
              mean: np.ndarray, var: np.ndarray, eps: float = 1e-5,
              dtype=np.float64) -> np.ndarray:
    """Inference-mode BN using running statistics."""
    shape = (1, -1) + (1,) * (x.ndim - 2)
    scale = (gamma / np.sqrt(var + eps)).astype(dtype).reshape(shape)
    shift = (beta - mean * gamma / np.sqrt(var + eps)).astype(dtype).reshape(shape)
    return (x.astype(dtype, copy=False) * scale + shift).astype(dtype, copy=False)


def layernorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
              eps: float = 1e-5, dtype=np.float64) -> np.ndarray:
    """Layer normalisation over the trailing feature dimension."""
    x = x.astype(dtype, copy=False)
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    out = (x - mu) / np.sqrt(var + eps) * gamma.astype(dtype) \
        + beta.astype(dtype)
    return out.astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# Activations: reference and vendor-style approximations
# ---------------------------------------------------------------------------

def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact GELU via the error function."""
    from scipy.special import erf
    return (x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))).astype(x.dtype, copy=False)


def gelu_tanh(x: np.ndarray) -> np.ndarray:
    """The tanh approximation most accelerator libraries ship."""
    c = float(np.sqrt(2.0 / np.pi))
    inner = c * (x + 0.044715 * x ** 3)
    return (0.5 * x * (1.0 + np.tanh(inner))).astype(x.dtype, copy=False)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def hard_sigmoid(x: np.ndarray) -> np.ndarray:
    """Piecewise-linear sigmoid (``relu6(x+3)/6``), common on DSPs/NPUs."""
    return (np.clip(x + 3.0, 0.0, 6.0) / 6.0).astype(x.dtype, copy=False)


def exp_poly(x: np.ndarray, order: int = 5) -> np.ndarray:
    """Range-reduced polynomial exp: ``exp(x) = 2^k * P(r)``.

    The standard fixed-function-unit recipe: split ``x = k*ln2 + r`` with
    ``|r| <= ln2/2``, evaluate a degree-``order`` Taylor polynomial on the
    reduced argument, and scale by the exactly-representable power of two.
    Accurate to ~1e-6 relative at order 5 — close to, but not bit-equal with,
    libm ``exp``.
    """
    x = np.clip(x, -87.0, 87.0)
    k = np.round(x / np.log(2.0))
    r = x - k * np.log(2.0)
    p = np.ones_like(r)
    term = np.ones_like(r)
    for i in range(1, order + 1):
        term = term * r / i
        p = p + term
    return np.ldexp(p, k.astype(np.int64))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_fast(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax built on the polynomial exp, as vendor kernels do."""
    z = x - x.max(axis=axis, keepdims=True)
    e = exp_poly(z)
    return (e / e.sum(axis=axis, keepdims=True)).astype(x.dtype, copy=False)


# ---------------------------------------------------------------------------
# Pooling / resampling
# ---------------------------------------------------------------------------

def max_pool2d(x: np.ndarray, kernel_size: int, stride: int, padding: int,
               ceil_mode: bool = False) -> np.ndarray:
    return max_pool2d_array(x, kernel_size, stride, padding, ceil_mode)


def avg_pool2d(x: np.ndarray, kernel_size: int, stride: int, padding: int,
               ceil_mode: bool = False) -> np.ndarray:
    n, c, h, w = x.shape
    oh = pool_output_size(h, kernel_size, stride, padding, ceil_mode)
    ow = pool_output_size(w, kernel_size, stride, padding, ceil_mode)
    # Pad enough on the right/bottom for ceil-mode windows that run off-edge.
    need_h = (oh - 1) * stride + kernel_size
    need_w = (ow - 1) * stride + kernel_size
    pad_r = max(need_h - h - padding, padding)
    pad_c = max(need_w - w - padding, padding)
    xp = pad2d_const(x, padding, pad_r, padding, pad_c, 0.0)
    view = np.lib.stride_tricks.sliding_window_view(
        xp, (kernel_size, kernel_size), axis=(2, 3))
    view = view[:, :, ::stride, ::stride][:, :, :oh, :ow]
    # A mean over the window axes: its result depends on summation order,
    # so it keeps this reduce rather than the max-pool's offset loop.
    return np.mean(view, axis=(-2, -1))


def global_avg_pool2d(x: np.ndarray) -> np.ndarray:
    return x.mean(axis=(2, 3))


def upsample2d(x: np.ndarray, scale_factor: float, mode: str = "nearest") -> np.ndarray:
    """Feature-map upsample, nearest or bilinear (align_corners=False)."""
    n, c, h, w = x.shape
    oh, ow = int(round(h * scale_factor)), int(round(w * scale_factor))
    if mode == "nearest":
        ri = np.minimum((np.arange(oh) / scale_factor).astype(np.int64), h - 1)
        ci = np.minimum((np.arange(ow) / scale_factor).astype(np.int64), w - 1)
        return x[:, :, ri[:, None], ci[None, :]]
    if mode != "bilinear":
        raise ValueError(f"unknown upsample mode {mode!r}")
    src_r = np.clip((np.arange(oh) + 0.5) / scale_factor - 0.5, 0, h - 1)
    src_c = np.clip((np.arange(ow) + 0.5) / scale_factor - 0.5, 0, w - 1)
    r0 = np.floor(src_r).astype(np.int64)
    c0 = np.floor(src_c).astype(np.int64)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = (src_r - r0).reshape(1, 1, -1, 1)
    fc = (src_c - c0).reshape(1, 1, 1, -1)
    tl = x[:, :, r0[:, None], c0[None, :]]
    tr = x[:, :, r0[:, None], c1[None, :]]
    bl = x[:, :, r1[:, None], c0[None, :]]
    br = x[:, :, r1[:, None], c1[None, :]]
    top = tl * (1 - fc) + tr * fc
    bot = bl * (1 - fc) + br * fc
    return (top * (1 - fr) + bot * fr).astype(x.dtype, copy=False)
