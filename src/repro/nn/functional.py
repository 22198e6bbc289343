"""Neural-network functional ops on :class:`~repro.nn.tensor.Tensor`.

Implements the operators the SysNoise paper's pipelines depend on:

* ``conv2d`` via im2col/col2im (supports stride, padding, dilation, groups);
* ``max_pool2d`` with the **ceil_mode** flag — the paper's model-inference
  noise ➁ (Eq. 8 of the paper computes the output extent with floor vs ceil);
* ``upsample`` with **nearest vs bilinear** interpolation — the FPN /
  segmentation-head noise;
* batch/layer norm, softmax, cross-entropy, embedding, dropout.

Everything is vectorised; there are no per-pixel Python loops.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .tensor import Tensor, is_grad_enabled

__all__ = [
    "conv2d", "max_pool2d", "avg_pool2d", "global_avg_pool2d",
    "pool_output_size", "upsample2d", "linear", "batch_norm", "layer_norm",
    "softmax", "log_softmax", "cross_entropy", "embedding", "dropout",
    "im2col", "col2im", "pad2d_const", "max_pool2d_array",
]


# ---------------------------------------------------------------------------
# im2col / col2im
# ---------------------------------------------------------------------------

def _conv_out_size(size: int, k: int, stride: int, pad: int, dilation: int) -> int:
    eff = dilation * (k - 1) + 1
    return (size + 2 * pad - eff) // stride + 1


def pool_output_size(size: int, k: int, stride: int, pad: int, ceil_mode: bool) -> int:
    """Pooling output extent — paper Eq. 8 with floor or ceil.

    With ``ceil_mode`` the window may start inside the left padding but must
    not start entirely inside padding (PyTorch semantics).
    """
    if ceil_mode:
        out = math.ceil((size + 2 * pad - k) / stride) + 1
        # Last window must start strictly before the padded right edge.
        if (out - 1) * stride >= size + pad:
            out -= 1
        return out
    return (size + 2 * pad - k) // stride + 1


def pad2d_const(x: np.ndarray, top: int, bottom: int, left: int, right: int,
                value: float = 0.0) -> np.ndarray:
    """Constant-pad the last two axes of an NCHW map.

    Bit-identical to ``np.pad(..., constant_values=value)`` but without its
    Python-level slicing machinery — this sits on the conv/pool hot path.
    Returns ``x`` itself when no padding is requested; callers treat the
    result as read-only.
    """
    if not (top or bottom or left or right):
        return x
    n, c, h, w = x.shape
    xp = np.full((n, c, h + top + bottom, w + left + right), value,
                 dtype=x.dtype)
    xp[:, :, top:top + h, left:left + w] = x
    return xp


_PATCH_INDEX_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _patch_indices(h: int, w: int, kh: int, kw: int, stride: int, dilation: int,
                   oh: int, ow: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (rows, cols) index grids of shape (kh*kw, oh*ow) into a padded map.

    Cached per geometry — every conv layer rebuilds the same grids on every
    forward otherwise.  Callers treat the grids as read-only.
    """
    key = (h, w, kh, kw, stride, dilation, oh, ow)
    hit = _PATCH_INDEX_CACHE.get(key)
    if hit is not None:
        return hit
    r0 = np.repeat(np.arange(kh) * dilation, kw)
    c0 = np.tile(np.arange(kw) * dilation, kh)
    r1 = stride * np.repeat(np.arange(oh), ow)
    c1 = stride * np.tile(np.arange(ow), oh)
    rows = r0[:, None] + r1[None, :]
    cols = c0[:, None] + c1[None, :]
    if len(_PATCH_INDEX_CACHE) < 512:
        _PATCH_INDEX_CACHE[key] = (rows, cols)
    return rows, cols


def _padded(x: np.ndarray, kh: int, kw: int, stride: int, pad: int,
            dilation: int, oh: int, ow: int,
            pad_value: float) -> tuple[np.ndarray, int, int]:
    """``(padded map, pad_b, pad_r)`` holding ``oh`` × ``ow`` windows.

    Pads ``pad`` on every side, plus enough on the right/bottom for
    ceil-mode windows that overrun.
    """
    h, w = x.shape[2], x.shape[3]
    need_h = (oh - 1) * stride + dilation * (kh - 1) + 1
    need_w = (ow - 1) * stride + dilation * (kw - 1) + 1
    pad_b = max(0, need_h - (h + pad))
    pad_r = max(0, need_w - (w + pad))
    return pad2d_const(x, pad, pad_b, pad, pad_r, pad_value), pad_b, pad_r


def _window_view(xp: np.ndarray, kh: int, kw: int, stride: int,
                 dilation: int, oh: int, ow: int) -> np.ndarray:
    """Zero-copy (N, C, OH, OW, kh, kw) window view over a padded map."""
    view = np.lib.stride_tricks.sliding_window_view(
        xp, (dilation * (kh - 1) + 1, dilation * (kw - 1) + 1), axis=(2, 3))
    return view[:, :, :(oh - 1) * stride + 1:stride,
                :(ow - 1) * stride + 1:stride, ::dilation, ::dilation]


def _unfold(view: np.ndarray) -> np.ndarray:
    """(N, C*kh*kw, OH*OW) columns of a window view: one C-order copy.

    The explicit ``copy`` keeps a degenerate window (kernel covering the
    whole map) from coming back as a view aliasing the input.
    """
    n, c, oh, ow, kh, kw = view.shape
    cols = view.transpose(0, 1, 4, 5, 2, 3).copy()
    return cols.reshape(n, c * kh * kw, oh * ow)


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int,
           dilation: int = 1, pad_value: float = 0.0,
           out_hw: tuple[int, int] | None = None) -> tuple[np.ndarray, tuple]:
    """Unfold ``x`` (N, C, H, W) into columns (N, C*kh*kw, OH*OW).

    For kh·kw > 1 the columns are one C-contiguous copy of a strided window
    view.  A 1×1 kernel keeps the fancy-index gather, whose result is a
    transposed view laid out (positions, batch, channels): the compiled
    plan's k==1 buffer reproduces that layout stride for stride, and BLAS
    rounding depends on operand strides.  An empty output (a map smaller
    than the kernel) also takes the gather, which yields empty columns
    where a window view cannot be built.
    """
    n, c, h, w = x.shape
    if out_hw is None:
        oh = _conv_out_size(h, kh, stride, pad, dilation)
        ow = _conv_out_size(w, kw, stride, pad, dilation)
    else:
        oh, ow = out_hw
    xp, pad_b, pad_r = _padded(x, kh, kw, stride, pad, dilation, oh, ow,
                               pad_value)
    meta = (x.shape, kh, kw, stride, pad, dilation, oh, ow, pad_b, pad_r)
    if kh * kw > 1 and oh > 0 and ow > 0:
        view = _window_view(xp, kh, kw, stride, dilation, oh, ow)
        return _unfold(view), meta
    rows, cols = _patch_indices(h, w, kh, kw, stride, dilation, oh, ow)
    return xp[:, :, rows, cols].reshape(n, c * kh * kw, oh * ow), meta


def col2im(cols: np.ndarray, meta: tuple) -> np.ndarray:
    """Fold columns back into an image, summing overlaps (im2col adjoint)."""
    (n, c, h, w), kh, kw, stride, pad, dilation, oh, ow, pad_b, pad_r = meta
    xp = np.zeros((n, c, h + pad + pad_b, w + pad + pad_r), dtype=cols.dtype)
    rows, rcols = _patch_indices(h, w, kh, kw, stride, dilation, oh, ow)
    patches = cols.reshape(n, c, kh * kw, oh * ow)
    np.add.at(xp, (slice(None), slice(None), rows, rcols), patches)
    return xp[:, :, pad:pad + h, pad:pad + w]


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def _conv_cols(x: np.ndarray, kh: int, kw: int, stride: int, pad: int,
               dilation: int) -> tuple[np.ndarray, tuple]:
    """``im2col`` with a pointwise shortcut for the 1×1/s1/p0 case.

    A pointwise unfold is a pure reshape — the gather would copy ``x``
    element for element in the same C order — so hand the GEMM a zero-copy
    view instead.  Dominant in the mobile/efficientnet families
    (expand/project convolutions).  The returned meta stays ``col2im``-
    compatible for the backward pass.
    """
    n, c, h, w = x.shape
    if kh == 1 and kw == 1 and stride == 1 and pad == 0:
        cols = np.ascontiguousarray(x).reshape(n, c, h * w)
        return cols, (x.shape, kh, kw, stride, pad, dilation, h, w, 0, 0)
    return im2col(x, kh, kw, stride, pad, dilation)


def _conv_cols_grouped(x: np.ndarray, groups: int, kh: int, kw: int,
                       stride: int, pad: int,
                       dilation: int) -> tuple[list[np.ndarray], tuple]:
    """Per-group :func:`_conv_cols` of ``x``'s ``groups`` channel blocks.

    For kh·kw > 1 every group's columns are copied out of *one* window view
    of the whole map — bit-identical to unfolding each block on its own,
    without a view per group (which dominates tiny depthwise calls).  The
    shared meta describes one block, as ``col2im`` expects.
    """
    n, c, h, w = x.shape
    cg = c // groups
    oh = _conv_out_size(h, kh, stride, pad, dilation)
    ow = _conv_out_size(w, kw, stride, pad, dilation)
    if kh * kw == 1 or oh < 1 or ow < 1:       # im2col's gather cases
        xg = x.reshape(n, groups, cg, h, w)
        pairs = [_conv_cols(xg[:, g], kh, kw, stride, pad, dilation)
                 for g in range(groups)]
        return [cols for cols, _ in pairs], pairs[0][1]
    xp, pad_b, pad_r = _padded(x, kh, kw, stride, pad, dilation, oh, ow, 0.0)
    view = _window_view(xp, kh, kw, stride, dilation, oh, ow)
    meta = ((n, cg, h, w), kh, kw, stride, pad, dilation, oh, ow, pad_b,
            pad_r)
    cols = [_unfold(view[:, g * cg:(g + 1) * cg]) for g in range(groups)]
    return cols, meta


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, *,
           stride: int = 1, padding: int = 0, dilation: int = 1,
           groups: int = 1) -> Tensor:
    """2-D convolution (cross-correlation), NCHW layout.

    ``weight`` has shape (C_out, C_in/groups, KH, KW).
    """
    n, c, h, w = x.shape
    co, cig, kh, kw = weight.shape
    assert c == cig * groups, f"channel mismatch: {c} vs {cig}*{groups}"
    oh = _conv_out_size(h, kh, stride, padding, dilation)
    ow = _conv_out_size(w, kw, stride, padding, dilation)

    if groups == 1:
        cols, meta = _conv_cols(x.data, kh, kw, stride, padding, dilation)
        wmat = weight.data.reshape(co, -1)
        out = np.einsum("of,nfp->nop", wmat, cols, optimize=True)
        out = out.reshape(n, co, oh, ow)
        saved = (cols, meta, wmat)
    else:
        wg = weight.data.reshape(groups, co // groups, cig, kh, kw)
        cols_list, meta = _conv_cols_grouped(x.data, groups, kh, kw, stride,
                                             padding, dilation)
        outs = np.empty((n, groups, co // groups, oh * ow))
        for g, cols in enumerate(cols_list):
            outs[:, g] = np.einsum("of,nfp->nop", wg[g].reshape(co // groups, -1),
                                   cols, optimize=True)
        out = outs.reshape(n, co, oh, ow)
        saved = (cols_list, meta, wg)

    if bias is not None:
        out = out + bias.data.reshape(1, co, 1, 1)

    def backward(g):
        g2 = g.reshape(n, co, oh * ow)
        gbias = g2.sum(axis=(0, 2)) if bias is not None else None
        if groups == 1:
            cols, meta, wmat = saved
            gw = np.einsum("nop,nfp->of", g2, cols, optimize=True)
            gw = gw.reshape(weight.shape)
            gcols = np.einsum("of,nop->nfp", wmat, g2, optimize=True)
            gx = col2im(gcols, meta)
        else:
            cols_list, meta, wg = saved
            gw = np.empty_like(weight.data.reshape(groups, co // groups, -1))
            gx = np.empty((n, groups, c // groups, h, w))
            gg = g2.reshape(n, groups, co // groups, oh * ow)
            for gi in range(groups):
                gw[gi] = np.einsum("nop,nfp->of", gg[:, gi], cols_list[gi],
                                   optimize=True)
                gcols = np.einsum("of,nop->nfp",
                                  wg[gi].reshape(co // groups, -1), gg[:, gi],
                                  optimize=True)
                gx[:, gi] = col2im(gcols, meta)
            gw = gw.reshape(weight.shape)
            gx = gx.reshape(n, c, h, w)
        return (gx, gw, gbias) if bias is not None else (gx, gw)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return x._make(out, parents, backward)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

def max_pool2d_array(x: np.ndarray, kernel_size: int, stride: int,
                     padding: int, ceil_mode: bool = False) -> np.ndarray:
    """Max pooling of an NCHW array, without gradient bookkeeping.

    One in-place ``np.maximum`` per kernel offset over strided slices of
    the ``-inf``-padded map, in row-major offset order.  Max is exact, so
    this gives the same bits as reducing a window view, NaN and signed
    zeros included, at a fraction of the cost of NumPy's reduce over two
    short strided axes.  The result is a fresh C-contiguous array.
    """
    h, w = x.shape[2:]
    oh = pool_output_size(h, kernel_size, stride, padding, ceil_mode)
    ow = pool_output_size(w, kernel_size, stride, padding, ceil_mode)
    if oh < 1 or ow < 1:
        raise ValueError(f"max pooling window {kernel_size} is larger than "
                         f"the {h}x{w} map padded by {padding}")
    xp = _padded(x, kernel_size, kernel_size, stride, padding, 1, oh, ow,
                 -np.inf)[0]
    span_h, span_w = (oh - 1) * stride + 1, (ow - 1) * stride + 1
    out = xp[:, :, :span_h:stride, :span_w:stride].copy()
    for i in range(kernel_size):
        for j in range(kernel_size):
            if i or j:
                np.maximum(out, xp[:, :, i:i + span_h:stride,
                                   j:j + span_w:stride], out=out)
    return out


def max_pool2d(x: Tensor, kernel_size: int, stride: int | None = None,
               padding: int = 0, *, ceil_mode: bool = False) -> Tensor:
    """Max pooling with the train/deploy **ceil-mode** switch.

    Training systems commonly use ``ceil_mode=False`` (floor); several
    deployment backends only implement ceil mode.  With ceil mode, extra
    off-bounds window positions are filled with ``-inf`` padding so they never
    win the max but do change the output spatial extent — which shifts every
    downstream feature location, the effect the paper measures.
    """
    stride = stride or kernel_size
    if not is_grad_enabled():
        # Inference fast path: the window max without materialising
        # columns or an argmax (only the backward needs one).
        return Tensor(max_pool2d_array(x.data, kernel_size, stride, padding,
                                       ceil_mode))
    n, c, h, w = x.shape
    oh = pool_output_size(h, kernel_size, stride, padding, ceil_mode)
    ow = pool_output_size(w, kernel_size, stride, padding, ceil_mode)
    cols, meta = im2col(x.data, kernel_size, kernel_size, stride, padding,
                        pad_value=-np.inf, out_hw=(oh, ow))
    cols = cols.reshape(n, c, kernel_size * kernel_size, oh * ow)
    amax = cols.argmax(axis=2)
    out = np.take_along_axis(cols, amax[:, :, None, :], axis=2)[:, :, 0, :]
    out = out.reshape(n, c, oh, ow)

    def backward(g):
        gcols = np.zeros((n, c, kernel_size * kernel_size, oh * ow))
        np.put_along_axis(gcols, amax[:, :, None, :],
                          g.reshape(n, c, 1, oh * ow), axis=2)
        return (col2im(gcols.reshape(n, c * kernel_size ** 2, oh * ow), meta),)

    return x._make(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel_size: int, stride: int | None = None,
               padding: int = 0, *, ceil_mode: bool = False,
               count_include_pad: bool = False) -> Tensor:
    """Average pooling (divisor excludes padding by default)."""
    stride = stride or kernel_size
    n, c, h, w = x.shape
    oh = pool_output_size(h, kernel_size, stride, padding, ceil_mode)
    ow = pool_output_size(w, kernel_size, stride, padding, ceil_mode)
    # (No windowed fast path here: summing the (k, k) window axes reduces
    # in a different pairwise order than the axis-2 reduction below, so it
    # would not be bit-identical.  max pooling is order-insensitive, hence
    # its fast path above.)
    cols, meta = im2col(x.data, kernel_size, kernel_size, stride, padding,
                        pad_value=np.nan, out_hw=(oh, ow))
    cols = cols.reshape(n, c, kernel_size * kernel_size, oh * ow)
    valid = ~np.isnan(cols)
    if count_include_pad:
        counts = np.full(cols.shape[-1], kernel_size * kernel_size)
    else:
        counts = valid[0, 0].sum(axis=0)
    total = np.where(valid, cols, 0.0).sum(axis=2)
    out = (total / counts).reshape(n, c, oh, ow)

    def backward(g):
        g2 = (g.reshape(n, c, 1, oh * ow) / counts) * valid
        return (col2im(g2.reshape(n, c * kernel_size ** 2, oh * ow), meta),)

    return x._make(out, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Spatial global average pool (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))


# ---------------------------------------------------------------------------
# Upsampling / interpolation on feature maps
# ---------------------------------------------------------------------------

_INTERP_CACHE: dict[tuple, np.ndarray] = {}


def interp_matrix(in_size: int, out_size: int, mode: str,
                  align_corners: bool = False) -> np.ndarray:
    """Dense 1-D interpolation operator M with ``y = M @ x``.

    Separable application along H then W gives 2-D nearest / bilinear
    upsampling identical to the usual definitions; the adjoint (``M.T``)
    gives the exact gradient.
    """
    key = (in_size, out_size, mode, align_corners)
    cached = _INTERP_CACHE.get(key)
    if cached is not None:
        return cached
    m = np.zeros((out_size, in_size))
    if mode == "nearest":
        scale = in_size / out_size
        src = np.floor(np.arange(out_size) * scale).astype(int)
        src = np.clip(src, 0, in_size - 1)
        m[np.arange(out_size), src] = 1.0
    elif mode == "bilinear":
        if align_corners and out_size > 1:
            src = np.arange(out_size) * (in_size - 1) / (out_size - 1)
        else:
            scale = in_size / out_size
            src = (np.arange(out_size) + 0.5) * scale - 0.5
        src = np.clip(src, 0, in_size - 1)
        lo = np.floor(src).astype(int)
        hi = np.minimum(lo + 1, in_size - 1)
        frac = src - lo
        m[np.arange(out_size), lo] += 1.0 - frac
        m[np.arange(out_size), hi] += frac
    else:
        raise ValueError(f"unknown interpolation mode: {mode}")
    _INTERP_CACHE[key] = m
    return m


def upsample2d(x: Tensor, size: tuple[int, int] | None = None,
               scale_factor: float | None = None, mode: str = "nearest",
               align_corners: bool = False) -> Tensor:
    """Resize a feature map (N, C, H, W) with nearest or bilinear interpolation.

    This is the operator whose train/deploy mismatch constitutes the paper's
    *upsample* model-inference noise.
    """
    n, c, h, w = x.shape
    if size is None:
        assert scale_factor is not None
        size = (int(h * scale_factor), int(w * scale_factor))
    oh, ow = size
    mh = interp_matrix(h, oh, mode, align_corners)
    mw = interp_matrix(w, ow, mode, align_corners)
    # y[n,c,i,j] = sum_{p,q} mh[i,p] x[n,c,p,q] mw[j,q]
    out = np.einsum("ip,ncpq,jq->ncij", mh, x.data, mw, optimize=True)

    def backward(g):
        gx = np.einsum("ip,ncij,jq->ncpq", mh, g, mw, optimize=True)
        return (gx,)

    return x._make(out, (x,), backward)


# ---------------------------------------------------------------------------
# Linear / norms / softmax
# ---------------------------------------------------------------------------

def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ W.T + b``; ``weight`` is (out, in)."""
    out = x.matmul(weight.T)
    if bias is not None:
        out = out + bias
    return out


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray, *,
               training: bool, momentum: float = 0.1,
               eps: float = 1e-5) -> Tensor:
    """Batch normalisation over (N, H, W) for NCHW input or N for 2-D input."""
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    view = (1, -1) if x.ndim == 2 else (1, -1, 1, 1)
    if training:
        mu = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        running_mean *= (1 - momentum)
        running_mean += momentum * mu.data.reshape(-1)
        n = x.size / x.shape[1]
        unbiased = var.data.reshape(-1) * n / max(n - 1, 1)
        running_var *= (1 - momentum)
        running_var += momentum * unbiased
    elif not is_grad_enabled():
        # Inference fast path: the same subtract/divide/scale/shift sequence
        # as the autograd composition below (bit-identical), without the
        # five Tensor intermediates per call.
        out = x.data - running_mean.reshape(view)
        out /= np.sqrt(running_var.reshape(view) + eps)
        out *= gamma.data.reshape(view)
        out += beta.data.reshape(view)
        return Tensor(out)
    else:
        mu = Tensor(running_mean.reshape(view))
        var = Tensor(running_var.reshape(view))
    xhat = (x - mu) / (var + eps).sqrt()
    return xhat * gamma.reshape(*view) + beta.reshape(*view)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the trailing dimension."""
    if not is_grad_enabled():
        # Single-pass inference path, bit-identical to the composition
        # below: Tensor.mean is sum * (1/n), Tensor.var is mean(d*d).
        xd = x.data
        n = xd.shape[-1]
        mu = xd.sum(axis=-1, keepdims=True) * (1.0 / n)
        d = xd - mu
        var = (d * d).sum(axis=-1, keepdims=True) * (1.0 / n)
        d /= np.sqrt(var + eps)
        d *= gamma.data
        d += beta.data
        return Tensor(d)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    xhat = (x - mu) / (var + eps).sqrt()
    return xhat * gamma + beta


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax — the paper's classification post-processing."""
    if not is_grad_enabled():
        # Single-pass inference path: same subtract/exp/divide sequence as
        # the autograd composition (bit-identical), one buffer end to end.
        z = x.data - x.data.max(axis=axis, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=axis, keepdims=True)
        return Tensor(z)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    if not is_grad_enabled():
        z = x.data - x.data.max(axis=axis, keepdims=True)
        z -= np.log(np.exp(z).sum(axis=axis, keepdims=True))
        return Tensor(z)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  label_smoothing: float = 0.0) -> Tensor:
    """Mean cross-entropy over a batch of integer class targets."""
    n, k = logits.shape[0], logits.shape[-1]
    logp = log_softmax(logits, axis=-1)
    targets = np.asarray(targets, dtype=int)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), targets] = 1.0
    if label_smoothing > 0:
        onehot = onehot * (1 - label_smoothing) + label_smoothing / k
    return -(logp * Tensor(onehot)).sum() * (1.0 / n)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Lookup rows of ``table`` (V, D) at integer ``ids`` (…)."""
    ids = np.asarray(ids, dtype=int)
    out = table.data[ids]

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        return (gt,)

    return table._make(out, (table,), backward)


def dropout(x: Tensor, p: float, training: bool,
            rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p <= 0.0:
        return x
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)
