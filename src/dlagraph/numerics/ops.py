"""Dense float64 kernels for the reference executor.

Convolution is realized through im2col plus batched matmul; the
transposed convolution is the exact adjoint of the forward map (the same
einsum read backwards), so <Ax, y> == <x, At y> holds to rounding error.
All reductions have a fixed order, which keeps runs bit-identical.
"""

from __future__ import annotations

import numpy as np


def conv_out_hw(h: int, w: int, kernel: int, stride: int, padding: int) -> tuple[int, int]:
    return ((h + 2 * padding - kernel) // stride + 1,
            (w + 2 * padding - kernel) // stride + 1)


def _im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """(N, C, H, W) -> (N, C, k, k, OH, OW) patch tensor."""
    n, c, h, w = x.shape
    oh, ow = conv_out_hw(h, w, kernel, stride, padding)
    if oh < 1 or ow < 1:
        raise ValueError("convolution window does not fit input %dx%d" % (h, w))
    if padding:
        # Zeros plus one slice assignment: the same bits as np.pad, at a
        # fraction of its per-call overhead.
        xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = x
    else:
        xp = x
    cols = np.empty((n, c, kernel, kernel, oh, ow), dtype=x.dtype)
    for i in range(kernel):
        for j in range(kernel):
            cols[:, :, i, j] = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols


def _col2im(cols: np.ndarray, h: int, w: int, stride: int, padding: int) -> np.ndarray:
    """Adjoint of _im2col: scatter-add patches back onto an (N, C, H, W) grid."""
    n, c, kernel, _, oh, ow = cols.shape
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kernel):
        for j in range(kernel):
            xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += cols[:, :, i, j]
    if padding:
        return xp[:, :, padding:-padding, padding:-padding]
    return xp


def conv_apply(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None,
               stride: int, padding: int, groups: int) -> np.ndarray:
    """y = conv(x; w) with w shaped (out_c, in_c / groups, k, k)."""
    n = x.shape[0]
    oc, icg, kernel, _ = w.shape
    cols = _im2col(x, kernel, stride, padding)
    oh, ow = cols.shape[-2:]
    cols = cols.reshape(n, groups, icg * kernel * kernel, oh * ow)
    wg = w.reshape(groups, oc // groups, icg * kernel * kernel)
    y = np.matmul(wg[None], cols).reshape(n, oc, oh, ow)
    if bias is not None:
        y = y + bias[None, :, None, None]
    return y


def conv_apply_adjoint(z: np.ndarray, w: np.ndarray, stride: int, padding: int,
                       groups: int, in_hw: tuple[int, int]) -> np.ndarray:
    """x-shaped result of the transposed linear map: At z.

    ``in_hw`` names the spatial extent of the conv's input side, which is
    the output extent when this routine is used as a transposed-conv
    forward pass.
    """
    n = z.shape[0]
    oc, icg, kernel, _ = w.shape
    h, wd = in_hw
    oh, ow = conv_out_hw(h, wd, kernel, stride, padding)
    if (z.shape[2], z.shape[3]) != (oh, ow):
        raise ValueError("adjoint operand is %dx%d, conv output side is %dx%d"
                         % (z.shape[2], z.shape[3], oh, ow))
    zg = z.reshape(n, groups, oc // groups, oh * ow)
    wg = w.reshape(groups, oc // groups, icg * kernel * kernel)
    cols = np.matmul(wg.transpose(0, 2, 1)[None], zg)
    cols = cols.reshape(n, groups * icg, kernel, kernel, oh, ow)
    return _col2im(cols, h, wd, stride, padding)


def conv_weight_grad(z: np.ndarray, x: np.ndarray, kernel: int, stride: int,
                     padding: int, groups: int) -> np.ndarray:
    """d<z, conv(x; w)>/dw, shaped like the weight."""
    n = x.shape[0]
    oc = z.shape[1]
    cols = _im2col(x, kernel, stride, padding)
    oh, ow = cols.shape[-2:]
    icg = x.shape[1] // groups
    cols = cols.reshape(n, groups, icg * kernel * kernel, oh * ow)
    zg = z.reshape(n, groups, oc // groups, oh * ow)
    gw = np.matmul(zg, cols.transpose(0, 1, 3, 2)).sum(axis=0)
    return gw.reshape(oc, icg, kernel, kernel)


def batchnorm_train(x: np.ndarray, scale: np.ndarray, shift: np.ndarray,
                    eps: float) -> tuple[np.ndarray, tuple]:
    """Normalize with biased batch statistics over (N, H, W) per channel."""
    mean = x.mean(axis=(0, 2, 3), keepdims=True)
    var = x.var(axis=(0, 2, 3), keepdims=True)
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * ivar
    y = scale[None, :, None, None] * xhat + shift[None, :, None, None]
    return y, (xhat, ivar, mean, var)


def batchnorm_train_grads(gy: np.ndarray, x: np.ndarray, aux: tuple,
                          scale: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xhat, ivar, mean, _ = aux
    m = x.shape[0] * x.shape[2] * x.shape[3]
    dxhat = gy * scale[None, :, None, None]
    xmu = x - mean
    dvar = np.sum(dxhat * xmu, axis=(0, 2, 3), keepdims=True) * (-0.5) * ivar ** 3
    dmean = (np.sum(-dxhat * ivar, axis=(0, 2, 3), keepdims=True)
             + dvar * np.sum(-2.0 * xmu, axis=(0, 2, 3), keepdims=True) / m)
    gx = dxhat * ivar + dvar * 2.0 * xmu / m + dmean / m
    gscale = np.sum(gy * xhat, axis=(0, 2, 3))
    gshift = gy.sum(axis=(0, 2, 3))
    return gx, gscale, gshift


def batchnorm_eval(x: np.ndarray, scale: np.ndarray, shift: np.ndarray,
                   running_mean: np.ndarray, running_var: np.ndarray,
                   eps: float) -> np.ndarray:
    ivar = 1.0 / np.sqrt(running_var + eps)
    xhat = (x - running_mean[None, :, None, None]) * ivar[None, :, None, None]
    return scale[None, :, None, None] * xhat + shift[None, :, None, None]


def _pool_extent(extent: int, kernel: int, stride: int, ceil_mode: bool) -> int:
    num = extent - kernel
    out = -(-num // stride) + 1 if ceil_mode else num // stride + 1
    if out < 1:
        raise ValueError("pool window does not fit extent %d" % extent)
    return out


def maxpool(x: np.ndarray, kernel: int, stride: int,
            ceil_mode: bool) -> tuple[np.ndarray, np.ndarray]:
    """Returns (pooled, winner) where winner holds the flat in-window index
    of each maximum; ties resolve to the first window cell. Ceil mode
    clips trailing windows at the border instead of dropping them."""
    n, c, h, w = x.shape
    oh = _pool_extent(h, kernel, stride, ceil_mode)
    ow = _pool_extent(w, kernel, stride, ceil_mode)
    stack = np.full((kernel * kernel, n, c, oh, ow), -np.inf, dtype=x.dtype)
    for i in range(kernel):
        hv = min(oh, max(0, -(-(h - i) // stride)))
        if hv == 0:
            continue
        for j in range(kernel):
            wv = min(ow, max(0, -(-(w - j) // stride)))
            if wv == 0:
                continue
            stack[i * kernel + j, :, :, :hv, :wv] = \
                x[:, :, i:i + stride * hv:stride, j:j + stride * wv:stride]
    winner = np.argmax(stack, axis=0)
    pooled = np.max(stack, axis=0)
    return pooled, winner


def maxpool_grad(gy: np.ndarray, winner: np.ndarray, x_shape: tuple,
                 kernel: int, stride: int) -> np.ndarray:
    n, c, h, w = x_shape
    oh, ow = gy.shape[-2:]
    gx = np.zeros(x_shape, dtype=gy.dtype)
    ni, ci, hi, wi = np.indices((n, c, oh, ow), sparse=False)
    hpos = hi * stride + winner // kernel
    wpos = wi * stride + winner % kernel
    np.add.at(gx, (ni, ci, hpos, wpos), gy)
    return gx


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    return x.mean(axis=(2, 3), keepdims=True)


def global_avg_pool_grad(gy: np.ndarray, x_shape: tuple) -> np.ndarray:
    _, _, h, w = x_shape
    return np.broadcast_to(gy / (h * w), x_shape).copy()


def linear_apply(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    n = x.shape[0]
    y = x.reshape(n, -1) @ w.T
    if bias is not None:
        y = y + bias[None, :]
    return y.reshape(n, -1, 1, 1)


def linear_grads(gy: np.ndarray, x: np.ndarray, w: np.ndarray,
                 with_bias: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    n = x.shape[0]
    g2 = gy.reshape(n, -1)
    x2 = x.reshape(n, -1)
    gx = (g2 @ w).reshape(x.shape)
    gw = g2.T @ x2
    gb = g2.sum(axis=0) if with_bias else None
    return gx, gw, gb


def softmax_channels(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_channels_grad(gy: np.ndarray, p: np.ndarray) -> np.ndarray:
    return p * (gy - np.sum(gy * p, axis=1, keepdims=True))


def bilinear_kernel_1d(factor: int) -> np.ndarray:
    """Weights of the length-2f interpolation kernel; for factor 2 this is
    [1, 3, 3, 1] / 4."""
    size = 2 * factor
    center = (size - 1) / 2.0
    i = np.arange(size, dtype=np.float64)
    return 1.0 - np.abs(i - center) / factor


def bilinear_upsample_weight(channels: int, factor: int) -> np.ndarray:
    """Per-channel transposed-conv weight (C, 1, 2f, 2f) whose application
    with stride f and padding f/2 is bilinear interpolation."""
    line = bilinear_kernel_1d(factor)
    plane = np.outer(line, line)
    w = np.zeros((channels, 1, 2 * factor, 2 * factor), dtype=np.float64)
    w[:, 0] = plane
    return w
