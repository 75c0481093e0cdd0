"""Dense float64 kernels for the reference executor.

Convolution is realized through im2col plus batched matmul; the transposed
convolution is the exact adjoint of the forward map (transposed matmul, then
col2im into the unpadded result), so <Ax, y> == <x, At y> holds to rounding
error. im2col only copies, so its bits are the input's and the padding's
+0.0 whichever copy it makes: at stride 1 and kernel 2p+1 on maps wider
than one cell, one run of whole rows per tap, with the columns that wrap
into a neighbouring row set to +0.0. col2im is a gather: each result cell
pulls in the columns of the taps that reach it, in ascending tap order,
from an index built once per geometry, and one reduction adds each cell's
list in order from +0.0. Lists shorter than the longest are padded with a
+0.0 that closes each sample's columns; a partial sum that starts at +0.0
is never -0.0, so adding +0.0 to it changes no bit, and each cell gets the
adds it would get tap by tap on a zeroed padded grid; only a NaN's sign
can differ from those, where a cell sums NaNs of both signs. A sample
slice's columns and their gathered copy together fit _COL_BLOCK_BYTES.
The adjoint of an unpadded 1x1 kernel is its product, added to zero in
place. The upsampling has its own kernel with the adjoint's bits at its
geometry for real operands, which needs no column tensor; on a 1x1 input
it is one product per cell plus an in-place ``+= 0.0``. All reductions
have a fixed order, which keeps runs bit-identical.
"""

from __future__ import annotations

import functools

import numpy as np

from ..ir import window_out_hw


def _im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """(N, C, H, W) -> (N, C, k, k, OH, OW) patch tensor."""
    n, c, h, w = x.shape
    if stride == 1 and kernel == 2 * padding + 1 and padding and w > 1:
        # Each channel's rows laid end to end between p zero rows plus p
        # zero cells at either end: tap (i, j)'s columns are then the run of
        # H*W cells from cell i*W + j, one strided copy for all taps. A run's
        # cells whose column falls off its row read the next or previous row
        # instead; those, at most p columns per tap, get the padding's +0.0.
        # (On 1-wide maps the runs are no longer than the rows, and the
        # strided copy below is faster; without padding it copies one run.)
        p = padding
        flat = np.zeros((n, c, (h + 2 * p) * w + 2 * p), dtype=x.dtype)
        flat[:, :, p * (w + 1):p * (w + 1) + h * w] = x.reshape(n, c, h * w)
        sn, sc, s = flat.strides
        cols = np.ndarray((n, c, kernel, kernel, h * w), flat.dtype, flat, 0,
                          (sn, sc, w * s, s, s)).copy().reshape(n, c, kernel, kernel, h, w)
        for j in range(p):  # the taps p - j columns left and right of the centre
            cols[:, :, :, j, :, :p - j] = 0.0
            cols[:, :, :, kernel - 1 - j, :, max(0, w - p + j):] = 0.0
        return cols
    oh, ow = window_out_hw(h, w, kernel, stride, padding)
    if padding:
        # Zeros plus one slice assignment: the same bits as np.pad, at a
        # fraction of its per-call overhead.
        xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = x
    else:
        xp = np.ascontiguousarray(x)
    # Strided views are built on xp's buffer, which numpy bounds-checks, at a
    # fraction of as_strided's per-call cost.
    sn, sc, sh, sw = xp.strides
    return np.ndarray((n, c, kernel, kernel, oh, ow), xp.dtype, xp, 0,
                      (sn, sc, sh, sw, stride * sh, stride * sw)).copy()


def _col2im(cols: np.ndarray, index: np.ndarray, x: np.ndarray) -> None:
    """Adjoint of _im2col, written into the unpadded (N, C, H, W) result
    ``x``. ``cols`` holds one row per sample: its (C, k, k, OH, OW) columns
    and then one +0.0. One take gathers, for every cell, the column entries
    that _gather_index lists for it, and one reduction adds each cell's list
    in order from +0.0, as adding each tap over a zeroed padded grid
    would."""
    if index.shape[1] == 1:
        # One cell per sample: its list would be the reduction's inner loop,
        # which numpy adds pairwise from eight entries up, so add it here.
        cells = x.reshape(-1)
        cells[...] = 0.0
        for entry in np.take(cols, index[:, 0], axis=1, mode="clip").T:
            cells += entry
        return
    # (N, T, C*H*W): the reduced axis is not the innermost, so numpy adds
    # each cell's list one entry at a time rather than pairwise. The index
    # is in range by construction; "clip" skips take's per-entry check.
    np.add.reduce(np.take(cols, index, axis=1, mode="clip"), axis=1, initial=0.0,
                  out=x.reshape(len(x), -1))


@functools.lru_cache(maxsize=32)
def _gather_index(channels: int, kernel: int, stride: int, padding: int,
                  out_hw: tuple[int, int], hw: tuple[int, int]) -> np.ndarray:
    """(T, C*H*W) positions, in one sample's row of _col2im's ``cols``, of
    the entries each result cell sums: the columns of the taps that reach
    it, in ascending tap order, then the row's closing +0.0 up to T, the
    most taps any cell takes. Built once per geometry; an entry holds
    T*C*H*W indices (1.2 MB for a 3x3 kernel at stride 1 over 16 channels
    of 32x32), and the cache keeps at most 32."""
    (oh, ow), (h, w) = out_hw, hw
    # every tap and window in ascending tap order: flat positions in a channel's columns
    i, j, oy, ox = np.indices((kernel, kernel, oh, ow)).reshape(4, -1)
    y, x = oy * stride + i - padding, ox * stride + j - padding
    inside = (y >= 0) & (y < h) & (x >= 0) & (x < w)
    cell = (y * w + x)[inside]
    order = np.argsort(cell, kind="stable")  # by cell, each cell's taps still ascending
    pos, cell = np.flatnonzero(inside)[order], cell[order]
    counts = np.bincount(cell, minlength=h * w)
    slot = np.arange(len(cell)) - np.repeat(np.cumsum(counts) - counts, counts)
    per_channel = kernel * kernel * oh * ow
    index = np.full((counts.max(initial=0), channels, h * w), channels * per_channel)
    index[slot, :, cell] = pos[:, None] + per_channel * np.arange(channels)
    return index.reshape(len(index), channels * h * w)


# Bytes of one column block that a convolution builds: a batch whose
# columns outgrow it runs a slice of samples at a time. On a host with
# 2 MiB of L2 per core, training steps ran faster at 1 MiB than at 2 MiB,
# and 512 or 256 KiB were no faster than 1 MiB.
_COL_BLOCK_BYTES = 1 << 20


def _sample_blocks(n: int, per_sample: int) -> list[slice]:
    """Consecutive slices of a batch of ``n`` whose columns, ``per_sample``
    bytes per sample, fit _COL_BLOCK_BYTES; one slice if the batch fits, and
    at least one sample per slice."""
    step = max(1, _COL_BLOCK_BYTES // per_sample)
    if step >= n:  # the common case, at a fraction of the comprehension's cost
        return [slice(None)]
    return [slice(start, start + step) for start in range(0, n, step)]


def conv_apply(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None,
               stride: int, padding: int, groups: int) -> np.ndarray:
    """y = conv(x; w) with w shaped (out_c, in_c / groups, k, k). Each slice
    of samples fills its slice of y; every sample is its own product."""
    n, c, h, wd = x.shape
    oc, icg, kernel, _ = w.shape
    oh, ow = window_out_hw(h, wd, kernel, stride, padding)
    wg = w.reshape(groups, oc // groups, icg * kernel * kernel)[None]
    y = np.empty((n, groups, oc // groups, oh * ow), dtype=np.result_type(x, w))
    for s in _sample_blocks(n, x.itemsize * c * kernel * kernel * oh * ow):
        cols = _im2col(x[s], kernel, stride, padding)
        np.matmul(wg, cols.reshape(-1, groups, icg * kernel * kernel, oh * ow), out=y[s])
        del cols  # before the next slice's block is built
    y = y.reshape(n, oc, oh, ow)
    if bias is not None:
        y += bias[None, :, None, None]
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
    oh, ow = window_out_hw(h, wd, kernel, stride, padding)
    if (z.shape[2], z.shape[3]) != (oh, ow):
        raise ValueError("adjoint operand is %dx%d, conv output side is %dx%d"
                         % (z.shape[2], z.shape[3], oh, ow))
    c = groups * icg
    zg = z.reshape(n, groups, oc // groups, oh * ow)
    wt = w.reshape(groups, oc // groups, icg * kernel * kernel).transpose(0, 2, 1)[None]
    x = np.empty((n, c, h, wd), dtype=np.result_type(z, w))
    if kernel == 1 and stride == 1 and not padding:
        # the columns are the result, each cell's one tap added to zero in place
        np.matmul(wt, zg, out=x.reshape(n, groups, icg, h * wd))
        x += 0.0
        return x
    size = c * kernel * kernel * oh * ow  # one sample's columns
    index = _gather_index(c, kernel, stride, padding, (oh, ow), (h, wd))
    # a block's columns and their gathered copy together fit the budget
    for s in _sample_blocks(n, x.itemsize * (size + 1 + index.size)):
        block = zg[s]
        cols = np.empty((len(block), size + 1), dtype=x.dtype)
        cols[:, size] = 0.0
        np.matmul(wt, block, out=cols[:, :size].reshape(
            len(block), groups, icg * kernel * kernel, oh * ow))
        _col2im(cols, index, x[s])
        del cols  # before the next slice's block is built
    return x


def upsample_apply(x: np.ndarray, w: np.ndarray, factor: int) -> np.ndarray:
    """The x``factor`` upsampling: conv_apply_adjoint with kernel 2f, stride
    f, padding f/2 and one channel per group, to the same bits for real
    operands (and for finite ones with only one complex; with both complex
    the adjoint's matmul forms the products otherwise, and the last bits can
    differ). Each result cell takes at most one tap from each half of the
    kernel along each axis, so the result is four rectangles of products,
    added into zeros in ascending tap order: a nearest repeat of ``x`` times
    one f x f block of ``w`` tiled over the result. On a 1x1 input the
    rectangles do not overlap, and the result is the central f x f block of
    ``w`` times ``x``, added to zero."""
    n, c, h, wd = x.shape
    f, p = factor, factor // 2
    if h == wd == 1:
        # Cell (r, s) takes the one tap (p + r, p + s): one product each,
        # added to zero in place for the zeroed result's -0.0 -> +0.0.
        y = np.multiply(w[None, :, 0, p:p + f, p:p + f], x, order="C")
        y += 0.0
        return y
    oh, ow = f * h, f * wd
    xr = x.repeat(f, axis=2).repeat(f, axis=3)
    y = np.zeros((n, c, oh, ow), dtype=np.result_type(x, w))
    # per kernel half: (cells of xr and of the tiled block read, cells of y written)
    halves_r = ((slice(p, oh), slice(0, oh - p)), (slice(0, oh - p), slice(p, oh)))
    halves_c = ((slice(p, ow), slice(0, ow - p)), (slice(0, ow - p), slice(p, ow)))
    for a, (src_r, dst_r) in enumerate(halves_r):
        for b, (src_c, dst_c) in enumerate(halves_c):
            block = np.tile(w[:, 0, a * f:(a + 1) * f, b * f:(b + 1) * f], (h, wd))
            y[:, :, dst_r, dst_c] += block[:, src_r, src_c] * xr[:, :, src_r, src_c]
    return y


def conv_weight_grad(z: np.ndarray, x: np.ndarray, kernel: int, stride: int,
                     padding: int, groups: int) -> np.ndarray:
    """d<z, conv(x; w)>/dw, shaped like the weight. The per-sample products
    are added in sample order from sample 0, whatever the slices."""
    n, oc, oh, ow = z.shape
    icg = x.shape[1] // groups
    zg = z.reshape(n, groups, oc // groups, oh * ow)
    gw = None
    for s in _sample_blocks(n, x.itemsize * x.shape[1] * kernel * kernel * oh * ow):
        cols = _im2col(x[s], kernel, stride, padding)
        cols = cols.reshape(-1, groups, icg * kernel * kernel, oh * ow)
        prods = np.matmul(zg[s], cols.transpose(0, 1, 3, 2))
        del cols  # before the next slice's block is built
        if gw is None:  # a sum over the outer axis adds sample by sample
            gw = prods.sum(axis=0)
        else:
            for prod in prods:
                gw += prod
    return gw.reshape(oc, icg, kernel, kernel)


def batchnorm_train(x: np.ndarray, scale: np.ndarray, shift: np.ndarray,
                    eps: float, lanes: int = 1) -> tuple[np.ndarray, tuple]:
    """Normalize with biased batch statistics over (N, H, W) per channel;
    returns y and (ivar, mean, var). The batch axis holds ``lanes`` equal
    batches side by side, each with its own statistics, shaped
    (lanes, C, 1, 1)."""
    # the reductions and divisions of x.mean and x.var, with the mean and
    # x - mean formed once; xhat is x - mean until it is scaled in place
    n, c, h, w = x.shape
    xl = x.reshape(lanes, n // lanes, c, h, w)
    m = xl.shape[1] * h * w
    mean = np.add.reduce(xl, (1, 3, 4), keepdims=True) / m
    xhat = xl - mean
    var = np.add.reduce(np.square(xhat), (1, 3, 4), keepdims=True) / m
    ivar = 1.0 / np.sqrt(var + eps)
    xhat *= ivar
    y = scale[None, :, None, None] * xhat.reshape(x.shape)
    y += shift[None, :, None, None]  # in place: one full-size temporary fewer
    per_lane = (lanes, c, 1, 1)
    return y, (ivar.reshape(per_lane), mean.reshape(per_lane), var.reshape(per_lane))


def batchnorm_train_grads(gy: np.ndarray, xmu: np.ndarray, ivar: np.ndarray,
                          scale: np.ndarray) -> np.ndarray:
    """Gradient of the input of one lane, from x - mean and the inverse
    deviation, formed in one buffer; scale and shift take plain sums. Sums
    call ``np.add.reduce``, the reduction ``np.sum`` makes, directly."""
    m = xmu.shape[0] * xmu.shape[2] * xmu.shape[3]
    dxhat = gy * scale[None, :, None, None]
    dvar = np.add.reduce(dxhat * xmu, (0, 2, 3), keepdims=True) * (-0.5) * ivar ** 3
    dxhat *= ivar  # dxhat * ivar, formed once for the sum and for the result
    dmean = (-np.add.reduce(dxhat, (0, 2, 3), keepdims=True)
             + dvar * (-2.0 * np.add.reduce(xmu, (0, 2, 3), keepdims=True)) / m)
    # dxhat + dvar * 2.0 * xmu / m + dmean / m, term by term in place
    out = np.multiply(dvar * 2.0, xmu)
    out /= m
    out += dxhat
    out += dmean / m
    return out


def batchnorm_eval(x: np.ndarray, scale: np.ndarray, shift: np.ndarray,
                   running_mean: np.ndarray, running_var: np.ndarray,
                   eps: float) -> np.ndarray:
    ivar = 1.0 / np.sqrt(running_var + eps)
    xhat = (x - running_mean[None, :, None, None]) * ivar[None, :, None, None]
    return scale[None, :, None, None] * xhat + shift[None, :, None, None]


def maxpool(x: np.ndarray, kernel: int, stride: int,
            ceil_mode: bool) -> tuple[np.ndarray, np.ndarray]:
    """Returns (pooled, winner) where winner holds the flat in-window index
    of each maximum; ties resolve to the first window cell. Ceil mode
    clips trailing windows at the border instead of dropping them, and
    ``window_out_hw`` drops a window that would start past the input."""
    n, c, h, w = x.shape
    oh, ow = window_out_hw(h, w, kernel, stride, 0, ceil_mode)
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


def linear_apply(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None,
                 lanes: int = 1) -> np.ndarray:
    """One (N, K) @ W.T product per lane of the batch axis: a single
    product over all lanes' rows can round differently per row."""
    n = x.shape[0]
    y = x.reshape(lanes, n // lanes, -1) @ w.T
    if bias is not None:
        y = y + bias
    return y.reshape(n, -1, 1, 1)


def linear_grads(gy: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient of the input; weight and bias take a plain product and sum."""
    return (gy.reshape(x.shape[0], -1) @ w).reshape(x.shape)


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
