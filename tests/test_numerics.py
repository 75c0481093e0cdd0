import gc
import math
import random
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from conftest import (RANDOM_GRAPH_SEEDS, kept_bits, naive_conv2d, random_graph,
                      reference_forward)

from dlagraph import graphdoc, ir
from dlagraph.aggregation import AggNodeSpec, build_aggregation_node
from dlagraph.analysis import cost_report, count_params, infer_shapes
from dlagraph.architectures import (build_toy_classifier, build_toy_dense_decoder,
                                    catalog_names)
from dlagraph.ir import GraphBuilder, OpKind, TensorShape, UpsampleMode
from dlagraph.numerics import (Mode, ParamStore, ShapeMismatch, StaleTape, backward,
                               cross_entropy, forward, grad_check, init_params,
                               sgd_step)
from dlagraph.numerics import executor, ops


def simple_net(channels=4, hw=8, classes=3):
    b = GraphBuilder()
    x = b.add_input(TensorShape(channels, hw, hw))
    y = b.add(ir.conv(3, 1, 1, channels, channels), [x])
    y = b.add(ir.batch_norm(channels), [y])
    y = b.add(ir.relu(), [y])
    y = b.add(ir.global_avg_pool(), [y])
    y = b.add(ir.linear(channels, classes), [y])
    y = b.add(ir.softmax(), [y])
    b.mark_output(y)
    return b.build()


def test_conv_apply_matches_direct_loop_oracle():
    rng = np.random.default_rng(0)
    for stride, padding, groups, k in ((1, 1, 1, 3), (2, 1, 1, 3), (1, 0, 2, 1),
                                       (2, 3, 1, 7), (1, 1, 4, 3)):
        cin, cout = 4, 8
        x = rng.standard_normal((2, cin, 9, 9))
        w = rng.standard_normal((cout, cin // groups, k, k))
        bias = rng.standard_normal(cout)
        got = ops.conv_apply(x, w, bias, stride, padding, groups)
        want = naive_conv2d(x, w, bias, stride, padding, groups)
        np.testing.assert_allclose(got, want, atol=1e-12)


# (kernel, stride, padding): kernels 1-5 and 7 at strides 1-3 and paddings
# 0-3, plus the bilinear upsampling geometry k = 2f, s = f, p = f/2.
KERNEL_GRID = list(dict.fromkeys(
    [(k, s, p) for k in (1, 2, 3, 4, 5, 7) for s in (1, 2, 3) for p in range(4)]
    + [(2 * f, f, f // 2) for f in (2, 4, 8, 16)]))
# ids read padding-stride, with the kernel appended when it is not 3
KERNEL_GRID_IDS = ["%d-%d" % (p, s) + ("" if k == 3 else "-k%d" % k)
                   for k, s, p in KERNEL_GRID]


def _grid_extent(kernel, stride, padding):
    # two output rows and columns plus a trailing remainder the windows skip
    return max(1, kernel + stride + stride // 2 - 2 * padding)


# Every stride-1 kernel 2p+1 of the grid at widths 1 and 2 and wider than
# the kernel: the plane copy serves widths above 1, the strided one width 1.
PLANE_GRID = list(dict.fromkeys((k, 1, p, h, w) for k, s, p in KERNEL_GRID
                                if s == 1 and k == 2 * p + 1
                                for h, w in ((3, 1), (3, 2), (1, k + 1), (k, k + 2))))
IM2COL_GRID = ([(k, s, p, _grid_extent(k, s, p), _grid_extent(k, s, p) + 1)
                for k, s, p in KERNEL_GRID] + PLANE_GRID)
IM2COL_IDS = KERNEL_GRID_IDS + ["%d-%d-k%d-%dx%d" % (p, s, k, h, w)
                                 for k, s, p, h, w in PLANE_GRID]


@pytest.mark.parametrize("kernel,stride,padding,h,w", IM2COL_GRID, ids=IM2COL_IDS)
def test_im2col_matches_np_pad_construction_bit_for_bit(kernel, stride, padding, h, w):
    # a quarter of the entries are +/-0.0, +/-inf or NaN, so a column that
    # reads a neighbouring row where the padding's +0.0 belongs shows
    rng = np.random.default_rng(4)
    for x in (_operand(rng, (2, 3, h, w), False, True), _operand(rng, (2, 3, h, w), True, True)):
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        oh, ow = ir.window_out_hw(h, w, kernel, stride, padding)
        want = np.empty((2, 3, kernel, kernel, oh, ow), dtype=x.dtype)
        for i in range(kernel):
            for j in range(kernel):
                want[:, :, i, j] = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
        got = ops._im2col(x, kernel, stride, padding)
        assert got.flags.c_contiguous
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def _per_tap_col2im(cols, stride, padding, hw):
    """col2im as one add per tap onto a zeroed padded grid, cropped: the
    reference for ops._col2im, which adds inside the result."""
    n, c, kernel, _, oh, ow = cols.shape
    h, w = hw
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kernel):
        for j in range(kernel):
            xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += cols[:, :, i, j]
    return xp[:, :, padding:padding + h, padding:padding + w]


def _gathered_col2im(cols, stride, padding, hw):
    """ops._col2im on (N, C, k, k, OH, OW) columns: each sample's columns
    laid out in one row closed by +0.0, gathered into a result that starts
    as NaN, so a cell the gather leaves out shows."""
    n, c, kernel, _, oh, ow = cols.shape
    rows = np.zeros((n, cols[0].size + 1), dtype=cols.dtype)
    rows[:, :-1] = cols.reshape(n, -1)
    x = np.full((n, c) + hw, np.nan, dtype=cols.dtype)
    ops._col2im(rows, ops._gather_index(c, kernel, stride, padding, (oh, ow), hw), x)
    return x


def _adjoint_bytes_per_sample(z, channels, kernel, stride, padding, hw):
    """What conv_apply_adjoint counts against the block budget per sample:
    its columns, their closing +0.0 and their gathered copy."""
    oh, ow = z.shape[2:]
    index = ops._gather_index(channels, kernel, stride, padding, (oh, ow), hw)
    return z.itemsize * (channels * kernel * kernel * oh * ow + 1 + index.size)


@pytest.mark.parametrize("kernel,stride,padding", KERNEL_GRID, ids=KERNEL_GRID_IDS)
def test_col2im_matches_per_tap_loop_bit_for_bit(kernel, stride, padding):
    h = _grid_extent(kernel, stride, padding)
    w = h + 1
    oh, ow = ir.window_out_hw(h, w, kernel, stride, padding)
    cols = np.random.default_rng(5).standard_normal((2, 3, kernel, kernel, oh, ow))
    got = _gathered_col2im(cols, stride, padding, (h, w))
    assert got.tobytes() == _per_tap_col2im(cols, stride, padding, (h, w)).tobytes()


@pytest.mark.parametrize("kernel,stride,padding", KERNEL_GRID, ids=KERNEL_GRID_IDS)
def test_backward_column_slices_match_one_block_bit_for_bit(monkeypatch, kernel, stride,
                                                            padding):
    h = _grid_extent(kernel, stride, padding)
    w = h + 1
    oh, ow = ir.window_out_hw(h, w, kernel, stride, padding)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((5, 3, h, w))
    z = rng.standard_normal((5, 6, oh, ow))
    per_sample = x.itemsize * 3 * kernel * kernel * oh * ow  # column bytes of one sample

    def both(weight, groups):
        return (ops.conv_apply_adjoint(z, weight, stride, padding, groups, (h, w)),
                ops.conv_weight_grad(z, x, kernel, stride, padding, groups))

    for groups in (1, 3):
        weight = rng.standard_normal((6, 3 // groups, kernel, kernel))
        assert len(ops._sample_blocks(5, per_sample)) == 1
        want = both(weight, groups)
        # every sample alone; then pairs and a remainder
        for samples, blocks in ((1, 5), (2, 3)):
            monkeypatch.setattr(ops, "_COL_BLOCK_BYTES", samples * per_sample)
            assert len(ops._sample_blocks(5, per_sample)) == blocks
            for got, ref in zip(both(weight, groups), want, strict=True):
                assert (got.shape, got.strides) == (ref.shape, ref.strides)
                assert got.tobytes() == ref.tobytes(), (groups, samples)
        monkeypatch.undo()


def _one_block_conv(x, w, bias, stride, padding, groups):
    """conv_apply as one im2col block over the whole batch, kept as the
    reference for its slices."""
    n = x.shape[0]
    oc, icg, kernel, _ = w.shape
    cols = ops._im2col(x, kernel, stride, padding)
    oh, ow = cols.shape[-2:]
    cols = cols.reshape(n, groups, icg * kernel * kernel, oh * ow)
    y = np.matmul(w.reshape(groups, oc // groups, -1)[None], cols).reshape(n, oc, oh, ow)
    return y if bias is None else y + bias[None, :, None, None]


def _one_grid_adjoint(z, w, stride, padding, groups, in_hw):
    """conv_apply_adjoint with padding as one padded grid over the whole
    batch, cropped, kept as the reference for its sample slices."""
    n, _, oh, ow = z.shape
    oc, icg, kernel, _ = w.shape
    wt = w.reshape(groups, oc // groups, -1).transpose(0, 2, 1)[None]
    cols = np.matmul(wt, z.reshape(n, groups, oc // groups, oh * ow))
    return _per_tap_col2im(cols.reshape(n, groups * icg, kernel, kernel, oh, ow), stride,
                           padding, in_hw)


@pytest.mark.parametrize("kernel,stride,padding", [(3, 1, 1), (3, 2, 1), (5, 1, 2),
                                                   (4, 2, 1), (8, 4, 2)],
                         ids=["1-1", "1-2", "2-1-k5", "2-2-k4", "2-4-k8"])
def test_padded_adjoint_slices_match_one_grid_bit_for_bit(monkeypatch, kernel, stride,
                                                          padding):
    h = _grid_extent(kernel, stride, padding)
    w = h + 1
    oh, ow = ir.window_out_hw(h, w, kernel, stride, padding)
    rng = np.random.default_rng(12)
    z = rng.standard_normal((5, 6, oh, ow))
    per_sample = _adjoint_bytes_per_sample(z, 3, kernel, stride, padding, (h, w))
    for groups in (1, 3):
        weight = rng.standard_normal((6, 3 // groups, kernel, kernel))
        want = _one_grid_adjoint(z, weight, stride, padding, groups, (h, w))
        for samples, blocks in ((1, 5), (2, 3), (5, 1)):
            monkeypatch.setattr(ops, "_COL_BLOCK_BYTES", samples * per_sample)
            assert len(ops._sample_blocks(5, per_sample)) == blocks
            got = ops.conv_apply_adjoint(z, weight, stride, padding, groups, (h, w))
            assert got.flags.c_contiguous
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), \
                (groups, samples)
        monkeypatch.undo()


# (kernel, stride, padding, extent): DLA's deepest stages are 1x1 and 2x2 at
# toy scale, where most taps of a padded kernel fall on the padding; at
# 7-1-3 whole rows and columns of taps do up to a 3x3 extent.
DEEP_GEOMETRIES = ([(k, s, p, hw) for k, s, p in ((3, 1, 1), (3, 2, 1), (1, 1, 0))
                    for hw in (1, 2)] + [(7, 1, 3, hw) for hw in (1, 2, 3)])
DEEP_IDS = ["%d-%d-k%d-%dx%d" % (p, s, k, hw, hw) for k, s, p, hw in DEEP_GEOMETRIES]


def _with_specials(rng, a):
    """``a`` with about a quarter of its entries set to +/-0.0, +/-inf or NaN."""
    picked = rng.random(a.shape) < 0.25
    a[picked] = rng.choice(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]), int(picked.sum()))
    return a


def _operand(rng, shape, is_complex, special):
    """Standard normals, complex with parts drawn apart if ``is_complex``,
    each part passed through _with_specials if ``special``."""
    parts = [rng.standard_normal(shape) for _ in range(1 + is_complex)]
    if special:
        parts = [_with_specials(rng, part) for part in parts]
    if not is_complex:
        return parts[0]
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = parts
    return z


def _nan_signless(a):
    """The bits of ``a`` with every NaN's sign bit cleared: numpy's in-place
    add gives the first or the second operand's NaN by the length of its
    inner loop, so a cell that sums NaNs of both signs on a padded grid may
    differ from the same sum inside the result in that bit alone."""
    a = np.ascontiguousarray(a)
    if np.iscomplexobj(a):
        a = a.view(np.float64)  # the real and imaginary parts side by side
    bits = a.view(np.uint64).copy()
    bits[np.isnan(a)] &= np.uint64(2**63 - 1)
    return bits.tobytes()


# (kernel, stride, padding, height, width) past the grids above: stride 3,
# even kernels, 1xn and nx1 maps, and kernel 1 at strides 2 and 3.
ODD_GEOMETRIES = [(3, 3, 1, 7, 8), (3, 3, 0, 5, 5), (5, 3, 2, 6, 4), (2, 1, 0, 3, 4),
                  (2, 2, 1, 4, 5), (4, 2, 1, 5, 6), (6, 3, 1, 4, 4), (3, 1, 1, 1, 6),
                  (3, 1, 1, 6, 1), (3, 2, 1, 1, 5), (5, 1, 2, 7, 1), (4, 2, 1, 1, 3),
                  (1, 2, 0, 5, 4), (1, 2, 0, 1, 1), (1, 2, 1, 3, 3), (1, 3, 0, 4, 7)]
ODD_IDS = ["%d-%d-k%d-%dx%d" % (p, s, k, h, w) for k, s, p, h, w in ODD_GEOMETRIES]


def _check_gather_bits(monkeypatch, kernel, stride, padding, h, w, seed):
    """The gather against one add per tap onto a zeroed padded grid, every
    bit on finite data and NaN signs aside with a quarter of the entries
    +/-0.0, +/-inf or NaN (so some cells add inf - inf or NaNs of both
    signs), real and complex: _col2im on columns, and conv_apply_adjoint at
    groups 1 and 3 over five samples in one slice, in pairs and one at a
    time. Every slice is handed the one index built for the geometry; an
    unpadded 1x1 kernel's adjoint is its product and gathers nothing."""
    oh, ow = ir.window_out_hw(h, w, kernel, stride, padding)
    rng = np.random.default_rng(seed)
    product = kernel == 1 and stride == 1 and not padding
    col2im, indices = ops._col2im, []

    def recorded(cols, index, x):
        indices.append(index)
        col2im(cols, index, x)

    monkeypatch.setattr(ops, "_col2im", recorded)
    for special in (False, True):
        bits = _nan_signless if special else np.ndarray.tobytes
        for is_complex in (False, True):
            with np.errstate(invalid="ignore"):
                cols = _operand(rng, (5, 3, kernel, kernel, oh, ow), is_complex, special)
                assert bits(_gathered_col2im(cols, stride, padding, (h, w))) == \
                    bits(_per_tap_col2im(cols, stride, padding, (h, w)))
            z = _operand(rng, (5, 6, oh, ow), is_complex, special)
            per_sample = _adjoint_bytes_per_sample(z, 3, kernel, stride, padding, (h, w))
            for groups in (1, 3):
                weight = rng.standard_normal((6, 3 // groups, kernel, kernel))
                with np.errstate(invalid="ignore"):
                    want = _one_grid_adjoint(z, weight, stride, padding, groups, (h, w))
                for samples, blocks in ((1, 5), (2, 3), (5, 1)):
                    monkeypatch.setattr(ops, "_COL_BLOCK_BYTES", samples * per_sample)
                    ops._gather_index.cache_clear()
                    indices.clear()
                    with np.errstate(invalid="ignore"):
                        got = ops.conv_apply_adjoint(z, weight, stride, padding, groups, (h, w))
                    assert got.flags.c_contiguous
                    assert (got.dtype, got.shape) == (want.dtype, want.shape)
                    assert bits(got) == bits(want), (special, is_complex, groups, samples)
                    assert ops._gather_index.cache_info()[:2] == (0, 0 if product else 1)
                    assert len(indices) == (0 if product else blocks)
                    assert all(index is indices[0] for index in indices)


@pytest.mark.parametrize("kernel,stride,padding,hw", DEEP_GEOMETRIES, ids=DEEP_IDS)
def test_deep_stage_col2im_matches_per_tap_loop_bit_for_bit(monkeypatch, kernel, stride,
                                                            padding, hw):
    _check_gather_bits(monkeypatch, kernel, stride, padding, hw, hw, kernel * 10 + hw)


@pytest.mark.parametrize("kernel,stride,padding,h,w", ODD_GEOMETRIES, ids=ODD_IDS)
def test_odd_geometry_col2im_matches_per_tap_loop_bit_for_bit(monkeypatch, kernel, stride,
                                                              padding, h, w):
    _check_gather_bits(monkeypatch, kernel, stride, padding, h, w, 100 + kernel * 10 + h)


@pytest.mark.parametrize("kernel,padding", [(3, 1), (3, 2), (4, 3), (5, 4)])
def test_one_cell_col2im_adds_its_taps_in_order_bit_for_bit(kernel, padding):
    """One channel on a 1x1 map: each sample's one cell takes up to 25
    taps, which a single reduction would add pairwise from eight up. Spread
    magnitudes make any other order show; specials leave NaN signs aside."""
    oh = ir.window_out_hw(1, 1, kernel, 1, padding)[0]
    rng = np.random.default_rng(kernel + padding)
    for special in (False, True):
        bits = _nan_signless if special else np.ndarray.tobytes
        for n in (1, 4):
            scale = 10.0 ** rng.integers(-8, 9, (n, 1, kernel, kernel, oh, oh))
            cols = _operand(rng, scale.shape, False, special) * scale
            with np.errstate(invalid="ignore"):
                assert bits(_gathered_col2im(cols, 1, padding, (1, 1))) == \
                    bits(_per_tap_col2im(cols, 1, padding, (1, 1)))
                z = _operand(rng, (n, 2, oh, oh), False, special) * 10.0 ** rng.integers(
                    -8, 9, (n, 2, oh, oh))
                weight = rng.standard_normal((2, 1, kernel, kernel))
                assert bits(ops.conv_apply_adjoint(z, weight, 1, padding, 1, (1, 1))) == \
                    bits(_one_grid_adjoint(z, weight, 1, padding, 1, (1, 1)))


@pytest.mark.parametrize("kernel,stride,padding,h,w",
                         [(k, s, p, _grid_extent(k, s, p), _grid_extent(k, s, p) + 1)
                          for k, s, p in KERNEL_GRID]
                         + [(k, s, p, hw, hw) for k, s, p, hw in DEEP_GEOMETRIES]
                         + ODD_GEOMETRIES,
                         ids=KERNEL_GRID_IDS + DEEP_IDS + ODD_IDS)
def test_tap_table_lists_exactly_the_taps_that_reach_the_result(kernel, stride, padding, h, w):
    """The gather index, read per result cell over two channels: the
    columns of the taps that reach the cell, in ascending tap order, then
    the position of the sample's closing +0.0 up to the most taps any cell
    takes."""
    oh, ow = ir.window_out_hw(h, w, kernel, stride, padding)
    per_channel = kernel * kernel * oh * ow
    reached = {}  # cell -> its columns, one tap and window at a time
    for i in range(kernel):
        for j in range(kernel):
            for oy in range(oh):
                for ox in range(ow):
                    cell = (oy * stride + i - padding, ox * stride + j - padding)
                    reached.setdefault(cell, []).append((i * kernel + j) * oh * ow
                                                        + oy * ow + ox)
    want = [[ch * per_channel + col for col in reached.get((y, x), [])]
            for ch in range(2) for y in range(h) for x in range(w)]
    most = max(map(len, want))
    index = ops._gather_index(2, kernel, stride, padding, (oh, ow), (h, w))
    assert index.dtype == np.intp and index.flags.c_contiguous
    assert index.shape == (most, 2 * h * w)
    assert index.T.tolist() == [cell + [2 * per_channel] * (most - len(cell)) for cell in want]


def test_tap_table_of_a_padded_3x3_kernel_on_one_cell_is_its_centre():
    # tap (1, 1) of each channel's one window; channel 1's columns follow channel 0's nine
    assert ops._gather_index(2, 3, 1, 1, (1, 1), (1, 1)).tolist() == [[4, 13]]


@pytest.mark.parametrize("name,hw,seeds,adds,kernel_taps",
                         [("DLA-34", 16, (7, 3, 1), 144, 240),
                          ("DLA-X-102", 16, (1, 9, 1), 196, 340),
                          ("DLA-169", 16, (11, 42, 1), 275, 547),
                          ("decoder", 32, (8, 33, 5), 129, 161)])
def test_col2im_adds_only_the_taps_that_reach_its_result(monkeypatch, name, hw, seeds, adds,
                                                         kernel_taps):
    """One 6-sample grad_check at the benchmark's toy-gradcheck point: the
    taps its conv adjoints gather, read off their indices, are the taps
    that reach each result, ``adds`` in all, fewer than the kernels' taps.
    An unpadded 1x1 adjoint's one tap is its product. Both count once per
    adjoint: a col2im that added tap by tap and skipped the taps that reach
    nothing made as many adds, but once per sample slice, and the decoder's
    three 3x3 adjoints over 32 channels ran in two (156 and 188)."""
    adjoint, gathered, taps = ops.conv_apply_adjoint, [0], [0]

    def counted(z, w, stride, padding, groups, in_hw):
        channels, kernel, (oh, ow) = groups * w.shape[1], w.shape[2], z.shape[2:]
        taps[0] += kernel * kernel
        if kernel == 1 and stride == 1 and not padding:
            gathered[0] += 1
        else:
            index = ops._gather_index(channels, kernel, stride, padding, (oh, ow),
                                      tuple(in_hw))
            per_channel = kernel * kernel * oh * ow
            columns = index[index < channels * per_channel]
            gathered[0] += len(np.unique(columns % per_channel // (oh * ow)))
        return adjoint(z, w, stride, padding, groups, in_hw)

    monkeypatch.setattr(ops, "conv_apply_adjoint", counted)
    g = (build_toy_dense_decoder("DLA-34", 16, hw, num_classes=5) if name == "decoder"
         else build_toy_classifier(name, 16, hw, num_classes=10))
    init_seed, data_seed, check_seed = seeds
    x = np.random.default_rng(data_seed).standard_normal((2, 3, hw, hw))
    grad_check(g, init_params(g, init_seed), x, epsilon=1e-5, sample=6, seed=check_seed)
    assert (gathered[0], taps[0]) == (adds, kernel_taps)


@pytest.mark.parametrize("factor", [2, 4, 6, 8, 16])
def test_upsample_apply_matches_the_transposed_conv_bit_for_bit(factor):
    # Batches 1-3 and 24 (a probe pass's lanes); a quarter of the entries
    # are +/-0.0, +/-inf or NaN, so some cells also add inf - inf.
    rng = np.random.default_rng(factor)
    for h, w in ((1, 1), (3, 3), (2, 5), (4, 3)):
        for n in (1, 2, 3, 24):
            x = _with_specials(rng, rng.standard_normal((n, 3, h, w)))
            for weight in (ops.bilinear_upsample_weight(3, factor),
                           rng.standard_normal((3, 1, 2 * factor, 2 * factor))):
                with np.errstate(invalid="ignore"):
                    got = ops.upsample_apply(x, weight, factor)
                    want = ops.conv_apply_adjoint(x, weight, factor, factor // 2, 3,
                                                  (factor * h, factor * w))
                assert got.flags.c_contiguous
                assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), (h, w, n)


def _four_rectangle_upsample(x, w, factor):
    """upsample_apply's path for inputs larger than one cell: four
    rectangles of products added into zeros."""
    n, c, h, wd = x.shape
    f, p = factor, factor // 2
    oh, ow = f * h, f * wd
    xr = x.repeat(f, axis=2).repeat(f, axis=3)
    y = np.zeros((n, c, oh, ow), dtype=np.result_type(x, w))
    halves_r = ((slice(p, oh), slice(0, oh - p)), (slice(0, oh - p), slice(p, oh)))
    halves_c = ((slice(p, ow), slice(0, ow - p)), (slice(0, ow - p), slice(p, ow)))
    for a, (src_r, dst_r) in enumerate(halves_r):
        for b, (src_c, dst_c) in enumerate(halves_c):
            block = np.tile(w[:, 0, a * f:(a + 1) * f, b * f:(b + 1) * f], (h, wd))
            y[:, :, dst_r, dst_c] += block[:, src_r, src_c] * xr[:, :, src_r, src_c]
    return y


@pytest.mark.parametrize("factor", [2, 4, 8, 16])
def test_upsample_apply_of_complex_operands_keeps_the_general_paths_bits(factor):
    # complex inputs, complex weights or both, finite or with a quarter of
    # each part special; with one operand real and finite the transposed
    # conv gives the same bits too (with both complex its matmul rounds the
    # products otherwise, and with specials it can give a NaN the other sign)
    rng = np.random.default_rng(40 + factor)
    for h, w in ((1, 1), (2, 3)):
        for n in (1, 24):
            for special in (False, True):
                for cx, cw in ((True, False), (False, True), (True, True)):
                    x = _operand(rng, (n, 3, h, w), cx, special)
                    weight = _operand(rng, (3, 1, 2 * factor, 2 * factor), cw, special)
                    with np.errstate(invalid="ignore"):
                        got = ops.upsample_apply(x, weight, factor)
                        want = _four_rectangle_upsample(x, weight, factor)
                        adjoint = ops.conv_apply_adjoint(x, weight, factor, factor // 2, 3,
                                                         (factor * h, factor * w))
                    assert got.flags.c_contiguous
                    assert (got.dtype, got.shape, got.tobytes()) == \
                        (want.dtype, want.shape, want.tobytes()), (h, w, n, special)
                    if not (special or cx and cw):
                        assert got.tobytes() == adjoint.tobytes(), (h, w, n)


def _decoder_forward_at_batch_16():
    g = build_toy_dense_decoder("DLA-34", 16, 32, num_classes=5)
    x = np.random.default_rng(5).standard_normal((16, 3, 32, 32))
    forward(g, init_params(g, 1), [x], Mode.TRAIN, update_running=False)


def test_forward_conv_columns_fit_the_block_budget(monkeypatch):
    im2col, blocks = ops._im2col, []

    def recorded(x, *args):
        cols = im2col(x, *args)
        blocks.append((len(cols), cols.nbytes))
        return cols

    monkeypatch.setattr(ops, "_im2col", recorded)
    _decoder_forward_at_batch_16()
    assert any(samples < 16 for samples, _ in blocks)  # some convolution was sliced
    for samples, nbytes in blocks:  # one sample alone may exceed the budget
        assert samples == 1 or nbytes <= ops._COL_BLOCK_BYTES, (samples, nbytes)
    # Every column block comes from _im2col, which the benchmark's tracer
    # wraps: one call per sample slice of each of the 43 convolutions, and
    # 86.0 MiB in all. Columns built some other way would drop out of both.
    g, calls, nbytes = build_toy_dense_decoder("DLA-34", 16, 32, num_classes=5), 0, 0
    for node in g.nodes:
        if node.op.kind is OpKind.CONV:
            a, s = node.op.attrs, g.shapes[node.inputs[0]]
            oh, ow = ir.window_out_hw(s.height, s.width, a["kernel"], a["stride"], a["padding"])
            per_sample = 8 * s.channels * a["kernel"] ** 2 * oh * ow
            calls += len(ops._sample_blocks(16, per_sample))
            nbytes += 16 * per_sample
    assert (len(blocks), sum(n for _, n in blocks)) == (calls, nbytes) == (142, 90218496)


@pytest.mark.parametrize("kernel", ["conv_apply", "conv_weight_grad"])
def test_a_sliced_convolution_holds_one_column_block_at_a_time(kernel):
    """A batch-64 3x3 convolution over 16 channels at 16x16 builds its
    columns three samples at a time, and peaks below its result plus one
    column block plus 256 KiB for a slice's padded grid and the small
    temporaries: conv_apply at 2.97 MiB, conv_weight_grad at 1.04 MiB. A
    slice's block kept while the next is built peaks at 3.81 and 1.88 MiB."""
    rng = np.random.default_rng(12)
    x = rng.standard_normal((64, 16, 16, 16))
    w = rng.standard_normal((16, 16, 3, 3))
    z = rng.standard_normal((64, 16, 16, 16))
    assert len(ops._sample_blocks(64, x.itemsize * 16 * 9 * 16 * 16)) > 1
    run = {"conv_apply": lambda: ops.conv_apply(x, w, None, 1, 1, 1),
           "conv_weight_grad": lambda: ops.conv_weight_grad(z, x, 3, 1, 1, 1)}[kernel]
    tracemalloc.start()
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = result.nbytes + ops._COL_BLOCK_BYTES + 256 * 2**10
    assert peak < bound, "heap peak %.2f MiB" % (peak / 2**20)


def test_probe_pass_columns_fit_the_block_budget(monkeypatch):
    """grad_check on the toy decoder at its benchmark point: every column
    block it builds, im2col or col2im, fits the budget or holds one sample,
    and the call peaks at about 6.5 MiB of heap. The bound fails with a
    2 MiB budget (9.2 MiB) and with upsamplings that scatter their column
    blocks onto padded grids (7.75 MiB). Upsamplings that go through
    conv_apply_adjoint without a padded grid peak no higher, so a forward
    must also call col2im zero times: only backward's conv adjoints do."""
    im2col, col2im, blocks, scattered = ops._im2col, ops._col2im, [], []

    def recorded_im2col(x, *args):
        cols = im2col(x, *args)
        blocks.append((len(cols), cols.nbytes))
        return cols

    def recorded_col2im(cols, index, x):  # the block and its gathered copy
        scattered.append((len(cols), cols.nbytes + len(cols) * index.size * cols.itemsize))
        col2im(cols, index, x)

    monkeypatch.setattr(ops, "_im2col", recorded_im2col)
    monkeypatch.setattr(ops, "_col2im", recorded_col2im)
    g = build_toy_dense_decoder("DLA-34", 16, 32, num_classes=5)
    params = init_params(g, 8)
    x = np.random.default_rng(33).standard_normal((2, 3, 32, 32))
    tracemalloc.start()
    try:
        grad_check(g, params, x, sample=6, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert any(samples > 4 for samples, _ in blocks)  # more than one +/- lane pair
    assert scattered  # grad_check's backward
    for samples, nbytes in blocks + scattered:  # one sample alone may exceed the budget
        assert samples == 1 or nbytes <= ops._COL_BLOCK_BYTES, (samples, nbytes)
    assert peak < 7.25 * 2**20, "heap peak %.2f MiB" % (peak / 2**20)
    scattered.clear()
    forward(g, params, [x], Mode.TRAIN, update_running=False)
    assert scattered == []


@pytest.mark.parametrize("name, hw, point, sample, bound_mib", [
    ("DLA-34", 16, (7, 3, 1), 6, 1.77),  # 1.69 MiB (2.26 with two column blocks live)
    ("DLA-X-102", 16, (1, 9, 1), 6, 1.78),  # 1.70 (2.27)
    ("DLA-169", 16, (11, 42, 1), 6, 1.80),  # 1.71 (2.27)
    ("decoder", 32, (8, 33, 5), 6, 6.84),  # 6.51 (6.59)
    ("DLA-34", 16, (7, 3, 1), 200, 3.66),  # 3.49 (4.20)
], ids=["DLA-34", "DLA-X-102", "DLA-169", "decoder", "DLA-34-200"])
def test_grad_check_heap_peak_is_bounded(name, hw, point, sample, bound_mib):
    """The tracemalloc peak of one grad_check at the benchmark's
    toy-gradcheck points, and at 200 samples on toy DLA-34, stays within
    5% of its measured value (in the comments, with the peak when a
    convolution kept one slice's column block while it built the next).
    The plan is built by a one-sample check first, outside the trace."""
    g = (build_toy_dense_decoder("DLA-34", 16, hw, num_classes=5) if name == "decoder"
         else build_toy_classifier(name, 16, hw, num_classes=10))
    init_seed, data_seed, check_seed = point
    params = init_params(g, init_seed)
    x = np.random.default_rng(data_seed).standard_normal((2, 3, hw, hw))
    grad_check(g, params, x, sample=1, seed=check_seed)
    tracemalloc.start()
    try:
        grad_check(g, params, x, sample=sample, seed=check_seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20, "heap peak %.3f MiB" % (peak / 2**20)


def test_forward_conv_slices_match_one_block_bit_for_bit(monkeypatch):
    conv_apply, sliced = ops.conv_apply, []

    def checked(x, w, bias, stride, padding, groups):
        y = conv_apply(x, w, bias, stride, padding, groups)
        want = _one_block_conv(x, w, bias, stride, padding, groups)
        assert (y.shape, y.tobytes()) == (want.shape, want.tobytes())
        per_sample = x.itemsize * x.shape[1] * w.shape[2] ** 2 * y.shape[2] * y.shape[3]
        sliced.append(len(ops._sample_blocks(len(x), per_sample)) > 1)
        return y

    monkeypatch.setattr(ops, "conv_apply", checked)
    _decoder_forward_at_batch_16()
    assert any(sliced) and not all(sliced)


@pytest.mark.parametrize("shape,crop", [((2, 16, 1, 1), False), ((2, 16, 4, 4), False),
                                        ((16, 32, 16, 16), False), ((2, 16, 5, 6), True)],
                         ids=["2x16x1x1", "2x16x4x4", "16x32x16x16", "cropped-view"])
def test_batchnorm_train_matches_two_pass_statistics_bit_for_bit(shape, crop):
    x = 3.0 + 25.0 * np.random.default_rng(6).standard_normal(shape)
    if crop:
        x = x[:, :, 1:, :-1]
    c = x.shape[1]
    rng = np.random.default_rng(7)
    scale, shift = rng.standard_normal(c), rng.standard_normal(c)
    mean = x.mean(axis=(0, 2, 3), keepdims=True)
    var = x.var(axis=(0, 2, 3), keepdims=True)
    ivar = 1.0 / np.sqrt(var + 1e-5)
    y = scale[None, :, None, None] * ((x - mean) * ivar) + shift[None, :, None, None]
    got_y, got_kept = ops.batchnorm_train(x, scale, shift, 1e-5)
    for got, want in zip((got_y,) + got_kept, (y, ivar, mean, var), strict=True):
        assert np.array_equal(got, want)


def _batchnorm_input_grad_reference(gy, x, kept, scale):
    """The input gradient in its textbook form, kept as the reference:
    -dxhat * ivar and -2 * xmu are summed as such, and dxhat * ivar is
    formed twice."""
    ivar, mean, _ = kept
    m = x.shape[0] * x.shape[2] * x.shape[3]
    dxhat = gy * scale[None, :, None, None]
    xmu = x - mean
    dvar = np.sum(dxhat * xmu, axis=(0, 2, 3), keepdims=True) * (-0.5) * ivar ** 3
    dmean = (np.sum(-dxhat * ivar, axis=(0, 2, 3), keepdims=True)
             + dvar * np.sum(-2.0 * xmu, axis=(0, 2, 3), keepdims=True) / m)
    return dxhat * ivar + dvar * 2.0 * xmu / m + dmean / m


def test_batchnorm_input_grad_matches_reference_formula_bit_for_bit():
    # Negation and scaling by a power of two are exact, so taking them out
    # of the sums keeps every bit.
    rng = np.random.default_rng(11)
    for _ in range(40):
        n, hw = int(rng.integers(2, 17)), int(rng.integers(1, 17))
        x = 3.0 + 25.0 * rng.standard_normal((n, 16, hw, hw))
        gy = rng.standard_normal(x.shape)
        scale, shift = rng.standard_normal(16), rng.standard_normal(16)
        _, kept = ops.batchnorm_train(x, scale, shift, 1e-5)
        want = _batchnorm_input_grad_reference(gy, x, kept, scale)
        got = ops.batchnorm_train_grads(gy, x - kept[1], kept[0], scale)
        assert got.tobytes() == want.tobytes(), (n, hw)


@pytest.mark.parametrize("shape", [(2, 16, 1, 1), (2, 16, 4, 4), (3, 8, 5, 6),
                                   (16, 16, 16, 16)])
def test_batchnorm_lanes_match_separate_batches_bit_for_bit(shape):
    rng = np.random.default_rng(5)
    scale, shift = rng.standard_normal(shape[1]), rng.standard_normal(shape[1])
    n = shape[0]
    for count in (2, 12):  # a probe pass stacks up to 12 lanes
        lanes = [3.0 + 25.0 * rng.standard_normal(shape) for _ in range(count)]
        y, stats = ops.batchnorm_train(np.concatenate(lanes), scale, shift, 1e-5,
                                       lanes=count)
        for k, x in enumerate(lanes):
            want_y, want_stats = ops.batchnorm_train(x, scale, shift, 1e-5)
            assert y[k * n:(k + 1) * n].tobytes() == want_y.tobytes(), (count, k)
            for got, want in zip(stats, want_stats, strict=True):
                assert got[k:k + 1].tobytes() == want.tobytes(), (count, k)


@pytest.mark.parametrize("n, k", [(1, 48), (2, 32), (2, 48), (3, 64)])
def test_linear_lanes_match_separate_batches_bit_for_bit(n, k):
    rng = np.random.default_rng(8)
    w, bias = rng.standard_normal((10, k)), rng.standard_normal(10)
    for count in (2, 12):
        lanes = [rng.standard_normal((n, k, 1, 1)) for _ in range(count)]
        y = ops.linear_apply(np.concatenate(lanes), w, bias, lanes=count)
        for j, x in enumerate(lanes):
            want = ops.linear_apply(x, w, bias)
            assert y[j * n:(j + 1) * n].tobytes() == want.tobytes(), (count, j)


@pytest.mark.parametrize("op", [ir.conv(3, 2, 1, 4, 6, has_bias=True),
                                ir.upsample(2, UpsampleMode.LEARNED_TRANSPOSED_CONV, 4)],
                         ids=["conv", "upsample"])
def test_im2col_kernels_at_12_lanes_match_their_per_pair_calls_bit_for_bit(op):
    b = GraphBuilder()
    node = b.add(op, [b.add_input(TensorShape(4, 6, 6))])
    b.mark_output(node)
    g = b.build()
    params = init_params(g, 3).tensors[node]
    x = np.random.default_rng(4).standard_normal((24, 4, 6, 6))  # 12 lanes at batch 2
    run = executor.KERNELS[op.kind].forward
    y, _ = run(op.attrs, params, [x], Mode.TRAIN, False, 12)
    for i in range(0, 24, 4):
        want, _ = run(op.attrs, params, [x[i:i + 4]], Mode.TRAIN, False, 2)
        assert y[i:i + 4].tobytes() == want.tobytes(), i


def test_init_params_is_bit_deterministic():
    g = simple_net()
    a = init_params(g, 7)
    b = init_params(g, 7)
    for (n1, k1, t1), (n2, k2, t2) in zip(a.learnable_entries(), b.learnable_entries()):
        assert (n1, k1) == (n2, k2)
        assert np.array_equal(t1, t2)
    c = init_params(g, 8)
    assert any(not np.array_equal(t1, t3) for (_, _, t1), (_, _, t3)
               in zip(a.learnable_entries(), c.learnable_entries()))


def test_init_params_bn_starts_at_identity():
    g = simple_net()
    params = init_params(g, 0)
    bn = next(n.id for n in g.nodes if n.op.kind == OpKind.BATCH_NORM)
    assert np.array_equal(params.tensors[bn]["scale"], np.ones(4))
    assert np.array_equal(params.tensors[bn]["shift"], np.zeros(4))
    assert np.array_equal(params.tensors[bn]["running_var"], np.ones(4))


def test_bilinear_kernel_factor2_rows():
    line = ops.bilinear_kernel_1d(2)
    np.testing.assert_allclose(4 * line, [1.0, 3.0, 3.0, 1.0])


def test_forward_is_bit_deterministic():
    g = simple_net()
    params = init_params(g, 3)
    x = np.random.default_rng(5).standard_normal((2, 4, 8, 8))
    out1, _ = forward(g, params, [x], Mode.TRAIN, update_running=False)
    out2, _ = forward(g, params, [x], Mode.TRAIN, update_running=False)
    assert np.array_equal(out1[0], out2[0])


def test_softmax_outputs_sum_to_one():
    g = simple_net(classes=5)
    params = init_params(g, 1)
    x = np.random.default_rng(2).standard_normal((3, 4, 8, 8))
    outs, _ = forward(g, params, [x])
    sums = outs[0].sum(axis=1)
    np.testing.assert_allclose(sums, np.ones_like(sums), atol=1e-12)


def test_bn_train_moments_before_scale_shift():
    # normalized variance is sigma^2 / (sigma^2 + eps), so the 1e-6 bound
    # needs an input variance well above eps = 1e-5
    rng = np.random.default_rng(0)
    x = 3.0 + 25.0 * rng.standard_normal((4, 6, 8, 8))
    y, _ = ops.batchnorm_train(x, np.ones(6), np.zeros(6), eps=1e-5)
    mean = y.mean(axis=(0, 2, 3))
    var = y.var(axis=(0, 2, 3))
    assert np.abs(mean).max() < 1e-9
    assert np.abs(var - 1.0).max() < 1e-6


def test_forward_rejects_wrong_input_shape():
    g = simple_net()
    params = init_params(g, 0)
    with pytest.raises(ShapeMismatch):
        forward(g, params, [np.zeros((1, 4, 4, 4))])
    with pytest.raises(ShapeMismatch):
        forward(g, params, [])


def test_backward_rejects_eval_tape():
    g = simple_net()
    params = init_params(g, 0)
    x = np.zeros((1, 4, 8, 8))
    outs, tape = forward(g, params, [x], Mode.EVAL)
    with pytest.raises(StaleTape):
        backward(g, params, tape, [np.ones_like(outs[0])])


def test_backward_rejects_foreign_tape():
    g1, g2 = simple_net(), simple_net()
    params = init_params(g1, 0)
    x = np.zeros((1, 4, 8, 8))
    outs, tape = forward(g1, params, [x], Mode.TRAIN)
    with pytest.raises(StaleTape):
        backward(g2, init_params(g2, 0), tape, [np.ones_like(outs[0])])



def test_backward_rejects_a_wrong_output_gradient_count_or_shape():
    g = simple_net()
    params = init_params(g, 0)
    outs, tape = forward(g, params, [np.zeros((2, 4, 8, 8))], Mode.TRAIN)
    with pytest.raises(ShapeMismatch, match="expected 1 output gradients, got 2"):
        backward(g, params, tape, [np.ones_like(outs[0])] * 2)
    with pytest.raises(ShapeMismatch, match=r"output gradient shape \(1, 3, 1, 1\)"):
        backward(g, params, tape, [np.ones((1, 3, 1, 1))])


def test_forward_rejects_inputs_of_two_batch_sizes():
    b = GraphBuilder()
    left = b.add_input(TensorShape(2, 4, 4))
    right = b.add_input(TensorShape(2, 4, 4))
    b.mark_output(b.add(ir.add(), [left, right]))
    g = b.build()
    with pytest.raises(ShapeMismatch, match=r"inputs disagree on batch size: \[1, 3\]"):
        forward(g, init_params(g, 0), [np.zeros((1, 2, 4, 4)), np.zeros((3, 2, 4, 4))])


def test_conv_apply_adjoint_rejects_an_operand_of_the_wrong_extent():
    w = np.ones((4, 2, 3, 3))
    with pytest.raises(ValueError, match="adjoint operand is 5x4, conv output side is 4x4"):
        ops.conv_apply_adjoint(np.ones((1, 4, 5, 4)), w, 2, 1, 1, (8, 8))

def test_relu_gradient_is_zero_at_negative_preactivations():
    b = GraphBuilder()
    x = b.add_input(TensorShape(2, 2, 2))
    y = b.add(ir.relu(), [x])
    b.mark_output(y)
    g = b.build()
    xval = np.array([[[[1.0, -1.0], [2.0, -2.0]], [[-3.0, 3.0], [-4.0, 4.0]]]])
    outs, tape = forward(g, ParamStore(), [xval], Mode.TRAIN)
    _, input_grads = backward(g, ParamStore(), tape, [np.ones_like(outs[0])], wrt=[x])
    np.testing.assert_array_equal(input_grads[x], (xval > 0).astype(float))


def test_concat_routes_gradient_slices():
    b = GraphBuilder()
    x1 = b.add_input(TensorShape(2, 2, 2))
    x2 = b.add_input(TensorShape(3, 2, 2))
    cat = b.add(ir.concat(), [x1, x2])
    b.mark_output(cat)
    g = b.build()
    a = np.ones((1, 2, 2, 2))
    c = np.ones((1, 3, 2, 2))
    outs, tape = forward(g, ParamStore(), [a, c], Mode.TRAIN)
    gy = np.random.default_rng(0).standard_normal(outs[0].shape)
    _, input_grads = backward(g, ParamStore(), tape, [gy], wrt=[x1, x2])
    np.testing.assert_array_equal(input_grads[x1], gy[:, :2])
    np.testing.assert_array_equal(input_grads[x2], gy[:, 2:])


def test_zeroed_residual_node_is_identity_in_eval_mode():
    b = GraphBuilder()
    x1 = b.add_input(TensorShape(4, 4, 4))
    x2 = b.add_input(TensorShape(4, 4, 4))
    out = build_aggregation_node(b, [x1, x2], AggNodeSpec(4, residual=True))
    b.mark_output(out)
    g = b.build()
    params = init_params(g, 0)
    conv = next(n.id for n in g.nodes if n.op.kind == OpKind.CONV)
    params.tensors[conv]["weight"][:] = 0.0
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 4, 4, 4))
    c = rng.standard_normal((2, 4, 4, 4))
    outs, _ = forward(g, params, [a, c], Mode.EVAL)
    np.testing.assert_array_equal(outs[0], np.maximum(c, 0.0))


def test_maxpool_ceil_window_clipping():
    x = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
    pooled, _ = ops.maxpool(x, 2, 2, ceil_mode=True)
    np.testing.assert_array_equal(pooled[0, 0], [[4.0, 5.0], [7.0, 8.0]])
    gx = ops.maxpool_grad(np.ones((1, 1, 2, 2)), _, (1, 1, 3, 3), 2, 2)
    assert gx.sum() == 4.0
    # a window that would start past the input is dropped, not filled with -inf
    pooled, winner = ops.maxpool(x[:, :, :2, :2], 1, 2, ceil_mode=True)
    np.testing.assert_array_equal(pooled, [[[[0.0]]]])
    gx = ops.maxpool_grad(np.ones((1, 1, 1, 1)), winner, (1, 1, 2, 2), 1, 2)
    np.testing.assert_array_equal(gx, [[[[1.0, 0.0], [0.0, 0.0]]]])


@pytest.mark.parametrize("ceil_mode", [False, True])
def test_maxpool_of_a_finite_input_is_finite(ceil_mode):
    rng = np.random.default_rng(0)
    for h in range(1, 8):
        for w in range(1, 8):
            x = rng.standard_normal((1, 2, h, w))
            for kernel in range(1, 4):
                for stride in range(1, 4):
                    oh, ow = ir.window_out_hw(h, w, kernel, stride, 0, ceil_mode)
                    if oh < 1 or ow < 1:
                        continue
                    pooled, winner = ops.maxpool(x, kernel, stride, ceil_mode)
                    assert pooled.shape == (1, 2, oh, ow)
                    assert np.isfinite(pooled).all(), (h, w, kernel, stride)
                    gx = ops.maxpool_grad(np.ones_like(pooled), winner, x.shape,
                                          kernel, stride)
                    assert gx.sum() == pooled.size


@pytest.mark.parametrize("name", catalog_names() + ("decoder",))
def test_executed_shapes_equal_the_graphs_shapes(name):
    """Shape witness on the ten toy cases: the shapes construction keeps
    are what ``infer_shapes`` gives, and what a batch-2 forward makes."""
    g = (build_toy_dense_decoder("DLA-34", 16, 32, num_classes=5) if name == "decoder"
         else build_toy_classifier(name, 16, 16, num_classes=10))
    declared = g.shapes[g.inputs[0]]
    assert infer_shapes(g, declared) == dict(enumerate(g.shapes))
    x = np.random.default_rng(0).standard_normal((2,) + astuple(declared))
    outs, tape = forward(g, init_params(g, 0), [x])
    assert set(tape.values) >= set(g.outputs)
    for nid, value in tape.values.items():
        assert value.shape == (2,) + astuple(g.shapes[nid]), nid
    for o, y in zip(g.outputs, outs):
        assert y.shape == (2,) + astuple(g.shapes[o])


@pytest.mark.parametrize("name", catalog_names())
def test_executed_multiply_adds_equal_the_counted_fmas(monkeypatch, name):
    """FMA witness on the nine toy classifiers: the multiply-adds that the
    convolutions and linear layers of one forward perform are
    ``cost_report``'s FMAs times the batch."""
    g = build_toy_classifier(name, 16, 16, num_classes=10)
    performed = []

    def counted(kernel):
        def run(x, w, *args):
            y = kernel(x, w, *args)
            performed.append(x.shape[0] * w.size * y.shape[2] * y.shape[3])
            return y
        return run

    monkeypatch.setattr(ops, "conv_apply", counted(ops.conv_apply))
    monkeypatch.setattr(ops, "linear_apply", counted(ops.linear_apply))
    declared = g.shapes[g.inputs[0]]
    x = np.random.default_rng(0).standard_normal((2,) + astuple(declared))
    forward(g, init_params(g, 0), [x])
    assert sum(performed) == 2 * cost_report(g, declared).fmas > 0


@pytest.mark.parametrize("name", catalog_names() + ("decoder",))
def test_allocated_parameters_equal_the_counted_parameters(name):
    g = (build_toy_dense_decoder("DLA-34", 16, 32, num_classes=5) if name == "decoder"
         else build_toy_classifier(name, 16, 16, num_classes=10))
    entries = list(init_params(g, 0).learnable_entries())
    assert sum(arr.size for _, _, arr in entries) == count_params(g) > 0


class _Interrupt(Exception):
    pass


def test_grad_check_never_writes_the_parameters_even_when_a_kernel_raises(monkeypatch):
    """A kernel that raises at any call of a grad_check, a probe root's runs
    included, leaves every parameter equal to its snapshot bit for bit."""
    g = build_toy_classifier("DLA-34", 16, 16, num_classes=10)
    params = init_params(g, 7)
    snapshot = _bytes(params.tensors)
    x = np.random.default_rng(3).standard_normal((2, 3, 16, 16))
    conv_apply, calls = ops.conv_apply, []

    def interrupted(*args):
        calls.append(None)
        if len(calls) == raise_at:
            raise _Interrupt
        return conv_apply(*args)

    monkeypatch.setattr(ops, "conv_apply", interrupted)
    raise_at = 0
    grad_check(g, params, x, sample=6, seed=1)
    assert _bytes(params.tensors) == snapshot
    for raise_at in range(1, len(calls) + 1):
        calls.clear()
        with pytest.raises(_Interrupt):
            grad_check(g, params, x, sample=6, seed=1)
        assert _bytes(params.tensors) == snapshot, raise_at


@pytest.mark.parametrize("seed", RANDOM_GRAPH_SEEDS)
def test_random_graphs_run_forward_and_backward_to_finite_values(seed):
    g = random_graph(random.Random(seed))
    params = init_params(g, seed)
    x = np.random.default_rng(seed).standard_normal((2,) + astuple(g.shapes[0]))
    outs, tape = forward(g, params, [x])
    grads, input_grads = backward(g, params, tape, [np.ones_like(y) for y in outs],
                                  wrt=range(len(g)))
    for y, o in zip(outs, g.outputs):
        assert y.shape == (2,) + astuple(g.shapes[o]) and np.isfinite(y).all()
    assert np.isfinite(input_grads[0]).all()
    assert all(np.isfinite(t).all() for store in grads.values() for t in store.values())


def test_grad_check_single_layer_tight_tolerance():
    b = GraphBuilder()
    x = b.add_input(TensorShape(4, 8, 8))
    y = b.add(ir.conv(3, 1, 1, 4, 4), [x])
    y = b.add(ir.batch_norm(4), [y])
    y = b.add(ir.relu(), [y])
    b.mark_output(y)
    g = b.build()
    params = init_params(g, 5)
    xval = np.random.default_rng(2).standard_normal((2, 4, 8, 8))
    report = grad_check(g, params, xval, tolerance=1e-6, sample=60, seed=9)
    assert report.passed, report.max_rel_error


def test_grad_check_detects_corrupted_backward():
    g = simple_net()
    params = init_params(g, 5)
    xval = np.random.default_rng(2).standard_normal((2, 4, 8, 8))
    clean = grad_check(g, params, xval, sample=40, seed=3)
    assert clean.passed
    corrupt = grad_check(g, params, xval, sample=40, seed=3, corrupt_backward=True)
    assert not corrupt.passed


def test_grad_check_fails_on_a_nan_gradient(monkeypatch):
    # toy DLA-34 at its acceptance point, with the classifier's weight and
    # bias gradients planted as NaN: one of the 200 entries is NaN, and
    # finite entries come before it
    linear = executor.KERNELS[OpKind.LINEAR]

    def nan_backward(*args):
        gxs, named = linear.backward(*args)
        return gxs, named and {k: np.full_like(v, np.nan) for k, v in named.items()}

    monkeypatch.setitem(executor.KERNELS, OpKind.LINEAR,
                        linear._replace(backward=nan_backward))
    g = build_toy_classifier("DLA-34", 16, 16, num_classes=10)
    x = np.random.default_rng(3).standard_normal((2, 3, 16, 16))
    report = grad_check(g, init_params(g, 7), x, sample=200, seed=1)
    nan = [e for e in report.entries if math.isnan(e.rel_error)]
    assert len(nan) == 1 and not math.isnan(report.entries[0].rel_error)
    assert math.isnan(report.max_rel_error) and not report.passed
    assert report.worst() is nan[0]
    payload = report.to_json_dict()
    assert payload["max_rel_error"] is None and payload["passed"] is False


def test_grad_report_worst_is_the_first_nan_else_the_first_largest():
    def report(*errors):
        entries = tuple(executor.GradCheckEntry(i, "weight", 0, 0.0, 0.0, e)
                        for i, e in enumerate(errors))
        return executor.GradReport(entries, 0.0, 1e-5, 1e-4, True)

    nan = float("nan")
    assert report(1.0, nan, 2.0, nan).worst().node_id == 1
    assert report(1.0, 2.0, 2.0, 0.5).worst().node_id == 1


def test_grad_check_zero_tolerance_cannot_pass():
    g = simple_net()
    params = init_params(g, 5)
    xval = np.random.default_rng(2).standard_normal((2, 4, 8, 8))
    report = grad_check(g, params, xval, tolerance=0.0, sample=20, seed=3)
    assert not report.passed


def test_grad_check_rejects_empty_sample():
    g = simple_net()
    xval = np.random.default_rng(2).standard_normal((2, 4, 8, 8))
    with pytest.raises(ValueError):
        grad_check(g, init_params(g, 5), xval, sample=0)
    # a graph without learnable tensors leaves nothing to sample
    b = GraphBuilder()
    b.mark_output(b.add(ir.relu(), [b.add_input(TensorShape(4, 8, 8))]))
    bare = b.build()
    with pytest.raises(ValueError, match="no learnable parameters"):
        grad_check(bare, init_params(bare, 5), xval, sample=3)


@pytest.mark.parametrize("kwargs", [{"epsilon": 0.0}, {"epsilon": -1e-5},
                                    {"epsilon": float("nan")}, {"epsilon": float("inf")},
                                    {"tolerance": float("nan")}, {"tolerance": -1e-4}])
def test_grad_check_rejects_bad_epsilon_or_tolerance(kwargs):
    g = simple_net()
    xval = np.random.default_rng(2).standard_normal((2, 4, 8, 8))
    with pytest.raises(ValueError):
        grad_check(g, init_params(g, 5), xval, sample=5, **kwargs)


def two_output_net():
    """A shared trunk feeding two heads: each head's parameters reach only
    its own output."""
    b = GraphBuilder()
    x = b.add_input(TensorShape(3, 6, 6))
    trunk = b.add(ir.conv(3, 1, 1, 3, 2), [x])
    trunk = b.add(ir.batch_norm(2), [trunk])
    trunk = b.add(ir.relu(), [trunk])
    dense = b.add(ir.conv(3, 1, 1, 2, 2), [trunk])
    b.mark_output(dense)
    y = b.add(ir.conv(1, 1, 0, 2, 3), [trunk])
    y = b.add(ir.global_avg_pool(), [y])
    y = b.add(ir.linear(3, 4), [y])
    y = b.add(ir.softmax(), [y])
    b.mark_output(y)
    return b.build()


def wide_linear_net():
    """A Linear over K = 48 features. At batch 2, one (2N, K) product over
    both probe lanes rounds some rows apart from the (N, K) product."""
    b = GraphBuilder()
    x = b.add_input(TensorShape(3, 4, 4))
    y = b.add(ir.conv(3, 1, 1, 3, 48), [x])
    y = b.add(ir.batch_norm(48), [y])
    y = b.add(ir.relu(), [y])
    y = b.add(ir.global_avg_pool(), [y])
    y = b.add(ir.linear(48, 10), [y])
    y = b.add(ir.softmax(), [y])
    b.mark_output(y)
    return b.build()


def join_net():
    """Two branches of the input joined by an Add, then one more conv: a
    probe pass over picks in both branches feeds the Add inputs that carry
    different picks' lanes, one of them with tape values in the others'."""
    b = GraphBuilder()
    x = b.add_input(TensorShape(3, 6, 6))
    left = b.add(ir.conv(3, 1, 1, 3, 2), [x])
    left = b.add(ir.batch_norm(2), [left])
    right = b.add(ir.conv(1, 1, 0, 3, 2), [x])
    y = b.add(ir.add(), [left, right])
    y = b.add(ir.relu(), [y])
    y = b.add(ir.conv(1, 1, 0, 2, 3, has_bias=True), [y])
    b.mark_output(y)
    return b.build()


@pytest.mark.parametrize("build, hw, sample", [
    (lambda: build_toy_classifier("DLA-34", 16, 16, num_classes=10), 16, 24),
    (lambda: build_toy_dense_decoder("DLA-34", 16, 32, num_classes=5), 32, 12),
    (two_output_net, 6, 200),
    (wide_linear_net, 4, 200),
    (lambda: build_toy_classifier("DLA-34", 16, 16, num_classes=10), 16, 7),
    (lambda: build_toy_dense_decoder("DLA-34", 16, 32, num_classes=5), 32, 13),
    (join_net, 6, 200),
], ids=["DLA-34", "decoder", "two-output", "wide-linear", "DLA-34-partial-group",
        "decoder-partial-group", "join"])
def test_grad_check_matches_full_forward_differences_bit_for_bit(build, hw, sample):
    g = build()
    xval = np.random.default_rng(3).standard_normal((2, 3, hw, hw))
    _check_full_forward_differences(g, init_params(g, 7), xval, sample)


@pytest.mark.parametrize("seed", RANDOM_GRAPH_SEEDS)
def test_grad_check_matches_full_forward_differences_on_random_graphs(seed):
    """The probe lanes on graphs the catalog never builds: grouped, strided
    and 1x1 convolutions, pools, upsamplings, concats and adds in random
    order, with one or two outputs."""
    g = random_graph(random.Random(seed))
    xval = np.random.default_rng(seed).standard_normal((2,) + astuple(g.shapes[0]))
    _check_full_forward_differences(g, init_params(g, seed), xval, 12)


def _check_full_forward_differences(g, params, xval, sample):
    """Each entry of a ``sample``-entry grad_check equals, to the bit, the
    central difference of two full forwards, and the check leaves the
    parameters as they were."""
    before = params.copy()
    eps, seed = 1e-5, 1
    report = grad_check(g, params, xval, epsilon=eps, sample=sample, seed=seed)
    for nid, named in before.tensors.items():
        for name, arr in named.items():
            assert params.tensors[nid][name].tobytes() == arr.tobytes(), (nid, name)

    # Reference: the contraction grad_check draws first from its seed, and
    # two full forwards per entry.
    rng = np.random.default_rng(seed)
    outs, _ = forward(g, params, [xval], Mode.TRAIN, update_running=False)
    contraction = [rng.standard_normal(o.shape) for o in outs]
    norm = np.sqrt(sum(float(np.vdot(c, c)) for c in contraction))
    contraction = [c * (0.01 / norm) for c in contraction]

    def loss():
        outs, _ = forward(g, params, [xval], Mode.TRAIN, update_running=False)
        return float(sum(np.vdot(c, o) for c, o in zip(contraction, outs)))

    for e in report.entries:
        arr = params.tensors[e.node_id][e.name]
        original = arr.flat[e.index]
        arr.flat[e.index] = original + eps
        plus = loss()
        arr.flat[e.index] = original - eps
        minus = loss()
        arr.flat[e.index] = original
        assert ((plus - minus) / (2.0 * eps)).hex() == e.numeric.hex(), e


def test_probe_pass_holds_only_the_graph_outputs_its_cones_reach():
    """A probe pass drops each value after its last consumer in the pass,
    so at its end it holds the graph outputs that some pick's cone holds,
    each with a +/- lane pair per such pick, and nothing else."""
    g = two_output_net()
    params = init_params(g, 4)
    xval = np.random.default_rng(6).standard_normal((2, 3, 6, 6))
    _, tape = forward(g, params, [xval], Mode.TRAIN, update_running=False)
    trunk, dense, _ = [n.id for n in g.nodes if n.op.kind is OpKind.CONV]

    def picks(nid, *offsets):
        return [(nid, "weight", params.tensors[nid]["weight"], o) for o in offsets]

    values, _ = executor._walk(g, params, tape, picks(trunk, 0, 7), 1e-5)
    assert set(values) == set(g.outputs)
    assert all(v.shape[0] == 2 * 2 * 2 for v in values.values())
    values, _ = executor._walk(g, params, tape, picks(dense, 3), 1e-5)
    assert set(values) == {g.outputs[0]}


def test_probe_pass_runs_each_conv_node_once_over_its_upstream_lanes(monkeypatch):
    """In a probe pass, a conv node runs once over the lanes of every pick
    rooted upstream whose cone holds it, and twice per pick rooted at it:
    no path splits a node's lanes over several calls. The first pass runs
    every conv once over the plain batch and its upstream lanes, and twice
    per pick rooted at it; no forward runs besides."""
    g = build_toy_classifier("DLA-34", 16, 16, num_classes=10)
    params = init_params(g, 7)
    x = np.random.default_rng(3).standard_normal((2, 3, 16, 16))
    weights = {n.id: params.tensors[n.id]["weight"] for n in g.nodes
               if n.op.kind is OpKind.CONV}
    owner = {id(w): nid for nid, w in weights.items()}
    below = {n.id: set() for n in g.nodes}  # each node's cone, itself left out
    for node in reversed(g.nodes):  # ids ascend along every edge
        for i in node.inputs:
            below[i] |= {node.id} | below[node.id]
    conv_apply, walk = ops.conv_apply, executor._walk
    calls, passes = [], []

    def counted(x, w, *args):  # a root's runs get a copy with one entry moved
        nid = owner.get(id(w))
        if nid is None:
            nid = next(n for n, held in weights.items()
                       if held.shape == w.shape and np.count_nonzero(held != w) == 1)
        calls.append(nid)
        return conv_apply(x, w, *args)

    def recorded(graph, params, tape, group, epsilon, fill=False, update_running=False):
        calls.clear()  # made before this pass: by backward or the last pass
        result = walk(graph, params, tape, group, epsilon, fill, update_running)
        passes.append(([nid for nid, *_ in group], fill, list(calls)))
        return result

    monkeypatch.setattr(ops, "conv_apply", counted)
    monkeypatch.setattr(executor, "_walk", recorded)
    grad_check(g, params, x, sample=24, seed=1)
    assert [fill for _, fill, _ in passes] == [True, False, False, False]
    kinds = set()
    for roots, fill, pass_calls in passes:
        for nid in owner.values():
            upstream = any(nid in below[root] for root in roots)
            want = (fill or upstream) + 2 * roots.count(nid)
            assert pass_calls.count(nid) == want, (roots, nid)
            kinds.add((fill, upstream, nid in roots))
    assert {kind[1:] for kind in kinds if not kind[0]} == {
        (False, False), (True, False), (False, True), (True, True)}



def gap_net():
    """A trunk conv A, a conv B on the input with its own output, and a conv
    C on A's branch, each conv followed by batch norm."""
    b = GraphBuilder()
    x = b.add_input(TensorShape(3, 6, 6))
    trunk = b.add(ir.conv(3, 1, 1, 3, 2), [x])
    trunk = b.add(ir.batch_norm(2), [trunk])
    side = b.add(ir.conv(1, 1, 0, 3, 2), [x])
    side = b.add(ir.batch_norm(2), [side])
    b.mark_output(side)
    y = b.add(ir.conv(3, 1, 1, 2, 2), [trunk])
    y = b.add(ir.batch_norm(2), [y])
    b.mark_output(y)
    return b.build()


def test_probe_pass_gives_the_tape_value_in_a_pair_whose_cone_misses_the_node():
    """With picks at A, B and C in that order, C's range [0, 3) spans B's
    pair, though B's cone misses C: that pair must run through C and its
    batch norm to their tape values, bit for bit, and every pick's +/-
    contraction must equal full-forward central differences."""
    g = gap_net()
    params = init_params(g, 4)
    xval = np.random.default_rng(6).standard_normal((2, 3, 6, 6))
    outs, tape = forward(g, params, [xval], Mode.TRAIN, update_running=False)
    convs = [n.id for n in g.nodes if n.op.kind is OpKind.CONV]
    group = [(nid, "weight", params.tensors[nid]["weight"], 5) for nid in convs]
    eps = 1e-5
    values, ranges = executor._walk(g, params, tape, group, eps)
    side, out = g.outputs
    assert ranges[side] == (1, 2) and ranges[out] == (0, 3)
    assert values[out][4:8].tobytes() == np.concatenate([tape.values[out]] * 2).tobytes()

    contraction = [np.random.default_rng(8).standard_normal(o.shape) for o in outs]

    def probed(k, lane):
        def output(o):
            lo, hi = ranges[o]
            if not lo <= k < hi:
                return tape.values[o]
            j = 2 * (k - lo) + lane
            return values[o][2 * j:2 * (j + 1)]
        return float(sum(np.vdot(c, output(o)) for c, o in zip(contraction, g.outputs)))

    def full(arr, offset, value):
        original = arr.flat[offset]
        arr.flat[offset] = value
        outs, _ = forward(g, params, [xval], Mode.TRAIN, update_running=False)
        arr.flat[offset] = original
        return float(sum(np.vdot(c, o) for c, o in zip(contraction, outs)))

    for k, (_, _, arr, offset) in enumerate(group):
        original = arr.flat[offset]
        want = (full(arr, offset, original + eps) - full(arr, offset, original - eps)) / (2 * eps)
        got = (probed(k, 0) - probed(k, 1)) / (2 * eps)
        assert got.hex() == want.hex(), k


@pytest.mark.parametrize("build, hw, point, sample, elements, calls", [
    (lambda: build_toy_classifier("DLA-34", 16, 16, num_classes=10), 16, (7, 3, 1), 6,
     104928, 45),
    (lambda: build_toy_classifier("DLA-X-102", 16, 16, num_classes=10), 16, (1, 9, 1), 6,
     139424, 113),
    (lambda: build_toy_classifier("DLA-169", 16, 16, num_classes=10), 16, (11, 42, 1), 6,
     145472, 176),
    (lambda: build_toy_dense_decoder("DLA-34", 16, 32, num_classes=5), 32, (8, 33, 5), 6,
     385888, 56),
    (lambda: build_toy_dense_decoder("DLA-34", 16, 32, num_classes=5), 32, (8, 33, 5), 200,
     10140192, 811),
], ids=["DLA-34", "DLA-X-102", "DLA-169", "decoder", "decoder-200"])
def test_grad_check_conv_work_is_pinned(monkeypatch, build, hw, point, sample, elements,
                                        calls):
    """The conv output elements and calls of one grad_check at the
    benchmark's toy-gradcheck points (batch 2; init, data and check seeds)
    at its 6 samples, and at 200 for the decoder. A probe layout that runs
    lanes a node does not need, or splits a node's lanes over several
    calls, moves them: the decoder at 200 samples runs 1.8% more conv
    elements if every node carries the lanes of all earlier picks. The
    first pass makes the tape with the plain batch as one more lane, so
    the elements are those of a separate forward and the passes, in fewer
    calls (77, 213, 339, 81 and 853 with a separate forward)."""
    g = build()
    init_seed, data_seed, check_seed = point
    params = init_params(g, init_seed)
    x = np.random.default_rng(data_seed).standard_normal((2, 3, hw, hw))
    conv_apply, sizes = ops.conv_apply, []

    def counted(*args, **kwargs):
        y = conv_apply(*args, **kwargs)
        sizes.append(y.size)
        return y

    monkeypatch.setattr(ops, "conv_apply", counted)
    grad_check(g, params, x, sample=sample, seed=check_seed)
    assert (sum(sizes), len(sizes)) == (elements, calls)

WRT_NETS = [
    pytest.param(lambda: build_toy_classifier("DLA-34", 16, 16, num_classes=10), 16,
                 id="DLA-34"),
    pytest.param(lambda: build_toy_dense_decoder("DLA-34", 16, 32, num_classes=5), 32,
                 id="decoder"),
    pytest.param(two_output_net, 6, id="two-output"),
]


def _taped(build, hw):
    g = build()
    params = init_params(g, 4)
    rng = np.random.default_rng(6)
    outs, tape = forward(g, params, [rng.standard_normal((2, 3, hw, hw))], Mode.TRAIN,
                         update_running=False)
    return g, params, tape, [rng.standard_normal(o.shape) for o in outs]


def _bytes(store):
    return {nid: {name: a.tobytes() for name, a in named.items()}
            for nid, named in store.items()}


@pytest.mark.parametrize("build, hw", WRT_NETS)
def test_default_backward_matches_wrt_all_learnable_nodes_and_inputs(build, hw):
    g, params, tape, gys = _taped(build, hw)
    learnable = {nid for nid, _, _ in params.learnable_entries()}
    pgrads, input_grads = backward(g, params, tape, gys)
    full, full_inputs = backward(g, params, tape, gys, wrt=learnable | set(g.inputs))
    assert set(pgrads) == learnable and input_grads == {}
    assert _bytes(pgrads) == _bytes(full)
    assert set(full_inputs) == set(g.inputs)


@pytest.mark.parametrize("build, hw", WRT_NETS)
def test_restricted_wrt_returns_the_full_gradients_of_its_nodes_only(build, hw):
    g, params, tape, gys = _taped(build, hw)
    learnable = {nid for nid, _, _ in params.learnable_entries()}
    candidates = sorted(learnable | set(g.inputs))
    full, full_inputs = backward(g, params, tape, gys, wrt=candidates)
    rng = np.random.default_rng(2)
    for size in (1, 2, len(candidates) // 3):
        wrt = {int(i) for i in rng.choice(candidates, size=size, replace=False)}
        pgrads, input_grads = backward(g, params, tape, gys, wrt=wrt)
        assert set(pgrads) == wrt & learnable
        assert set(input_grads) == wrt & set(g.inputs)
        assert _bytes(pgrads) == {nid: _bytes(full)[nid] for nid in pgrads}
        for nid, grad in input_grads.items():
            assert grad.tobytes() == full_inputs[nid].tobytes()
    with pytest.raises(ValueError):
        backward(g, params, tape, gys, wrt=[len(g)])


def test_batch_norm_tapes_only_its_per_channel_statistics():
    g = build_toy_dense_decoder("DLA-34", 16, 32, num_classes=5)
    params = init_params(g, 2)
    _, tape = forward(g, params, [np.random.default_rng(1).standard_normal((2, 3, 32, 32))])
    norms = [n for n in g.nodes if n.op.kind is OpKind.BATCH_NORM]
    assert norms
    for node in norms:  # (ivar, mean, var), one lane of one value per channel
        channels = node.op.attrs["channels"]
        assert [a.shape for a in tape.aux[node.id]] == [(1, channels, 1, 1)] * 3


READS_INPUTS = {OpKind.CONV, OpKind.BATCH_NORM, OpKind.LINEAR, OpKind.UPSAMPLE}
READS_OUTPUT = {OpKind.RELU, OpKind.SOFTMAX}


def dead_end_net():
    """A max pool that nothing reads: forward drops its value once made."""
    b = GraphBuilder()
    x = b.add_input(TensorShape(3, 16, 16))
    b.add(ir.max_pool(2, 2), [x])
    b.mark_output(b.add(ir.conv(1, 1, 0, 3, 2), [x]))
    return b.build()


@pytest.mark.parametrize("name", catalog_names() + ("decoder", "dead-end"))
def test_train_tape_keeps_only_what_backward_and_grad_check_read(name):
    hw = 32 if name == "decoder" else 16
    if name == "decoder":
        g = build_toy_dense_decoder("DLA-34", 16, 32, num_classes=5)
    elif name == "dead-end":
        g = dead_end_net()
    else:
        g = build_toy_classifier(name, 16, 16, num_classes=10)
    # graph inputs and outputs; values a backward reads; inputs of a node
    # with two or more, which a probe pass may read from the tape
    want = set(g.inputs) | set(g.outputs)
    for node in g.nodes:
        if node.op.kind in READS_OUTPUT:
            want.add(node.id)
        if node.op.kind in READS_INPUTS or len(node.inputs) > 1:
            want.update(node.inputs)
    x = np.random.default_rng(0).standard_normal((2, 3, hw, hw))
    _, tape = forward(g, init_params(g, 0), [x], Mode.TRAIN, update_running=False)
    assert set(tape.values) == want
    assert len(want) < len(g)


FIRST_PASS_NETS = {"join": (join_net, 6), "gap": (gap_net, 6),
                   "two-output": (two_output_net, 6), "dead-end": (dead_end_net, 16)}


@pytest.mark.parametrize("name", catalog_names() + ("decoder",) + tuple(FIRST_PASS_NETS))
def test_first_probe_pass_tapes_what_forward_tapes_bit_for_bit(name):
    """The first probe pass, run with the plain batch as one more lane,
    fills the tape: every value and every kernel's kept (batch-norm
    statistics shaped (1, C, 1, 1), max-pool winners and input extents,
    global-pool input extents, concat widths) equals that of a plain
    forward, and
    backward over it gives the same gradient bytes. The group starts at the
    first learnable node, so every kernel below it runs stacked."""
    if name == "decoder":
        g, hw = build_toy_dense_decoder("DLA-34", 16, 32, num_classes=5), 32
    elif name in FIRST_PASS_NETS:
        build, hw = FIRST_PASS_NETS[name]
        g = build()
    else:
        g, hw = build_toy_classifier(name, 16, 16, num_classes=10), 16
    params = init_params(g, 3)
    x = np.random.default_rng(4).standard_normal((2, 3, hw, hw))
    entries = list(params.learnable_entries())
    first = entries[0]
    group = [first + (0,), first + (first[2].size - 1,)] + [
        entries[k] + (0,) for k in sorted({len(entries) // 3, 2 * len(entries) // 3,
                                           len(entries) - 1} - {0})]
    tape = executor.Tape(g, Mode.TRAIN, {g.inputs[0]: x}, {})
    executor._walk(g, params, tape, group, 1e-5, fill=True)
    outputs, want = forward(g, params, [x], Mode.TRAIN, update_running=False)
    assert {nid: kept_bits(v) for nid, v in tape.values.items()} == \
        {nid: kept_bits(v) for nid, v in want.values.items()}
    assert {nid: kept_bits(k) for nid, k in tape.aux.items()} == \
        {nid: kept_bits(k) for nid, k in want.aux.items()}
    kinds = {g.nodes[nid].op.kind for nid in want.aux}
    if name in catalog_names():
        assert kinds == {OpKind.BATCH_NORM, OpKind.MAX_POOL, OpKind.GLOBAL_AVG_POOL,
                         OpKind.CONCAT}
    gys = [np.random.default_rng(5).standard_normal(o.shape) for o in outputs]
    wrt = {nid for nid, *_ in entries} | set(g.inputs)
    got_grads, got_inputs = backward(g, params, tape, gys, wrt)
    want_grads, want_inputs = backward(g, params, want, gys, wrt)
    assert _bytes(got_grads) == _bytes(want_grads)
    assert {i: v.tobytes() for i, v in got_inputs.items()} == \
        {i: v.tobytes() for i, v in want_inputs.items()}


@pytest.mark.parametrize("mode, update_running", [(Mode.TRAIN, True), (Mode.TRAIN, False),
                                                  (Mode.EVAL, False)],
                         ids=["train-update", "train", "eval"])
@pytest.mark.parametrize("name", catalog_names() + ("decoder",))
def test_forward_matches_the_reference_walk_bit_for_bit(name, mode, update_running):
    """forward, the plan's walk with no picks, gives what a loop of its
    own over the plan gives: the outputs, the tape's mode and values, every
    kernel's kept, and the running statistics it writes, bit for bit."""
    if name == "decoder":
        g, hw = build_toy_dense_decoder("DLA-34", 16, 32, num_classes=5), 32
    else:
        g, hw = build_toy_classifier(name, 16, 16, num_classes=10), 16
    params = init_params(g, 2)
    want_params = params.copy()
    x = np.random.default_rng(6).standard_normal((2, 3, hw, hw))
    outputs, tape = forward(g, params, [x], mode, update_running)
    want_outputs, want = reference_forward(g, want_params, [x], mode, update_running)
    assert [kept_bits(o) for o in outputs] == [kept_bits(o) for o in want_outputs]
    assert tape.mode is want.mode is mode
    assert {nid: kept_bits(v) for nid, v in tape.values.items()} == \
        {nid: kept_bits(v) for nid, v in want.values.items()}
    assert {nid: kept_bits(k) for nid, k in tape.aux.items()} == \
        {nid: kept_bits(k) for nid, k in want.aux.items()}
    assert _bytes(params.tensors) == _bytes(want_params.tensors)
    assert (_bytes(params.tensors) != _bytes(init_params(g, 2).tensors)) is update_running


def _entry_bits(e):
    return e.node_id, e.name, e.index, e.analytic.hex(), e.numeric.hex(), e.rel_error.hex()


def test_grad_check_runs_no_forward_and_keeps_its_input_checks(monkeypatch):
    """grad_check runs no forward, and still rejects what forward rejects
    before any probe: a graph with two inputs and an input of the wrong
    shape raise ShapeMismatch; an integer input gives the report of its
    float64 copy, bit for bit."""
    g = simple_net()
    params = init_params(g, 5)
    xval = np.random.default_rng(2).integers(-3, 4, (2, 4, 8, 8))
    probes = []
    walk = executor._walk

    def recorded(*args, **kwargs):
        probes.append(args[3])
        return walk(*args, **kwargs)

    def no_forward(*args, **kwargs):
        raise AssertionError("grad_check ran forward")

    monkeypatch.setattr(executor, "_walk", recorded)
    monkeypatch.setattr(executor, "forward", no_forward)
    report = grad_check(g, params, xval, sample=20, seed=3)
    assert probes
    again = grad_check(g, params, xval.astype(np.float64), sample=20, seed=3)
    assert [_entry_bits(e) for e in report.entries] == [_entry_bits(e) for e in again.entries]
    probes.clear()
    with pytest.raises(ShapeMismatch, match="expects"):
        grad_check(g, params, xval[:, :3], sample=20, seed=3)
    b = GraphBuilder()
    left, right = b.add_input(TensorShape(4, 8, 8)), b.add_input(TensorShape(4, 8, 8))
    b.mark_output(b.add(ir.conv(1, 1, 0, 4, 2), [b.add(ir.add(), [left, right])]))
    two = b.build()
    with pytest.raises(ShapeMismatch, match="takes 2 inputs"):
        grad_check(two, init_params(two, 5), xval, sample=20, seed=3)
    assert probes == []


def test_a_graph_is_planned_once_and_its_plan_dies_with_it(monkeypatch):
    """forward, backward and grad_check walk one plan per graph, built on
    its first execution; an equal graph gets its own, and a plan goes when
    its graph does."""
    planned = []
    topo_order = executor.topo_order

    def counted(graph):
        planned.append(id(graph))
        return topo_order(graph)

    monkeypatch.setattr(executor, "topo_order", counted)
    g = simple_net()
    params = init_params(g, 0)
    x = np.random.default_rng(1).standard_normal((2, 4, 8, 8))
    outputs, tape = forward(g, params, [x])
    backward(g, params, tape, [np.ones_like(outputs[0])])
    grad_check(g, params, x, sample=6)
    forward(g, params, [x], Mode.EVAL)
    assert planned == [id(g)]
    twin = graphdoc.parse(graphdoc.serialize(g))[0]
    assert twin == g
    forward(twin, params, [x])
    assert planned == [id(g), id(twin)]
    key = id(g)
    assert key in executor._PLANS
    del g, tape
    gc.collect()
    assert key not in executor._PLANS and id(twin) in executor._PLANS


def test_an_input_after_a_compute_node_is_no_step_and_gets_its_gradient():
    """In -> Conv -> Add(conv, In2) -> Output: both walks skip the second
    Input, which sits between compute nodes, and Add hands it the output
    gradient unchanged."""
    b = GraphBuilder()
    x = b.add_input(TensorShape(3, 6, 6))
    conv = b.add(ir.conv(3, 1, 1, 3, 3), [x])
    x2 = b.add_input(TensorShape(3, 6, 6))
    b.mark_output(b.add(ir.add(), [conv, x2]))
    g = b.build()
    assert g.inputs == (x, x2) and x < conv < x2
    params = init_params(g, 2)
    rng = np.random.default_rng(3)
    xs = [rng.standard_normal((2, 3, 6, 6)) for _ in g.inputs]
    outputs, tape = forward(g, params, xs)
    w = params.tensors[conv]["weight"]
    want = ops.conv_apply(xs[0], w, None, 1, 1, 1) + xs[1]
    assert outputs[0].tobytes() == want.tobytes()
    gy = rng.standard_normal(outputs[0].shape)
    pgrads, input_grads = backward(g, params, tape, [gy], wrt={x, conv, x2})
    assert set(input_grads) == {x, x2} and set(pgrads) == {conv}
    assert input_grads[x2].tobytes() == gy.tobytes()
    assert input_grads[x].tobytes() == ops.conv_apply_adjoint(gy, w, 1, 1, 1, (6, 6)).tobytes()
    _, only_second = backward(g, params, tape, [gy], wrt={x2})
    assert set(only_second) == {x2} and only_second[x2].tobytes() == gy.tobytes()


def test_decoder_training_step_heap_peak_is_bounded():
    """A batch-16 training step of the toy decoder peaks at about 34.8 MB
    of heap, and its forward at 25.8 MB, 25.4 MB of it the tape. The step
    bound fails if forward tapes every value (43.5 MB), if batch norm's
    input gradient takes a full-size temporary per term (36.9 MB), if
    backward keeps every gradient to its end (64.4 MB), if batch norm tapes
    its normalized activations (43.4 MB), or if backward builds a conv's
    columns over the whole batch (51.9 MB). The forward bound fails if
    forward builds a conv's columns over the whole batch (35.2 MB) or
    tapes every value (34.3 MB)."""
    g = build_toy_dense_decoder("DLA-34", 16, 32, num_classes=5)
    params = init_params(g, 9)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 3, 32, 32))
    tracemalloc.start()
    try:
        (probs,), tape = forward(g, params, [x], Mode.TRAIN)
        forward_peak = tracemalloc.get_traced_memory()[1]
        # the per-pixel mean NLL's gradient: -1 / (pixels * p) at each label
        labels = rng.integers(0, 5, (16, 1) + probs.shape[2:])
        picked = np.take_along_axis(probs, labels, axis=1)
        gp = np.zeros_like(probs)
        np.put_along_axis(gp, labels, -1.0 / (picked.size * picked), axis=1)
        backward(g, params, tape, [gp])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forward_peak < 28e6, "forward heap peak %.1f MB" % (forward_peak / 1e6)
    assert peak < 36e6, "heap peak %.1f MB" % (peak / 1e6)


def test_grad_report_json_shape():
    g = simple_net()
    params = init_params(g, 5)
    xval = np.random.default_rng(2).standard_normal((2, 4, 8, 8))
    payload = grad_check(g, params, xval, sample=10, seed=3).to_json_dict()
    assert set(payload) == {"samples", "epsilon", "tolerance", "max_rel_error",
                            "passed", "worst"}
    assert payload["samples"] == 10


def test_conv_adjoint_identity_holds():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(25):
        cin = int(rng.integers(1, 5))
        g = cin if (cin in (2, 4) and rng.random() < 0.5) else 1
        cout = int(rng.integers(1, 4)) * g
        k = int(rng.choice([1, 2, 3, 4]))
        s = int(rng.integers(1, 3))
        p = k // 2
        h = int(rng.integers(max(k, 3), 9))
        x = rng.standard_normal((2, cin, h, h))
        w = rng.standard_normal((cout, cin // g, k, k))
        ax = ops.conv_apply(x, w, None, s, p, g)
        y = rng.standard_normal(ax.shape)
        aty = ops.conv_apply_adjoint(y, w, s, p, g, (h, h))
        lhs, rhs = np.vdot(ax, y), np.vdot(x, aty)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-30))
    assert worst < 1e-10


def test_transposed_conv_weight_gradient_matches_finite_difference():
    b = GraphBuilder()
    x = b.add_input(TensorShape(3, 4, 4))
    y = b.add(ir.upsample(2, UpsampleMode.LEARNED_TRANSPOSED_CONV, 3), [x])
    b.mark_output(y)
    g = b.build()
    params = init_params(g, 4)
    xval = np.random.default_rng(6).standard_normal((2, 3, 4, 4))
    report = grad_check(g, params, xval, tolerance=1e-6, sample=30, seed=11)
    assert report.passed, report.max_rel_error


def test_running_stats_update_only_in_train_mode():
    g = simple_net()
    params = init_params(g, 0)
    bn = next(n.id for n in g.nodes if n.op.kind == OpKind.BATCH_NORM)
    x = 5.0 + np.random.default_rng(0).standard_normal((2, 4, 8, 8))
    forward(g, params, [x], Mode.EVAL)
    assert np.array_equal(params.tensors[bn]["running_mean"], np.zeros(4))
    forward(g, params, [x], Mode.TRAIN)
    assert not np.array_equal(params.tensors[bn]["running_mean"], np.zeros(4))


def test_sgd_step_and_cross_entropy_helpers():
    g = simple_net(classes=4)
    params = init_params(g, 1)
    x = np.random.default_rng(3).standard_normal((4, 4, 8, 8))
    labels = np.array([0, 1, 2, 3])
    outs, tape = forward(g, params, [x], Mode.TRAIN)
    loss, gp = cross_entropy(outs[0], labels)
    assert loss > 0
    grads, _ = backward(g, params, tape, [gp])
    linear = next(n.id for n in g.nodes if n.op.kind == OpKind.LINEAR)
    before = params.tensors[linear]["weight"].copy()
    sgd_step(params, grads, lr=0.1)
    assert not np.array_equal(before, params.tensors[linear]["weight"])
