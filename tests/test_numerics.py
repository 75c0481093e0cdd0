import math
import tracemalloc

import numpy as np
import pytest

from conftest import naive_conv2d

from dlagraph import ir
from dlagraph.aggregation import AggNodeSpec, build_aggregation_node
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


@pytest.mark.parametrize("kernel,stride,padding", KERNEL_GRID, ids=KERNEL_GRID_IDS)
def test_im2col_matches_np_pad_construction_bit_for_bit(kernel, stride, padding):
    h = _grid_extent(kernel, stride, padding)
    x = np.random.default_rng(4).standard_normal((2, 3, h, h + 1))
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh, ow = ir.window_out_hw(h, h + 1, kernel, stride, padding)
    want = np.empty((2, 3, kernel, kernel, oh, ow))
    for i in range(kernel):
        for j in range(kernel):
            want[:, :, i, j] = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    assert np.array_equal(ops._im2col(x, kernel, stride, padding), want)


@pytest.mark.parametrize("kernel,stride,padding", KERNEL_GRID, ids=KERNEL_GRID_IDS)
def test_col2im_matches_per_tap_loop_bit_for_bit(kernel, stride, padding):
    h = _grid_extent(kernel, stride, padding)
    w = h + 1
    oh, ow = ir.window_out_hw(h, w, kernel, stride, padding)
    cols = np.random.default_rng(5).standard_normal((2, 3, kernel, kernel, oh, ow))
    xp = np.zeros((2, 3, h + 2 * padding, w + 2 * padding))
    for i in range(kernel):
        for j in range(kernel):
            xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += cols[:, :, i, j]
    got = np.zeros_like(xp)
    ops._col2im(cols, got, stride)
    assert np.array_equal(got, xp)


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
    batch, cropped, kept as the reference for its per-slice grids."""
    n, _, oh, ow = z.shape
    oc, icg, kernel, _ = w.shape
    h, wd = in_hw
    wt = w.reshape(groups, oc // groups, -1).transpose(0, 2, 1)[None]
    cols = np.matmul(wt, z.reshape(n, groups, oc // groups, oh * ow))
    xp = np.zeros((n, groups * icg, h + 2 * padding, wd + 2 * padding))
    ops._col2im(cols.reshape(n, groups * icg, kernel, kernel, oh, ow), xp, stride)
    return xp[:, :, padding:-padding, padding:-padding]


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
    per_sample = z.itemsize * 3 * kernel * kernel * oh * ow  # column bytes of one sample
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


def test_probe_pass_columns_fit_the_block_budget(monkeypatch):
    """grad_check on the toy decoder at its benchmark point: every column
    block a probe pass builds, im2col or col2im, fits the budget or holds
    one sample, and the call peaks at about 7.7 MiB of heap. The bound
    fails if an upsampling adds all its lanes' taps into one padded grid
    (9.7 MiB) or if the budget is 2 MiB (9.2 MiB)."""
    im2col, col2im, blocks = ops._im2col, ops._col2im, []

    def recorded_im2col(x, *args):
        cols = im2col(x, *args)
        blocks.append((len(cols), cols.nbytes))
        return cols

    def recorded_col2im(cols, *args):
        blocks.append((len(cols), cols.nbytes))
        col2im(cols, *args)

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
    for samples, nbytes in blocks:  # one sample alone may exceed the budget
        assert samples == 1 or nbytes <= ops._COL_BLOCK_BYTES, (samples, nbytes)
    assert peak < 9 * 2**20, "heap peak %.2f MiB" % (peak / 2**20)


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
    xhat = (x - mean) * ivar
    y = scale[None, :, None, None] * xhat + shift[None, :, None, None]
    got_y, got_aux = ops.batchnorm_train(x, scale, shift, 1e-5)
    for got, want in zip((got_y,) + got_aux, (y, xhat, ivar, mean, var), strict=True):
        assert np.array_equal(got, want)


def _batchnorm_input_grad_reference(gy, x, aux, scale):
    """The input gradient in its textbook form, kept as the reference:
    -dxhat * ivar and -2 * xmu are summed as such, and dxhat * ivar is
    formed twice."""
    _, ivar, mean, _ = aux
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
        _, aux = ops.batchnorm_train(x, scale, shift, 1e-5)
        want = _batchnorm_input_grad_reference(gy, x, aux, scale)
        got = ops.batchnorm_train_grads(gy, x - aux[2], aux[1], scale)
        assert got.tobytes() == want.tobytes(), (n, hw)


@pytest.mark.parametrize("shape", [(2, 16, 1, 1), (2, 16, 4, 4), (3, 8, 5, 6),
                                   (16, 16, 16, 16)])
def test_batchnorm_lanes_match_separate_batches_bit_for_bit(shape):
    rng = np.random.default_rng(5)
    scale, shift = rng.standard_normal(shape[1]), rng.standard_normal(shape[1])
    n = shape[0]
    for count in (2, 12):  # a probe pass stacks up to 12 lanes
        lanes = [3.0 + 25.0 * rng.standard_normal(shape) for _ in range(count)]
        y, (xhat, ivar, mean, var) = ops.batchnorm_train(np.concatenate(lanes), scale,
                                                         shift, 1e-5, lanes=count)
        for k, x in enumerate(lanes):
            want_y, (want_xhat, *want_stats) = ops.batchnorm_train(x, scale, shift, 1e-5)
            assert y[k * n:(k + 1) * n].tobytes() == want_y.tobytes(), (count, k)
            assert xhat[k * n:(k + 1) * n].tobytes() == want_xhat.tobytes(), (count, k)
            for got, want in zip((ivar, mean, var), want_stats, strict=True):
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
    params = init_params(g, 7)
    before = params.copy()
    xval = np.random.default_rng(3).standard_normal((2, 3, hw, hw))
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

    values, _ = executor._probe_group(g, params, tape, picks(trunk, 0, 7), 1e-5)
    assert set(values) == set(g.outputs)
    assert all(v.shape[0] == 2 * 2 * 2 for v in values.values())
    values, _ = executor._probe_group(g, params, tape, picks(dense, 3), 1e-5)
    assert set(values) == {g.outputs[0]}


def test_probe_pass_runs_each_conv_node_once_over_its_upstream_lanes(monkeypatch):
    """In a probe pass, a conv node runs once over the lanes of every pick
    rooted upstream whose cone holds it, and twice per pick rooted at it:
    no path splits a node's lanes over several calls."""
    g = build_toy_classifier("DLA-34", 16, 16, num_classes=10)
    params = init_params(g, 7)
    x = np.random.default_rng(3).standard_normal((2, 3, 16, 16))
    owner = {id(params.tensors[n.id]["weight"]): n.id for n in g.nodes
             if n.op.kind is OpKind.CONV}
    below = {n.id: set() for n in g.nodes}  # each node's cone, itself left out
    for node in reversed(g.nodes):  # ids ascend along every edge
        for i in node.inputs:
            below[i] |= {node.id} | below[node.id]
    conv_apply, probe_group = ops.conv_apply, executor._probe_group
    calls, passes = [], []

    def counted(x, w, *args):
        calls.append(owner[id(w)])
        return conv_apply(x, w, *args)

    def recorded(graph, params, tape, group, epsilon):
        calls.clear()  # made before this pass: by the first forward or the last pass
        result = probe_group(graph, params, tape, group, epsilon)
        passes.append(([nid for nid, *_ in group], list(calls)))
        return result

    monkeypatch.setattr(ops, "conv_apply", counted)
    monkeypatch.setattr(executor, "_probe_group", recorded)
    grad_check(g, params, x, sample=24, seed=1)
    assert len(passes) == 4
    kinds = set()
    for roots, pass_calls in passes:
        for nid in owner.values():
            upstream = any(nid in below[root] for root in roots)
            want = upstream + 2 * roots.count(nid)
            assert pass_calls.count(nid) == want, (roots, nid)
            kinds.add((upstream, nid in roots))
    assert kinds == {(False, False), (True, False), (False, True), (True, True)}


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
