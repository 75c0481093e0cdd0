import numpy as np
import pytest

from conftest import naive_conv2d

from dlagraph import ir
from dlagraph.aggregation import AggNodeSpec, build_aggregation_node
from dlagraph.architectures import build_toy_classifier, build_toy_dense_decoder
from dlagraph.ir import GraphBuilder, OpKind, TensorShape, UpsampleMode
from dlagraph.numerics import (Mode, ParamStore, ShapeMismatch, StaleTape, backward,
                               cross_entropy, forward, grad_check, init_params,
                               sgd_step)
from dlagraph.numerics import ops


def simple_net(channels=4, hw=8, classes=3):
    b = GraphBuilder()
    x = b.add_input(TensorShape(1, channels, hw, hw))
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


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, 3])
def test_im2col_matches_np_pad_construction_bit_for_bit(padding, stride):
    x = np.random.default_rng(4).standard_normal((2, 3, 7, 6))
    k = 3
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh, ow = ops.conv_out_hw(7, 6, k, stride, padding)
    want = np.empty((2, 3, k, k, oh, ow))
    for i in range(k):
        for j in range(k):
            want[:, :, i, j] = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    assert np.array_equal(ops._im2col(x, k, stride, padding), want)


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


def test_relu_gradient_is_zero_at_negative_preactivations():
    b = GraphBuilder()
    x = b.add_input(TensorShape(1, 2, 2, 2))
    y = b.add(ir.relu(), [x])
    b.mark_output(y)
    g = b.build()
    xval = np.array([[[[1.0, -1.0], [2.0, -2.0]], [[-3.0, 3.0], [-4.0, 4.0]]]])
    outs, tape = forward(g, ParamStore(), [xval], Mode.TRAIN)
    _, input_grads = backward(g, ParamStore(), tape, [np.ones_like(outs[0])])
    np.testing.assert_array_equal(input_grads[0], (xval > 0).astype(float))


def test_concat_routes_gradient_slices():
    b = GraphBuilder()
    x1 = b.add_input(TensorShape(1, 2, 2, 2))
    x2 = b.add_input(TensorShape(1, 3, 2, 2))
    cat = b.add(ir.concat(), [x1, x2])
    b.mark_output(cat)
    g = b.build()
    a = np.ones((1, 2, 2, 2))
    c = np.ones((1, 3, 2, 2))
    outs, tape = forward(g, ParamStore(), [a, c], Mode.TRAIN)
    gy = np.random.default_rng(0).standard_normal(outs[0].shape)
    _, input_grads = backward(g, ParamStore(), tape, [gy])
    np.testing.assert_array_equal(input_grads[0], gy[:, :2])
    np.testing.assert_array_equal(input_grads[1], gy[:, 2:])


def test_zeroed_residual_node_is_identity_in_eval_mode():
    b = GraphBuilder()
    x1 = b.add_input(TensorShape(1, 4, 4, 4))
    x2 = b.add_input(TensorShape(1, 4, 4, 4))
    out = build_aggregation_node(b, [x1, x2], AggNodeSpec((4, 4), 4, residual=True))
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
    x = b.add_input(TensorShape(1, 4, 8, 8))
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


@pytest.mark.parametrize("kwargs", [{"epsilon": 0.0}, {"epsilon": -1e-5},
                                    {"epsilon": float("nan")}, {"epsilon": float("inf")},
                                    {"tolerance": float("nan")}])
def test_grad_check_rejects_bad_epsilon_or_tolerance(kwargs):
    g = simple_net()
    xval = np.random.default_rng(2).standard_normal((2, 4, 8, 8))
    with pytest.raises(ValueError):
        grad_check(g, init_params(g, 5), xval, sample=5, **kwargs)


def two_output_net():
    """A shared trunk feeding two heads: each head's parameters reach only
    its own output."""
    b = GraphBuilder()
    x = b.add_input(TensorShape(1, 3, 6, 6))
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


@pytest.mark.parametrize("build, hw, sample", [
    (lambda: build_toy_classifier("DLA-34", 16, 16, num_classes=10), 16, 24),
    (lambda: build_toy_dense_decoder("DLA-34", 16, 32, num_classes=5), 32, 12),
    (two_output_net, 6, 200),
], ids=["DLA-34", "decoder", "two-output"])
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
    x = b.add_input(TensorShape(1, 3, 4, 4))
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
