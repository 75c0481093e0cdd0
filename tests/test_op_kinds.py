import re

import numpy as np
import pytest

from conftest import kept_bits

from dlagraph import ir
from dlagraph.graphdoc import to_dot
from dlagraph.ir import GraphBuilder, OpKind, TensorShape, UpsampleMode
from dlagraph.numerics import executor


def test_every_op_kind_has_a_static_entry():
    assert set(ir.OPS) == set(OpKind)


def test_every_op_kind_but_input_has_forward_and_backward_kernels():
    assert set(executor.KERNELS) == set(OpKind) - {OpKind.INPUT}
    for kernels in executor.KERNELS.values():
        assert callable(kernels.forward) and callable(kernels.backward)


def every_kind_graph(upsample_mode=UpsampleMode.FIXED_BILINEAR):
    b = GraphBuilder()
    x = b.add_input(TensorShape(4, 8, 8))
    y = b.add(ir.conv(3, 1, 1, 4, 4, groups=2), [x])
    y = b.add(ir.batch_norm(4), [y])
    y = b.add(ir.relu(), [y])
    y = b.add(ir.max_pool(2, 2), [y])
    y = b.add(ir.upsample(2, upsample_mode, 4), [y])
    y = b.add(ir.add(), [y, x])
    y = b.add(ir.concat(), [y, x])
    y = b.add(ir.softmax(), [y])
    y = b.add(ir.global_avg_pool(), [y])
    y = b.add(ir.linear(8, 3), [y])
    b.mark_output(y)
    return b.build()


DOT_LABELS = {
    OpKind.INPUT: "Input 4x8x8",
    OpKind.CONV: "Conv 3x3 s1 g2 4>4",
    OpKind.BATCH_NORM: "BN 4",
    OpKind.RELU: "ReLU",
    OpKind.MAX_POOL: "MaxPool 2x2 s2",
    OpKind.UPSAMPLE: "Upsample x2",
    OpKind.ADD: "Add",
    OpKind.CONCAT: "Concat",
    OpKind.SOFTMAX: "Softmax",
    OpKind.GLOBAL_AVG_POOL: "GlobalAvgPool",
    OpKind.LINEAR: "Linear 8>3",
    OpKind.OUTPUT: "Output",
}


def test_dot_label_of_each_op_kind():
    assert set(DOT_LABELS) == set(OpKind)
    graph = every_kind_graph()
    labels = dict(re.findall(r'^  n(\d+) \[label="([^"]*)"', to_dot(graph), re.M))
    got = {node.op.kind: labels[str(node.id)] for node in graph.nodes}
    assert got == DOT_LABELS
    assert ir.conv(7, 2, 3, 3, 16).label() == "Conv 7x7 s2 3>16"  # groups=1 is not shown


def _bits(result):
    gxs, named = result
    return ([None if g is None else (g.shape, g.tobytes()) for g in gxs],
            None if named is None else {name: g.tobytes() for name, g in named.items()})


@pytest.mark.parametrize("upsample_mode", list(UpsampleMode), ids=lambda m: m.value)
def test_each_backward_reads_only_the_values_its_kind_declares(upsample_mode):
    """Every backward runs with each value its ``reads`` leaves out replaced
    by None, as the tape drops it, and gives the same bits as with every
    value: a kind whose declaration misses a read fails here."""
    graph = every_kind_graph(upsample_mode)
    params = executor.init_params(graph, 1)
    rng = np.random.default_rng(2)
    values = {graph.inputs[0]: rng.standard_normal((2, 4, 8, 8))}
    for node in graph.nodes[1:]:
        kernels = executor.KERNELS[node.op.kind]
        p, xs = params.tensors.get(node.id), [values[i] for i in node.inputs]
        y, kept = kernels.forward(node.op.attrs, p, xs, executor.Mode.TRAIN, False, 1)
        values[node.id] = y
        gy = rng.standard_normal(y.shape)
        full = kernels.backward(node.op.attrs, p, gy, xs, y, kept, True, True)
        declared = kernels.backward(
            node.op.attrs, p, gy, xs if kernels.reads == executor.INPUTS else [None] * len(xs),
            y if kernels.reads == executor.OUTPUT else None, kept, True, True)
        assert _bits(declared) == _bits(full), node.op.kind


@pytest.mark.parametrize("upsample_mode", list(UpsampleMode), ids=lambda m: m.value)
def test_each_kinds_lane_cut_kept_is_its_plain_kept(upsample_mode):
    """Every forward runs over three lanes stacked on the batch axis, the
    plain batch first, and the walk's lane cut of that run's kept equals
    the kept of a plain run, bit for bit, as does the first lane of the
    value. Every kept is None or a tuple: a kind that keeps a bare array or
    a list, or something per sample or per lane off axis 0, fails here."""
    graph = every_kind_graph(upsample_mode)
    params = executor.init_params(graph, 1)
    rng = np.random.default_rng(3)
    values = {graph.inputs[0]: rng.standard_normal((2, 4, 8, 8))}
    kinds = set()
    for node in graph.nodes[1:]:
        kernels = executor.KERNELS[node.op.kind]
        p, xs = params.tensors.get(node.id), [values[i] for i in node.inputs]
        y, kept = kernels.forward(node.op.attrs, p, xs, executor.Mode.TRAIN, False, 1)
        stacked = [np.concatenate([x, rng.standard_normal(x.shape), rng.standard_normal(x.shape)])
                   for x in xs]
        y3, kept3 = kernels.forward(node.op.attrs, p, stacked, executor.Mode.TRAIN, False, 3)
        assert kept is None or type(kept) is tuple, node.op.kind
        assert kept3 is None or type(kept3) is tuple, node.op.kind
        cut = None if kept3 is None else executor._first_lane(kept3, 3)
        assert kept_bits(cut) == kept_bits(kept), node.op.kind
        assert y3[:len(y)].tobytes() == y.tobytes(), node.op.kind
        values[node.id] = y
        kinds.add(node.op.kind)
    assert kinds == set(executor.KERNELS)
