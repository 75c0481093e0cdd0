import numpy as np
import pytest

from dlagraph import ir
from dlagraph.aggregation import (AggNodeSpec, DepthOutOfRange, EmptyInput, HdaSpec,
                                  ResidualChannelMismatch, build_aggregation_node,
                                  build_hda, build_ida,
                                  build_unmerged_hda, structure_of_hda)
from dlagraph.analysis import count_params, structure_stats
from dlagraph.blocks import BlockKind, BlockSpec
from dlagraph.graphdoc import serialize
from dlagraph.ir import GraphBuilder, OpKind, ShapeConflict, TensorShape
from dlagraph.numerics import Mode, backward, forward, init_params


def fresh(channels=64, hw=8, count=1):
    b = GraphBuilder()
    ids = [b.add_input(TensorShape(channels, hw, hw)) for _ in range(count)]
    return b, ids


def test_node_parameter_count_two_inputs():
    b, (x1, x2) = fresh(64, count=2)
    out = build_aggregation_node(b, [x1, x2], AggNodeSpec(64, kernel=1))
    b.mark_output(out)
    # 1x1 conv over the 128-channel concat plus one batch norm over 64
    assert count_params(b.build()) == 1 * 1 * 128 * 64 + 2 * 64


def test_residual_node_adds_the_last_input():
    b, (x1, x2, x3) = fresh(256, count=3)
    out = build_aggregation_node(b, [x1, x2, x3],
                                 AggNodeSpec(256, residual=True))
    g = b.build()
    adds = [n for n in g.nodes if n.op.kind == OpKind.ADD]
    assert len(adds) == 1
    assert adds[0].inputs[1] == x3


def test_residual_channel_mismatch():
    b, (x1, x2) = fresh(128, count=2)
    with pytest.raises(ResidualChannelMismatch):
        build_aggregation_node(b, [x1, x2], AggNodeSpec(256, residual=True))


def test_spatial_mismatch():
    b = GraphBuilder()
    x1 = b.add_input(TensorShape(64, 8, 8))
    x2 = b.add_input(TensorShape(64, 4, 4))
    before = len(b)
    with pytest.raises(ShapeConflict):
        build_aggregation_node(b, [x1, x2], AggNodeSpec(64))
    assert len(b) == before


BINARY_SPEC = AggNodeSpec(64, kernel=1)


def test_ida_single_feature_is_identity():
    b, (x1,) = fresh()
    before = len(b)
    assert build_ida(b, [x1], BINARY_SPEC) == x1
    assert len(b) == before


def test_ida_three_features_folds_left():
    b, (x1, x2, x3) = fresh(count=3)
    out = build_ida(b, [x1, x2, x3], BINARY_SPEC)
    b.mark_output(out)
    g = b.build()
    concats = [n for n in g.nodes if n.op.kind == OpKind.CONCAT]
    assert len(concats) == 2
    first_relu = max(n.id for n in g.nodes
                     if n.tags.agg_node_id == concats[0].tags.agg_node_id)
    assert concats[1].inputs == (first_relu, x3)


def test_ida_empty_input():
    b, _ = fresh()
    with pytest.raises(EmptyInput):
        build_ida(b, [], BINARY_SPEC)


def hda_graph(depth, channels=8, residual=False, extra=0, hw=8):
    b = GraphBuilder()
    x = b.add_input(TensorShape(channels, hw, hw))
    extras = [b.add(ir.relu(), [x]) for _ in range(extra)]
    root = build_hda(b, x, HdaSpec(
        depth=depth,
        block=BlockSpec(BlockKind.BASIC, channels),
        extra_root_inputs=tuple(extras),
        residual_nodes=residual,
    ))
    b.mark_output(root)
    return b.build()


def oracle_block_count(depth):
    # two fresh blocks per tree plus every sub-tree's blocks
    return 2 + sum(oracle_block_count(m) for m in range(1, depth))


def oracle_node_count(depth):
    return 1 + sum(oracle_node_count(m) for m in range(1, depth))


def test_hda_depth1_counts():
    stats = structure_stats(hda_graph(1))
    assert (stats.blocks, stats.agg_nodes, stats.max_root_fanin) == (2, 1, 2)


def test_hda_depth3_counts():
    stats = structure_stats(hda_graph(3))
    assert (stats.blocks, stats.agg_nodes, stats.max_root_fanin) == (8, 4, 4)


def test_hda_extra_root_input_raises_fanin():
    stats = structure_stats(hda_graph(2, extra=1))
    assert stats.max_root_fanin == 4


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_built_tree_matches_closed_form_and_recursion(depth):
    stats = structure_stats(hda_graph(depth))
    closed = structure_of_hda(depth)
    assert stats.blocks == closed.blocks == oracle_block_count(depth)
    assert stats.agg_nodes == closed.agg_nodes == oracle_node_count(depth)
    assert stats.max_root_fanin == closed.root_fanin
    assert stats.max_block_to_output_hops == closed.max_path_blocks
    assert closed.root_fanin == int(np.log2(closed.blocks)) + 1


def test_structure_of_hda_rejects_bad_depths():
    with pytest.raises(DepthOutOfRange):
        structure_of_hda(0)
    with pytest.raises(DepthOutOfRange):
        structure_of_hda(7)


def test_build_hda_rejects_bad_depth():
    b, (x,) = fresh(8)
    with pytest.raises(DepthOutOfRange):
        build_hda(b, x, HdaSpec(0, BlockSpec(BlockKind.BASIC, 8)))


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_unmerged_tree_has_one_node_per_pair(depth):
    b = GraphBuilder()
    x = b.add_input(TensorShape(8, 8, 8))
    root = build_unmerged_hda(b, x, HdaSpec(depth, BlockSpec(BlockKind.BASIC, 8)))
    b.mark_output(root)
    stats = structure_stats(b.build())
    assert stats.blocks == 2 ** depth
    assert stats.agg_nodes == 2 ** depth - 1


def test_merged_and_unmerged_trees_share_block_structure():
    merged = hda_graph(3)
    b = GraphBuilder()
    x = b.add_input(TensorShape(8, 8, 8))
    root = build_unmerged_hda(b, x, HdaSpec(3, BlockSpec(BlockKind.BASIC, 8)))
    b.mark_output(root)
    unmerged = b.build()

    def block_channel_plan(graph):
        plans = {}
        for n in graph.nodes:
            if n.tags.block_id is not None and n.op.kind == OpKind.CONV:
                plans.setdefault(n.tags.block_id, []).append(
                    (n.op.attrs["in_channels"], n.op.attrs["out_channels"]))
        return sorted(tuple(v) for v in plans.values())

    assert block_channel_plan(merged) == block_channel_plan(unmerged)


def test_root_argument_order_is_structural():
    b1, (x1, y1) = fresh(16, count=2)
    out = build_aggregation_node(b1, [x1, y1], AggNodeSpec(16))
    b1.mark_output(out)
    b2, (x2, y2) = fresh(16, count=2)
    out = build_aggregation_node(b2, [y2, x2], AggNodeSpec(16))
    b2.mark_output(out)
    assert serialize(b1.build()) != serialize(b2.build())


def test_residual_node_jacobian_is_identity_at_zero_weights():
    # concat -> conv(W=0) -> bn -> add(x_n): the pre-activation's gradient
    # with respect to x_n must be exactly the incoming gradient.
    b = GraphBuilder()
    x1 = b.add_input(TensorShape(4, 4, 4))
    x2 = b.add_input(TensorShape(4, 4, 4))
    cat = b.add(ir.concat(), [x1, x2])
    conv = b.add(ir.conv(1, 1, 0, 8, 4), [cat])
    bn = b.add(ir.batch_norm(4), [conv])
    pre = b.add(ir.add(), [bn, x2])
    b.mark_output(pre)
    g = b.build()
    params = init_params(g, 0)
    params.tensors[conv]["weight"][:] = 0.0
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 4, 4, 4))
    c = rng.standard_normal((2, 4, 4, 4))
    outs, tape = forward(g, params, [a, c], Mode.TRAIN)
    seed_grad = rng.standard_normal(outs[0].shape)
    _, input_grads = backward(g, params, tape, [seed_grad], wrt=[x1, x2])
    np.testing.assert_array_equal(input_grads[x2], seed_grad)
    np.testing.assert_array_equal(input_grads[x1], np.zeros_like(a))


def test_aggregation_node_rejects_fewer_than_two_inputs():
    b = GraphBuilder()
    x = b.add_input(TensorShape(8, 8, 8))
    with pytest.raises(ir.ArityMismatch, match="at least 2 inputs, got 1"):
        build_aggregation_node(b, [x], AggNodeSpec(8))
    assert len(b) == 1
