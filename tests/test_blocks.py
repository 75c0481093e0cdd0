import pytest

from dlagraph.analysis import count_params, infer_shapes
from dlagraph.blocks import (BlockKind, BlockSpec, IndivisibleGroups, IndivisibleWidth,
                             build_block)
from dlagraph.ir import GraphBuilder, OpKind, TensorShape


def build_lone_block(spec, in_channels):
    b = GraphBuilder()
    x = b.add_input(TensorShape(in_channels, 16, 16))
    out = build_block(b, x, spec)
    b.mark_output(out)
    return b.build(), out


def block_param_count(graph):
    # the Input/Output wrappers carry no parameters, so the total is the block's
    return count_params(graph)


def test_basic_block_identity_skip_parameter_count():
    g, _ = build_lone_block(BlockSpec(BlockKind.BASIC, 64), 64)
    # two 3x3 convs and two batch norms: 2*(3*3*64*64) + 2*(2*64)
    assert block_param_count(g) == 73_984
    assert sum(1 for n in g.nodes if n.op.kind == OpKind.CONV) == 2


def test_basic_block_channel_change_forces_projection():
    g, _ = build_lone_block(BlockSpec(BlockKind.BASIC, 32), 16)
    assert sum(1 for n in g.nodes if n.op.kind == OpKind.CONV) == 3


def test_bottleneck_mid_width_is_half_by_default():
    spec = BlockSpec(BlockKind.BOTTLENECK, 128)
    assert spec.mid_channels == 64
    g, _ = build_lone_block(spec, 128)
    mids = [n.op.attrs["out_channels"] for n in g.nodes
            if n.op.kind == OpKind.CONV and n.op.attrs["kernel"] == 3]
    assert mids == [64]


def test_bottleneck_indivisible_width():
    b = GraphBuilder()
    x = b.add_input(TensorShape(64, 8, 8))
    with pytest.raises(IndivisibleWidth):
        build_block(b, x, BlockSpec(BlockKind.BOTTLENECK, 130, mid_ratio=4))


def test_split_block_grouped_conv_parameters():
    spec = BlockSpec(BlockKind.SPLIT, 128, cardinality=32, mid_ratio=2)
    g, _ = build_lone_block(spec, 128)
    grouped = [n for n in g.nodes
               if n.op.kind == OpKind.CONV and n.op.attrs["groups"] == 32]
    assert len(grouped) == 1
    a = grouped[0].op.attrs
    assert a["kernel"] ** 2 * (a["in_channels"] // a["groups"]) * a["out_channels"] == 1_152


def test_split_block_indivisible_groups():
    b = GraphBuilder()
    x = b.add_input(TensorShape(96, 8, 8))
    with pytest.raises(IndivisibleGroups):
        build_block(b, x, BlockSpec(BlockKind.SPLIT, 96, cardinality=32))


def test_split_with_cardinality_one_matches_bottleneck_parameters():
    split, _ = build_lone_block(BlockSpec(BlockKind.SPLIT, 128, cardinality=1), 64)
    bottleneck, _ = build_lone_block(BlockSpec(BlockKind.BOTTLENECK, 128), 64)
    assert block_param_count(split) == block_param_count(bottleneck)


def test_split_cheaper_than_bottleneck_at_same_mid_ratio():
    split, _ = build_lone_block(BlockSpec(BlockKind.SPLIT, 128, cardinality=32, mid_ratio=2),
                                64)
    bottleneck, _ = build_lone_block(BlockSpec(BlockKind.BOTTLENECK, 128, mid_ratio=2), 64)
    assert block_param_count(split) < block_param_count(bottleneck)


@pytest.mark.parametrize("in_channels,spec", [
    (16, BlockSpec(BlockKind.BASIC, 32)),
    (16, BlockSpec(BlockKind.BOTTLENECK, 32)),
    (32, BlockSpec(BlockKind.SPLIT, 32, cardinality=8, mid_ratio=2)),
], ids=["spec0", "spec1", "spec2"])
def test_every_block_has_one_residual_add_with_matching_shapes(in_channels, spec):
    g, out = build_lone_block(spec, in_channels)
    shapes = infer_shapes(g, TensorShape(in_channels, 16, 16))
    adds = [n for n in g.nodes if n.op.kind == OpKind.ADD]
    assert len(adds) == 1
    a, b = adds[0].inputs
    assert shapes[a] == shapes[b]
    assert shapes[out] == TensorShape(spec.out_channels, 16, 16)


def test_block_nodes_share_one_block_tag():
    g, _ = build_lone_block(BlockSpec(BlockKind.BASIC, 16), 16)
    tagged = {n.tags.block_id for n in g.nodes if n.tags.block_id is not None}
    assert len(tagged) == 1
    untagged_kinds = {n.op.kind for n in g.nodes if n.tags.block_id is None}
    assert untagged_kinds == {OpKind.INPUT, OpKind.OUTPUT}
