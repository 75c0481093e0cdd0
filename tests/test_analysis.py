import pytest

from dlagraph import analysis, ir
from dlagraph.analysis import (StructureStats, cost_report, count_fmas, count_params,
                               infer_shapes, node_params, structure_stats)
from dlagraph.architectures import (DenseHeadSpec, arch_spec, build_classifier,
                                    build_dense_decoder, catalog_names)
from dlagraph.blocks import BlockKind, BlockSpec
from dlagraph.aggregation import HdaSpec, build_hda, build_unmerged_hda
from dlagraph.graphdoc import parse, serialize
from dlagraph.ir import GraphBuilder, ShapeConflict, TensorShape

from conftest import graph_to_document

SHAPE224 = TensorShape(3, 224, 224)


def lone_op(op, in_shape):
    b = GraphBuilder()
    x = b.add_input(in_shape)
    y = b.add(op, [x])
    b.mark_output(y)
    return b.build()


def test_infer_shapes_covers_every_node():
    g = build_classifier(arch_spec("DLA-34"), 1000, SHAPE224)
    shapes = infer_shapes(g, SHAPE224)
    assert set(shapes) == {n.id for n in g.nodes}
    s6 = max(n.id for n in g.nodes if n.tags.stage == 6)
    assert shapes[s6] == TensorShape(512, 7, 7)


def test_infer_shapes_conv_padding_rule():
    g = lone_op(ir.conv(3, 1, 1, 8, 8), TensorShape(8, 16, 16))
    shapes = infer_shapes(g, TensorShape(8, 16, 16))
    assert shapes[1].spatial == (16, 16)


def test_infer_shapes_add_conflict():
    b = GraphBuilder()
    x = b.add_input(TensorShape(64, 8, 8))
    narrow = b.add(ir.conv(1, 1, 0, 64, 32), [x])
    with pytest.raises(ShapeConflict):
        b.add(ir.add(), [x, narrow])


def test_count_params_primitives():
    assert count_params(lone_op(ir.conv(3, 1, 1, 8, 16), TensorShape(8, 4, 4))) == 1_152
    assert count_params(lone_op(ir.batch_norm(16), TensorShape(16, 4, 4))) == 32
    assert count_params(lone_op(ir.linear(16, 10), TensorShape(16, 1, 1))) == 170


def test_count_params_additivity_over_serialized_records():
    g = build_classifier(arch_spec("DLA-46-C"), 1000, SHAPE224)
    total = count_params(g)
    assert total == sum(node_params(node) for node in g.nodes)
    assert len(graph_to_document(g)["nodes"]) == len(g)


def test_count_fmas_hand_value():
    g = lone_op(ir.conv(3, 1, 1, 8, 8), TensorShape(8, 16, 16))
    # 16 * 16 * 8 * 8 * 3 * 3
    assert count_fmas(g, TensorShape(8, 16, 16)) == 147_456


def test_count_fmas_scale_quadratically_for_all_conv_graphs():
    def conv_stack(shape):
        b = GraphBuilder()
        x = b.add_input(shape)
        y = b.add(ir.conv(3, 1, 1, shape.channels, 8), [x])
        y = b.add(ir.conv(3, 2, 1, 8, 16), [y])
        y = b.add(ir.conv(1, 1, 0, 16, 16), [y])
        b.mark_output(y)
        return b.build()

    small = TensorShape(4, 16, 16)
    large = TensorShape(4, 32, 32)
    assert count_fmas(conv_stack(large), large) == 4 * count_fmas(conv_stack(small), small)


def test_cost_report_stage_breakdown_sums_to_totals():
    g = build_classifier(arch_spec("DLA-46-C"), 1000, SHAPE224)
    report = cost_report(g, SHAPE224)
    assert report.params == count_params(g)
    assert report.fmas == count_fmas(g, SHAPE224)
    assert report.params == sum(v.params for v in report.per_stage.values())
    assert report.fmas == sum(v.fmas for v in report.per_stage.values())
    assert set(report.per_stage) == {"1", "2", "3", "4", "5", "6", "head"}


def _shapes_node_by_node(graph):
    """Each node's shape from its own rule, in id order."""
    shapes = []
    for node in graph.nodes:
        shapes.append(ir.infer_node_shape(node.op, [shapes[i] for i in node.inputs]))
    return shapes


@pytest.mark.parametrize("name", catalog_names() + ("DLA-34-dense",))
def test_graph_shapes_are_what_infer_shapes_and_the_rules_give(name):
    """Shape witness on the catalog documents, built and parsed."""
    if name == "DLA-34-dense":
        declared = TensorShape(3, 864, 864)
        g = build_dense_decoder(arch_spec("DLA-34"), DenseHeadSpec(num_classes=19), declared)
    else:
        declared = SHAPE224
        g = build_classifier(arch_spec(name), 1000, declared)
    parsed, _ = parse(serialize(g))
    for graph in (g, parsed):
        assert infer_shapes(graph, declared) == dict(enumerate(graph.shapes))
        assert list(graph.shapes) == _shapes_node_by_node(graph)
    assert parsed.shapes == g.shapes


def test_cost_report_reads_each_nodes_parameter_shapes_once(monkeypatch):
    g = build_classifier(arch_spec("DLA-46-C"), 1000, SHAPE224)
    seen = []

    def counted(op):
        seen.append(op)
        return ir.param_shapes(op)

    monkeypatch.setattr(analysis, "param_shapes", counted)
    report = cost_report(g, SHAPE224)
    # built and parsed graphs alike share one op per distinct attrs set, read once
    built = {id(node.op) for node in g.nodes}
    assert len(built) < len(g.nodes) / 3
    assert sorted(map(id, seen)) == sorted(built)
    parsed, _ = parse(serialize(g))
    distinct = {id(node.op) for node in parsed.nodes}
    assert len(distinct) == len(built)
    seen.clear()
    assert cost_report(parsed, SHAPE224) == report
    assert sorted(map(id, seen)) == sorted(distinct)


def test_structure_stats_standalone_tree_matches_prediction():
    b = GraphBuilder()
    x = b.add_input(TensorShape(8, 8, 8))
    root = build_hda(b, x, HdaSpec(3, BlockSpec(BlockKind.BASIC, 8)))
    b.mark_output(root)
    stats = structure_stats(b.build())
    assert stats.blocks == 8
    assert stats.agg_nodes == 4


def test_structure_stats_classifier_per_stage_depths():
    g = build_classifier(arch_spec("DLA-34"), 1000, SHAPE224)
    stats = structure_stats(g)
    assert [stats.per_stage_depth[s] for s in (3, 4, 5, 6)] == [1, 2, 2, 1]


def test_structure_stats_of_an_untagged_graph_are_zero():
    g = lone_op(ir.relu(), TensorShape(4, 4, 4))
    assert structure_stats(g) == StructureStats(0, 0, 0, {}, 0)


def test_structure_stats_of_the_empty_graph_are_zero():
    assert structure_stats(ir.Graph((), (), ())) == StructureStats(0, 0, 0, {}, 0)


def test_infer_shapes_rejects_a_graph_of_two_inputs():
    b = GraphBuilder()
    b.mark_output(b.add(ir.add(), [b.add_input(TensorShape(4, 4, 4)),
                                   b.add_input(TensorShape(4, 4, 4))]))
    with pytest.raises(ShapeConflict, match="expected exactly one graph input, found 2"):
        infer_shapes(b.build(), TensorShape(4, 4, 4))



def test_structural_violations_flag_the_root_fanin_of_an_unmerged_tree():
    # 2^d - 1 binary nodes over 2^d blocks: too many nodes, a root of fan-in 2
    b = GraphBuilder()
    x = b.add_input(TensorShape(8, 8, 8))
    with b.stage(3):
        root = build_unmerged_hda(b, x, HdaSpec(2, BlockSpec(BlockKind.BASIC, 8)))
    b.mark_output(root)
    assert analysis.structural_violations(b.build()) == [
        "StructureViolation: stage 3 has 3 aggregation nodes for 4 blocks, expected 2",
        "StructureViolation: stage 3 root fan-in 2 outside [3, 4]"]

def test_upsample_accounting():
    op = ir.upsample(2, ir.UpsampleMode.LEARNED_TRANSPOSED_CONV, 32)
    g = lone_op(op, TensorShape(32, 8, 8))
    # per-channel 4x4 kernels, counted at the 16x16 output
    assert count_params(g) == 32 * 16
    assert count_fmas(g, TensorShape(32, 8, 8)) == 16 * 16 * 32 * 16
    fixed = lone_op(ir.upsample(2, ir.UpsampleMode.FIXED_BILINEAR, 32),
                    TensorShape(32, 8, 8))
    assert count_params(fixed) == 0
    assert count_fmas(fixed, TensorShape(32, 8, 8)) == 0
