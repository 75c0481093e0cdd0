import pytest

from dlagraph import ir
from dlagraph.ir import (ArityMismatch, Graph, GraphBuilder, GraphNode,
                         PrimOp, OpKind, ShapeConflict, Tags, TensorShape, UnknownInput,
                         infer_node_shape, topo_order, validate)


def test_tensor_shape_rejects_nonpositive_extents():
    with pytest.raises(ValueError):
        TensorShape(0, 8, 8)
    with pytest.raises(ValueError):
        TensorShape(3, 8, -1)


def test_op_kinds_hash_by_identity():
    assert OpKind.__hash__ is object.__hash__
    assert len(OpKind) == 12
    for kind in OpKind:
        assert hash(kind) == object.__hash__(kind)
        assert ir.OPS[kind] is ir.OPS[OpKind(kind.value)]


def test_add_node_ids_are_dense_and_sequential():
    b = GraphBuilder()
    x = b.add_input(TensorShape(4, 8, 8))
    assert x == 0
    y = b.add(ir.relu(), [x])
    assert y == 1
    assert len(b) == 2


def test_add_node_arity_mismatch():
    b = GraphBuilder()
    x = b.add_input(TensorShape(4, 8, 8))
    with pytest.raises(ArityMismatch):
        b.add(ir.add(), [x])
    with pytest.raises(ArityMismatch):
        b.add(ir.concat(), [x])
    with pytest.raises(ArityMismatch):
        b.add(ir.relu(), [x, x])


def test_add_node_unknown_input():
    b = GraphBuilder()
    b.add_input(TensorShape(4, 8, 8))
    with pytest.raises(UnknownInput):
        b.add(ir.relu(), [5])


def test_topo_order_linear_chain():
    b = GraphBuilder()
    x = b.add_input(TensorShape(4, 8, 8))
    y = b.add(ir.relu(), [x])
    b.mark_output(y)
    assert topo_order(b.build()) == [0, 1, 2]


def test_topo_order_diamond_places_concat_last():
    b = GraphBuilder()
    x = b.add_input(TensorShape(4, 8, 8))
    left = b.add(ir.relu(), [x])
    right = b.add(ir.relu(), [x])
    cat = b.add(ir.concat(), [left, right])
    order = topo_order(b.build())
    assert sorted(order) == [0, 1, 2, 3]
    assert order[-1] == cat


def test_topo_order_detects_injected_back_edge():
    with pytest.raises(UnknownInput):
        GraphNode(1, PrimOp(OpKind.ADD), (0, 2))


def test_graph_construction_rejects_malformed_structure():
    x = GraphNode(0, ir.input_op(4, 8, 8), ())
    y = GraphNode(1, PrimOp(OpKind.RELU), (0,))
    assert Graph((x, y), (0,), (1,)).outputs == (1,)
    for inputs in ((True,), (0, 1), (-1,)):  # ids are checked before arity
        with pytest.raises(UnknownInput):
            GraphNode(1, PrimOp(OpKind.ADD), inputs)
    for op, inputs in ((ir.add(), (0,)), (ir.add(), (0, 0, 0)),
                       (ir.relu(), ()), (ir.relu(), (0, 0)), (ir.output_op(), ()),
                       (ir.input_op(4, 8, 8), (0,))):
        with pytest.raises(ArityMismatch):
            GraphNode(1, op, inputs)
    with pytest.raises(UnknownInput):  # shuffled ids
        Graph((y, x), (0,), (1,))
    for declared in ((), (1,), (0, 0), (False,)):
        with pytest.raises(UnknownInput):
            Graph((x, y), declared, (1,))
    for outputs in ((2,), (-1,), (True,)):
        with pytest.raises(UnknownInput):
            Graph((x, y), (0,), outputs)
    # operands that disagree: by width into an Add, by extent into an Add or a Concat
    widened = GraphNode(1, ir.conv(1, 1, 0, 4, 8), (0,))
    pooled = GraphNode(1, ir.max_pool(2, 2), (0,))
    for operand, join in ((widened, ir.add()), (pooled, ir.add()), (pooled, ir.concat())):
        with pytest.raises(ShapeConflict, match="node 2"):
            Graph((x, operand, GraphNode(2, join, (0, 1))), (0,), (2,))
    assert len(Graph((x, widened, GraphNode(2, ir.concat(), (0, 1))), (0,), (2,))) == 3


def test_validate_builder_graph_is_clean():
    b = GraphBuilder()
    x = b.add_input(TensorShape(4, 8, 8))
    y = b.add(ir.relu(), [x])
    b.mark_output(y)
    assert validate(b.build()) == []


def test_validate_reports_concat_arity_violation():
    # A one-input Concat never reaches validate: GraphNode construction
    # rejects it, so a graph that validate sees has no arity violation.
    x = GraphNode(0, ir.input_op(4, 8, 8), ())
    with pytest.raises(ArityMismatch, match="Concat"):
        GraphNode(1, ir.concat(), (0,))
    cat = GraphNode(1, ir.concat(), (0, 0))
    assert validate(Graph((x, cat), (0,), (1,))) == []


def test_replay_in_topo_order_reproduces_graph():
    b = GraphBuilder()
    x = b.add_input(TensorShape(4, 8, 8))
    left = b.add(ir.conv(3, 1, 1, 4, 4), [x])
    right = b.add(ir.relu(), [x])
    cat = b.add(ir.concat(), [left, right])
    b.mark_output(cat)
    g = b.build()

    rb = GraphBuilder()
    for nid in topo_order(g):
        node = g.node(nid)
        replayed = rb.add(node.op, node.inputs)
        assert replayed == nid
        if node.op.kind == OpKind.OUTPUT:
            rb._outputs.append(replayed)
    assert rb.build() == g


def test_shape_rule_conv_padding_preserves_extent():
    out = infer_node_shape(ir.conv(3, 1, 1, 8, 8), [TensorShape(8, 16, 16)])
    assert out == TensorShape(8, 16, 16)


def test_shape_rule_add_operand_mismatch():
    with pytest.raises(ShapeConflict):
        infer_node_shape(ir.add(), [TensorShape(64, 8, 8), TensorShape(32, 8, 8)])


def test_shape_rule_maxpool_floor_and_ceil():
    floor_pool = ir.max_pool(2, 2)
    ceil_pool = ir.max_pool(2, 2, ceil_mode=True)
    assert infer_node_shape(floor_pool, [TensorShape(8, 7, 7)]).spatial == (3, 3)
    assert infer_node_shape(ceil_pool, [TensorShape(8, 7, 7)]).spatial == (4, 4)
    assert infer_node_shape(ceil_pool, [TensorShape(8, 1, 1)]).spatial == (1, 1)
    with pytest.raises(ShapeConflict):
        infer_node_shape(floor_pool, [TensorShape(8, 1, 1)])


def test_conv_rejects_indivisible_groups():
    with pytest.raises(ValueError):
        ir.conv(3, 1, 1, 6, 8, groups=4)


def test_tags_follow_builder_context():
    b = GraphBuilder()
    x = b.add_input(TensorShape(4, 8, 8))
    with b.stage(3):
        with b.block() as bid:
            y = b.add(ir.relu(), [x])
    node = b.build().node(y)
    assert node.tags == Tags(stage=3, block_id=bid)


@pytest.mark.parametrize("tags", [
    pytest.param({"stage": 1.0}, id="stage-float"),
    pytest.param({"stage": True}, id="stage-bool"),
    pytest.param({"stage": [3]}, id="stage-list"),
    pytest.param({"stage": {}}, id="stage-object"),
    pytest.param({"block_id": "3"}, id="block-str"),
    pytest.param({"block_id": False}, id="block-bool"),
    pytest.param({"agg_node_id": "0"}, id="agg-str"),
    pytest.param({"agg_node_id": 0.0}, id="agg-float"),
])
def test_tags_reject_values_a_document_cannot_carry(tags):
    with pytest.raises(ValueError, match="has the wrong type"):
        Tags(**tags)


def test_tags_take_none_ints_and_str_stages():
    assert Tags("decoder", 2 ** 70, -1) == Tags(stage="decoder", block_id=2 ** 70, agg_node_id=-1)
    assert Tags(stage=0).block_id is Tags().agg_node_id is None


@pytest.mark.parametrize("epsilon", [float("inf"), float("nan"), 0, 0.0, -1, float("-inf")])
def test_batch_norm_rejects_an_epsilon_that_is_not_finite_and_positive(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        ir.batch_norm(4, epsilon)


def test_builder_scope_rejects_a_stage_a_document_cannot_carry():
    b = GraphBuilder()
    x = b.add_input(TensorShape(4, 8, 8))
    with pytest.raises(ValueError):
        with b.stage(True):
            b.add(ir.relu(), [x])
    assert len(b) == 1


def test_builder_scopes_share_one_tags_and_restore_the_enclosing_one():
    b = GraphBuilder()
    x = b.add_input(TensorShape(4, 8, 8))
    with b.stage(2) as stage:
        with b.block() as first:
            y = b.add(ir.relu(), [x])
            z = b.add(ir.relu(), [y])
        before = b.add(ir.relu(), [z])
        with b.agg_node() as agg, b.block() as second:
            w = b.add(ir.relu(), [before])
        after = b.add(ir.relu(), [w])
    g = b.build()
    assert (stage, first, second, agg) == (2, 0, 1, 0)
    assert g.node(y).tags is g.node(z).tags
    assert g.node(before).tags is g.node(after).tags
    assert g.node(before).tags == Tags(stage=2)
    assert g.node(w).tags == Tags(stage=2, block_id=1, agg_node_id=0)
    assert g.node(x).tags == Tags()


def test_linear_rejects_a_map_larger_than_1x1():
    b = GraphBuilder()
    x = b.add_input(TensorShape(4, 2, 2))
    with pytest.raises(ShapeConflict, match="linear expects 1x1 spatial extent, got 2x2"):
        b.add(ir.linear(4, 3), [x])
