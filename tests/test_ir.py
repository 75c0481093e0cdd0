import copy
import pickle
import re

import pytest

from dlagraph import ir
from dlagraph.ir import (ArityMismatch, Graph, GraphBuilder, GraphNode,
                         PrimOp, OpKind, ShapeConflict, Tags, TensorShape, UnknownInput,
                         infer_node_shape, topo_order, validate)
from dlagraph.architectures import arch_spec, build_classifier, build_toy_classifier


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
    # a ceil-mode window that would start at or past the input is dropped
    # (PyTorch's rule): kernel 1, stride 2 over 2 cells has one window
    pool = ir.max_pool(1, 2, ceil_mode=True)
    assert infer_node_shape(pool, [TensorShape(1, 2, 2)]) == TensorShape(1, 1, 1)
    assert ir.window_out_hw(2, 5, 1, 2, 0, True) == (1, 3)
    assert ir.window_out_hw(5, 5, 1, 3, 0, True) == (2, 2)  # windows at 0 and 3


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


def _typed(op):
    return op.kind, tuple((name, type(v), v) for name, v in op.attrs.items())


def test_a_built_graph_holds_one_op_per_distinct_helper_call(monkeypatch):
    monkeypatch.setattr(ir, "_INTERNED", {})
    g = build_classifier(arch_spec("DLA-169"), 1000, TensorShape(3, 224, 224))
    ops = {id(n.op): n.op for n in g.nodes}
    assert len(ops) == len({_typed(op) for op in ops.values()}) < len(g.nodes) / 10
    assert ir.conv(3, 1, 1, 8, 8) is ir.conv(3, 1, 1, 8, 8, groups=1, has_bias=False)
    assert ir.relu() is ir.relu() and ir.relu() is not ir.output_op()


@pytest.mark.parametrize("call, message", [
    (lambda: ir.conv(3.0, 1, 1, 8, 8), "Conv attr 'kernel' must be a int, got 3.0"),
    (lambda: ir.conv(True, 1, 1, 8, 8), "Conv attr 'kernel' must be a int, got True"),
    (lambda: ir.conv([3], 1, 1, 8, 8), "Conv attr 'kernel' must be a int, got [3]"),
    (lambda: ir.batch_norm(4, float("nan")), "BatchNorm attr 'epsilon' is out of range: nan"),
    (lambda: ir.conv(3, 1, 1, 6, 8, groups=4), "channels (6 -> 8) not divisible by groups=4"),
], ids=["float", "bool", "unhashable", "nan", "groups"])
def test_op_helpers_raise_what_primop_raises_on_every_call(call, message):
    # ops equal to the bad ones but for a value's type are kept first
    ir.conv(3, 1, 1, 8, 8)
    ir.conv(1, 1, 1, 8, 8)
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            call()
        assert info.type is ValueError and str(info.value) == message


def test_op_helpers_keep_int_float_and_bool_attrs_apart():
    by_int, by_float = ir.batch_norm(4, 1), ir.batch_norm(4, 1.0)
    assert by_int is not by_float
    assert type(by_int.attrs["epsilon"]) is int and type(by_float.attrs["epsilon"]) is float
    assert ir.batch_norm(4, 1) is by_int and ir.batch_norm(4, 1.0) is by_float
    ir.conv(1, 1, 0, 2, 2, has_bias=True)
    with pytest.raises(ValueError, match="has_bias"):  # 1 == True, but no bool
        ir.conv(1, 1, 0, 2, 2, has_bias=1)


def test_op_table_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(ir, "_INTERNED", {})
    monkeypatch.setattr(ir, "_INTERNED_MAX", 3)
    ops = [ir.batch_norm(c) for c in range(1, 8)]
    assert len(ir._INTERNED) <= 3
    assert [op.attrs["channels"] for op in ops] == list(range(1, 8))
    assert ir.batch_norm(7) is ops[-1]


# (a good record, a field, a value its checks reject, the error they raise)
BAD_RECORDS = {
    "shape-extent-0": (TensorShape(3, 4, 5), "height", 0,
                       ValueError, "height must be >= 1, got 0"),
    "tags-bool-stage": (Tags(2, None, 1), "stage", True,
                        ValueError, "tag 'stage' has the wrong type: True"),
    "node-input-not-earlier": (GraphNode(1, ir.relu(), (0,)), "inputs", (1,), UnknownInput,
                               "node 1: id must be an int and inputs (1,) earlier node ids"),
}


@pytest.mark.parametrize("case", sorted(BAD_RECORDS))
def test_every_way_to_make_a_record_runs_its_checks(case):
    good, name, bad, error, message = BAD_RECORDS[case]
    record_type = type(good)
    values = good._asdict() | {name: bad}
    makers = [lambda: record_type(**values), lambda: record_type(*values.values()),
              lambda: record_type._make(values.values()), lambda: good._replace(**{name: bad})]
    # pickling and copying make the record again from its fields
    raw = tuple.__new__(record_type, values.values())  # skips the checks
    makers += [lambda: pickle.loads(pickle.dumps(raw)), lambda: copy.copy(raw),
               lambda: copy.deepcopy(raw)]
    for make in makers:
        with pytest.raises(error, match="^%s$" % re.escape(message)):
            make()


@pytest.mark.parametrize("case", sorted(BAD_RECORDS))
def test_records_round_trip_and_stay_immutable(case):
    good, name, _, _, _ = BAD_RECORDS[case]
    for again in (pickle.loads(pickle.dumps(good)), copy.copy(good), copy.deepcopy(good),
                  good._replace(), type(good)._make(good)):
        assert type(again) is type(good) and again == good
    assert not hasattr(good, "__dict__")
    assert good == tuple(good)
    with pytest.raises(AttributeError):
        setattr(good, name, getattr(good, name))


def test_record_reprs_are_pinned():
    """The text that messages, ``check`` diagnostics included, print for a record."""
    assert repr(TensorShape(3, 4, 5)) == "TensorShape(channels=3, height=4, width=5)"
    assert repr(Tags(2, None, 1)) == "Tags(stage=2, block_id=None, agg_node_id=1)"
    assert repr(build_toy_classifier("DLA-34", 16, 16).nodes[1]) == (
        "GraphNode(id=1, op=PrimOp(kind=<OpKind.CONV: 'Conv'>, attrs={'groups': 1, "
        "'has_bias': False, 'in_channels': 3, 'kernel': 7, 'out_channels': 16, "
        "'padding': 3, 'stride': 1}), inputs=(0,), "
        "tags=Tags(stage=1, block_id=None, agg_node_id=None))")
