import pytest

from dlagraph.analysis import count_params, infer_shapes, structure_stats
from dlagraph.architectures import (ArchSpec, DenseHeadSpec, IndivisibleInput,
                                    UnknownArchitecture, arch_spec, build_classifier,
                                    build_dense_decoder, build_toy_classifier,
                                    catalog_names, list_architectures, toy_spec)
from dlagraph.blocks import BlockKind
from dlagraph.ir import OpKind, TensorShape

from conftest import graph_to_document

SHAPE224 = TensorShape(3, 224, 224)

TABLE = {
    "DLA-34": (BlockKind.BASIC, (16, 32, 64, 128, 256, 512), (1, 2, 2, 1), False),
    "DLA-46-C": (BlockKind.BOTTLENECK, (16, 32, 64, 64, 128, 256), (1, 2, 2, 1), False),
    "DLA-60": (BlockKind.BOTTLENECK, (16, 32, 128, 256, 512, 1024), (1, 2, 3, 1), False),
    "DLA-102": (BlockKind.BOTTLENECK, (16, 32, 128, 256, 512, 1024), (1, 3, 4, 1), True),
    "DLA-169": (BlockKind.BOTTLENECK, (16, 32, 128, 256, 512, 1024), (2, 3, 5, 1), True),
    "DLA-X-46-C": (BlockKind.SPLIT, (16, 32, 64, 64, 128, 256), (1, 2, 2, 1), False),
    "DLA-X-60-C": (BlockKind.SPLIT, (16, 32, 64, 64, 128, 256), (1, 2, 3, 1), False),
    "DLA-X-60": (BlockKind.SPLIT, (16, 32, 128, 256, 512, 1024), (1, 2, 3, 1), False),
    "DLA-X-102": (BlockKind.SPLIT, (16, 32, 128, 256, 512, 1024), (1, 3, 4, 1), True),
}


@pytest.mark.parametrize("name", list(TABLE))
def test_catalog_rows_are_exact(name):
    kind, channels, depths, residual = TABLE[name]
    spec = arch_spec(name)
    assert spec.block_kind == kind
    assert spec.stage_channels == channels
    assert spec.stage_depths == depths
    assert spec.residual_nodes == residual


def test_catalog_order_and_unknown_name():
    assert catalog_names() == tuple(TABLE)
    with pytest.raises(UnknownArchitecture):
        arch_spec("DLA-99")
    with pytest.raises(UnknownArchitecture):
        arch_spec("dla-34")  # names are case-sensitive


def test_list_architectures_is_consistent_with_builders():
    listing = list_architectures(num_classes=1000)
    assert len(listing) == 9
    assert listing[0][0] == "DLA-34"
    assert [name for name, _, _ in listing] == list(TABLE)
    for name, kind, params in listing:
        graph = build_classifier(arch_spec(name), 1000, SHAPE224)
        assert params == count_params(graph)
        assert kind == arch_spec(name).block_kind


def test_classifier_resolution_schedule():
    graph = build_classifier(arch_spec("DLA-34"), 1000, SHAPE224)
    shapes = infer_shapes(graph, SHAPE224)
    for stage in range(1, 7):
        last = max(n.id for n in graph.nodes if n.tags.stage == stage)
        expected = 224 if stage == 1 else 224 // 2 ** (stage - 1)
        assert shapes[last].spatial == (expected, expected)


def test_classifier_stage6_feature_shapes():
    g = build_classifier(arch_spec("DLA-46-C"), 1000, SHAPE224)
    shapes = infer_shapes(g, SHAPE224)
    s6 = max(n.id for n in g.nodes if n.tags.stage == 6)
    assert shapes[s6] == TensorShape(256, 7, 7)
    g = build_classifier(arch_spec("DLA-34"), 1000, SHAPE224)
    shapes = infer_shapes(g, SHAPE224)
    s6 = max(n.id for n in g.nodes if n.tags.stage == 6)
    assert shapes[s6] == TensorShape(512, 7, 7)


def test_classifier_rejects_bad_inputs():
    with pytest.raises(IndivisibleInput):
        build_classifier(arch_spec("DLA-34"), 1000, TensorShape(3, 225, 224))
    with pytest.raises(IndivisibleInput):
        build_classifier(arch_spec("DLA-34"), 1000, TensorShape(4, 224, 224))


def test_stage_roots_receive_one_cross_stage_input():
    for name in ("DLA-34", "DLA-169"):
        spec = arch_spec(name)
        graph = build_classifier(spec, 10, SHAPE224)
        stats = structure_stats(graph)
        for stage, depth in zip((3, 4, 5, 6), spec.stage_depths):
            assert stats.per_stage_depth[stage] == depth
        fanins = {}
        for n in graph.nodes:
            if n.op.kind == OpKind.CONCAT and n.tags.agg_node_id is not None \
                    and isinstance(n.tags.stage, int):
                fanins.setdefault(n.tags.stage, []).append(len(n.inputs))
        for stage, depth in zip((3, 4, 5, 6), spec.stage_depths):
            assert max(fanins[stage]) == depth + 2  # tree fan-in plus the stage input


def test_bottleneck_and_split_share_topology():
    bottleneck = build_classifier(arch_spec("DLA-46-C"), 1000, SHAPE224)
    split = build_classifier(arch_spec("DLA-X-46-C"), 1000, SHAPE224)
    assert len(bottleneck) == len(split)
    assert [n.op.kind for n in bottleneck.nodes] == [n.op.kind for n in split.nodes]
    assert [n.inputs for n in bottleneck.nodes] == [n.inputs for n in split.nodes]
    grouped = [n.op.attrs["groups"] for n in split.nodes if n.op.kind == OpKind.CONV]
    assert any(g > 1 for g in grouped)


def test_residual_nodes_only_in_deep_catalog_entries():
    def has_residual_agg(graph):
        return any(n.op.kind == OpKind.ADD and n.tags.agg_node_id is not None
                   for n in graph.nodes)

    assert not has_residual_agg(build_classifier(arch_spec("DLA-60"), 10, SHAPE224))
    assert has_residual_agg(build_classifier(arch_spec("DLA-102"), 10, SHAPE224))


def test_dense_decoder_output_geometry():
    spec = arch_spec("DLA-34")
    head = DenseHeadSpec(num_classes=19)
    shape = TensorShape(3, 864, 864)
    graph = build_dense_decoder(spec, head, shape)
    shapes = infer_shapes(graph, shape)
    out = shapes[graph.outputs[0]]
    assert out == TensorShape(19, 432, 432)


def test_dense_decoder_adds_four_fusion_nodes():
    graph = build_dense_decoder(arch_spec("DLA-34"), DenseHeadSpec(num_classes=19),
                                SHAPE224)
    decoder_aggs = {n.tags.agg_node_id for n in graph.nodes
                    if n.tags.stage == "decoder" and n.tags.agg_node_id is not None}
    assert len(decoder_aggs) == 4
    kernels = sorted(n.op.attrs["kernel"] for n in graph.nodes
                     if n.tags.stage == "decoder" and n.tags.agg_node_id is not None
                     and n.op.kind == OpKind.CONV)
    assert kernels == [3, 3, 3, 3]


def test_dense_decoder_upsample_factors():
    graph = build_dense_decoder(arch_spec("DLA-34"), DenseHeadSpec(num_classes=19),
                                SHAPE224)
    factors = sorted(n.op.attrs["factor"] for n in graph.nodes
                     if n.op.kind == OpKind.UPSAMPLE)
    assert factors == [2, 4, 8, 16]


def test_dense_decoder_shares_backbone_with_classifier():
    spec = arch_spec("DLA-46-C")
    classifier = build_classifier(spec, 1000, SHAPE224)
    dense = build_dense_decoder(spec, DenseHeadSpec(num_classes=19), SHAPE224)
    head_kinds = {OpKind.GLOBAL_AVG_POOL, OpKind.LINEAR, OpKind.SOFTMAX, OpKind.OUTPUT}
    backbone_len = max(n.id for n in classifier.nodes
                       if n.op.kind not in head_kinds or n.tags.stage != "head") + 1
    doc_c = graph_to_document(classifier)["nodes"][:backbone_len]
    doc_d = graph_to_document(dense)["nodes"][:backbone_len]
    assert doc_c == doc_d


def test_toy_spec_caps_widths_and_cardinality():
    capped = toy_spec(arch_spec("DLA-X-102"), 16)
    assert max(capped.stage_channels) == 16
    mid = 16  # split blocks run the grouped conv at the full output width
    assert mid % capped.cardinality == 0
    assert mid // capped.cardinality >= 4
    assert capped.cardinality > 1


def test_toy_classifier_accepts_small_inputs():
    graph = build_toy_classifier("DLA-46-C", 16, 16, num_classes=10)
    shapes = infer_shapes(graph, TensorShape(3, 16, 16))
    out = shapes[graph.outputs[0]]
    assert out == TensorShape(10, 1, 1)


def test_arch_spec_validates_invariants():
    with pytest.raises(ValueError):
        ArchSpec("bad", BlockKind.BASIC, (16, 32, 64, 32, 128, 256), (1, 1, 1, 1))
    with pytest.raises(ValueError):
        ArchSpec("bad", BlockKind.BASIC, (16, 32, 64, 64, 128, 256), (0, 1, 1, 1))
