import json
import re

import pytest

from dlagraph import ir
from dlagraph.aggregation import HdaSpec, build_hda
from dlagraph.architectures import DenseHeadSpec, arch_spec, build_classifier, \
    build_dense_decoder
from dlagraph.blocks import BlockKind, BlockSpec
from dlagraph.graphdoc import ParseError, graph_to_document, parse, serialize, to_dot
from dlagraph.ir import GraphBuilder, TensorShape

SHAPE224 = TensorShape(3, 224, 224)


def small_graph():
    b = GraphBuilder()
    x = b.add_input(TensorShape(4, 8, 8))
    y = b.add(ir.conv(3, 2, 1, 4, 8), [x])
    y = b.add(ir.batch_norm(8), [y])
    y = b.add(ir.relu(), [y])
    b.mark_output(y)
    return b.build()


def test_serialize_is_byte_stable():
    g = small_graph()
    assert serialize(g, {"arch_name": "tiny"}) == serialize(g, {"arch_name": "tiny"})


def test_parse_serialize_round_trip_is_identity():
    g = small_graph()
    text = serialize(g, {"arch_name": "tiny", "input_shape": "8x8x4"})
    parsed, metadata = parse(text)
    assert parsed == g
    assert metadata["arch_name"] == "tiny"
    assert serialize(parsed, metadata) == text


def test_round_trip_preserves_catalog_graph():
    g = build_classifier(arch_spec("DLA-46-C"), 1000, SHAPE224)
    parsed, _ = parse(serialize(g, {"arch_name": "DLA-46-C"}))
    assert parsed == g


def test_parse_rejects_invalid_json():
    with pytest.raises(ParseError):
        parse("{not json")


def test_parse_rejects_wrong_version():
    doc = graph_to_document(small_graph())
    doc["format_version"] = "2"
    with pytest.raises(ParseError):
        parse(json.dumps(doc))


def test_parse_rejects_missing_keys():
    doc = graph_to_document(small_graph())
    del doc["outputs"]
    with pytest.raises(ParseError):
        parse(json.dumps(doc))


def test_parse_rejects_sparse_or_shuffled_ids():
    doc = graph_to_document(small_graph())
    doc["nodes"][1]["id"] = 7
    with pytest.raises(ParseError):
        parse(json.dumps(doc))


def test_parse_rejects_forward_references():
    doc = graph_to_document(small_graph())
    doc["nodes"][1]["inputs"] = [3]
    with pytest.raises(ParseError):
        parse(json.dumps(doc))


def test_parse_rejects_unknown_kind_and_missing_attrs():
    doc = graph_to_document(small_graph())
    doc["nodes"][1]["kind"] = "Convolution9000"
    with pytest.raises(ParseError):
        parse(json.dumps(doc))
    doc = graph_to_document(small_graph())
    del doc["nodes"][1]["attrs"]["stride"]
    with pytest.raises(ParseError):
        parse(json.dumps(doc))


DOT_VERTEX = re.compile(r'^\s\s(\w+) \[label="[^"]*", shape=(box|diamond|ellipse)\];$')
DOT_EDGE = re.compile(r"^\s\s(\w+) -> (\w+);$")


def assert_valid_dot(text):
    lines = text.strip().splitlines()
    assert lines[0] == "digraph dla {"
    assert lines[-1] == "}"
    declared = set()
    for line in lines[1:-1]:
        if line == "  rankdir=TB;":
            continue
        vertex = DOT_VERTEX.match(line)
        if vertex:
            declared.add(vertex.group(1))
            continue
        edge = DOT_EDGE.match(line)
        assert edge, "unparseable DOT line: %r" % line
        assert edge.group(1) in declared and edge.group(2) in declared
    return declared


def test_dot_export_full_graph_is_well_formed():
    text = to_dot(small_graph(), collapse="none")
    declared = assert_valid_dot(text)
    assert len(declared) == 5


def test_dot_collapsed_hda_has_expected_vertices():
    b = GraphBuilder()
    x = b.add_input(TensorShape(8, 8, 8))
    root = build_hda(b, x, HdaSpec(2, BlockSpec(BlockKind.BASIC, 8)))
    b.mark_output(root)
    text = to_dot(b.build(), collapse="blocks")
    assert_valid_dot(text)
    assert len(re.findall(r"shape=box\]", text)) == 4
    assert len(re.findall(r"shape=diamond\]", text)) == 2


def test_dense_document_round_trip():
    g = build_dense_decoder(arch_spec("DLA-34"), DenseHeadSpec(num_classes=19), SHAPE224)
    text = serialize(g, {"arch_name": "DLA-34", "head": "dense"})
    parsed, _ = parse(text)
    assert parsed == g
    assert serialize(parsed, {"arch_name": "DLA-34", "head": "dense"}) == text
