import json
import random
import re

import pytest

from dlagraph import __version__, ir
from dlagraph.aggregation import HdaSpec, build_hda
from dlagraph.architectures import DenseHeadSpec, arch_spec, build_classifier, \
    build_dense_decoder, build_toy_classifier, build_toy_dense_decoder, catalog_names
from dlagraph.blocks import BlockKind, BlockSpec
from dlagraph.graphdoc import ParseError, parse, serialize, to_dot
from dlagraph.ir import GraphBuilder, TensorShape
from conftest import RANDOM_GRAPH_SEEDS, graph_to_document, random_graph, random_string
from test_cli_fuzz import MUTANTS_PER_DOCUMENT, build_documents, mutants, nudged

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


def _deeply_nested_metadata():
    doc = graph_to_document(small_graph())
    doc["metadata"] = {"deep": "@"}
    return json.dumps(doc).replace('"@"', '{"a": ' * 1000 + "1" + "}" * 1000)


@pytest.mark.parametrize("text", [
    pytest.param("[" * 1000 + "]" * 1000, id="deep-list"),
    pytest.param(_deeply_nested_metadata(), id="deep-metadata"),
])
def test_parse_rejects_a_document_that_nests_too_deeply(text):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == "document nests too deeply to parse"


def test_parse_rejects_metadata_too_deep_to_serialize(monkeypatch):
    # On CPython 3.11 json.loads gives up at the same depth as json.dumps,
    # so only a stand-in for json.dumps reaches this check.
    text = json.dumps(graph_to_document(small_graph()))

    def dumps(obj, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(json, "dumps", dumps)
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == "metadata nests too deeply to serialize"


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


def test_dot_rejects_an_unknown_collapse_mode():
    with pytest.raises(ValueError, match="collapse must be 'none' or 'blocks'"):
        to_dot(small_graph(), collapse="x")


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


def _drop_node_keys(*keys):
    def mutate(doc):
        for key in keys:
            del doc["nodes"][1][key]
    return mutate


def _set_node_key(key, value):
    def mutate(doc):
        doc["nodes"][1][key] = value
    return mutate


def _drop_doc_keys(*keys):
    def mutate(doc):
        for key in keys:
            del doc[key]
    return mutate


def _set_doc_key(key, value):
    def mutate(doc):
        doc[key] = value
    return mutate


def _second_input_node(doc):
    doc["nodes"].append(dict(doc["nodes"][0], id=len(doc["nodes"])))
    doc["inputs"].append(len(doc["nodes"]) - 1)


def _tag_nodes(first, second):
    def mutate(doc):
        doc["nodes"][1]["tags"], doc["nodes"][2]["tags"] = first, second
    return mutate


def _second_conv(**attrs):
    """Node 2 becomes a copy of the conv at node 1 with ``attrs`` changed."""
    def mutate(doc):
        conv = doc["nodes"][1]
        doc["nodes"][2] = dict(conv, id=2, attrs=dict(conv["attrs"], **attrs))
    return mutate


# (mutation of small_graph's document, the exact ParseError text). Node 1 is
# the conv; the two-key drops show that the first missing key in the order
# id, kind, attrs, inputs, tags is the one named.
PARSE_MESSAGES = {
    "no-format-version": (_drop_doc_keys("format_version"), "document lacks 'format_version'"),
    "no-metadata": (_drop_doc_keys("metadata"), "document lacks 'metadata'"),
    "no-inputs": (_drop_doc_keys("inputs"), "document lacks 'inputs'"),
    "no-outputs": (_drop_doc_keys("outputs"), "document lacks 'outputs'"),
    "no-nodes": (_drop_doc_keys("nodes"), "document lacks 'nodes'"),
    "no-metadata-nor-version": (_drop_doc_keys("metadata", "format_version"),
                                "document lacks 'format_version'"),
    "version-2": (_set_doc_key("format_version", "2"), "unsupported format_version '2'"),
    "version-int": (_set_doc_key("format_version", 1), "unsupported format_version 1"),
    "version-list": (_set_doc_key("format_version", [1]), "unsupported format_version [1]"),
    "version-object": (_set_doc_key("format_version", {"a": 1}),
                       "unsupported format_version {'a': 1}"),
    "metadata-list": (_set_doc_key("metadata", []), "metadata is not an object"),
    "nodes-empty": (_set_doc_key("nodes", []), "document has no nodes"),
    "nodes-object": (_set_doc_key("nodes", {}), "document has no nodes"),
    "inputs-int": (_set_doc_key("inputs", 0), "inputs list is not a list of node ids"),
    "outputs-object": (_set_doc_key("outputs", {}), "outputs list is not a list of node ids"),
    "second-input-node": (_second_input_node, "document has 2 Input nodes, not one"),
    "record-list": (lambda doc: doc["nodes"].__setitem__(1, [1]),
                    "node record 1 is not an object"),
    "node-no-id": (_drop_node_keys("id"), "node record 1 lacks 'id'"),
    "node-no-kind": (_drop_node_keys("kind"), "node record 1 lacks 'kind'"),
    "node-no-attrs": (_drop_node_keys("attrs"), "node record 1 lacks 'attrs'"),
    "node-no-inputs": (_drop_node_keys("inputs"), "node record 1 lacks 'inputs'"),
    "node-no-tags": (_drop_node_keys("tags"), "node record 1 lacks 'tags'"),
    "node-no-attrs-nor-kind": (_drop_node_keys("attrs", "kind"), "node record 1 lacks 'kind'"),
    "node-no-tags-nor-id": (_drop_node_keys("tags", "id"), "node record 1 lacks 'id'"),
    "node-no-tags-nor-inputs": (_drop_node_keys("tags", "inputs"),
                                "node record 1 lacks 'inputs'"),
    "attrs-list": (_set_node_key("attrs", []), "attrs of node 1 is not an object"),
    "inputs-int": (_set_node_key("inputs", 0), "inputs of node 1 must be a list of ids"),
    "inputs-object": (_set_node_key("inputs", {}), "inputs of node 1 must be a list of ids"),
    "tags-list": (_set_node_key("tags", ["stage"]), "tags of node 1 carry unknown keys"),
    "tags-unknown-key": (_set_node_key("tags", {"stage": 1, "color": 1}),
                         "tags of node 1 carry unknown keys"),
    "tag-block-str": (_set_node_key("tags", {"block_id": "3"}),
                      "tag 'block_id' of node 1 has the wrong type: '3'"),
    "tag-stage-bool": (_set_node_key("tags", {"stage": True}),
                       "tag 'stage' of node 1 has the wrong type: True"),
    "tag-agg-float": (_set_node_key("tags", {"agg_node_id": 1.0}),
                      "tag 'agg_node_id' of node 1 has the wrong type: 1.0"),
    "tag-stage-list": (_set_node_key("tags", {"stage": [3]}),
                       "tag 'stage' of node 1 has the wrong type: [3]"),
    "kind-unknown": (_set_node_key("kind", "Convolution9000"),
                     "node 1: 'Convolution9000' is not a valid OpKind"),
    "kind-list": (_set_node_key("kind", ["Conv"]), "node 1: ['Conv'] is not a valid OpKind"),
    "id-moved": (_set_node_key("id", 7), "node at position 1 carries id 7"),
    "epsilon-infinity": (lambda doc: doc["nodes"][2]["attrs"].update(epsilon=float("inf")),
                         "node 2: BatchNorm attr 'epsilon' is out of range: inf"),
    "metadata-nan": (_set_doc_key("metadata", {"a": [1, {"b": float("nan")}]}),
                     "metadata holds a NaN or infinite number"),
    "metadata-infinity": (_set_doc_key("metadata", {"a": float("-inf")}),
                          "metadata holds a NaN or infinite number"),
    # parse checks a record once per distinct key: these keys differ from
    # the earlier node's only by a missing tag or a value's type
    "tag-null-after-untagged": (lambda doc: doc["nodes"][2].update(tags={"stage": None}),
                                "tag 'stage' of node 2 has the wrong type: None"),
    "tag-true-after-one": (_tag_nodes({"block_id": 1}, {"block_id": True}),
                           "tag 'block_id' of node 2 has the wrong type: True"),
    "has-bias-0-after-false": (_second_conv(has_bias=0),
                               "node 2: Conv attr 'has_bias' must be a bool, got 0"),
}


@pytest.mark.parametrize("case", sorted(PARSE_MESSAGES))
def test_parse_error_text_is_pinned(case):
    mutate, message = PARSE_MESSAGES[case]
    doc = graph_to_document(small_graph())
    mutate(doc)
    with pytest.raises(ParseError) as info:
        parse(json.dumps(doc))
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    pytest.param("{not json", "not valid JSON: Expecting property name enclosed in double "
                              "quotes: line 1 column 2 (char 1)", id="invalid-json"),
    pytest.param("[]", "document root is not an object", id="root-list"),
])
def test_parse_error_text_of_a_document_that_is_no_object(text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


def test_parse_shares_one_tags_object_per_distinct_tags():
    g = build_classifier(arch_spec("DLA-34"), 1000, SHAPE224)
    parsed, _ = parse(serialize(g))
    assert parsed == g
    by_value = {}
    for node in parsed.nodes:
        assert by_value.setdefault(node.tags, node.tags) is node.tags
    assert len(by_value) < len(parsed.nodes) / 4


def test_parse_shares_one_prim_op_per_distinct_attrs_record():
    g = build_classifier(arch_spec("DLA-34"), 1000, SHAPE224)
    text = serialize(g)
    parsed, _ = parse(text)
    assert parsed == g
    by_record = {}
    for record, node in zip(json.loads(text)["nodes"], parsed.nodes):
        attrs = record["attrs"]
        key = (record["kind"], *((k, v, type(v)) for k, v in attrs.items()))
        assert by_record.setdefault(key, node.op) is node.op
    assert len({id(node.op) for node in parsed.nodes}) == len(by_record)
    assert len(by_record) < len(parsed.nodes) / 3


def test_parsing_a_document_twice_gives_the_same_ops():
    text = serialize(build_toy_dense_decoder("DLA-34", 16, 32, num_classes=5))
    first, _ = parse(text)
    second, _ = parse(text)
    assert all(a.op is b.op for a, b in zip(first.nodes, second.nodes))


@pytest.mark.parametrize("name", catalog_names() + ("decoder",))
def test_a_parsed_catalog_document_holds_its_builders_ops(name):
    g = (build_dense_decoder(arch_spec("DLA-34"), DenseHeadSpec(19), TensorShape(3, 864, 864))
         if name == "decoder" else build_classifier(arch_spec(name), 1000, SHAPE224))
    parsed, _ = parse(serialize(g))
    assert all(p.op is b.op for p, b in zip(parsed.nodes, g.nodes))


def test_parse_keeps_the_op_table_within_its_bound(monkeypatch):
    monkeypatch.setattr(ir, "_INTERNED", {})
    monkeypatch.setattr(ir, "_INTERNED_MAX", 3)
    b = GraphBuilder()
    x = b.add_input(TensorShape(1, 4, 4))
    for c in range(1, 8):  # eight distinct ops and an Output
        x = b.add(ir.conv(1, 1, 0, c, c + 1), [x])
    b.mark_output(x)
    g = b.build()
    text = serialize(g)
    parsed, _ = parse(text)
    assert len(ir._INTERNED) <= 3
    assert parsed == g and serialize(parsed) == text


def _one_batch_norm_document(epsilon):
    return serialize(small_graph()).replace('"epsilon": 1e-05', '"epsilon": %s' % epsilon)


def test_parse_keeps_int_float_and_bool_attrs_apart_as_the_helpers_do():
    by_int, by_float = (parse(_one_batch_norm_document(e))[0].nodes[2].op
                        for e in ("1", "1.0"))
    assert by_int is not by_float
    assert by_int is ir.batch_norm(8, 1) and by_float is ir.batch_norm(8, 1.0)
    with pytest.raises(ParseError, match="attr 'epsilon' must be a float, got True"):
        parse(_one_batch_norm_document("true"))
    text = serialize(small_graph())
    ir.conv(3, 2, 1, 4, 8, has_bias=True)  # kept first: it differs only by 1 == True
    with pytest.raises(ParseError, match="attr 'has_bias' must be a bool, got 1"):
        parse(text.replace('"has_bias": false', '"has_bias": 1'))
    with pytest.raises(ParseError, match="attr 'kernel' must be a int, got 3.0"):
        parse(text.replace('"kernel": 3', '"kernel": 3.0'))


def test_attrs_listed_in_any_order_give_their_own_op():
    # the Input's (channels, height, width) = (4, 8, 8) listed as (height,
    # width, channels): by values alone it would read as an 8x8x4 Input
    ir.input_op(8, 8, 4)
    doc = json.loads(serialize(small_graph()))
    doc["nodes"][0]["attrs"] = {"height": 8, "width": 8, "channels": 4}
    parsed, _ = parse(json.dumps(doc))
    assert parsed == small_graph() and parsed.nodes[0].op is not ir.input_op(8, 8, 4)


# --- the emitter against the json.dumps reference ---------------------------

def reference(graph, metadata=None):
    return json.dumps(graph_to_document(graph, metadata), sort_keys=True, indent=2) + "\n"


def build_metadata(arch, head, shape, classes):
    return {"arch_name": arch, "input_shape": shape, "generator_version": __version__,
            "head": head, "num_classes": classes}


@pytest.mark.parametrize("name", catalog_names() + ("DLA-34-dense",))
def test_serialize_matches_reference_at_full_scale(name):
    if name == "DLA-34-dense":
        g = build_dense_decoder(arch_spec("DLA-34"), DenseHeadSpec(num_classes=19),
                                TensorShape(3, 864, 864))
        metadata = build_metadata("DLA-34", "dense", "864x864x3", 19)
    else:
        g = build_classifier(arch_spec(name), 1000, SHAPE224)
        metadata = build_metadata(name, "classify", "224x224x3", 1000)
    text = serialize(g, metadata)
    assert text == reference(g, metadata)
    assert serialize(*parse(text)) == text


@pytest.mark.parametrize("name", catalog_names() + ("DLA-34-dense",))
def test_serialize_matches_reference_on_toy_cases(name):
    if name == "DLA-34-dense":
        g = build_toy_dense_decoder("DLA-34", 16, 32, num_classes=5)
    else:
        g = build_toy_classifier(name, 16, 16, num_classes=10)
    assert serialize(g) == reference(g)
    assert serialize(g, {"arch_name": name}) == reference(g, {"arch_name": name})


def test_serialize_matches_reference_on_every_fuzz_mutant_that_parses(tmp_path):
    parsed = 0
    for name, doc in build_documents(tmp_path).items():
        nudges = ((what, mutant) for what, mutant, _ in nudged(name, doc))
        for what, mutant in (*mutants(name, doc), *nudges):
            try:
                g, metadata = parse(json.dumps(mutant))
            except ParseError:
                continue
            parsed += 1
            assert serialize(g, metadata) == reference(g, metadata), what
    assert parsed >= MUTANTS_PER_DOCUMENT // 2


NUMBERS = (0, 1, -7, 2 ** 70, 1e-05, -0.0, 0.0, 1.0, 1e300)
NON_FINITE = (float("nan"), float("inf"), float("-inf"))


def random_json(rng, depth):
    """A JSON value: nested and empty dicts and lists, strings, numbers,
    bools and None."""
    pick = rng.randrange(8 if depth else 6)
    if pick == 0:
        return random_string(rng)
    if pick == 1:
        return rng.choice((True, False, None))
    if pick < 6:
        return rng.choice(NUMBERS)
    if pick == 6:
        return [random_json(rng, depth - 1) for _ in range(rng.randrange(4))]
    return {random_string(rng): random_json(rng, depth - 1) for _ in range(rng.randrange(4))}


def _reject_constant(name):
    raise AssertionError("not strict JSON: %s" % name)


@pytest.mark.parametrize("seed", RANDOM_GRAPH_SEEDS)
def test_serialize_matches_reference_on_random_tags_and_metadata(seed):
    rng = random.Random(seed)
    g = random_graph(rng)
    assert {n.op.kind for n in g.nodes} == set(ir.OpKind)
    json.loads(serialize(g), parse_constant=_reject_constant)
    metadata = {random_string(rng): random_json(rng, 3) for _ in range(rng.randrange(5))}
    text = serialize(g, metadata)
    assert text == reference(g, metadata)
    parsed, parsed_metadata = parse(text)
    assert parsed == g
    assert serialize(parsed, parsed_metadata) == text


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
def test_serialize_rejects_non_finite_metadata(value):
    for metadata in ({"x": value}, {"a": [1, {"b": value}]}):
        with pytest.raises(ValueError):
            serialize(small_graph(), metadata)


def test_serialize_keeps_int_and_float_epsilons_apart():
    for epsilons in ((1, 1.0), (1.0, 1)):  # parse shares an op only between equal types
        b = GraphBuilder()
        x = b.add_input(TensorShape(2, 4, 4))
        for epsilon in epsilons:
            x = b.add(ir.batch_norm(2, epsilon), [x])
        b.mark_output(x)
        g = b.build()
        text = serialize(g)
        assert text == reference(g)
        assert text.count('"epsilon": 1\n') == text.count('"epsilon": 1.0\n') == 1
        parsed, _ = parse(text)
        assert [type(node.op.attrs["epsilon"]) for node in parsed.nodes[1:3]] == [
            type(epsilon) for epsilon in epsilons]
        assert serialize(parsed) == text


def test_serialize_keeps_int_and_str_stages_apart():
    b = GraphBuilder()
    x = b.add_input(TensorShape(2, 4, 4))
    for stage in (1, "1", 1, "1"):
        with b.stage(stage):
            x = b.add(ir.relu(), [x])
    b.mark_output(x)
    g = b.build()
    text = serialize(g)
    assert text == reference(g)
    assert re.findall(r'"stage": (.*)\n', text) == ["1", '"1"', "1", '"1"']
    assert serialize(*parse(text)) == text


def test_serialize_matches_reference_without_nodes():
    g = ir.Graph((), (), ())
    assert serialize(g) == reference(g) == (
        '{\n  "format_version": "1",\n  "inputs": [],\n  "metadata": {},\n'
        '  "nodes": [],\n  "outputs": []\n}\n')
