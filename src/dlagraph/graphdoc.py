"""Graph document format and DOT rendering.

Documents are canonical JSON: keys sorted, two-space indent, nodes listed
by ascending id. ``serialize`` writes these bytes itself, rendering each
distinct attrs and tags object once, and tests pin them to
``json.dumps(graph_to_document(...), sort_keys=True, indent=2)``, whose
indenting encoder is pure Python. Serializing a graph twice yields
identical bytes, and parse followed by serialize is byte-idempotent.
Documents are strict JSON: ``PrimOp`` and ``Tags`` admit only strs, bools,
ints and finite floats; ``serialize`` raises ValueError and ``parse``
ParseError on a NaN or infinite metadata value. A document holds exactly
one Input node, and, being a ``Graph``, is shape-consistent at the extents
that node declares, so every document that parses can be analyzed.

``parse`` checks each distinct attrs record and each distinct tags record
once: within one parse, nodes whose records are equal, value types and
key order included, share one ``PrimOp`` or one ``Tags``. So a parsed
graph costs what its distinct ops cost, and ``PrimOp.attrs`` must not be
mutated.
"""

from __future__ import annotations

import json
from typing import Any

from .ir import Graph, GraphError, GraphNode, OpKind, PrimOp, Tags, is_tag_value

FORMAT_VERSION = "1"


class ParseError(Exception):
    """The document is not a well-formed graph description."""


_TAG_KEYS = ("stage", "block_id", "agg_node_id")


def _tags_to_json(tags: Tags) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key in _TAG_KEYS:
        value = getattr(tags, key)
        if value is not None:
            out[key] = value
    return out


def graph_to_document(graph: Graph, metadata: dict[str, Any] | None = None) -> dict:
    nodes = []
    for node in graph.nodes:
        nodes.append({
            "id": node.id,
            "kind": node.op.kind.value,
            "attrs": dict(node.op.attrs),
            "inputs": list(node.inputs),
            "tags": _tags_to_json(node.tags),
        })
    return {
        "format_version": FORMAT_VERSION,
        "metadata": dict(metadata or {}),
        "inputs": list(graph.inputs),
        "outputs": list(graph.outputs),
        "nodes": nodes,
    }


_quote = json.encoder.encode_basestring_ascii
_KIND_TEXT = {kind: _quote(kind.value) for kind in OpKind}
_KIND_OF_TEXT = {kind.value: kind for kind in OpKind}
_RECORD = ('{\n      "attrs": %s,\n      "id": %d,\n      "inputs": %s,\n'
           '      "kind": %s,\n      "tags": %s\n    }')
_DOCUMENT = ('{\n  "format_version": %s,\n  "inputs": %s,\n  "metadata": %s,\n'
             '  "nodes": %s,\n  "outputs": %s\n}\n')


def _value(value: Any) -> str:
    """An attr or tag value, a str, bool, int or finite float, as json.dumps
    writes it, testing types in the encoder's order."""
    if isinstance(value, str):
        return _quote(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    return repr(value)  # an int or a float: PrimOp and Tags admit no subclass


def _array(texts: Any) -> str:
    """A top-level JSON array of encoded items."""
    body = ",\n    ".join(texts)
    return "[\n    %s\n  ]" % body if body else "[]"


def _block(cache: dict, key: tuple, pairs: Any) -> str:
    """The attrs or tags object of a node record from its (key, value)
    ``pairs``, stored in ``cache`` under ``key``."""
    pairs = sorted(pairs)
    text = "{%s\n      }" % ",".join("\n        %s: %s" % (_quote(k), _value(v))
                                       for k, v in pairs) if pairs else "{}"
    cache[key] = text
    return text


def serialize(graph: Graph, metadata: dict[str, Any] | None = None) -> str:
    """The bytes of ``json.dumps(graph_to_document(graph, metadata),
    sort_keys=True, indent=2) + "\\n"``, written without building the document."""
    attr_blocks: dict[tuple, str] = {}
    tag_blocks: dict[tuple, str] = {}
    records = []
    for node in graph.nodes:
        op, tags = node.op, node.tags
        attrs = op.attrs
        values = tuple(attrs.values())
        key = (*attrs, *values, *map(type, values))  # with types, since 1 == 1.0
        try:
            attrs_text = attr_blocks[key]
        except KeyError:
            attrs_text = _block(attr_blocks, key, attrs.items())
        key = (tags.stage, tags.block_id, tags.agg_node_id)  # an int never equals a str
        try:
            tags_text = tag_blocks[key]
        except KeyError:
            tags_text = _block(tag_blocks, key, _tags_to_json(tags).items())
        inputs = node.inputs
        records.append(_RECORD % (
            attrs_text, node.id,
            "[\n        %s\n      ]" % ",\n        ".join(map(str, inputs)) if inputs else "[]",
            _KIND_TEXT[op.kind], tags_text))
    return _DOCUMENT % (
        _quote(FORMAT_VERSION), _array(map(str, graph.inputs)),
        json.dumps(dict(metadata or {}), sort_keys=True, indent=2,
                   allow_nan=False).replace("\n", "\n  "),
        _array(records), _array(map(str, graph.outputs)))


def _expect(condition: bool, message: str, *args: Any) -> None:
    """Raise ParseError(message % args) unless ``condition`` holds; the
    message is formatted only when it is raised."""
    if not condition:
        raise ParseError(message % args)


_NODE_KEYS = ("id", "kind", "attrs", "inputs", "tags")
_NODE_KEY_SET = frozenset(_NODE_KEYS)
_TAG_SET = frozenset(_TAG_KEYS)


def _parse_node(record: Any, position: int, op_cache: dict[tuple, PrimOp],
                tag_cache: dict[tuple, Tags]) -> GraphNode:
    """One node record. Nodes with equal attrs records share the checked
    ``PrimOp`` that ``op_cache`` holds for them, and nodes with equal tags
    records the ``Tags`` that ``tag_cache`` holds; a record is checked when
    its key first shows up. Keys hold the values' types, since
    ``True == 1 == 1.0``; a record with an unhashable value is checked, and
    rejected, every time."""
    # Checks raise inline rather than through _expect: they run on every node.
    if not isinstance(record, dict):
        raise ParseError("node record %d is not an object" % position)
    if not record.keys() >= _NODE_KEY_SET:
        missing = next(key for key in _NODE_KEYS if key not in record)
        raise ParseError("node record %d lacks %r" % (position, missing))
    attrs, inputs, tags_json = record["attrs"], record["inputs"], record["tags"]
    if not isinstance(attrs, dict):
        raise ParseError("attrs of node %d is not an object" % position)
    if not isinstance(inputs, list):
        raise ParseError("inputs of node %d must be a list of ids" % position)
    if not (isinstance(tags_json, dict) and tags_json.keys() <= _TAG_SET):
        raise ParseError("tags of node %d carry unknown keys" % position)
    values = tuple(tags_json.values())
    tag_key = (*tags_json, *values, *map(type, values))  # a missing tag is no null
    try:
        tags = tag_cache.get(tag_key)
    except TypeError:  # an unhashable value, which the check below rejects
        tags = None
    if tags is None:
        for key, value in tags_json.items():
            if not is_tag_value(key, value):
                raise ParseError("tag %r of node %d has the wrong type: %r"
                                 % (key, position, value))
        tags = tag_cache[tag_key] = Tags(tags_json.get("stage"), tags_json.get("block_id"),
                                         tags_json.get("agg_node_id"))
    text = record["kind"]
    values = tuple(attrs.values())
    op_key = (text, *attrs, *values, *map(type, values))
    try:
        op = op_cache.get(op_key)
    except TypeError:  # an unhashable kind or value, which PrimOp rejects
        op = None
    try:  # OpKind(text) says why text names no kind
        if op is None:
            kind = _KIND_OF_TEXT.get(text) if type(text) is str else None
            op = op_cache[op_key] = PrimOp(kind or OpKind(text), dict(attrs))
        return GraphNode(record["id"], op, tuple(inputs), tags)
    except (ValueError, GraphError) as exc:
        raise ParseError("node %d: %s" % (position, exc)) from None


def parse(text: str) -> tuple[Graph, dict[str, Any]]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("not valid JSON: %s" % exc) from None
    _expect(isinstance(doc, dict), "document root is not an object")
    for key in ("format_version", "metadata", "inputs", "outputs", "nodes"):
        _expect(key in doc, "document lacks %r", key)
    _expect(doc["format_version"] == FORMAT_VERSION,
            "unsupported format_version %r", doc["format_version"])
    _expect(isinstance(doc["metadata"], dict), "metadata is not an object")
    try:  # serialize's own test, so a document that parses serializes again
        json.dumps(doc["metadata"], allow_nan=False)
    except ValueError:
        raise ParseError("metadata holds a NaN or infinite number") from None
    raw_nodes = doc["nodes"]
    _expect(isinstance(raw_nodes, list) and raw_nodes, "document has no nodes")
    op_cache: dict[tuple, PrimOp] = {}
    tag_cache: dict[tuple, Tags] = {}
    nodes = tuple(_parse_node(rec, i, op_cache, tag_cache)
                  for i, rec in enumerate(raw_nodes))
    for key in ("inputs", "outputs"):
        _expect(isinstance(doc[key], list), "%s list is not a list of node ids", key)
    try:
        graph = Graph(nodes, tuple(doc["inputs"]), tuple(doc["outputs"]))
    except GraphError as exc:
        raise ParseError(str(exc)) from None
    _expect(len(graph.inputs) == 1, "document has %d Input nodes, not one", len(graph.inputs))
    return graph, dict(doc["metadata"])


def to_dot(graph: Graph, collapse: str = "none") -> str:
    """Render as a DOT digraph. ``collapse="blocks"`` folds every tagged
    block and aggregation node into one vertex each; aggregation vertices
    use the diamond shape in either mode."""
    if collapse not in ("none", "blocks"):
        raise ValueError("collapse must be 'none' or 'blocks'")
    lines = ["digraph dla {", "  rankdir=TB;"]
    vertex = {}
    emitted = set()
    for node in graph.nodes:
        tags = node.tags
        name, label = "n%d" % node.id, None
        if tags.agg_node_id is not None:
            shape = "diamond"
            if collapse == "blocks":
                name, label = "a%d" % tags.agg_node_id, "agg %d" % tags.agg_node_id
        elif tags.block_id is not None:
            shape = "box"
            if collapse == "blocks":
                name, label = "b%d" % tags.block_id, "block %d" % tags.block_id
        else:
            shape = "ellipse"
        vertex[node.id] = name
        if name not in emitted:
            emitted.add(name)
            lines.append('  %s [label="%s", shape=%s];' % (name, label or node.op.label(), shape))

    seen_edges = set()
    for node in graph.nodes:
        for src in node.inputs:
            edge = (vertex[src], vertex[node.id])
            if edge[0] == edge[1] or edge in seen_edges:
                continue
            seen_edges.add(edge)
            lines.append("  %s -> %s;" % edge)
    lines.append("}")
    return "\n".join(lines) + "\n"
