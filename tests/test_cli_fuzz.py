"""Seeded mutation fuzzing of graph documents through the CLI.

Each mutant of a catalog document goes through ``check``, ``report`` and
``export-dot`` in-process. Whatever the mutation, no command may raise or
print a traceback, every exit code is a documented one, a document that
``check`` accepts is one that the other commands handle, a document that
fails to parse fails to parse for every command, and ``check`` and
``report`` agree on whether a document can be analyzed. Besides mutations
that break a document, some keep every shape intact (a rewired input, a
moved structure tag, a nudged epsilon, a toggled bias), so that mutants
also reach the commands past the parser. A second stream of mutants nudges
one conv, pool or upsampling attribute within its range; those that still
parse also go through ``report --input`` at a second extent, which must
exit 0 or 3.
"""

import collections
import copy
import json
import math
import random
import traceback

import pytest

from dlagraph.analysis import infer_shapes
from dlagraph.cli import main
from dlagraph.graphdoc import parse
from dlagraph.ir import infer_node_shape

MUTANTS_PER_DOCUMENT = 60
NUDGES_PER_DOCUMENT = 30
SECOND_EXTENTS = ("64x64x3", "48x48x3", "24x24x3", "8x8x3")
DOCUMENTS = {"DLA-34": ("classify", "10"), "decoder": ("dense", "19")}
COMMANDS = ("check", "report", "export-dot")

# Replacement values of every JSON type, in and out of the usual ranges.
VALUES = (0, 1, 2, 3, 7, -1, 10 ** 6, 0.5, 1e-5, float("inf"), True, False, None,
          "", "3", "Conv", "fixed_bilinear", [], [1], {}, {"a": 1})


def build_documents(root):
    """Build the source documents into ``root``: {name: parsed JSON}."""
    docs = {}
    for name, (head, classes) in DOCUMENTS.items():
        path = root / ("%s.json" % name)
        assert main(["build", "DLA-34", "--input", "32x32x3", "--classes", classes,
                     "--head", head, "-o", str(path)]) == 0
        docs[name] = json.loads(path.read_text())
    return docs


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return root, build_documents(root)


def _mutate_attrs(rng, doc):
    node = rng.choice([n for n in doc["nodes"] if n["attrs"]])
    attrs = node["attrs"]
    key = rng.choice(sorted(attrs))
    action = rng.randrange(4)
    if action == 0:
        del attrs[key]
        return "drop attr %r of node %d" % (key, node["id"])
    if action == 1:
        attrs[rng.choice((key + "_", "extra"))] = rng.choice(VALUES)
        return "add an attr to node %d" % node["id"]
    if action == 2 and type(attrs[key]) is int:
        attrs[key] += rng.choice((-2, -1, 1, 2))
        return "nudge attr %r of node %d to %r" % (key, node["id"], attrs[key])
    attrs[key] = rng.choice(VALUES)
    return "set attr %r of node %d to %r" % (key, node["id"], attrs[key])


def _mutate_kind(rng, doc):
    node = rng.choice(doc["nodes"])
    node["kind"] = rng.choice(("Conv", "ReLU", "Add", "Concat", "Input", "Output",
                               "Softmax", "Upsample", "Relu", 3, None))
    return "set kind of node %d to %r" % (node["id"], node["kind"])


def _mutate_id(rng, doc):
    nodes = doc["nodes"]
    i = rng.randrange(len(nodes))
    if rng.randrange(3) == 0:
        j = rng.randrange(len(nodes))
        nodes[i], nodes[j] = nodes[j], nodes[i]
        return "swap nodes %d and %d" % (i, j)
    nodes[i]["id"] = rng.choice((i + 1, i - 1, len(nodes), -1, str(i), float(i),
                                 bool(i), None))
    return "set id of node %d to %r" % (i, nodes[i]["id"])


def _mutate_inputs(rng, doc):
    node = rng.choice(doc["nodes"])
    ids = node["inputs"]
    action = rng.randrange(5)
    if action == 0 and ids:
        del ids[rng.randrange(len(ids))]
        return "drop an input of node %d" % node["id"]
    if action == 1 and ids:
        ids.insert(rng.randrange(len(ids) + 1), rng.choice(ids))
        return "duplicate an input of node %d" % node["id"]
    if action == 2 and node["id"] > 0:
        ids.append(rng.randrange(node["id"]))
        return "append an earlier id to node %d" % node["id"]
    if action == 3:
        ids.append(rng.choice((node["id"], node["id"] + 1, len(doc["nodes"]), -1)))
        return "append an out-of-range id to node %d" % node["id"]
    node["inputs"] = rng.choice(VALUES)
    return "set inputs of node %d to %r" % (node["id"], node["inputs"])


def _mutate_tags(rng, doc):
    node = rng.choice(doc["nodes"])
    tags = node["tags"]
    key = rng.choice(("stage", "block_id", "agg_node_id", "color"))
    if key in tags and rng.randrange(3) == 0:
        del tags[key]
        return "drop tag %r of node %d" % (key, node["id"])
    tags[key] = rng.choice(VALUES + ("head", "decoder"))
    return "set tag %r of node %d to %r" % (key, node["id"], tags[key])


def _mutate_top_level(rng, doc):
    key = rng.choice(("format_version", "metadata", "inputs", "outputs", "nodes", "extra"))
    action = rng.randrange(3)
    if action == 0 and key in doc:
        del doc[key]
        return "drop top-level %r" % key
    if action == 1 and key in ("inputs", "outputs", "nodes"):
        n = len(doc["nodes"])
        doc[key] = rng.choice(([], [0], [n - 1], [n - 1, n - 1], [n], [0, n - 1],
                               doc["nodes"][:rng.randrange(1, n)] if key == "nodes" else []))
        return "set top-level %r to a list of %d" % (key, len(doc[key]))
    if key == "metadata" and action == 1:
        doc[key]["input_shape"] = rng.choice(VALUES + ("3x3x3", "64x64x3"))
        return "set metadata input_shape to %r" % doc[key]["input_shape"]
    doc[key] = rng.choice(VALUES)
    return "set top-level %r to %r" % (key, doc[key])


def _rewire_input(rng, doc):
    graph, _ = parse(json.dumps(doc))
    shapes = infer_shapes(graph, infer_node_shape(graph.node(graph.inputs[0]).op, []))
    slots = [(n.id, k) for n in graph.nodes for k, src in enumerate(n.inputs)
             if any(shapes[i] == shapes[src] for i in range(n.id) if i != src)]
    nid, k = rng.choice(slots)
    ids = doc["nodes"][nid]["inputs"]
    src = ids[k]
    ids[k] = rng.choice([i for i in range(nid) if i != src and shapes[i] == shapes[src]])
    return "rewire input %d of node %d from %d to %d" % (k, nid, src, ids[k])


def _move_structure_tag(rng, doc):
    key = rng.choice(("block_id", "agg_node_id"))
    node = rng.choice([n for n in doc["nodes"] if key in n["tags"]])
    others = sorted({n["tags"][key] for n in doc["nodes"] if key in n["tags"]}
                    - {node["tags"][key]})
    node["tags"][key] = rng.choice(others)
    return "move node %d to %s %d" % (node["id"], key, node["tags"][key])


def _nudge_epsilon(rng, doc):
    node = rng.choice([n for n in doc["nodes"] if n["kind"] == "BatchNorm"])
    node["attrs"]["epsilon"] *= rng.choice((0.1, 10.0))
    return "set epsilon of node %d to %r" % (node["id"], node["attrs"]["epsilon"])


def _toggle_bias(rng, doc):
    node = rng.choice([n for n in doc["nodes"] if n["kind"] == "Conv"])
    node["attrs"]["has_bias"] = not node["attrs"]["has_bias"]
    return "toggle the bias of node %d" % node["id"]


MUTATORS = (_mutate_attrs, _mutate_kind, _mutate_id, _mutate_inputs, _mutate_tags,
            _mutate_top_level, _rewire_input, _move_structure_tag, _nudge_epsilon,
            _toggle_bias)


def _nudge_in_range(rng, doc):
    """Set one attribute to another in-range value that mostly keeps the
    shapes fitting: a conv's kernel by 2 with its padding by 1, or its
    groups to another divisor of both widths; a pool's kernel or stride by
    1, or its ceil mode; an upsampling's mode."""
    kind = rng.choice(sorted({n["kind"] for n in doc["nodes"]} & {"Conv", "MaxPool", "Upsample"}))
    node = rng.choice([n for n in doc["nodes"] if n["kind"] == kind])
    attrs = node["attrs"]
    if kind == "Conv":
        width = math.gcd(attrs["in_channels"], attrs["out_channels"])
        groups = [g for g in range(1, width + 1) if width % g == 0 and g != attrs["groups"]]
        if groups and rng.randrange(2):
            key, attrs["groups"] = "groups", rng.choice(groups)
        else:
            step = rng.choice((-1, 1)) if attrs["padding"] else 1
            attrs["kernel"] += 2 * step
            attrs["padding"] += step
            key = "kernel"
    elif kind == "MaxPool":
        key = rng.choice(("kernel", "stride", "ceil_mode"))
        attrs[key] = (not attrs[key] if key == "ceil_mode"
                      else max(1, attrs[key] + rng.choice((-1, 1))))
    else:
        key = "mode"
        attrs[key] = ("fixed_bilinear" if attrs[key] == "learned_transposed_conv"
                      else "learned_transposed_conv")
    return "nudge %s of node %d: %r" % (key, node["id"], attrs)


def nudged(name, doc):
    """The seeded in-range nudges of source document ``name``: (what,
    mutant, second extent) triples."""
    rng = random.Random("dlagraph-nudge-%s" % name)
    for _ in range(NUDGES_PER_DOCUMENT):
        mutant = copy.deepcopy(doc)
        yield _nudge_in_range(rng, mutant), mutant, rng.choice(SECOND_EXTENTS)


def mutants(name, doc):
    """The seeded mutants of source document ``name``: (what, mutant) pairs."""
    rng = random.Random("dlagraph-fuzz-%s" % name)
    for _ in range(MUTANTS_PER_DOCUMENT):
        mutant = copy.deepcopy(doc)
        yield rng.choice(MUTATORS)(rng, mutant), mutant


def _run(capsys, argv):
    try:
        code = main(argv)
    except Exception:  # reported with its mutant, so the loop goes on
        capsys.readouterr()
        return "raised", traceback.format_exc()
    return code, capsys.readouterr().err


def _run_commands(capsys, path, k, what, failures):
    """Exit codes of every command on the document at ``path``; appends to
    ``failures`` what breaks the rules the module docstring states."""
    codes = {}
    for command in COMMANDS:
        code, err = _run(capsys, [command, str(path)])
        if "Traceback" in err:
            failures.append("%d %s: %s %s a traceback:\n%s" % (k, what, command, code, err))
        codes[command] = code
    if any(code not in (0, 1, 2, 3, 4) for code in codes.values()):
        failures.append("%d %s: codes %r" % (k, what, codes))
    elif codes["check"] == 0 and (codes["report"], codes["export-dot"]) != (0, 0):
        failures.append("%d %s: check accepts, yet codes %r" % (k, what, codes))
    elif codes["export-dot"] == 4 and (codes["check"], codes["report"]) != (4, 4):
        failures.append("%d %s: does not parse, yet codes %r" % (k, what, codes))
    elif (codes["check"] == 4) != (codes["report"] == 4):
        failures.append("%d %s: analyzable to one command only, codes %r" % (k, what, codes))
    return codes


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_mutated_documents_keep_exit_codes_consistent(capsys, documents, name):
    root, docs = documents
    path = root / ("%s-mutant.json" % name)
    failures = []
    parsed = 0
    for k, (what, doc) in enumerate(mutants(name, docs[name])):
        path.write_text(json.dumps(doc))
        parsed += _run_commands(capsys, path, k, what, failures)["export-dot"] != 4
    assert not failures, "\n".join(failures)
    # mutants that only reach the parser would leave the other commands unfuzzed
    assert parsed >= MUTANTS_PER_DOCUMENT // 4, "only %d mutants parse" % parsed


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_nudged_documents_report_at_a_second_extent(capsys, documents, name):
    root, docs = documents
    path = root / ("%s-nudged.json" % name)
    failures = []
    second = collections.Counter()
    for k, (what, doc, extent) in enumerate(nudged(name, docs[name])):
        path.write_text(json.dumps(doc))
        if _run_commands(capsys, path, k, what, failures)["export-dot"] == 4:
            continue
        code, err = _run(capsys, ["report", str(path), "--input", extent])
        if "Traceback" in err or code not in (0, 3):
            failures.append("%d %s: report --input %s %s:\n%s" % (k, what, extent, code, err))
        second[code] += 1
    assert not failures, "\n".join(failures)
    # most nudges keep the document parseable, and the second extent both
    # fits some of them and conflicts with others
    assert sum(second.values()) >= NUDGES_PER_DOCUMENT * 2 // 3, second
    assert second[0] and second[3], second
