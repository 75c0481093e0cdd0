import errno
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from dlagraph.architectures import build_toy_classifier
from dlagraph.cli import _build_parser, main
from dlagraph.graphdoc import parse, serialize, to_dot


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "dla46c.json"
    code = main(["build", "DLA-46-C", "--input", "224x224x3", "--classes", "1000",
                 "--head", "classify", "-o", str(path)])
    assert code == 0
    return path


def test_build_writes_parseable_document(doc_path):
    graph, metadata = parse(doc_path.read_text())
    assert metadata["arch_name"] == "DLA-46-C"
    assert metadata["input_shape"] == "224x224x3"
    assert len(graph.outputs) == 1


def test_build_unknown_architecture_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "build", "DLA-99", "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert "unknown architecture" in err


def test_build_indivisible_input_exits_3(capsys, tmp_path):
    code, _, _ = run(capsys, "build", "DLA-34", "--input", "225x224x3",
                     "-o", str(tmp_path / "x.json"))
    assert code == 3


def test_build_malformed_shape_exits_2(capsys, tmp_path):
    code, _, _ = run(capsys, "build", "DLA-34", "--input", "224by224",
                     "-o", str(tmp_path / "x.json"))
    assert code == 2


def test_report_emits_cost_and_structure(capsys, doc_path):
    code, out, _ = run(capsys, "report", str(doc_path))
    assert code == 0
    payload = json.loads(out)
    assert 1.17e6 <= payload["params"] <= 1.43e6
    assert 0.49e9 <= payload["fmas"] <= 0.67e9
    assert payload["blocks"] == 12
    assert payload["agg_nodes"] == 6
    assert payload["per_stage_hda_depth"] == {"3": 1, "4": 2, "5": 2, "6": 1}
    assert set(payload["per_stage"]) == {"1", "2", "3", "4", "5", "6", "head"}


def test_report_truncated_file_exits_4(capsys, tmp_path):
    bad = tmp_path / "trunc.json"
    bad.write_text('{"format_version": "1", "nodes": [')
    code, _, _ = run(capsys, "report", str(bad))
    assert code == 4


def test_report_missing_file_exits_4(capsys, tmp_path):
    code, _, _ = run(capsys, "report", str(tmp_path / "nope.json"))
    assert code == 4


def test_export_dot_emits_digraph(capsys, doc_path):
    code, out, _ = run(capsys, "export-dot", str(doc_path), "--collapse", "blocks")
    assert code == 0
    assert out.startswith("digraph dla {")
    assert out.rstrip().endswith("}")


def test_export_dot_empty_file_exits_4(capsys, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    code, _, _ = run(capsys, "export-dot", str(empty))
    assert code == 4


@pytest.mark.parametrize("command", ["check", "report", "export-dot"])
def test_document_that_is_not_utf8_exits_4(capsys, tmp_path, command):
    bad = tmp_path / "latin.json"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, command, str(bad))
    assert code == 4
    assert out == ""
    assert err.startswith("dlagraph: %s is not UTF-8 text: " % bad)


@pytest.mark.parametrize("command", ["check", "report", "export-dot"])
def test_document_that_nests_too_deeply_exits_4(capsys, tmp_path, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 1000 + "]" * 1000)
    code, out, err = run(capsys, command, str(deep))
    assert (code, out, err) == (4, "", "dlagraph: document nests too deeply to parse\n")


def test_argument_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_report_override_does_not_carry_into_the_next_call(capsys, doc_path):
    code, out, _ = run(capsys, "report", str(doc_path), "--input", "32x32x3")
    assert code == 0 and json.loads(out)["input_shape"] == "32x32x3"
    code, out, _ = run(capsys, "report", str(doc_path))
    assert code == 0 and json.loads(out)["input_shape"] == "224x224x3"


def test_collapse_does_not_carry_into_the_next_call(capsys, doc_path):
    code, collapsed, _ = run(capsys, "export-dot", str(doc_path), "--collapse", "blocks")
    assert code == 0
    code, out, _ = run(capsys, "export-dot", str(doc_path))
    assert code == 0
    graph, _ = parse(doc_path.read_text())
    assert out == to_dot(graph) != collapsed


def test_rejected_arguments_do_not_change_the_next_call(capsys, doc_path):
    before = run(capsys, "report", str(doc_path))
    for argv in (["report", str(doc_path), "--collapse", "blocks"],
                 ["export-dot", str(doc_path), "--collapse", "all"], ["report"], []):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().err.startswith("usage: dlagraph")
    assert run(capsys, "report", str(doc_path)) == before


def test_check_accepts_catalog_document(capsys, doc_path):
    code, out, _ = run(capsys, "check", str(doc_path))
    assert code == 0
    assert out == ""


def test_check_flags_edited_channel_attribute(capsys, doc_path, tmp_path):
    doc = json.loads(doc_path.read_text())
    conv = next(n for n in doc["nodes"] if n["kind"] == "Conv")
    conv["attrs"]["out_channels"] += 1
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(edited))
    assert code == 4
    assert out == ""
    assert "node 2: batchnorm expects 16 channels, got 17" in err


def test_check_flags_edited_structure_tag(capsys, doc_path, tmp_path):
    doc = json.loads(doc_path.read_text())
    moved = next(n for n in doc["nodes"]
                 if n["tags"].get("stage") == 4 and "agg_node_id" in n["tags"])
    target = moved["tags"]["agg_node_id"]
    for n in doc["nodes"]:
        if n["tags"].get("agg_node_id") == target:
            n["tags"]["stage"] = 3
    edited = tmp_path / "edited_tags.json"
    edited.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", str(edited))
    assert code == 1
    assert "StructureViolation" in out



def test_check_flags_nudged_linear_in_features(capsys, doc_path, tmp_path):
    doc = json.loads(doc_path.read_text())
    linear = next(n for n in doc["nodes"] if n["kind"] == "Linear")
    features = linear["attrs"]["in_features"]
    linear["attrs"]["in_features"] += 1
    edited = tmp_path / "edited_linear.json"
    edited.write_text(json.dumps(doc))
    for command in ("check", "report", "export-dot"):
        code, out, err = run(capsys, command, str(edited))
        assert code == 4
        assert out == ""
        assert "node %d: linear expects %d features, got %d" % (
            linear["id"], features + 1, features) in err


def test_report_on_untagged_document_prints_zero_structure_fields(capsys, doc_path, tmp_path):
    doc = json.loads(doc_path.read_text())
    for node in doc["nodes"]:
        node["tags"] = {}
    untagged = tmp_path / "untagged.json"
    untagged.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "report", str(untagged))
    assert code == 0
    payload = json.loads(out)
    assert {k: payload[k] for k in ("blocks", "agg_nodes", "max_root_fanin",
                                    "max_block_to_output_hops", "per_stage_hda_depth")} == {
        "blocks": 0, "agg_nodes": 0, "max_root_fanin": 0, "max_block_to_output_hops": 0,
        "per_stage_hda_depth": {}}
    assert payload["per_stage"] == {"untagged": {"params": payload["params"],
                                                 "fmas": payload["fmas"]}}

def test_gradcheck_passes_and_reports(capsys):
    code, out, _ = run(capsys, "gradcheck", "DLA-34", "--width-cap", "16",
                       "--input", "16", "--tol", "1e-4", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["max_rel_error"] < 1e-4
    assert payload["samples"] == 200



def test_gradcheck_dense_head_passes_and_reports(capsys):
    # a seed whose 20 samples sit away from ReLU and pool kinks, as the
    # acceptance suite pins its points
    code, out, _ = run(capsys, "gradcheck", "DLA-34", "--head", "dense", "--input", "32",
                       "--samples", "20", "--seed", "29")
    assert code == 0
    payload = json.loads(out)
    assert (payload["head"], payload["input_hw"], payload["samples"]) == ("dense", 32, 20)
    assert payload["passed"] is True

def test_gradcheck_corrupted_backward_exits_1(capsys):
    code, out, _ = run(capsys, "gradcheck", "DLA-34", "--width-cap", "16",
                       "--input", "16", "--tol", "1e-4", "--seed", "1",
                       "--debug-corrupt-backward")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_gradcheck_zero_tolerance_exits_1(capsys):
    code, out, _ = run(capsys, "gradcheck", "DLA-34", "--width-cap", "16",
                       "--input", "16", "--tol", "0", "--seed", "1", "--samples", "20")
    assert code == 1


def test_gradcheck_unknown_architecture_exits_2(capsys):
    code, _, _ = run(capsys, "gradcheck", "DLA-1000", "--seed", "1")
    assert code == 2


@pytest.mark.parametrize("flag, value", [
    pytest.param("--samples", "0", id="--samples"),
    pytest.param("--batch", "0", id="--batch"),
    pytest.param("--epsilon", "0", id="--epsilon-0"),
    pytest.param("--epsilon", "nan", id="--epsilon-nan"),
    pytest.param("--tol", "nan", id="--tol-nan"),
    pytest.param("--tol", "-1", id="--tol-negative"),
    pytest.param("--tol", "inf", id="--tol-inf"),
    pytest.param("--seed", "-1", id="--seed"),
])
def test_gradcheck_zero_count_exits_2_naming_the_flag(capsys, flag, value):
    code, _, err = run(capsys, "gradcheck", "DLA-34", flag, value)
    assert code == 2
    assert flag in err


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's would reach stderr
def test_gradcheck_nan_error_prints_null_and_exits_1(capsys):
    # at a step this large the perturbed forward overflows, so every
    # central difference is NaN
    def reject(token):
        raise ValueError("not RFC 8259 JSON: %s" % token)

    code, out, err = run(capsys, "gradcheck", "DLA-34", "--epsilon", "1e308", "--samples", "2")
    assert code == 1
    assert all(line.startswith("dlagraph: ") for line in err.splitlines())
    payload = json.loads(out, parse_constant=reject)
    assert payload["max_rel_error"] is None and payload["passed"] is False
    assert payload["worst"]["numeric"] is None


def test_gradcheck_odd_input_exits_3(capsys):
    code, _, err = run(capsys, "gradcheck", "DLA-34", "--input", "15")
    assert code == 3
    assert "must at least be even" in err


def test_gradcheck_width_cap_off_the_multiples_of_4_exits_2(capsys):
    code, _, err = run(capsys, "gradcheck", "DLA-34", "--width-cap", "6")
    assert code == 2
    assert "width cap must be a positive multiple of 4" in err


def test_failed_rename_exits_2_and_leaves_no_temp_file(capsys, monkeypatch, tmp_path):
    def fail(src, dst):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES))

    monkeypatch.setattr(os, "replace", fail)
    code, _, err = run(capsys, "build", "DLA-34", "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert "cannot write" in err
    assert list(tmp_path.iterdir()) == []


def test_build_dense_head_and_report(capsys, tmp_path):
    path = tmp_path / "dense.json"
    code, _, _ = run(capsys, "build", "DLA-34", "--input", "224x224x3",
                     "--classes", "19", "--head", "dense", "-o", str(path))
    assert code == 0
    code, out, _ = run(capsys, "report", str(path))
    assert code == 0
    payload = json.loads(out)
    assert "decoder" in payload["per_stage"]


def test_report_input_override_rescales_fmas(capsys, doc_path):
    code, out, _ = run(capsys, "report", str(doc_path))
    base = json.loads(out)
    code, out, _ = run(capsys, "report", str(doc_path), "--input", "448x448x3")
    assert code == 0
    bigger = json.loads(out)
    assert bigger["params"] == base["params"]
    assert bigger["fmas"] > 3.9 * base["fmas"]


def test_report_input_override_with_wrong_channels_exits_3(capsys, doc_path):
    code, out, err = run(capsys, "report", str(doc_path), "--input", "224x224x4")
    assert (code, out) == (3, "")
    # the graph built again at those extents names the first node that does not fit
    assert err == ("dlagraph: --input 224x224x4 does not fit the document: "
                   "node 1: conv expects 3 channels, got 4\n")


def test_report_input_at_the_documents_own_extents_prints_plain_reports_bytes(capsys,
                                                                              doc_path):
    plain = run(capsys, "report", str(doc_path))
    assert run(capsys, "report", str(doc_path), "--input", "224x224x3") == plain
    assert plain[0] == 0


def test_build_output_is_byte_identical_across_runs(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(capsys, "build", "DLA-34", "-o", str(a))[0] == 0
    assert run(capsys, "build", "DLA-34", "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("target", ["nodir/x.json", ""], ids=["missing-parent", "directory"])
def test_build_unwritable_output_exits_2_naming_the_path(capsys, tmp_path, target):
    out = tmp_path / "out"
    out.mkdir()
    path = str(out / target)
    code, _, err = run(capsys, "build", "DLA-34", "-o", path)
    assert code == 2
    assert path in err and err.count("\n") == 1
    # no temp file in the target's directory or in its parent
    assert [p.name for p in tmp_path.rglob("*")] == ["out"]


class _ClosedStdout(io.TextIOWrapper):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


@pytest.mark.parametrize("command", ["report", "export-dot"])
def test_closed_stdout_exits_141_without_traceback(capsys, monkeypatch, tmp_path, doc_path,
                                                   command):
    with _ClosedStdout(open(tmp_path / "stdout", "wb")) as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main([command, str(doc_path)])
    assert code == 141
    assert capsys.readouterr().err == ""


@pytest.fixture(scope="module")
def catalog_docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutated")
    docs = {}
    for name, head, classes in (("DLA-34", "classify", 1000), ("decoder", "dense", 19)):
        path = root / ("%s.json" % name)
        assert main(["build", "DLA-34", "--input", "224x224x3", "--classes", str(classes),
                     "--head", head, "-o", str(path)]) == 0
        docs[name] = path.read_text()
    return root, docs


def _first(doc, kind):
    return next(n for n in doc["nodes"] if n["kind"] == kind)


def _set_attr(kind, key, value):
    def mutate(doc):
        _first(doc, kind)["attrs"][key] = value
    return mutate


def _set_tag(key, value):
    def mutate(doc):
        next(n for n in doc["nodes"] if key in n["tags"])["tags"][key] = value
    return mutate


def _set_doc(key, value):
    def mutate(doc):
        doc[key] = value
    return mutate


def _set_inputs(kind, pick):
    def mutate(doc):
        node = _first(doc, kind)
        node["inputs"] = pick(node["inputs"])
    return mutate


def _relu_becomes_input(doc):
    relu = _first(doc, "ReLU")
    relu["kind"] = "Input"
    relu["attrs"] = dict(doc["nodes"][0]["attrs"])  # keeps its one input


def _set_metadata_input_shape(value):
    def mutate(doc):
        doc["metadata"]["input_shape"] = value
    return mutate


def _second_input_node(doc):
    nid = len(doc["nodes"])
    doc["nodes"].append(dict(doc["nodes"][0], id=nid))
    doc["inputs"].append(nid)


def _bool_input_id(doc):
    doc["nodes"][1]["inputs"] = [False]


def _all(*mutations):
    def mutate(doc):
        for m in mutations:
            m(doc)
    return mutate


# (document, mutation, exit codes of check, report and export-dot)
MUTATIONS = {
    "conv-groups-0": ("DLA-34", _set_attr("Conv", "groups", 0), (4, 4, 4)),
    "conv-kernel-0": ("DLA-34", _set_attr("Conv", "kernel", 0), (4, 4, 4)),
    "conv-stride-0": ("decoder", _set_attr("Conv", "stride", 0), (4, 4, 4)),
    "maxpool-kernel-0": ("DLA-34", _set_attr("MaxPool", "kernel", 0), (4, 4, 4)),
    "batchnorm-epsilon-negative": ("decoder", _set_attr("BatchNorm", "epsilon", -1), (4, 4, 4)),
    "batchnorm-epsilon-infinity": ("DLA-34", _set_attr("BatchNorm", "epsilon", float("inf")),
                                   (4, 4, 4)),
    "upsample-mode-nearest": ("decoder", _set_attr("Upsample", "mode", "nearest"), (4, 4, 4)),
    "upsample-factor-3": ("decoder", _set_attr("Upsample", "factor", 3), (4, 4, 4)),
    "metadata-not-object": ("DLA-34", _set_doc("metadata", 3), (4, 4, 4)),
    "stage-list": ("decoder", _set_tag("stage", [3]), (4, 4, 4)),
    "agg-node-id-str": ("DLA-34", _set_tag("agg_node_id", "0"), (4, 4, 4)),
    "outputs-empty": ("decoder", _set_doc("outputs", []), (1, 0, 0)),
    "add-three-inputs": ("DLA-34", _set_inputs("Add", lambda ids: ids + ids[:1]), (4, 4, 4)),
    "add-one-input": ("decoder", _set_inputs("Add", lambda ids: ids[:1]), (4, 4, 4)),
    "relu-no-inputs": ("DLA-34", _set_inputs("ReLU", lambda ids: []), (4, 4, 4)),
    "relu-two-inputs": ("decoder", _set_inputs("ReLU", lambda ids: ids * 2), (4, 4, 4)),
    "concat-one-input": ("DLA-34", _set_inputs("Concat", lambda ids: ids[:1]), (4, 4, 4)),
    "output-no-inputs": ("decoder", _set_inputs("Output", lambda ids: []), (4, 4, 4)),
    "input-with-input": ("DLA-34", _relu_becomes_input, (4, 4, 4)),
    "metadata-input-shape-disagrees": ("DLA-34", _set_metadata_input_shape("3x3x3"), (0, 0, 0)),
    "metadata-input-shape-malformed": ("decoder", _set_metadata_input_shape(224), (0, 0, 0)),
    "input-id-bool": ("DLA-34", _bool_input_id, (4, 4, 4)),
    "output-id-bool": ("decoder", _set_doc("outputs", [True]), (4, 4, 4)),
    "batchnorm-channels-257": ("DLA-34", _set_attr("BatchNorm", "channels", 257), (4, 4, 4)),
    "outputs-empty-batchnorm-channels-257": (
        "decoder", _all(_set_doc("outputs", []), _set_attr("BatchNorm", "channels", 257)),
        (4, 4, 4)),
    "second-input-node": ("DLA-34", _second_input_node, (4, 4, 4)),
}


@pytest.mark.parametrize("case", sorted(MUTATIONS))
def test_mutated_document_gets_documented_exit_code(capsys, catalog_docs, case):
    root, docs = catalog_docs
    name, mutate, expected = MUTATIONS[case]
    doc = json.loads(docs[name])
    mutate(doc)
    path = root / ("%s.json" % case)
    path.write_text(json.dumps(doc))
    codes = []
    for command in ("check", "report", "export-dot"):
        code, out, err = run(capsys, command, str(path))
        assert "Traceback" not in err
        codes.append(code)
        if command == "report" and code == 0:  # the Input node's extents, never metadata
            extents = doc["nodes"][0]["attrs"]
            assert json.loads(out)["input_shape"] == "%(height)dx%(width)dx%(channels)d" % extents
    assert tuple(codes) == expected


def test_check_names_the_shapes_of_an_add_whose_operands_differ(capsys, tmp_path):
    doc = json.loads(serialize(build_toy_classifier("DLA-34", 16, 16)))
    _first(doc, "Add")["inputs"][1] = 0
    path = tmp_path / "add.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "check", str(path)) == (4, "", (
        "dlagraph: node 16: add operands differ: TensorShape(channels=16, height=4, width=4)"
        " vs TensorShape(channels=3, height=16, width=16)\n"))


def test_import_does_not_load_numpy():
    import dlagraph

    src = str(pathlib.Path(dlagraph.__file__).resolve().parents[1])
    probe = subprocess.run([sys.executable, "-c",
                            "import sys, dlagraph; print('numpy' in sys.modules)"],
                           env={**os.environ, "PYTHONPATH": src},
                           capture_output=True, text=True, check=True)
    assert probe.stdout.strip() == "False"
