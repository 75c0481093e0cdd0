import json
import os
import pathlib
import subprocess
import sys

import pytest

from dlagraph.cli import main
from dlagraph.graphdoc import parse


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
    code, out, _ = run(capsys, "check", str(edited))
    assert code == 1
    assert "ShapeConflict" in out


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


def test_gradcheck_passes_and_reports(capsys):
    code, out, _ = run(capsys, "gradcheck", "DLA-34", "--width-cap", "16",
                       "--input", "16", "--tol", "1e-4", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["max_rel_error"] < 1e-4
    assert payload["samples"] == 200


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
])
def test_gradcheck_zero_count_exits_2_naming_the_flag(capsys, flag, value):
    code, _, err = run(capsys, "gradcheck", "DLA-34", flag, value)
    assert code == 2
    assert flag in err


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
    code, _, err = run(capsys, "report", str(doc_path), "--input", "224x224x4")
    assert code == 3
    assert "--input" in err


def test_build_output_is_byte_identical_across_runs(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(capsys, "build", "DLA-34", "-o", str(a))[0] == 0
    assert run(capsys, "build", "DLA-34", "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


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


def _widen_add(doc):
    add = _first(doc, "Add")
    add["inputs"].append(add["inputs"][0])


def _bool_input_id(doc):
    doc["nodes"][1]["inputs"] = [False]


# (document, mutation, exit codes of check, report and export-dot)
MUTATIONS = {
    "conv-groups-0": ("DLA-34", _set_attr("Conv", "groups", 0), (4, 4, 4)),
    "conv-kernel-0": ("DLA-34", _set_attr("Conv", "kernel", 0), (4, 4, 4)),
    "conv-stride-0": ("decoder", _set_attr("Conv", "stride", 0), (4, 4, 4)),
    "maxpool-kernel-0": ("DLA-34", _set_attr("MaxPool", "kernel", 0), (4, 4, 4)),
    "batchnorm-epsilon-negative": ("decoder", _set_attr("BatchNorm", "epsilon", -1), (4, 4, 4)),
    "upsample-mode-nearest": ("decoder", _set_attr("Upsample", "mode", "nearest"), (4, 4, 4)),
    "upsample-factor-3": ("decoder", _set_attr("Upsample", "factor", 3), (4, 4, 4)),
    "metadata-not-object": ("DLA-34", _set_doc("metadata", 3), (4, 4, 4)),
    "stage-list": ("decoder", _set_tag("stage", [3]), (4, 4, 4)),
    "agg-node-id-str": ("DLA-34", _set_tag("agg_node_id", "0"), (4, 4, 4)),
    "outputs-empty": ("decoder", _set_doc("outputs", []), (1, 4, 0)),
    "add-three-inputs": ("DLA-34", _widen_add, (1, 4, 0)),
    "input-id-bool": ("DLA-34", _bool_input_id, (4, 4, 4)),
    "output-id-bool": ("decoder", _set_doc("outputs", [True]), (4, 4, 4)),
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
        code, _, err = run(capsys, command, str(path))
        assert "Traceback" not in err
        codes.append(code)
    assert tuple(codes) == expected


def test_import_does_not_load_numpy():
    import dlagraph

    src = str(pathlib.Path(dlagraph.__file__).resolve().parents[1])
    probe = subprocess.run([sys.executable, "-c",
                            "import sys, dlagraph; print('numpy' in sys.modules)"],
                           env={**os.environ, "PYTHONPATH": src},
                           capture_output=True, text=True, check=True)
    assert probe.stdout.strip() == "False"
