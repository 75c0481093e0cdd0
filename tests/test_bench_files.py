"""The paired benchmark results kept at the repository root, ``BENCH_*.json``,
as ``tools/bench_pairs.py`` writes them: their schema, and that no op of any
run failed. Nothing here times anything."""

import importlib.util
import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted(ROOT.glob("BENCH_*.json"))
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = DECLARED["end_to_end"]
SIDES = ("parent", "change")


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_repository_keeps_a_bench_file():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_file_schema_and_ok_ratio(path):
    doc = json.loads(path.read_text())
    assert doc["schema"] == _load_tool().SCHEMA
    assert doc["label"] == path.stem[len("BENCH_"):]
    assert doc["pairs"] >= 1 and doc["seconds"] > 0
    assert {"cpu_model", "numpy_simd", "blas_core"} <= set(doc["host"])
    for side in SIDES:
        assert re.fullmatch("[0-9a-f]{40}", doc["commits"][side]["commit"]), side
    assert doc["workloads"]
    for name, workload in doc["workloads"].items():
        for side in SIDES:
            summary = workload[side]
            assert summary["ok_ratio"] == 1.0, (name, side)
            assert len(summary["runs"]) == doc["pairs"], (name, side)
            for metric in END_TO_END:
                for kind in ("scaled", "unscaled"):
                    q = summary["metrics"][metric["name"]][kind]
                    assert q["q1"] <= q["median"] <= q["q3"], (name, side, metric, kind)
        assert "wins" in workload, name
        # files written before unscaled wins were counted lack wins_unscaled
        for key in sorted({"wins", "wins_unscaled"} & set(workload)):
            wins = workload[key]
            assert set(wins) == {m["name"] for m in END_TO_END}, (name, key)
            assert all(0 <= n <= doc["pairs"] for n in wins.values()), (name, key)
        for side, traced in workload.get("traced", {}).items():  # optional per-layer data
            assert side in SIDES, (name, side)
            assert traced["correct"], (name, side)
            assert traced["wrapper_self_check"] == {"unused": [], "digests_equal": True}, \
                (name, side)
            assert {m["name"] for m in DECLARED["per_layer"]} <= set(traced["metrics"]), \
                (name, side)


def test_summary_counts_a_win_in_each_metric_direction():
    tool = _load_tool()
    metrics = [{"name": "throughput_per_s", "better": "higher"},
               {"name": "latency_ms.p50", "better": "lower"}]

    def run(throughput, latency, unscaled_throughput=None):
        values = {"throughput_per_s": throughput, "latency_ms.p50": latency,
                  "ok_ratio": 1.0}
        unscaled = {**values, "throughput_per_s": unscaled_throughput or throughput}
        return {"scaled": values, "unscaled": unscaled, "host_matches_refs": True,
                "source_sha256": "0" * 64}

    runs = {"parent": [run(10.0, 5.0), run(10.0, 5.0), run(12.0, 4.0)],
            "change": [run(11.0, 6.0, 9.0), run(10.0, 4.0, 11.0), run(13.0, 3.0, 11.0)]}
    summary = tool.summarize(runs, metrics)
    assert summary["wins"] == {"throughput_per_s": 2, "latency_ms.p50": 2}
    assert summary["wins_unscaled"] == {"throughput_per_s": 1, "latency_ms.p50": 2}
    assert summary["parent"]["metrics"]["throughput_per_s"]["scaled"] == \
        {"q1": 10.0, "median": 10.0, "q3": 11.0}
    assert summary["change"]["ok_ratio"] == 1.0
