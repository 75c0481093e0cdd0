"""Smoke check of the benchmark at the shortest run length.

    python3 bench/smoke_check.py            (from the root of a checkout)
    python3 -m pytest bench/smoke_check.py

For every workload, an untraced and a traced run of one second must emit
exactly the metrics BENCHMARK.json names, each with its unit, with no
failed op and a passing wrapper self-check. The file name keeps it out of
the package's default pytest collection: it takes about a minute.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def _check(workload: str, trace: int) -> None:
    record, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
    if trace:
        assert record["wrapper_self_check"]["unused"] == []
        assert record["wrapper_self_check"]["digests_equal"]
    else:
        assert record["fail_ratio"] == 0.0
        assert result["metrics"]["ok_ratio"]["value"] == 1.0


def test_end_to_end_metrics():
    for workload in SPEC["workloads"]:
        _check(workload["name"], 0)


def test_per_layer_metrics():
    for workload in SPEC["workloads"]:
        _check(workload["name"], 1)


def test_every_traced_function_is_used_by_a_workload():
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    try:
        import tracer
        import workloads
    finally:
        del sys.path[:2]
    used = set()
    for workload in SPEC["workloads"]:
        used |= workloads.make(workload["name"], "unused").uses
    assert used == set(tracer.TARGETS), set(tracer.TARGETS) ^ used


if __name__ == "__main__":
    test_every_traced_function_is_used_by_a_workload()
    test_end_to_end_metrics()
    test_per_layer_metrics()
    print("bench smoke check: ok")
