import importlib.util
import json
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def _mismatched_cases(workloads, name, scratch):
    """Cases whose first op observes differently from refs.json."""
    stored = json.loads((BENCH / "refs.json").read_text())
    wl = workloads.make(name, scratch)
    state = wl.setup()
    try:
        mismatched = []
        for c, case in enumerate(wl.case_names):
            item = (c, 0)
            result = wl.run_op(state, item, wl.prepare(state, item))
            if wl.observe(state, item, result) != stored[name][case][0]:
                mismatched.append(case)
    finally:
        wl.close(state)
    return mismatched


def test_static_catalog_reproduces_the_benchmark_references(tmp_path, monkeypatch):
    # Documents, DOT, check and report output hold no floats, so they are
    # the same on every host: every catalog document must stay byte-identical.
    workloads = _load_workloads(monkeypatch)
    assert _mismatched_cases(workloads, "static-catalog", str(tmp_path)) == []


@pytest.mark.parametrize("name", ["toy-train", "toy-gradcheck"])
def test_toy_workloads_reproduce_the_benchmark_references(name, tmp_path, monkeypatch):
    # The benchmark counts an op whose float64 bits differ from refs.json as
    # failed; replaying one op per case keeps an inexact kernel rewrite from
    # reaching the benchmark unnoticed.
    workloads = _load_workloads(monkeypatch)
    stored = json.loads((BENCH / "refs.json").read_text())
    here = workloads.host()
    if here != stored["host"]:
        pytest.skip("refs.json was recorded on %s, this host is %s" % (stored["host"], here))
    assert _mismatched_cases(workloads, name, str(tmp_path)) == []
