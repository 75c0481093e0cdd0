import importlib.util
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load(monkeypatch, filename):
    name = "bench_" + filename[:-3]
    spec = importlib.util.spec_from_file_location(name, BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["toy-train", "toy-gradcheck", "static-catalog"])
def test_tracer_sees_every_function_the_workloads_use(name, tmp_path, monkeypatch):
    # A traced benchmark run fails its wrapper self-check when a function a
    # workload lists in `uses` shows no calls, as happens when the executor
    # holds a kernel it looked up once instead of calling it through `ops`,
    # passes an argument the tracer reads by position as a keyword, or a
    # static path (builder, serializer, checker) stops calling a listed one.
    tracing = _load(monkeypatch, "tracer.py")
    workloads = _load(monkeypatch, "workloads.py")
    wl = workloads.make(name, str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        state = wl.setup()
        try:
            for c in range(len(wl.case_names)):
                item = (c, 0)
                wl.run_op(state, item, wl.prepare(state, item))
        finally:
            tracer.active = False
            wl.close(state)
        tracer.fold(("test", name))
    finally:
        tracer.uninstall()
    assert sorted(label for label in wl.uses if not tracer.totals[label][0]) == []
