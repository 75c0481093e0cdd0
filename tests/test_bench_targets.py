import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_label_names_a_package_function():
    # The benchmark's traced runs wrap these functions by name; a rename or
    # deletion in the package would otherwise surface only in a traced run.
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for label in tracer.TARGETS:
        module_name, path = tracer._split(label)
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), label
