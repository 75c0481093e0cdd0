"""Record bench/refs.json: the observed output of every op the workloads
can run (each case, and each stored batch for toy-train).

    PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 python3 bench/record_refs.py

Run it only on a commit whose outputs are known good: the benchmark
counts every later difference from these references as a failed op.
The toy workloads compare float64 bits, which depend on the CPU and on
the BLAS kernel, so the file also stores the host it was recorded on.
"""

import json
import os
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def record(name: str, scratch_root: str) -> dict:
    wl = workloads.make(name, scratch_root)
    state = wl.setup()
    try:
        refs = {}
        for c, case in enumerate(wl.case_names):
            refs[case] = []
            for variant in range(wl.variants):
                item = (c, variant)
                result = wl.run_op(state, item, wl.prepare(state, item))
                refs[case].append(wl.observe(state, item, result))
    finally:
        wl.close(state)
    return refs


def check_invariants(refs: dict) -> None:
    """Outputs that must hold whatever the commit: fail before writing."""
    for case, observed in refs["static-catalog"].items():
        (o,) = observed
        assert o["exit_codes"] == [0, 0, 0, 0] and o["round_trip"], case
        assert o["check_output"] == "", case
    for case, observed in refs["toy-gradcheck"].items():
        assert observed[0]["passed"], case


def main() -> int:
    scratch = os.path.join(os.getcwd(), ".bench_out", "tmp")
    refs = {name: record(name, scratch)
            for name in ("static-catalog", "toy-train", "toy-gradcheck")}
    check_invariants(refs)
    refs["host"] = workloads.host()
    with open(os.path.join(HERE, "refs.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
